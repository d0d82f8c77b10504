// Package perfengine holds the engine-level shared benchmark bodies. It
// lives apart from internal/perf so that package stays import-cycle-free
// for the engine's own tests (perfengine imports engine; perf does not).
package perfengine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
)

// IngestChannelSweep is the canonical channel fan-in sweep for engine
// ingest throughput.
var IngestChannelSweep = []int{1, 8, 64}

// IngestBatchSweep is the canonical ingest batch-size sweep: batch 1 is
// the per-message tax in full, batch 256 is a goal-moment burst with the
// tax amortized away.
var IngestBatchSweep = []int{1, 16, 256}

// ErrSink captures failures from benchmark goroutines. testing.Benchmark
// exposes no failure signal to its caller, and b.Error during the timed
// ramp still yields a partial result with N > 0 — so the same-run gates
// check the sink to reject results from short-circuited runs instead of
// judging a ratio on them.
type ErrSink struct {
	mu  sync.Mutex
	err error
}

// Set records the first error.
func (s *ErrSink) Set(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err returns the first recorded error, if any.
func (s *ErrSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// MultiChannelIngest streams the full simulated broadcast into `channels`
// concurrent engine sessions per iteration and reports msgs/sec — the
// historical series, pinned at batch size 64. Failures go to b.Error and,
// when sink is non-nil, are also recorded there for testing.Benchmark
// callers.
func MultiChannelIngest(init *core.Initializer, msgs []chat.Message, channels int, sink *ErrSink) func(*testing.B) {
	return BurstIngest(init, msgs, channels, 64, sink)
}

// BurstIngest is the batched-ingest throughput benchmark: `channels`
// concurrent sessions each stream the full simulated broadcast in Ingest
// calls of `batch` messages. Batch 1 pays the whole per-message tax (one
// envelope, one lock hop, one worker wake-up per message); large batches
// amortize it down to the detector's own per-message cost. Reports
// msgs/sec.
func BurstIngest(init *core.Initializer, msgs []chat.Message, channels, batch int, sink *ErrSink) func(*testing.B) {
	return func(b *testing.B) {
		fail := func(err error) {
			if sink != nil {
				sink.Set(err)
			}
			b.Error(err)
		}
		ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
		if err != nil {
			fail(err)
			return
		}
		eng, err := engine.New(init, ext, engine.Config{Warmup: -1})
		if err != nil {
			fail(err)
			return
		}
		defer eng.Close(context.Background())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < channels; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					id := fmt.Sprintf("perf-i%d-c%d", i, c)
					s, err := eng.Sessions().GetOrOpen(id)
					if err != nil {
						fail(err)
						return
					}
					for j := 0; j < len(msgs); j += batch {
						end := j + batch
						if end > len(msgs) {
							end = len(msgs)
						}
						if err := s.Ingest(msgs[j:end]...); err != nil {
							fail(err)
							return
						}
					}
					if _, err := s.Flush(context.Background()); err != nil {
						fail(err)
					}
					eng.Sessions().Remove(id)
				}(c)
			}
			wg.Wait()
		}
		b.StopTimer()
		total := float64(b.N) * float64(channels) * float64(len(msgs))
		b.ReportMetric(total/b.Elapsed().Seconds(), "msgs/sec")
	}
}

// BatchIngestSteadyState is the allocation gate for the batched mailbox
// path: one warmed live session repeatedly ingests the same `batch`-sized
// burst landing in the open window. The measured op covers the full
// Session.Ingest hop — watermark validation, pooled buffer copy, ring
// enqueue, worker dispatch, and the detector feeding the whole slice —
// and must run at 0 allocs/op: buffers come from the pool, the mailbox
// ring reuses its backing array, and steady-state Feed is allocation-free
// by the PR-2 contract. A bounded Pending backpressure spin keeps the
// producer from outrunning the worker (an unbounded backlog would defeat
// buffer recycling and measure queue growth instead of the hot path).
func BatchIngestSteadyState(init *core.Initializer, msgs []chat.Message, batch int) func(*testing.B) {
	return func(b *testing.B) {
		pool := msgs
		if len(pool) > 512 {
			pool = pool[:512]
		}
		ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(init, ext, engine.Config{Warmup: -1, SessionWorkers: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close(context.Background())
		s, err := eng.Sessions().GetOrOpen("bench")
		if err != nil {
			b.Fatal(err)
		}

		// Warm exactly like perf.FeedSteadyState, but through the session:
		// stream four windows so closed windows sit pending under the δ
		// horizon, then hold the clock mid-window and warm the open
		// window's vocabulary.
		size := init.Config().WindowSize
		n := 0
		for t := 0.0; t < 4*size; t += size / 64 {
			if err := s.Ingest(chat.Message{Time: t, Text: pool[n%len(pool)].Text}); err != nil {
				b.Fatal(err)
			}
			n++
		}
		hold := 4*size + size/2
		for i := 0; i < len(pool); i++ {
			if err := s.Ingest(chat.Message{Time: hold, Text: pool[i].Text}); err != nil {
				b.Fatal(err)
			}
		}
		// The measured burst: `batch` messages at the hold timestamp, so
		// every Feed lands in the open window and nothing emits.
		burst := make([]chat.Message, batch)
		for i := range burst {
			burst[i] = chat.Message{Time: hold, User: "u", Text: pool[i%len(pool)].Text}
		}
		waitDrained(s, 0)

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Ingest(burst...); err != nil {
				b.Fatal(err)
			}
			waitDrained(s, 2)
		}
		b.StopTimer()
		waitDrained(s, 0)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/msg")
	}
}

// waitDrained spins (allocation-free) until the session's mailbox holds at
// most `limit` envelopes.
func waitDrained(s *engine.Session, limit int) {
	for s.Pending() > limit {
		runtime.Gosched()
	}
}

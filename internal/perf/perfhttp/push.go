// Push fan-out benchmark bodies: the delivery half of the push lane.
// One broadcast version must be JSON-encoded exactly once however many
// subscribers are attached — fan-out is O(subscribers) pointer enqueues
// of one immutable frame — so the body re-feeds the simulated broadcast
// through the real engine mailbox and measures end-to-end delivery
// (publish → hub broadcast → per-subscriber Pop) at 1k/10k/100k
// subscribers, reporting encodes-per-version (the CI-gated encode-once
// equality), deliveries/sec, per-delivery latency, and frame bytes (the
// wire cost per viewer per version).
package perfhttp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/perf/perfengine"
	"lightor/internal/platform"
)

// PushSubscriberSweep is the canonical fan-out sweep: a mid-size
// audience, a big channel, and the viral-moment crowd the hub exists for.
var PushSubscriberSweep = []int{1000, 10000, 100000}

// pushIngestBatch matches the batched-ingest steady state: each batch
// rides one mailbox envelope and publishes at most one dot version.
const pushIngestBatch = 256

// newPushFixture is the readFixture variant for the push bodies: same
// engine tuning, but with a checkpoint store configured so that
// Session.Checkpoint can serve as a mailbox barrier — it is processed in
// envelope order, so when it returns every prior batch's dot publication
// (and the hub broadcast it triggers) has completed, with no polling.
func newPushFixture(init *core.Initializer, msgs []chat.Message) (*readFixture, error) {
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		return nil, err
	}
	store := platform.NewStore()
	eng, err := engine.New(init, ext, engine.Config{
		Warmup: -1, Threshold: 0.01,
		Checkpoints: store, CheckpointInterval: -1,
	})
	if err != nil {
		return nil, err
	}
	s, err := eng.Sessions().GetOrOpen(readChannel)
	if err != nil {
		eng.Close(context.Background())
		return nil, err
	}
	if err := s.Ingest(msgs...); err != nil {
		eng.Close(context.Background())
		return nil, err
	}
	if err := s.Checkpoint(context.Background()); err != nil {
		eng.Close(context.Background())
		return nil, err
	}
	_, n := s.Dots(0)
	if n == 0 {
		eng.Close(context.Background())
		return nil, fmt.Errorf("perfhttp: push fixture emitted no dots")
	}
	svc := &platform.Service{Store: store, Engine: eng, DisableAdmission: true}
	return &readFixture{eng: eng, svc: svc, handler: svc.Handler(), session: s, dots: n}, nil
}

// drainStreams pops every deliverable frame from every stream, sharded
// across GOMAXPROCS workers (the real deployment drains subscribers from
// independent handler goroutines). Returns frames popped and their total
// wire bytes.
func drainStreams(streams []*platform.DotStream) (frames, bytes int64) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(streams) {
		workers = len(streams)
	}
	if workers < 1 {
		workers = 1
	}
	var fr, by atomic.Int64
	var wg sync.WaitGroup
	chunk := (len(streams) + workers - 1) / workers
	for i := 0; i < len(streams); i += chunk {
		end := min(i+chunk, len(streams))
		wg.Add(1)
		go func(shard []*platform.DotStream) {
			defer wg.Done()
			var f, n int64
			for _, ds := range shard {
				for {
					frame, ok := ds.Pop()
					if !ok {
						break
					}
					f++
					n += int64(len(frame.Data))
				}
			}
			fr.Add(f)
			by.Add(n)
		}(streams[i:end])
	}
	wg.Wait()
	return fr.Load(), by.Load()
}

// PushFanout measures versioned broadcast delivery to `subs` push
// subscribers on one channel. Each iteration re-feeds the full simulated
// broadcast through Session.Ingest in 256-message batches (every emitting
// batch publishes one new dot version, which the hub encodes once and
// fans out), waits for the mailbox to drain, then pops every delivered
// frame from every subscriber. Reported metrics:
//
//	deliveries/sec  — frames delivered end to end (publish → Pop)
//	ns/delivery     — wall latency amortized per delivered frame
//	encodes/version — must be exactly 1: the encode-once contract
//	frame_bytes     — average wire bytes per delivered frame
//	versions/iter   — dot versions published per broadcast re-feed
//	deliveries/iter — frames per iteration (allocs/op ÷ this ≈ the
//	                  per-delivery allocation cost; the marginal cost
//	                  across the sweep is CI-gated ≈ 0)
func PushFanout(init *core.Initializer, msgs []chat.Message, subs int, sink *perfengine.ErrSink) func(*testing.B) {
	return func(b *testing.B) {
		fail := func(err error) {
			if sink != nil {
				sink.Set(err)
			}
			b.Error(err)
		}
		fix, err := newPushFixture(init, msgs)
		if err != nil {
			fail(err)
			return
		}
		defer fix.close()
		// Size the ring so one full re-broadcast (at most one version per
		// ingest batch) never overflows an undrained subscriber: overflow
		// triggers drop-and-resync, which is correct but adds a resync
		// encode that would muddy the encode-once measurement.
		batches := (len(msgs) + pushIngestBatch - 1) / pushIngestBatch
		fix.svc.PushQueueLen = batches + 8

		streams := make([]*platform.DotStream, subs)
		for i := range streams {
			ds, err := fix.svc.SubscribeDots(readChannel, fix.dots)
			if err != nil {
				fail(err)
				return
			}
			streams[i] = ds
		}
		defer func() {
			for _, ds := range streams {
				ds.Close()
			}
		}()
		// Clear the initial catch-up resync off the clock: subscribed at
		// the tip, it yields nothing but flips each stream to steady state.
		drainStreams(streams)

		start := fix.svc.PushStats()
		var frames, bytes int64
		offset := fix.session.Watermark() + 1
		batch := make([]chat.Message, 0, pushIngestBatch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < len(msgs); j += pushIngestBatch {
				end := min(j+pushIngestBatch, len(msgs))
				batch = batch[:0]
				for _, m := range msgs[j:end] {
					m.Time += offset
					batch = append(batch, m)
				}
				if err := fix.session.Ingest(batch...); err != nil {
					fail(err)
					return
				}
			}
			if len(msgs) > 0 {
				offset += msgs[len(msgs)-1].Time + 1
			}
			// Mailbox barrier: processed in envelope order, so every batch
			// above has published its dots and broadcast them before this
			// returns (checkpoint-on-emit rides the same envelopes, so the
			// barrier's own write is marginal).
			if err := fix.session.Checkpoint(context.Background()); err != nil {
				fail(err)
				return
			}
			f, by := drainStreams(streams)
			frames += f
			bytes += by
		}
		b.StopTimer()

		stats := fix.svc.PushStats()
		versions := float64(stats.Versions - start.Versions)
		encodes := float64(stats.Encodes - start.Encodes)
		if versions == 0 || frames == 0 {
			fail(fmt.Errorf("perfhttp: push fan-out delivered nothing (versions=%v frames=%d)", versions, frames))
			return
		}
		// Gap-free convergence: every subscriber must have reached the tip.
		_, tip, _ := fix.session.DotsPage(0)
		for i, ds := range streams {
			if c := ds.Cursor(); c != tip {
				fail(fmt.Errorf("perfhttp: subscriber %d stalled at cursor %d, want %d", i, c, tip))
				return
			}
		}
		sec := b.Elapsed().Seconds()
		b.ReportMetric(float64(frames)/sec, "deliveries/sec")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/delivery")
		b.ReportMetric(float64(frames)/float64(b.N), "deliveries/iter")
		b.ReportMetric(encodes/versions, "encodes/version")
		b.ReportMetric(float64(bytes)/float64(frames), "frame_bytes")
		b.ReportMetric(versions/float64(b.N), "versions/iter")
	}
}

// Package perf is the shared hot-path benchmark harness. The go-test
// benchmarks (bench_test.go, which CI smokes and zero-alloc gates) and
// the same-run ratio gates (gates_test.go in this package, which drive
// the perf* fixture bodies through testing.Benchmark) run these exact
// bodies, so a gate and the benchmark it summarizes cannot drift apart.
// End-to-end, multi-core performance is judged by perfbench instead.
package perf

import (
	"testing"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// WindowCloseSweep is the canonical messages-per-window sweep: per-message
// cost should stay roughly flat across it (linear total window cost).
var WindowCloseSweep = []int{25, 100, 400, 1600}

// TrainedFixture builds a trained initializer plus a held-out simulated
// video — the shared setup for every hot-path benchmark.
func TrainedFixture() (*core.Initializer, sim.VideoData, error) {
	rng := stats.NewRand(42)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 2)
	init, err := core.NewInitializer(core.DefaultInitializerConfig())
	if err != nil {
		return nil, sim.VideoData{}, err
	}
	train := data[0]
	ws := init.Windows(train.Chat.Log, train.Video.Duration)
	err = init.Train([]core.TrainingVideo{{
		Log:        train.Chat.Log,
		Duration:   train.Video.Duration,
		Labels:     sim.LabelWindows(ws, train.Chat.Bursts),
		Highlights: train.Video.Highlights,
	}})
	if err != nil {
		return nil, sim.VideoData{}, err
	}
	return init, data[1], nil
}

// textPool caps the message corpus so the window vocabulary warms fully.
func textPool(msgs []chat.Message) []chat.Message {
	if len(msgs) > 512 {
		return msgs[:512]
	}
	return msgs
}

// FeedSteadyState measures one Feed landing in the open window — the
// dominant live-stream case — and must run at 0 allocs/op (the CI gate).
// The detector is warmed past several window closes first, leaving closed
// windows pending under the δ horizon, so each measured Feed includes the
// per-feed collect() scan over live pending state; without that warm-up the
// loop would degenerate to the no-normalization early return and the gate
// would not cover the path it protects.
func FeedSteadyState(init *core.Initializer, msgs []chat.Message) func(*testing.B) {
	return func(b *testing.B) {
		pool := textPool(msgs)
		od, err := core.NewOnlineDetector(init, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		od.SetWarmup(0)
		size := init.Config().WindowSize
		// Stream through four windows; with the default δ = 120 s none of
		// them can finalize by the time the clock holds below, so collect()
		// scans them on every measured Feed.
		n := 0
		for t := 0.0; t < 4*size; t += size / 64 {
			if _, err := od.Feed(chat.Message{Time: t, Text: pool[n%len(pool)].Text}); err != nil {
				b.Fatal(err)
			}
			n++
		}
		hold := 4*size + size/2
		// Warm the open window's vocabulary at the hold timestamp.
		for i := 0; i < len(pool); i++ {
			if _, err := od.Feed(chat.Message{Time: hold, Text: pool[i].Text}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			od.Feed(chat.Message{Time: hold, Text: pool[i%len(pool)].Text})
		}
	}
}

// FeedStream measures the amortized per-message cost with an advancing
// clock: window closes, δ-finalization, and emissions included.
func FeedStream(init *core.Initializer, msgs []chat.Message) func(*testing.B) {
	return func(b *testing.B) {
		pool := textPool(msgs)
		od, err := core.NewOnlineDetector(init, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		od.SetWarmup(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			od.Feed(chat.Message{Time: float64(i) * 0.05, Text: pool[i%len(pool)].Text})
		}
	}
}

// WindowClose drives full window lifecycles (fill with n messages, close,
// finalize) and reports ns/msg, which should stay roughly flat across
// WindowCloseSweep now that close is O(1) and each feed O(tokens).
func WindowClose(init *core.Initializer, msgs []chat.Message, n int) func(*testing.B) {
	return func(b *testing.B) {
		od, err := core.NewOnlineDetector(init, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		od.SetWarmup(0)
		size := init.Config().WindowSize
		step := size / float64(n+1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := float64(i) * size
			for j := 0; j < n; j++ {
				od.Feed(chat.Message{Time: base + float64(j)*step, Text: msgs[j%len(msgs)].Text})
			}
		}
		b.StopTimer()
		perMsg := b.Elapsed().Seconds() / float64(b.N) / float64(n) * 1e9
		b.ReportMetric(perMsg, "ns/msg")
	}
}

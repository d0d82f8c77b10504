// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VII). Each Figure*/Table* function runs one
// experiment end to end on simulated data and returns a structured result
// whose Render method prints the same rows/series the paper reports.
//
// Absolute numbers will differ from the paper — the substrate is a
// simulator, not Twitch plus 492 Turkers — but the comparative shape is
// preserved and asserted in this package's tests: who wins, by roughly what
// factor, and where the crossovers fall. `go run ./cmd/lightor-bench`
// prints the full-scale values (see the README's "Benchmarks" section).
package experiments

import "lightor/internal/baselines"

// Config scales every experiment. Default() approximates the paper's data
// sizes; Quick() shrinks everything so the full suite runs in seconds
// (used by tests).
type Config struct {
	Seed int64

	// Dota2 dataset (Section VII-A: 60 videos, 10 train / 50 test).
	DotaTrain, DotaTest int
	// LoL dataset (173 videos; Chat-LSTM uses up to 123 for training).
	LoLTrain, LoLTest int

	// KMax is the largest k in Precision@K sweeps (paper: 10).
	KMax int

	// Extractor study (Section VII-C): videos × dots, workers per pool,
	// responses per task per iteration, refinement iterations.
	ExtractVideos    int
	DotsPerVideo     int
	PoolWorkers      int
	ResponsesPerTask int
	Iterations       int

	// Applicability crawl (Figure 9): channels × videos per channel.
	Channels         int
	VideosPerChannel int

	// LSTM holds the deep-baseline scale knobs.
	LSTM baselines.LSTMConfig
}

// Default returns paper-scale settings (minutes of runtime: the LSTM
// baselines dominate).
func Default() Config {
	return Config{
		Seed:             2020,
		DotaTrain:        10,
		DotaTest:         50,
		LoLTrain:         123,
		LoLTest:          50,
		KMax:             10,
		ExtractVideos:    7,
		DotsPerVideo:     5,
		PoolWorkers:      492,
		ResponsesPerTask: 10,
		Iterations:       5,
		Channels:         10,
		VideosPerChannel: 20,
		LSTM: func() baselines.LSTMConfig {
			c := baselines.DefaultLSTMConfig()
			c.TrainStride = 20
			c.Epochs = 2
			return c
		}(),
	}
}

// Quick returns test-scale settings (seconds of runtime).
func Quick() Config {
	return Config{
		Seed:             2020,
		DotaTrain:        2,
		DotaTest:         6,
		LoLTrain:         4,
		LoLTest:          4,
		KMax:             10,
		ExtractVideos:    4,
		DotsPerVideo:     4,
		PoolWorkers:      60,
		ResponsesPerTask: 10,
		Iterations:       4,
		Channels:         5,
		VideosPerChannel: 8,
		LSTM: func() baselines.LSTMConfig {
			c := baselines.DefaultLSTMConfig()
			c.Hidden = 8
			c.Epochs = 1
			c.TrainStride = 40
			c.DetectStride = 15
			c.MaxChars = 48
			return c
		}(),
	}
}

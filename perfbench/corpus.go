package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// Corpus shape shared by the spawned server and the single-process
// reference. The server is started with the same -seed/-channels/-videos,
// so the reference below rebuilds exactly the model it trains and the
// videos it crawls.
const (
	serverChannels = 4
	serverVideos   = 4
	serverTrain    = 3 // lightor-server's -train default
	defaultK       = 5 // platform.Service's default k
	batchSize      = 16
)

// model is the seed-trained detector and the crawled videos, rebuilt in
// the same order lightor-server builds them from its -seed.
type model struct {
	init   *core.Initializer
	ext    *core.Extractor
	videos []crawledVideo
}

type crawledVideo struct {
	video   sim.Video
	log     *chat.Log
	channel string
	viewers int
}

func buildModel(seed int64) (*model, error) {
	profile := sim.Dota2Profile()
	rng := stats.NewRand(seed)
	init, err := trainInitializer(rng, profile)
	if err != nil {
		return nil, err
	}
	m := &model{init: init}
	for c := 0; c < serverChannels; c++ {
		for v := 0; v < serverVideos; v++ {
			vid := sim.GenerateVideo(rng, profile, fmt.Sprintf("c%dv%d", c, v))
			cr := sim.GenerateChat(rng, vid, profile)
			m.videos = append(m.videos, crawledVideo{video: vid, log: cr.Log,
				channel: fmt.Sprintf("channel%02d", c), viewers: stats.IntBetween(rng, 200, 5000)})
		}
	}
	m.ext, err = core.NewExtractor(core.DefaultExtractorConfig(), nil)
	return m, err
}

func trainInitializer(rng *rand.Rand, profile sim.Profile) (*core.Initializer, error) {
	data := sim.GenerateDataset(rng, profile, serverTrain)
	init, err := core.NewInitializer(core.DefaultInitializerConfig())
	if err != nil {
		return nil, err
	}
	tvs := make([]core.TrainingVideo, len(data))
	for i, d := range data {
		ws := init.Windows(d.Chat.Log, d.Video.Duration)
		tvs[i] = core.TrainingVideo{
			Log:        d.Chat.Log,
			Duration:   d.Video.Duration,
			Labels:     sim.LabelWindows(ws, d.Chat.Bursts),
			Highlights: d.Video.Highlights,
		}
	}
	if err := init.Train(tvs); err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return init, nil
}

// broadcast is one simulated live broadcast cut into the request bodies
// the generator sends, with the reference dot history a single-process
// core.OnlineDetector produces on the same stream.
type broadcast struct {
	msgs    []chat.Message
	bodies  [][]byte      // batchSize-message JSON arrays, in stream order
	dots    []core.RedDot // reference emission history
	emitter []int         // emitter[i]: index of the body whose ingest emits dots[i]; len(bodies) = the closing flush
	firstAt []int         // firstAt[b]: number of reference dots emitted before body b is ingested
}

// newBroadcasts generates n broadcasts from their own seeded stream (the
// server never sees this seed, only the bodies) and runs the reference
// detector over each.
func newBroadcasts(init *core.Initializer, seed int64, n int) ([]*broadcast, error) {
	data := sim.GenerateDataset(stats.NewRand(seed^0x6c697665), sim.Dota2Profile(), n)
	out := make([]*broadcast, n)
	for i, d := range data {
		b, err := newBroadcast(init, d.Chat.Log.Messages())
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func newBroadcast(init *core.Initializer, msgs []chat.Message) (*broadcast, error) {
	b := &broadcast{msgs: msgs}
	od, err := core.NewOnlineDetector(init, 0)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(msgs); lo += batchSize {
		hi := min(lo+batchSize, len(msgs))
		body, err := json.Marshal(msgs[lo:hi])
		if err != nil {
			return nil, err
		}
		b.firstAt = append(b.firstAt, len(b.dots))
		for _, m := range msgs[lo:hi] {
			dots, err := od.Feed(m)
			if err != nil {
				return nil, err
			}
			for range dots {
				b.emitter = append(b.emitter, len(b.bodies))
			}
			b.dots = append(b.dots, dots...)
		}
		b.bodies = append(b.bodies, body)
	}
	for range od.Flush() {
		b.emitter = append(b.emitter, len(b.bodies))
	}
	b.dots = od.Emitted()
	return b, nil
}

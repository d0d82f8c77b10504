// Package perfload is the adversarial-load harness: deterministic
// Zipf-distributed channel popularity with an optional mid-run flash
// crowd, driving mixed read/write/SSE/refine traffic through the real
// Service handler and recording per-request latency into log-bucketed
// histograms (stats.LatencyHistogram) for p50/p99/p999.
//
// The uniform-load benchmarks (perfengine, perfhttp) measure throughput
// when every channel is equally busy. Real platforms are nothing like
// that: popularity is Zipf, and occasionally one channel steps to ~100×
// its usual share in seconds (a goal in a title match). These bodies
// measure what that does to TAIL latency — in particular whether a flash
// crowd on one channel drags down p99 for the cold channels everyone
// else is watching — and are the measurement half of the admission
// control in internal/platform (Service.MaxChannelBacklog,
// Service.MaxInflightWrites, and the DisableAdmission differential
// knob).
//
// Determinism: channel choice, op choice, and batch content derive from
// seeded per-worker RNGs, so two runs issue identical request schedules.
// What sheds is timing-dependent by nature (admission reacts to real
// queue depths), so shed counts vary run to run; the schedule does not.
package perfload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/perf/perfengine"
	"lightor/internal/platform"
	"lightor/internal/stats"
)

// Mix is a traffic mix: relative weights of the four op kinds. Reads are
// conditional GET /api/live/dots polls, writes are batched POST
// /api/live/chat ingest, SSE is a subscribe/first-frame/close cycle on
// the push hub, refine is POST /api/refine against a stored video.
type Mix struct {
	Name   string
	Read   float64
	Write  float64
	SSE    float64
	Refine float64
}

// The canonical mixes the latency gate runs: the viewer-dominated
// steady state, and a write-heavy stress shaped like many channels'
// producers bursting at once.
var (
	ReadHeavy  = Mix{Name: "read-heavy", Read: 0.92, Write: 0.06, SSE: 0.015, Refine: 0.005}
	WriteHeavy = Mix{Name: "write-heavy", Read: 0.55, Write: 0.40, SSE: 0.03, Refine: 0.02}
)

// Options shapes a load run. The zero value is not useful — use
// DefaultOptions as the base.
type Options struct {
	Channels int     // live channels, popularity rank == index
	Workers  int     // concurrent client goroutines
	Ops      int     // requests per benchmark iteration, across workers
	Batch    int     // messages per chat write
	Seed     int64   // RNG seed for the request schedule
	ZipfS    float64 // Zipf exponent (must be > 1)

	// Flash enables the flash-crowd schedule: halfway through each
	// worker's ops, FlashChannel's share of traffic steps to FlashFactor×
	// its Zipf share (capped at 90%). FlashChannel < 0 picks a mid-rank
	// channel so the step is dramatic (a rank-0 channel is already hot).
	Flash        bool
	FlashChannel int
	FlashFactor  float64

	// SessionWorkers pins the engine's mailbox worker pool (0 = the
	// GOMAXPROCS default). The flash-crowd body sets it low on purpose:
	// production sizes detection capacity for normal load, and the
	// stampede is interesting precisely when arrival exceeds it.
	SessionWorkers int

	// Admission knobs forwarded to the Service under test.
	DisableAdmission  bool
	MaxChannelBacklog int
	MaxInflightWrites int
}

// DefaultOptions is the benched configuration: 64 channels, 8 workers,
// Zipf(1.2), 4096 ops per iteration in 64-message batches.
func DefaultOptions() Options {
	return Options{
		Channels:          64,
		Workers:           8,
		Ops:               4096,
		Batch:             64,
		Seed:              42,
		ZipfS:             1.2,
		FlashChannel:      -1,
		FlashFactor:       100,
		MaxChannelBacklog: 64,
	}
}

const loadVideo = "perfload-vod"

// flashText is the message body flash-crowd writes carry: a token-rich
// copypasta wall, the realistic shape of stampede chat and the reason a
// stampede's ingest is expensive per message.
var flashText = func() string {
	words := []string{"clutch", "unreal", "throw", "gg", "insane", "pog", "rewind", "that", "play", "was",
		"absolutely", "broken", "clip", "it", "now", "chat", "spam", "this", "legend", "moment"}
	var b bytes.Buffer
	for i := 0; i < 200; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[i%len(words)])
		fmt.Fprintf(&b, "%d", i)
	}
	return b.String()
}()

func channelName(i int) string { return fmt.Sprintf("load-%02d", i) }

// loadFixture is the served platform under load: an engine with
// opts.Channels live sessions pre-fed enough history that reads and SSE
// have content, a stored video for the refine endpoint, and the Service
// handler with the requested admission configuration.
type loadFixture struct {
	eng      *engine.Engine
	svc      *platform.Service
	handler  http.Handler
	sessions []*engine.Session
	// clocks serializes writes per channel: the engine's ordering contract
	// is one logical producer per channel (Session.Ingest rejects
	// non-monotonic timestamps), so workers writing to the same channel
	// coordinate here, exactly like a platform's per-channel chat relay.
	clocks []chanClock
}

type chanClock struct {
	mu    sync.Mutex
	clock float64
}

// warmPerChannel is the per-channel history fed before measuring, enough
// for emissions to exist on every channel.
const warmPerChannel = 256

func newLoadFixture(init *core.Initializer, msgs []chat.Message, opts Options) (*loadFixture, error) {
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(init, ext, engine.Config{
		Warmup: -1, Threshold: 0.01, SessionWorkers: opts.SessionWorkers,
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*loadFixture, error) {
		eng.Close(context.Background())
		return nil, err
	}
	if len(msgs) < warmPerChannel {
		return fail(fmt.Errorf("perfload: need ≥ %d fixture messages, have %d", warmPerChannel, len(msgs)))
	}
	f := &loadFixture{eng: eng, clocks: make([]chanClock, opts.Channels)}
	sessions := make([]*engine.Session, opts.Channels)
	for i := 0; i < opts.Channels; i++ {
		s, err := eng.Sessions().GetOrOpen(channelName(i))
		if err != nil {
			return fail(err)
		}
		warm := make([]chat.Message, warmPerChannel)
		copy(warm, msgs[:warmPerChannel])
		if err := s.Ingest(warm...); err != nil {
			return fail(err)
		}
		sessions[i] = s
		f.clocks[i].clock = warm[len(warm)-1].Time + 1
	}
	f.sessions = sessions
	deadline := time.Now().Add(30 * time.Second)
	for _, s := range sessions {
		for s.Pending() > 0 {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("perfload: warm-up mailboxes never drained"))
			}
			time.Sleep(time.Millisecond)
		}
	}

	store := platform.NewStore()
	if err := store.PutVideo(platform.VideoRecord{
		ID:       loadVideo,
		Duration: 120,
		Chat:     chat.NewLog(msgs[:warmPerChannel]),
		RedDots:  []core.RedDot{{Time: 10, Score: 0.9}, {Time: 40, Score: 0.8}},
	}); err != nil {
		return fail(err)
	}
	f.svc = &platform.Service{
		Store:             store,
		Engine:            eng,
		DisableAdmission:  opts.DisableAdmission,
		MaxChannelBacklog: opts.MaxChannelBacklog,
		MaxInflightWrites: opts.MaxInflightWrites,
	}
	f.handler = f.svc.Handler()
	return f, nil
}

func (f *loadFixture) close() { f.eng.Close(context.Background()) }

// latSet is one worker's latency record, merged after the run — the
// "mergeable across workers" half of the histogram contract.
type latSet struct {
	global   stats.LatencyHistogram // every op
	coldRead stats.LatencyHistogram // reads on non-flash channels
	hotWrite stats.LatencyHistogram // writes on the flash channel
}

func (l *latSet) mergeInto(dst *latSet) {
	dst.global.Merge(&l.global)
	dst.coldRead.Merge(&l.coldRead)
	dst.hotWrite.Merge(&l.hotWrite)
}

// workerTally is one worker's op accounting (plain ints — each worker
// owns its tally, summed after the run).
type workerTally struct {
	ops          int
	sheds        int
	retryMissing int // shed responses lacking Retry-After: always a bug
}

const (
	opRead = iota
	opWrite
	opSSE
	opRefine
)

// flashShare returns the flash channel's traffic share during the flash
// phase: FlashFactor× its Zipf share, capped at 90%.
func flashShare(opts Options) float64 {
	var h float64
	for k := 1; k <= opts.Channels; k++ {
		h += math.Pow(float64(k), -opts.ZipfS)
	}
	base := math.Pow(float64(opts.FlashChannel+1), -opts.ZipfS) / h
	return math.Min(0.9, base*opts.FlashFactor)
}

// runWorker issues this worker's share of the schedule for one benchmark
// iteration. iter keeps per-iteration RNG streams distinct while fully
// seeded. msgs is the pool batch content draws from.
func runWorker(f *loadFixture, msgs []chat.Message, opts Options, mix Mix, worker, iter, ops int,
	lats *latSet, tally *workerTally, sink *perfengine.ErrSink) {
	rng := stats.NewRand(opts.Seed + int64(iter)*1_000_003 + int64(worker))
	zipf := rand.NewZipf(rng, opts.ZipfS, 1, uint64(opts.Channels-1))
	fShare := 0.0
	if opts.Flash {
		fShare = flashShare(opts)
	}
	wSum := mix.Read + mix.Write + mix.SSE + mix.Refine
	etags := make([]string, opts.Channels)
	cursors := make([]int, opts.Channels)
	var body bytes.Buffer
	batch := make([]chat.Message, opts.Batch)

	fail := func(err error) {
		if sink != nil {
			sink.Set(err)
		}
	}
	// recordShed validates the shed contract on every 429/503: the
	// Retry-After header must be present.
	recordShed := func(rec *httptest.ResponseRecorder) {
		tally.sheds++
		if rec.Header().Get("Retry-After") == "" {
			tally.retryMissing++
		}
	}

	for op := 0; op < ops; op++ {
		// The flash crowd steps in halfway through the schedule.
		flashing := opts.Flash && op >= ops/2
		ch := int(zipf.Uint64())
		if flashing && rng.Float64() < fShare {
			ch = opts.FlashChannel
		}
		kind := opRead
		switch x := rng.Float64() * wSum; {
		case x < mix.Read:
			kind = opRead
		case x < mix.Read+mix.Write:
			kind = opWrite
		case x < mix.Read+mix.Write+mix.SSE:
			kind = opSSE
		default:
			kind = opRefine
		}
		tally.ops++

		switch kind {
		case opRead:
			u := url.URL{Path: "/api/live/dots", RawQuery: fmt.Sprintf("channel=%s&cursor=%d", channelName(ch), cursors[ch])}
			req := &http.Request{Method: http.MethodGet, URL: &u, Header: http.Header{}, Host: "bench"}
			if etags[ch] != "" {
				req.Header.Set("If-None-Match", etags[ch])
			}
			rec := httptest.NewRecorder()
			start := time.Now()
			f.handler.ServeHTTP(rec, req)
			d := time.Since(start)
			lats.global.Record(d)
			if ch != opts.FlashChannel {
				lats.coldRead.Record(d)
			}
			switch rec.Code {
			case http.StatusOK:
				etags[ch] = rec.Header().Get("ETag")
				var resp platform.LiveDotsResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					fail(fmt.Errorf("perfload: bad dots payload: %w", err))
					return
				}
				cursors[ch] = resp.Cursor
			case http.StatusNotModified:
			default:
				fail(fmt.Errorf("perfload: read %s: %d %s", channelName(ch), rec.Code, rec.Body.String()))
				return
			}

		case opWrite:
			cc := &f.clocks[ch]
			cc.mu.Lock()
			for j := range batch {
				src := (op*opts.Batch + j) % len(msgs)
				batch[j] = msgs[src]
				if flashing && ch == opts.FlashChannel {
					// Flash-crowd chat is token-heavy (walls of copypasta):
					// per-message detector work (tokenize + similarity
					// accumulation) far exceeds the decode cost, which is
					// what lets arrival outrun the drain.
					batch[j].Text = flashText
				}
				batch[j].Time = cc.clock
				cc.clock += 0.05
			}
			body.Reset()
			if err := json.NewEncoder(&body).Encode(batch); err != nil {
				cc.mu.Unlock()
				fail(err)
				return
			}
			u := url.URL{Path: "/api/live/chat", RawQuery: "channel=" + channelName(ch)}
			req := &http.Request{Method: http.MethodPost, URL: &u, Header: http.Header{},
				Body: io.NopCloser(bytes.NewReader(body.Bytes())), Host: "bench"}
			rec := httptest.NewRecorder()
			// The timer starts after the clock lock: client-side write
			// coordination (one producer per channel) is not server latency.
			start := time.Now()
			f.handler.ServeHTTP(rec, req)
			d := time.Since(start)
			cc.mu.Unlock()
			lats.global.Record(d)
			if ch == opts.FlashChannel {
				lats.hotWrite.Record(d)
			}
			switch rec.Code {
			case http.StatusAccepted:
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				recordShed(rec)
			default:
				fail(fmt.Errorf("perfload: write %s: %d %s", channelName(ch), rec.Code, rec.Body.String()))
				return
			}

		case opSSE:
			start := time.Now()
			ds, err := f.svc.SubscribeDots(channelName(ch), 0)
			d := time.Since(start)
			lats.global.Record(d)
			if err != nil {
				fail(fmt.Errorf("perfload: subscribe %s: %w", channelName(ch), err))
				return
			}
			ds.Pop() // catch-up frame, if already queued
			ds.Close()

		case opRefine:
			u := url.URL{Path: "/api/refine", RawQuery: "video=" + loadVideo}
			req := &http.Request{Method: http.MethodPost, URL: &u, Header: http.Header{},
				Body: http.NoBody, Host: "bench"}
			rec := httptest.NewRecorder()
			start := time.Now()
			f.handler.ServeHTTP(rec, req)
			lats.global.Record(time.Since(start))
			switch rec.Code {
			case http.StatusAccepted:
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				recordShed(rec)
			default:
				fail(fmt.Errorf("perfload: refine: %d %s", rec.Code, rec.Body.String()))
				return
			}
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// run is the shared benchmark body: b.N iterations of the full schedule,
// latency aggregated across iterations and workers.
func run(b *testing.B, init *core.Initializer, msgs []chat.Message, mix Mix, opts Options, sink *perfengine.ErrSink) {
	fix, err := newLoadFixture(init, msgs, opts)
	if err != nil {
		if sink != nil {
			sink.Set(err)
		}
		b.Error(err)
		return
	}
	defer fix.close()

	lats := make([]latSet, opts.Workers)
	tallies := make([]workerTally, opts.Workers)
	perWorker := opts.Ops / opts.Workers
	hotBacklog := 0

	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runWorker(fix, msgs, opts, mix, w, iter, perWorker, &lats[w], &tallies[w], sink)
			}(w)
		}
		wg.Wait()
		if sink != nil && sink.Err() != nil {
			b.Error(sink.Err())
			return
		}
		// The drain debt the flash channel carries out of the stampede is
		// THE bounded-vs-unbounded differential: admission caps it at the
		// backlog budget (give or take racing admits); without admission
		// it compounds iteration over iteration.
		if opts.Flash {
			if p := fix.sessions[opts.FlashChannel].Pending(); p > hotBacklog {
				hotBacklog = p
			}
		}
	}
	b.StopTimer()

	var merged latSet
	var total workerTally
	for w := range lats {
		lats[w].mergeInto(&merged)
		total.ops += tallies[w].ops
		total.sheds += tallies[w].sheds
		total.retryMissing += tallies[w].retryMissing
	}
	if total.retryMissing > 0 {
		err := fmt.Errorf("perfload: %d shed responses lacked Retry-After", total.retryMissing)
		if sink != nil {
			sink.Set(err)
		}
		b.Error(err)
	}

	b.ReportMetric(float64(total.ops)/b.Elapsed().Seconds(), "ops/sec")
	b.ReportMetric(us(merged.global.Quantile(0.50)), "p50_us")
	b.ReportMetric(us(merged.global.Quantile(0.99)), "p99_us")
	b.ReportMetric(us(merged.global.Quantile(0.999)), "p999_us")
	if merged.coldRead.Count() > 0 {
		b.ReportMetric(us(merged.coldRead.Quantile(0.50)), "cold_p50_us")
		b.ReportMetric(us(merged.coldRead.Quantile(0.99)), "cold_p99_us")
		b.ReportMetric(us(merged.coldRead.Quantile(0.999)), "cold_p999_us")
	}
	if merged.hotWrite.Count() > 0 {
		b.ReportMetric(us(merged.hotWrite.Quantile(0.99)), "hotw_p99_us")
	}
	if opts.Flash {
		b.ReportMetric(float64(hotBacklog), "hot_backlog")
	}
	b.ReportMetric(float64(total.sheds)/float64(total.ops)*100, "shed_pct")
	retryOK := 1.0
	if total.retryMissing > 0 {
		retryOK = 0
	}
	b.ReportMetric(retryOK, "retry_ok")
}

// ZipfMixed measures mixed traffic under static Zipf popularity — the
// platform's everyday shape — reporting p50/p99/p999 over every request
// plus the cold-channel read tail.
func ZipfMixed(init *core.Initializer, msgs []chat.Message, mix Mix, opts Options, sink *perfengine.ErrSink) func(*testing.B) {
	return func(b *testing.B) {
		opts.Flash = false
		run(b, init, msgs, mix, opts, sink)
	}
}

// FlashCrowd measures the stampede: halfway through each schedule a
// mid-rank channel steps to FlashFactor× its Zipf share. admission=false
// runs the same schedule with Service admission control disabled — the
// differential that shows what bounded backlogs buy the cold channels'
// p99.
func FlashCrowd(init *core.Initializer, msgs []chat.Message, admission bool, opts Options, sink *perfengine.ErrSink) func(*testing.B) {
	return func(b *testing.B) {
		opts.Flash = true
		if opts.FlashChannel < 0 {
			// Mid-rank: hot enough to have an audience, cold enough that
			// stepping to 100× is a real step.
			opts.FlashChannel = opts.Channels * 2 / 3
		}
		if opts.SessionWorkers == 0 {
			// Finite detection capacity, sized for normal load: the
			// stampede must exceed the drain rate, or there is nothing for
			// admission control to bound.
			opts.SessionWorkers = 2
		}
		opts.DisableAdmission = !admission
		run(b, init, msgs, WriteHeavy, opts, sink)
	}
}

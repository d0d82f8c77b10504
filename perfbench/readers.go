package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"sync"
	"time"

	"lightor/internal/core"
	"lightor/internal/stats"
)

// dot_readers: the read fast lane. Readers poll GET /api/live/dots over
// 64 live channels and GET /api/highlights over the crawled videos, with
// Zipf popularity; half the requests are conditional on the target's last
// ETag. A trickle writer on the side lane keeps extending the channels'
// broadcasts, so new dot versions keep appearing, and after each batch
// that emits a dot it polls until the dot is visible.
const (
	readChannels = 64
	// readersRate is about 45% of what one connection sustains
	// closed-loop on a 2-core machine.
	readersRate = 5000.0
	trickleRate = 100.0 // chat batches per second on the side lane
	zipfS       = 1.1
)

type readTarget struct {
	ch    int // channel index, or -1 for a video
	video int
	// Conditional reads poll from the cursor the channel had when timing
	// began, with the ETag of the last answer at that cursor.
	cursor int
	etag   string
	// Monotonicity state across every read of the target.
	lastCursor  int
	lastVersion uint64
}

type readChannel struct {
	name string
	b    *broadcast
	fed  int // bodies acked
}

type readers struct {
	e       *env
	rng     *rand.Rand
	zipf    *rand.Zipf
	targets []*readTarget
	chans   []*readChannel
	out     outcome
	mu      sync.Mutex // guards out counters and target state across lanes
	notMod  int
	reads   int
	trickle int // channel the trickle writer is extending
	visible dist
	sideWG  sync.WaitGroup
}

func newReaders(e *env) *readers {
	rng := stats.NewRand(e.seed ^ 0x72656164)
	w := &readers{e: e, rng: rng}
	for i := 0; i < readChannels; i++ {
		w.chans = append(w.chans, &readChannel{name: fmt.Sprintf("read-%02d", i), b: e.bcs[i%len(e.bcs)]})
	}
	for i := range w.chans {
		w.targets = append(w.targets, &readTarget{ch: i})
	}
	for v := range e.m.videos {
		w.targets = append(w.targets, &readTarget{ch: -1, video: v})
	}
	// Popularity rank → target, shuffled so neither kind is always hot.
	rng.Shuffle(len(w.targets), func(i, j int) { w.targets[i], w.targets[j] = w.targets[j], w.targets[i] })
	w.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(w.targets)-1))
	return w
}

// prepare opens every channel with its broadcast fed up to the first
// batch that emits a dot, waits until those dots are published, and runs
// cold-start detection on the videos.
func (w *readers) prepare() error {
	c := w.e.conns[0]
	for _, ch := range w.chans {
		for dotsAfter(ch.b, ch.fed) == 0 && ch.fed < len(ch.b.bodies) {
			resp, err := c.do("POST", "/api/live/chat?channel="+ch.name, "", ch.b.bodies[ch.fed])
			if err != nil || resp.status != http.StatusAccepted {
				return fmt.Errorf("opening %s: status %d, %v", ch.name, resp.status, err)
			}
			ch.fed++
		}
	}
	for _, ch := range w.chans {
		if err := w.awaitDots(c, ch, dotsAfter(ch.b, ch.fed)); err != nil {
			return err
		}
	}
	for _, t := range w.targets {
		if t.ch >= 0 {
			t.cursor = dotsAfter(w.chans[t.ch].b, w.chans[t.ch].fed)
		}
	}
	return coldStart(w.e, c)
}

// dotsAfter is the reference dot count once the first n bodies have been
// processed (the closing flush not included).
func dotsAfter(b *broadcast, n int) int {
	if n < len(b.bodies) {
		return b.firstAt[n]
	}
	k := 0
	for _, e := range b.emitter {
		if e < len(b.bodies) {
			k++
		}
	}
	return k
}

// awaitDots polls a channel until it has published want dots.
func (w *readers) awaitDots(c *conn, ch *readChannel, want int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.do("GET", "/api/live/dots?cursor=0&channel="+ch.name, "", nil)
		if err != nil {
			return err
		}
		var r liveDots
		if resp.status == http.StatusOK && json.Unmarshal(resp.body, &r) == nil && r.Cursor >= want {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s did not publish %d dots within 10s", ch.name, want)
}

type liveDots struct {
	Dots   []core.RedDot `json:"dots"`
	Cursor int           `json:"cursor"`
}

// read sends one seeded read and checks the answer.
func (w *readers) read(c *conn, t *readTarget, conditional bool) (opRec, bool) {
	op := opRec{id: c.nextID()}
	var target, inm string
	if t.ch >= 0 {
		ch := w.chans[t.ch]
		op.kind, op.key = "dots", ch.name
		cursor := 0
		if conditional {
			cursor, inm = t.cursor, t.etag
		}
		target = "/api/live/dots?cursor=" + strconv.Itoa(cursor) + "&channel=" + ch.name
	} else {
		op.kind, op.key = "highlights", videoID(w.e, t.video)
		if conditional {
			inm = t.etag
		}
		target = "/api/highlights?k=" + strconv.Itoa(defaultK) + "&video=" + url.QueryEscape(op.key)
	}
	resp, err := c.do("GET", target, inm, nil)
	w.mu.Lock()
	defer w.mu.Unlock()
	ok := w.out.count(resp.status, err, readOK...)
	if !ok {
		return op, false
	}
	w.reads++
	if resp.status == http.StatusNotModified {
		w.notMod++
		return op, true
	}
	if t.ch < 0 {
		var r struct {
			Dots []core.RedDot `json:"dots"`
		}
		if err := json.Unmarshal(resp.body, &r); err != nil || !reflect.DeepEqual(r.Dots, w.e.cold[t.video]) {
			w.e.mismatch("%s: highlights answer differs from the reference (%v)", op.key, err)
		}
		if conditional {
			t.etag = resp.etag
		}
		return op, true
	}
	var r liveDots
	if err := json.Unmarshal(resp.body, &r); err != nil {
		w.e.mismatch("%s: unparsable dots answer: %v", op.key, err)
		return op, true
	}
	b := w.chans[t.ch].b
	from := r.Cursor - len(r.Dots)
	if from < 0 || r.Cursor > len(b.dots) || !reflect.DeepEqual(nonNil(r.Dots), nonNil(b.dots[from:r.Cursor])) {
		w.e.mismatch("%s: dots [%d,%d) differ from the reference", op.key, from, r.Cursor)
	}
	if r.Cursor < t.lastCursor {
		w.e.mismatch("%s: cursor went back from %d to %d", op.key, t.lastCursor, r.Cursor)
	}
	t.lastCursor = max(t.lastCursor, r.Cursor)
	if v, ok := etagVersion(resp.etag); !ok {
		w.e.mismatch("%s: unrecognised ETag %q", op.key, resp.etag)
	} else if v < t.lastVersion {
		w.e.mismatch("%s: version went back from %d to %d", op.key, t.lastVersion, v)
	} else {
		t.lastVersion = v
	}
	if conditional {
		t.etag = resp.etag
	}
	return op, true
}

func (w *readers) pick() (*readTarget, bool) {
	t := w.targets[w.zipf.Uint64()]
	return t, w.rng.Intn(2) == 0
}

func (w *readers) fixed(start, end time.Time) {
	w.sideWG.Add(1)
	go w.trickleLane(w.e.conns[1], start, end)
	c := w.e.conns[0]
	step := interval(readersRate)
	ts := openLoop(w.e.clk, start, step, end, func(i int) bool {
		t, cond := w.pick()
		op, ok := w.read(c, t, cond)
		w.out.ops = append(w.out.ops, op)
		return ok
	})
	w.sideWG.Wait()
	for i, t := range ts {
		w.out.ops[i].t = t
		w.out.recordAck(t)
	}
}

// trickleLane extends the channels' broadcasts one after another at
// trickleRate; after a batch that emits dots it polls the channel until
// they are readable and records that as a visibility sample.
func (w *readers) trickleLane(c *conn, start, end time.Time) {
	defer w.sideWG.Done()
	step := interval(trickleRate)
	openLoop(w.e.clk, start, step, end, func(i int) bool {
		due := start.Add(time.Duration(i) * step)
		for n := 0; w.chans[w.trickle].fed == len(w.chans[w.trickle].b.bodies); n++ {
			if n == len(w.chans) {
				return false // every broadcast is fully fed
			}
			w.trickle = (w.trickle + 1) % len(w.chans)
		}
		ch := w.chans[w.trickle]
		before := dotsAfter(ch.b, ch.fed)
		resp, err := c.do("POST", "/api/live/chat?channel="+ch.name, "", ch.b.bodies[ch.fed])
		w.mu.Lock()
		ok := w.out.count(resp.status, err, http.StatusAccepted)
		w.mu.Unlock()
		if !ok {
			return false
		}
		ch.fed++
		if dotsAfter(ch.b, ch.fed) == before {
			return true
		}
		for {
			pause(pollPause)
			resp, err := c.do("GET", "/api/live/dots?cursor="+strconv.Itoa(before)+"&channel="+ch.name, "", nil)
			if err != nil || resp.status != http.StatusOK {
				w.mu.Lock()
				w.out.count(resp.status, err)
				w.mu.Unlock()
				w.visible.fail()
				return false
			}
			var r liveDots
			if json.Unmarshal(resp.body, &r) == nil && r.Cursor > before {
				w.visible.addDur(time.Since(due))
				w.out.dots = append(w.out.dots, dotSample{key: ch.name, due: due, read: time.Now(), ok: true})
				return true
			}
			if time.Since(due) > 10*time.Second {
				w.visible.fail()
				return false
			}
		}
	})
}

func (w *readers) capacity(end time.Time) {
	closedLanes(w.e, end, &w.mu, &w.out, func(c *conn) bool {
		w.mu.Lock()
		t, cond := w.pick()
		w.mu.Unlock()
		_, ok := w.read(c, t, cond)
		return ok
	})
}

// finish checks every channel's full history against the reference.
func (w *readers) finish() error {
	c := w.e.conns[0]
	for _, ch := range w.chans {
		w.out.streams = append(w.out.streams, ch.b.msgs[:min(len(ch.b.msgs), ch.fed*batchSize)])
		want := dotsAfter(ch.b, ch.fed)
		if err := w.awaitDots(c, ch, want); err != nil {
			w.e.mismatch("%v", err)
			continue
		}
		resp, err := c.do("GET", "/api/live/dots?cursor=0&channel="+ch.name, "", nil)
		if err != nil {
			return err
		}
		var r liveDots
		if err := json.Unmarshal(resp.body, &r); err != nil || !reflect.DeepEqual(nonNil(r.Dots), nonNil(ch.b.dots[:want])) {
			w.e.mismatch("%s: final history differs from the reference", ch.name)
		}
	}
	w.out.visible = w.visible
	w.out.names = metricNames{"read", "dot_visible_by_poll", "read_capacity_per_s"}
	w.out.notes = append(w.out.notes, fmt.Sprintf("not_modified_pct %.2f %% of %d reads", 100*float64(w.notMod)/float64(max(w.reads, 1)), w.reads))
	return nil
}

func (w *readers) result() *outcome { return &w.out }

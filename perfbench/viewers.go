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
	"lightor/internal/play"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// viewer_interactions: the Highlight Extractor path. Viewer sessions from
// sim.SimulateViewer around each crawled video's cold-start red dots
// arrive as durable POST /api/interactions, one session per request.
// Every refineEvery sessions of a video, the side lane refines it: POST
// /api/refine, poll the job until done, re-read /api/highlights.
const (
	// viewersRate is about 45% of what one connection sustains
	// closed-loop against a durable server on a 2-core machine.
	viewersRate = 150.0
	refineEvery = 8
)

type viewerSession struct {
	video  int
	events []play.Event
	body   []byte
}

// refineRun is one refine round as the side lane saw it.
type refineRun struct {
	video  int
	lo, hi int          // the job's play snapshot holds between lo and hi of the video's events
	events []play.Event // the video's events sent by the time the job was enqueued
	input  []core.RedDot
	bounds []core.Interval
}

type viewers struct {
	e   *env
	rng *rand.Rand
	seq int
	out outcome

	mu     sync.Mutex // guards sent, acked and the per-video counts below
	sent   [][]play.Event
	acked  [][]play.Event
	nAcked []int
	// triggers carries refine requests from the main lane to the side
	// lane; sized well above the refines a run can trigger.
	triggers chan refineTrigger

	dots    [][]core.RedDot // current stored dots per video (side lane)
	refines []refineRun
	refDist dist
	// staleReads counts highlights reads that came after the job
	// reported done but did not show its result yet.
	staleReads int
	phase      chan struct{} // closed when the fixed-rate phase ends
	sideWG     sync.WaitGroup
}

type refineTrigger struct {
	video int
	at    time.Time
}

func newViewers(e *env) *viewers {
	n := len(e.m.videos)
	w := &viewers{
		e:        e,
		rng:      stats.NewRand(e.seed ^ 0x76696577),
		sent:     make([][]play.Event, n),
		acked:    make([][]play.Event, n),
		nAcked:   make([]int, n),
		triggers: make(chan refineTrigger, 4096),
		phase:    make(chan struct{}),
	}
	for _, d := range e.cold {
		w.dots = append(w.dots, append([]core.RedDot(nil), d...))
	}
	return w
}

// session generates the next viewer session: a seeded video, one of its
// red dots, and the viewer's play events around it.
func (w *viewers) session() viewerSession {
	for {
		v := w.rng.Intn(len(w.e.m.videos))
		dots := w.e.cold[v]
		dot := dots[w.rng.Intn(len(dots))].Time
		vid := w.e.m.videos[v].video
		h, ok := sim.NearestHighlight(vid, dot)
		if !ok {
			h = core.Interval{Start: dot, End: dot + 30}
		}
		w.seq++
		events := sim.SimulateViewer(w.rng, "viewer"+strconv.Itoa(w.seq), vid, dot, h, sim.DefaultViewerBehavior())
		if len(events) == 0 {
			continue
		}
		body, err := json.Marshal(events)
		if err != nil {
			panic(err) // play.Event always marshals
		}
		return viewerSession{video: v, events: events, body: body}
	}
}

func videoID(w *env, v int) string { return w.m.videos[v].video.ID }

// prepare runs cold-start detection on every crawled video and checks it
// against the reference initializer.
func (w *viewers) prepare() error {
	return coldStart(w.e, w.e.conns[0])
}

func coldStart(e *env, c *conn) error {
	for v := range e.m.videos {
		resp, err := c.do("GET", "/api/highlights?k="+strconv.Itoa(defaultK)+"&video="+url.QueryEscape(videoID(e, v)), "", nil)
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK {
			return fmt.Errorf("cold start of %s: status %d", videoID(e, v), resp.status)
		}
		var r struct {
			Dots []core.RedDot `json:"dots"`
		}
		if err := json.Unmarshal(resp.body, &r); err != nil {
			return err
		}
		if !reflect.DeepEqual(r.Dots, e.cold[v]) {
			e.mismatch("%s: cold-start dots differ from the reference initializer", videoID(e, v))
		}
	}
	return nil
}

// post sends one session; a zero due marks an unmeasured operation.
func (w *viewers) post(c *conn, s viewerSession, due time.Time) (opRec, bool) {
	w.mu.Lock()
	w.sent[s.video] = append(w.sent[s.video], s.events...)
	w.mu.Unlock()
	op := opRec{id: c.nextID(), kind: "interaction", key: videoID(w.e, s.video)}
	resp, err := c.do("POST", "/api/interactions?video="+url.QueryEscape(op.key), "", s.body)
	w.mu.Lock()
	ok := w.out.count(resp.status, err, http.StatusNoContent)
	if ok {
		w.acked[s.video] = append(w.acked[s.video], s.events...)
		w.nAcked[s.video]++
		if !due.IsZero() && w.nAcked[s.video]%refineEvery == 0 {
			w.triggers <- refineTrigger{video: s.video, at: time.Now()}
		}
	}
	w.mu.Unlock()
	return op, ok
}

func (w *viewers) fixed(start, end time.Time) {
	w.sideWG.Add(1)
	go w.refineLane(w.e.conns[1])
	c := w.e.conns[0]
	step := interval(viewersRate)
	ts := openLoop(w.e.clk, start, step, end, func(i int) bool {
		op, ok := w.post(c, w.session(), start.Add(time.Duration(i)*step))
		w.out.ops = append(w.out.ops, op)
		return ok
	})
	close(w.phase)
	w.sideWG.Wait()
	for i, t := range ts {
		w.out.ops[i].t = t
		w.out.recordAck(t)
	}
}

// refineLane serves refine triggers until the fixed-rate phase ends.
func (w *viewers) refineLane(c *conn) {
	defer w.sideWG.Done()
	for {
		select {
		case <-w.phase:
			return
		case t := <-w.triggers:
			if w.refine(c, t.video) {
				w.refDist.addDur(time.Since(t.at))
			} else {
				w.refDist.fail()
			}
		}
	}
}

// refine runs one refine round on video v and reports whether the refined
// boundaries became visible through /api/highlights.
func (w *viewers) refine(c *conn, v int) bool {
	id := url.QueryEscape(videoID(w.e, v))
	w.mu.Lock()
	r := refineRun{video: v, lo: len(w.acked[v]), input: w.dots[v]}
	w.mu.Unlock()
	resp, err := c.do("POST", "/api/refine?video="+id, "", nil)
	w.mu.Lock()
	r.hi = len(w.sent[v])
	r.events = w.sent[v][:r.hi]
	ok := w.out.count(resp.status, err, http.StatusAccepted)
	w.mu.Unlock()
	if !ok {
		return false
	}
	var job struct {
		Job        string          `json:"job"`
		Status     string          `json:"status"`
		Dots       []core.RedDot   `json:"dots"`
		Boundaries []core.Interval `json:"boundaries"`
	}
	if err := json.Unmarshal(resp.body, &job); err != nil {
		w.e.mismatch("refine %s: unparsable response: %v", id, err)
		return false
	}
	for job.Status != "done" {
		pause(pollPause)
		resp, err := c.do("GET", "/api/refine/status?job="+url.QueryEscape(job.Job), "", nil)
		if err != nil || resp.status != http.StatusOK {
			w.mu.Lock()
			w.out.count(resp.status, err)
			w.mu.Unlock()
			return false
		}
		if err := json.Unmarshal(resp.body, &job); err != nil {
			w.e.mismatch("refine status %s: unparsable response: %v", job.Job, err)
			return false
		}
		if job.Status == "failed" {
			w.e.mismatch("refine job %s failed", job.Job)
			return false
		}
	}
	// The job reports done before its result is stored (engine.RefineQueue
	// marks it done, then runs the store callback), so the first read may
	// still show the previous boundaries: poll until the result is visible
	// and count the stale reads.
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err = c.do("GET", "/api/highlights?k="+strconv.Itoa(defaultK)+"&video="+id, "", nil)
		w.mu.Lock()
		ok = w.out.count(resp.status, err, http.StatusOK)
		w.mu.Unlock()
		if !ok {
			return false
		}
		var hl struct {
			Dots       []core.RedDot   `json:"dots"`
			Boundaries []core.Interval `json:"boundaries"`
		}
		if err := json.Unmarshal(resp.body, &hl); err != nil {
			w.e.mismatch("highlights %s: unparsable response: %v", id, err)
			return false
		}
		if reflect.DeepEqual(hl.Boundaries, job.Boundaries) && reflect.DeepEqual(hl.Dots, job.Dots) {
			break
		}
		w.staleReads++
		pause(pollPause)
		if time.Now().After(deadline) {
			w.e.mismatch("%s: /api/highlights does not show refine job %s's result within 5s", id, job.Job)
			return false
		}
	}
	r.bounds = job.Boundaries
	w.dots[v] = job.Dots
	w.refines = append(w.refines, r)
	return true
}

func (w *viewers) capacity(end time.Time) {
	closedLanes(w.e, end, &w.mu, &w.out, func(c *conn) bool {
		w.mu.Lock()
		s := w.session()
		w.mu.Unlock()
		_, ok := w.post(c, s, time.Time{})
		return ok
	})
}

// finish reads every video's interaction log back and checks each
// refine round against the reference extractor.
func (w *viewers) finish() error {
	c := w.e.conns[0]
	for v := range w.e.m.videos {
		id := url.QueryEscape(videoID(w.e, v))
		var got []play.Event
		for {
			resp, err := c.do("GET", "/api/interactions?limit=5000&offset="+strconv.Itoa(len(got))+"&video="+id, "", nil)
			if err != nil {
				return err
			}
			if resp.status != http.StatusOK {
				return fmt.Errorf("reading back %s: status %d", id, resp.status)
			}
			var page struct {
				Events []play.Event `json:"events"`
				Total  int          `json:"total"`
			}
			if err := json.Unmarshal(resp.body, &page); err != nil {
				return err
			}
			got = append(got, page.Events...)
			if len(page.Events) == 0 || len(got) >= page.Total {
				break
			}
		}
		if !contains(got, w.acked[v]) {
			w.e.mismatch("%s: %d acked events are not all readable back (log holds %d)", id, len(w.acked[v]), len(got))
		}
	}
	for _, r := range w.refines {
		if !w.matchesReference(r) {
			w.e.mismatch("%s: refined boundaries differ from the reference extractor on every snapshot in [%d,%d] events",
				videoID(w.e, r.video), r.lo, r.hi)
		}
	}
	w.out.refines = w.refines
	w.out.visible = w.refDist
	w.out.names = metricNames{"interaction_ack", "refine", "interaction_capacity_per_s"}
	w.out.notes = append(w.out.notes, fmt.Sprintf("refine rounds %d, every %d sessions per video; %d highlights reads after \"done\" still showed the previous result",
		len(w.refines), refineEvery, w.staleReads))
	return nil
}

// matchesReference reports whether some prefix of the video's sent events
// between lo and hi, sessionized and refined by a single-process
// core.Extractor, gives the job's boundaries. The job snapshots the log
// when it is enqueued, which falls between those two counts.
func (w *viewers) matchesReference(r refineRun) bool {
	for n := r.lo; n <= r.hi; n++ {
		if reflect.DeepEqual(refineReference(w.e.m.ext, r.input, play.Sessionize(r.events[:n])), r.bounds) {
			return true
		}
	}
	return false
}

// refineReference is what one refine round computes: every dot refined
// from a DefaultSpan seed against the same plays.
func refineReference(ext *core.Extractor, dots []core.RedDot, plays []play.Play) []core.Interval {
	src := constPlays(plays)
	out := make([]core.Interval, len(dots))
	for i, d := range dots {
		out[i], _ = ext.Refine(core.Interval{Start: d.Time, End: d.Time + ext.Config().DefaultSpan}, src)
	}
	return out
}

type constPlays []play.Play

func (p constPlays) Interactions(float64) []play.Play { return p }

// contains reports whether every event of want is in got. Sessions from
// the two capacity-phase lanes may be logged in either order, so this is
// a multiset check; within one session the order is the one sent.
func contains(got, want []play.Event) bool {
	have := make(map[play.Event]int, len(got))
	for _, g := range got {
		have[g]++
	}
	for _, e := range want {
		if have[e] == 0 {
			return false
		}
		have[e]--
	}
	return true
}

func (w *viewers) result() *outcome { return &w.out }

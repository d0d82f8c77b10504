package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"lightor/internal/core"
)

// live_broadcast: the Highlight Initializer path. Sixteen channels replay
// seeded broadcasts back to back as 16-message chat batches; each
// broadcast opens its session with its first POST and ends with DELETE.
// Channel live-00 is the probe channel: it carries seven eighths of the
// offered batches, so the one SSE connection that follows it sees over
// 1000 red dots in a 30 s run, enough for a p99, and the fifteen others
// share the rest.
const (
	numBroadcasts = 64
	liveChannels  = 16
	// liveRate is the offered rate in requests (batches and closes) per
	// second: about 16k chat messages/s, a sixth of the ~99k msgs/s one
	// connection sustains closed-loop against a durable server on a
	// 2-core machine. Each close waits for the session's final durable
	// checkpoint while holding the one ingest connection, and a shared
	// host can halve the server's speed for seconds at a time; the rate
	// keeps headroom for both so queueing does not decide the latency.
	liveRate = 1000.0
)

type liveInstance struct {
	ch    string
	b     *broadcast
	probe bool
	next  int // next body to send; len(bodies) means the close is next

	// Written by the ingest lane.
	due       []time.Time // per body (and the close, last) when sent in the fixed phase
	ids       []int64
	failed    bool
	closeDots []core.RedDot

	// Written by the SSE lane.
	got    []core.RedDot
	readAt []time.Time
	sseErr error
}

type liveLane struct {
	ch    string
	probe bool
	idx   int
	plays int
	cur   *liveInstance
}

type live struct {
	e         *env
	lanes     []*liveLane
	slot      int
	instances []*liveInstance
	out       outcome
	// probeQ hands probe broadcasts to the SSE lane once their session
	// exists. Its buffer exceeds the number of probe broadcasts any run
	// starts, so the ingest lane never waits on the SSE lane.
	probeQ  chan *liveInstance
	sseDone sync.WaitGroup
}

func newLive(e *env) *live {
	w := &live{e: e, probeQ: make(chan *liveInstance, 1<<14)}
	for i := 0; i < liveChannels; i++ {
		w.lanes = append(w.lanes, &liveLane{ch: fmt.Sprintf("live-%02d", i), probe: i == 0, idx: i})
	}
	return w
}

// laneOf maps schedule slot k to a lane: seven slots in eight are the
// probe channel's, the eighth rotates over the other fifteen.
func laneOf(k int) int {
	if k%8 != 7 {
		return 0
	}
	return 1 + (k/8)%(liveChannels-1)
}

func (w *live) prepare() error {
	w.sseDone.Add(1)
	go w.sseLane(w.e.conns[1])
	return nil
}

// sseLane follows each probe broadcast over GET /api/live/stream from
// cursor 0 until its terminal event.
func (w *live) sseLane(c *conn) {
	defer w.sseDone.Done()
	for inst := range w.probeQ {
		inst.sseErr = c.stream("/api/live/stream?channel="+inst.ch+"&cursor=0", func(f sseFrame) {
			var r struct {
				Dots   []core.RedDot `json:"dots"`
				Cursor int           `json:"cursor"`
			}
			if err := json.Unmarshal(f.data, &r); err != nil {
				inst.sseErr = fmt.Errorf("bad dots frame: %w", err)
				return
			}
			if r.Cursor-len(r.Dots) != len(inst.got) {
				inst.sseErr = fmt.Errorf("frame covers [%d,%d) after %d dots", r.Cursor-len(r.Dots), r.Cursor, len(inst.got))
				return
			}
			inst.got = append(inst.got, r.Dots...)
			for range r.Dots {
				inst.readAt = append(inst.readAt, f.at)
			}
		})
	}
}

// step sends the next operation of the next lane in the schedule. A zero
// due marks an unmeasured (capacity or tail) operation.
func (w *live) step(c *conn, l *liveLane, due time.Time) (op opRec, ok bool) {
	if l.cur == nil {
		b := w.e.bcs[(l.idx*3+l.plays*7)%len(w.e.bcs)]
		l.plays++
		l.cur = &liveInstance{ch: l.ch, b: b, probe: l.probe,
			due: make([]time.Time, len(b.bodies)+1), ids: make([]int64, len(b.bodies)+1)}
		w.instances = append(w.instances, l.cur)
	}
	inst := l.cur
	i := inst.next
	inst.next++
	op = opRec{id: c.nextID(), key: inst.ch}
	if !due.IsZero() {
		inst.due[i], inst.ids[i] = due, op.id
	}
	if i < len(inst.b.bodies) {
		op.kind = "chat"
		resp, err := c.do("POST", "/api/live/chat?channel="+inst.ch, "", inst.b.bodies[i])
		ok = w.out.count(resp.status, err, http.StatusAccepted)
		if !ok {
			inst.failed = true
		} else if due.IsZero() {
			w.out.capDone = append(w.out.capDone, sample{time.Now(), float64(min(batchSize, len(inst.b.msgs)-i*batchSize))})
		}
		if i == 0 && inst.probe {
			w.probeQ <- inst
		}
		return op, ok
	}
	op.kind = "close"
	l.cur = nil
	resp, err := c.do("DELETE", "/api/live/session?channel="+inst.ch, "", nil)
	ok = w.out.count(resp.status, err, http.StatusOK)
	if ok {
		var r struct {
			Dots []core.RedDot `json:"dots"`
		}
		if err := json.Unmarshal(resp.body, &r); err != nil {
			w.e.mismatch("%s close: unparsable response: %v", inst.ch, err)
		}
		inst.closeDots = r.Dots
	} else {
		inst.failed = true
	}
	return op, ok
}

func (w *live) next(c *conn, due time.Time) (opRec, bool) {
	l := w.lanes[laneOf(w.slot)]
	w.slot++
	return w.step(c, l, due)
}

func (w *live) fixed(start, end time.Time) {
	c := w.e.conns[0]
	ts := openLoop(w.e.clk, start, interval(liveRate), end, func(i int) bool {
		op, ok := w.next(c, start.Add(time.Duration(i)*interval(liveRate)))
		w.out.ops = append(w.out.ops, op)
		return ok
	})
	for i, t := range ts {
		w.out.ops[i].t = t
		if w.out.ops[i].kind == "chat" {
			w.out.recordAck(t)
		}
	}
}

func (w *live) capacity(end time.Time) {
	c := w.e.conns[0]
	closedLoop(w.e.clk, end, func() { w.next(c, time.Time{}) })
}

func (w *live) finish() error {
	c := w.e.conns[0]
	for _, l := range w.lanes {
		for l.cur != nil {
			w.step(c, l, time.Time{})
		}
	}
	close(w.probeQ)
	w.sseDone.Wait()

	var redDot dist
	for _, inst := range w.instances {
		w.out.streams = append(w.out.streams, inst.b.msgs[:min(len(inst.b.msgs), inst.next*batchSize)])
		if inst.failed {
			continue
		}
		if !reflect.DeepEqual(nonNil(inst.closeDots), nonNil(inst.b.dots)) {
			w.e.mismatch("%s: close returned %d dots, reference has %d (or they differ)", inst.ch, len(inst.closeDots), len(inst.b.dots))
		}
		if !inst.probe {
			continue
		}
		if inst.sseErr != nil {
			w.e.mismatch("%s stream: %v", inst.ch, inst.sseErr)
		} else if !reflect.DeepEqual(nonNil(inst.got), nonNil(inst.b.dots)) {
			w.e.mismatch("%s stream delivered %d dots, reference has %d (or they differ)", inst.ch, len(inst.got), len(inst.b.dots))
		}
		for d, e := range inst.b.emitter {
			if inst.due[e].IsZero() {
				continue
			}
			s := dotSample{emitter: inst.ids[e], key: inst.ch, idx: d, due: inst.due[e]}
			if d < len(inst.readAt) {
				s.read, s.ok = inst.readAt[d], true
				redDot.addDur(s.read.Sub(s.due))
			} else {
				redDot.fail()
			}
			w.out.dots = append(w.out.dots, s)
		}
	}
	w.out.visible = redDot
	w.out.names = metricNames{"ingest_ack", "red_dot", "ingest_capacity_msgs_per_s"}
	w.out.notes = append(w.out.notes, fmt.Sprintf("broadcasts played %d", len(w.instances)))
	return nil
}

func (w *live) result() *outcome { return &w.out }

func nonNil(d []core.RedDot) []core.RedDot {
	if d == nil {
		return []core.RedDot{}
	}
	return d
}

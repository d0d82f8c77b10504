package platform

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lightor/internal/core"
	"lightor/internal/engine"
)

// sseEvent is one parsed SSE block (either an event or a comment-only
// keepalive).
type sseEvent struct {
	event   string
	id      string
	data    string
	comment bool
}

// readSSEEvent reads one blank-line-terminated block off the stream.
func readSSEEvent(br *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	sawField := false
	var data []string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimSuffix(line, "\n")
		if line == "" {
			if !sawField && !ev.comment {
				continue // leading blank lines between blocks
			}
			ev.data = strings.Join(data, "\n")
			ev.comment = !sawField
			return ev, nil
		}
		if strings.HasPrefix(line, ":") {
			ev.comment = true
			continue
		}
		sawField = true
		name, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch name {
		case "event":
			ev.event = value
		case "id":
			ev.id = value
		case "data":
			data = append(data, value)
		}
	}
}

// parsePushFrame decodes a hub frame's bytes through the same SSE rules a
// client applies.
func parsePushFrame(t *testing.T, frame []byte) sseEvent {
	t.Helper()
	ev, err := readSSEEvent(bufio.NewReader(strings.NewReader(string(frame))))
	if err != nil {
		t.Fatalf("parsing frame %q: %v", frame, err)
	}
	return ev
}

// openSSE issues GET /api/live/stream and returns the response plus a
// buffered reader over the event stream. The context bounds every read so
// a broken stream fails the test instead of hanging it.
func openSSE(t *testing.T, ctx context.Context, base, channel string, cursor int) (*http.Response, *bufio.Reader) {
	t.Helper()
	url := fmt.Sprintf("%s/api/live/stream?channel=%s&cursor=%d", base, channel, cursor)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stream status = %d, body %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	return resp, bufio.NewReader(resp.Body)
}

// TestLiveStreamSSEContract drives the documented push contract end to
// end over real HTTP: connecting mid-stream delivers one coalesced
// catch-up frame from the requested cursor, subsequent emissions arrive
// as incremental "dots" events whose id is the new cursor (the
// Last-Event-ID resume point), payloads are byte-compatible
// LiveDotsResponse deltas, and quiet periods carry comment heartbeats.
func TestLiveStreamSSEContract(t *testing.T) {
	init, target := trainedInitializer(t)
	svc := &Service{Store: NewStore(), Engine: liveTestEngine(t, init), PushHeartbeat: 25 * time.Millisecond}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	msgs := target.Chat.Log.Messages()
	if len(msgs) > 2048 {
		msgs = msgs[:2048]
	}
	half := len(msgs) / 2

	ingestLive(t, srv.URL, "push", msgs[:half])
	first := waitCursor(t, srv.URL, "push", 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, br := openSSE(t, ctx, srv.URL, "push", 0)
	defer resp.Body.Close()

	// Catch-up: everything from cursor 0 to the current tip in ONE frame.
	ev, err := readSSEEvent(br)
	if err != nil {
		t.Fatal(err)
	}
	if ev.event != "dots" {
		t.Fatalf("first event = %q, want dots", ev.event)
	}
	var catchup LiveDotsResponse
	if err := json.Unmarshal([]byte(ev.data), &catchup); err != nil {
		t.Fatalf("catch-up payload: %v", err)
	}
	if catchup.Channel != "push" || catchup.Cursor < first.Cursor || len(catchup.Dots) != catchup.Cursor {
		t.Fatalf("catch-up = channel %q cursor %d with %d dots, want full history for push",
			catchup.Channel, catchup.Cursor, len(catchup.Dots))
	}
	if ev.id != strconv.Itoa(catchup.Cursor) {
		t.Fatalf("frame id = %q, want the new cursor %d", ev.id, catchup.Cursor)
	}

	// Quiet stream: the next block is a comment heartbeat, not an event.
	hb, err := readSSEEvent(br)
	if err != nil {
		t.Fatal(err)
	}
	if !hb.comment {
		t.Fatalf("expected heartbeat comment during quiet period, got event %+v", hb)
	}

	// Live emission: the second half of the stream arrives incrementally;
	// concatenated deltas must extend exactly from the catch-up cursor.
	ingestLive(t, srv.URL, "push", msgs[half:])
	final := waitCursor(t, srv.URL, "push", catchup.Cursor+1)
	cursor := catchup.Cursor
	got := append([]core.RedDot(nil), catchup.Dots...)
	for cursor < final.Cursor {
		ev, err := readSSEEvent(br)
		if err != nil {
			t.Fatal(err)
		}
		if ev.comment {
			continue
		}
		var delta LiveDotsResponse
		if err := json.Unmarshal([]byte(ev.data), &delta); err != nil {
			t.Fatalf("delta payload: %v", err)
		}
		if len(delta.Dots) != delta.Cursor-cursor {
			t.Fatalf("gap: delta to cursor %d carries %d dots from cursor %d", delta.Cursor, len(delta.Dots), cursor)
		}
		got = append(got, delta.Dots...)
		cursor = delta.Cursor
	}

	// The pushed history must equal what the poll lane serves.
	if cursor != final.Cursor || len(got) != len(final.Dots) {
		t.Fatalf("push converged to %d dots (cursor %d), poll has %d (cursor %d)",
			len(got), cursor, len(final.Dots), final.Cursor)
	}
	for i := range got {
		if got[i] != final.Dots[i] {
			t.Fatalf("push and poll histories diverge at %d: %v vs %v", i, got[i], final.Dots[i])
		}
	}
}

// TestLiveStreamCloseWhileSubscribed pins the satellite-2 contract:
// DELETE /api/live/session must deliver the terminal "end" event to every
// live subscriber — with the final flush-emitted history first — and end
// the response, rather than leaving the connection hanging.
func TestLiveStreamCloseWhileSubscribed(t *testing.T) {
	init, target := trainedInitializer(t)
	svc := &Service{Store: NewStore(), Engine: liveTestEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	msgs := target.Chat.Log.Messages()
	if len(msgs) > 1024 {
		msgs = msgs[:1024]
	}
	ingestLive(t, srv.URL, "closing", msgs)
	waitCursor(t, srv.URL, "closing", 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, br := openSSE(t, ctx, srv.URL, "closing", 0)
	defer resp.Body.Close()
	if _, err := readSSEEvent(br); err != nil { // catch-up frame
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/api/live/session?channel=closing", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var finalHist LiveDotsResponse
	if err := json.NewDecoder(delResp.Body).Decode(&finalHist); err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()

	// The subscriber must now observe (possibly a flush delta, then) the
	// terminal event, followed by end-of-stream.
	var end sseEvent
	for {
		ev, err := readSSEEvent(br)
		if err != nil {
			t.Fatalf("stream ended without a terminal event: %v", err)
		}
		if ev.comment || ev.event == "dots" {
			continue
		}
		end = ev
		break
	}
	if end.event != "end" {
		t.Fatalf("terminal event = %q, want end", end.event)
	}
	var payload LiveStreamEndEvent
	if err := json.Unmarshal([]byte(end.data), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Channel != "closing" || payload.Reason != "closed" || payload.Cursor != finalHist.Cursor {
		t.Fatalf("end payload = %+v, want channel closing, reason closed, cursor %d", payload, finalHist.Cursor)
	}
	if _, err := readSSEEvent(br); err != io.EOF {
		t.Fatalf("stream still open after terminal event (err=%v)", err)
	}
}

// TestLiveStreamDrain pins the SIGTERM path: ClosePush ends every
// subscriber with reason "draining" and rejects new subscriptions with
// 503 + Retry-After.
func TestLiveStreamDrain(t *testing.T) {
	init, target := trainedInitializer(t)
	svc := &Service{Store: NewStore(), Engine: liveTestEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	msgs := target.Chat.Log.Messages()[:512]
	ingestLive(t, srv.URL, "drainme", msgs)
	waitCursor(t, srv.URL, "drainme", 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, br := openSSE(t, ctx, srv.URL, "drainme", 0)
	defer resp.Body.Close()
	if _, err := readSSEEvent(br); err != nil { // catch-up
		t.Fatal(err)
	}

	svc.ClosePush()
	for {
		ev, err := readSSEEvent(br)
		if err != nil {
			t.Fatalf("stream ended without terminal event: %v", err)
		}
		if ev.comment || ev.event == "dots" {
			continue
		}
		var payload LiveStreamEndEvent
		if err := json.Unmarshal([]byte(ev.data), &payload); err != nil {
			t.Fatal(err)
		}
		if ev.event != "end" || payload.Reason != "draining" {
			t.Fatalf("drain event = %q reason %q, want end/draining", ev.event, payload.Reason)
		}
		break
	}

	// New subscriptions are refused while draining.
	r, err := http.Get(srv.URL + "/api/live/stream?channel=drainme")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable || r.Header.Get("Retry-After") == "" {
		t.Fatalf("subscribe while draining = %d (Retry-After %q), want 503 with Retry-After",
			r.StatusCode, r.Header.Get("Retry-After"))
	}
}

// TestLiveStreamSubscriberCap pins -max-subscribers: beyond the cap the
// endpoint answers 503 with a Retry-After, and a released slot becomes
// subscribable again.
func TestLiveStreamSubscriberCap(t *testing.T) {
	init, target := trainedInitializer(t)
	svc := &Service{Store: NewStore(), Engine: liveTestEngine(t, init), MaxSubscribers: 1}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ingestLive(t, srv.URL, "capped", target.Chat.Log.Messages()[:256])
	waitCursor(t, srv.URL, "capped", 0)

	ds, err := svc.SubscribeDots("capped", 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(srv.URL + "/api/live/stream?channel=capped")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap subscribe = %d, want 503", r.StatusCode)
	}
	if ra := r.Header.Get("Retry-After"); ra != pushRetryAfterSeconds {
		t.Fatalf("Retry-After = %q, want %q", ra, pushRetryAfterSeconds)
	}

	ds.Close()
	if ds2, err := svc.SubscribeDots("capped", 0); err != nil {
		t.Fatalf("subscribe after release: %v", err)
	} else {
		ds2.Close()
	}
}

// TestLiveStreamUnknownChannel404 and non-flushable writers fail fast.
func TestLiveStreamErrors(t *testing.T) {
	init, _ := trainedInitializer(t)
	svc := &Service{Store: NewStore(), Engine: liveTestEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	r, err := http.Get(srv.URL + "/api/live/stream?channel=nobody")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown channel = %d, want 404", r.StatusCode)
	}

	// A writer that cannot flush must be refused up front, not silently
	// buffered forever.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/api/live/stream?channel=nobody", nil)
	svc.ServeLiveStream(struct{ http.ResponseWriter }{rec}, req, "nobody", 0)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("non-flushable writer = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "streaming unsupported") {
		t.Fatalf("non-flushable error body = %q", rec.Body.String())
	}
}

// TestPushDropAndResync pins the slow-client policy at the hub level: a
// subscriber whose 2-slot queue overflows is dropped to the lagged path
// and its next read is ONE coalesced delta from its cursor — the
// delivered sequence stays gap-free and converges to the full history,
// with the intermediate versions skipped rather than queued unboundedly.
// TestSubscribeRacesTerminate: a subscribe that a concurrent terminate
// (or broadcast) reaches before SubscribeDots returns must still return.
// The stream's first readiness token used to be sent after registration,
// blocking forever once the terminate's token had filled the slot.
func TestSubscribeRacesTerminate(t *testing.T) {
	init, _ := trainedInitializer(t)
	eng := liveTestEngine(t, init)
	svc := &Service{Store: NewStore(), Engine: eng}
	if _, err := eng.Sessions().GetOrOpen("churn"); err != nil {
		t.Fatal(err)
	}
	svc.initPush()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				svc.push.SessionClosed("churn")
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 200_000 {
			ds, err := svc.SubscribeDots("churn", 0)
			if err != nil {
				t.Error(err)
				return
			}
			ds.Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Error("SubscribeDots hung against a concurrent terminate")
	}
	close(stop)
	wg.Wait()
}

func TestPushDropAndResync(t *testing.T) {
	init, target := trainedInitializer(t)
	eng := liveTestEngine(t, init)
	svc := &Service{Store: NewStore(), Engine: eng, PushQueueLen: 2}
	msgs := target.Chat.Log.Messages()
	if len(msgs) > 2048 {
		msgs = msgs[:2048]
	}
	sess, err := eng.Sessions().GetOrOpen("lag")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := svc.SubscribeDots("lag", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.Pop() // clear the initial lagged state; the subscriber is now "live"

	// Many small batches → many published versions, none popped: the ring
	// must overflow and shed, never grow.
	for i := 0; i < len(msgs); i += 64 {
		if err := sess.Ingest(msgs[i:min(i+64, len(msgs))]...); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for sess.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("mailbox never drained")
		}
		time.Sleep(time.Millisecond)
	}

	stats := svc.PushStats()
	if stats.Drops == 0 {
		t.Fatalf("queue never overflowed (stats %+v); the drill is vacuous", stats)
	}

	// Drain: frames must chain exactly (each starts at the previous end).
	cursor, frames := 0, 0
	for {
		f, ok := ds.Pop()
		if !ok {
			break
		}
		if f.Start != cursor {
			t.Fatalf("gap after overflow: frame starts at %d, cursor is %d", f.Start, cursor)
		}
		cursor = f.End
		frames++
	}
	_, tip, _ := sess.DotsPage(0)
	if cursor != tip || tip == 0 {
		t.Fatalf("resync converged to %d, session tip is %d", cursor, tip)
	}
	if frames > 3 {
		t.Fatalf("expected coalesced resync (≤3 frames), got %d — queue not shedding", frames)
	}
	if after := svc.PushStats(); after.Resyncs == 0 {
		t.Fatalf("no resync recorded: %+v", after)
	}
}

// TestPushDeliverySteadyStateZeroAlloc gates the per-subscriber delivery
// cost: enqueue + Pop of an already-encoded frame must not allocate —
// fan-out to N subscribers is N pointer pushes, nothing per-subscriber on
// the heap. (The one encode per version is accounted separately and
// gated by encodes-per-version == 1 in the benchmark suite.)
func TestPushDeliverySteadyStateZeroAlloc(t *testing.T) {
	ds := &DotStream{
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
		buf:    make([]*PushFrame, defaultPushQueueLen),
	}
	frame := &PushFrame{Data: []byte("event: dots\ndata: {}\n\n"), Start: 0, End: 1, Version: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		ds.cur = 0
		if !ds.enqueue(frame) {
			t.Fatal("enqueue refused")
		}
		if _, ok := ds.Pop(); !ok {
			t.Fatal("pop came up empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state delivery allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestPushSubscribersRaceIngest is the push-side mirror of the PR 5
// poller drill: 1k subscribers on ONE channel race batched ingest and
// checkpointing. Every subscriber must observe a gap-free,
// version-monotonic dot sequence — through broadcasts, overflows, and
// resyncs alike — and converge to the exact final history once the
// session closes (whose terminal event must reach every subscriber).
func TestPushSubscribersRaceIngest(t *testing.T) {
	const (
		subscribers = 1000
		batch       = 64
	)
	init, target := trainedInitializer(t)
	store := NewStore()
	eng, err := engine.New(init, mustExtractor(t), engine.Config{
		Warmup:             -1,
		Threshold:          0.01,
		Checkpoints:        store,
		CheckpointInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Close(ctx); err != nil {
			t.Errorf("engine close: %v", err)
		}
	})
	svc := &Service{Store: store, Engine: eng, PushQueueLen: 4}
	msgs := target.Chat.Log.Messages()
	if len(msgs) > 4096 {
		msgs = msgs[:4096]
	}
	sess, err := eng.Sessions().GetOrOpen("push-race")
	if err != nil {
		t.Fatal(err)
	}

	type subResult struct {
		got []core.RedDot
		err string
	}
	results := make([]subResult, subscribers)
	var wg sync.WaitGroup
	for p := 0; p < subscribers; p++ {
		ds, err := svc.SubscribeDots("push-race", 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, ds *DotStream) {
			defer wg.Done()
			defer ds.Close()
			res := &results[p]
			lastVer := uint64(0)
			for {
				select {
				case <-ds.Ready():
				case <-ds.Done():
				}
				for {
					f, ok := ds.Pop()
					if !ok {
						break
					}
					if f.Terminal {
						return
					}
					if f.Version < lastVer {
						res.err = "version went backwards"
						return
					}
					lastVer = f.Version
					ev := parsePushFrame(t, f.Data)
					var delta LiveDotsResponse
					if err := json.Unmarshal([]byte(ev.data), &delta); err != nil {
						res.err = "bad payload: " + err.Error()
						return
					}
					if len(delta.Dots) != delta.Cursor-len(res.got) {
						res.err = fmt.Sprintf("gap: delta to %d carries %d dots at cursor %d",
							delta.Cursor, len(delta.Dots), len(res.got))
						return
					}
					res.got = append(res.got, delta.Dots...)
				}
			}
		}(p, ds)
	}

	// Checkpoint loop racing ingest and fan-out.
	stopCkpt := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		ctx := context.Background()
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			if err := sess.Checkpoint(ctx); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()

	// Batched, paced ingest keeps the race window open while queues churn.
	for i := 0; i < len(msgs); i += batch {
		if err := sess.Ingest(msgs[i:min(i+batch, len(msgs))]...); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(stopCkpt)
	<-ckptDone

	final, err := eng.Sessions().CloseSession(context.Background(), "push-race")
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(final) == 0 {
		t.Fatal("stream emitted no dots; drill is vacuous")
	}
	for p := range results {
		res := &results[p]
		if res.err != "" {
			t.Fatalf("subscriber %d: %s", p, res.err)
		}
		if len(res.got) != len(final) {
			t.Fatalf("subscriber %d converged to %d dots, final history has %d", p, len(res.got), len(final))
		}
		for i := range res.got {
			if res.got[i] != final[i] {
				t.Fatalf("subscriber %d diverged at %d: %v vs %v", p, i, res.got[i], final[i])
			}
		}
	}
}

package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lightor/internal/engine"
)

// Push delivery: the versioned SSE broadcast hub.
//
// Polling (PR 5) made reads cheap but kept the per-viewer round trip: at
// steady state >99.9% of poll traffic is bodyless 304s — pure overhead.
// The hub inverts the flow. The engine reports every dot-snapshot
// publication through engine.DotListener; the hub encodes the new delta
// EXACTLY ONCE per version — through the same respCache path conditional
// GETs serve from, so pollers and push subscribers share the encoded
// bytes — wraps it in one SSE frame, and fans the same immutable []byte
// out to every subscriber of the channel. Fan-out cost per version is
// O(subscribers) pointer enqueues; encode cost is O(1).
//
// Slow-client policy (drop-and-resync): each subscriber owns a small
// fixed-capacity frame ring. When a burst outruns a subscriber, the hub
// drops that subscriber's ENTIRE queue and marks it lagged; the next read
// rebuilds a single coalesced delta from the subscriber's last delivered
// cursor via the conditional-GET cache path. The subscriber skips the
// intermediate versions and lands directly on the newest one — exactly
// the coalescing a poller gets for free, without unbounded buffering.
// Subscribers sharing a cursor share the resync encoding too (same cache
// key), so even a mass resync stays O(distinct cursors) encodes.
//
// A gap can therefore never be silent: delivered frames always start
// exactly at the subscriber's cursor, in version order. Session close
// (DELETE /api/live/session, engine CloseSession) and server drain
// propagate as a terminal "end" frame, after which the stream is done.

// Default knobs; see the corresponding Service fields.
const (
	defaultPushQueueLen    = 32
	defaultPushHeartbeat   = 15 * time.Second
	defaultMaxSubscribers  = 1 << 20
	pushRetryAfterSeconds  = "5"
	drainRetryAfterSeconds = "30"
)

// Errors surfaced by SubscribeDots; ServeLiveStream maps both to
// 503 + Retry-After.
var (
	// ErrTooManySubscribers reports the -max-subscribers cap is reached.
	ErrTooManySubscribers = errors.New("platform: too many push subscribers")
	// ErrPushDraining reports the hub has shut down (server drain).
	ErrPushDraining = errors.New("platform: push delivery is draining")
)

// PushFrame is one pre-encoded SSE frame. Data is immutable and shared by
// every subscriber it is delivered to; [Start, End) is the cursor window
// of dots the frame carries and Version the dot-snapshot version it was
// encoded at. A Terminal frame ("end" event) is the stream's last.
type PushFrame struct {
	Data     []byte
	Start    int
	End      int
	Version  uint64
	Terminal bool
}

// LiveStreamEndEvent is the payload of the terminal "end" SSE event on
// GET /api/live/stream: the final cursor and why the stream ended
// ("closed" — the broadcast was closed; "draining" — the server is
// shutting down; reconnect elsewhere).
type LiveStreamEndEvent struct {
	Channel string `json:"channel"`
	Cursor  int    `json:"cursor"`
	Reason  string `json:"reason"`
}

// PushStats is a snapshot of the hub's delivery counters.
type PushStats struct {
	Subscribers int64  // currently registered subscribers
	Versions    uint64 // dot versions broadcast
	Encodes     uint64 // JSON encodes performed (broadcast + resync)
	Deliveries  uint64 // frames enqueued to subscribers
	Drops       uint64 // subscriber queue overflows (each followed by a resync)
	Resyncs     uint64 // coalesced catch-up frames built
}

// dotHub is the per-process broadcast hub. It implements
// engine.DotListener; the Service registers it once (initPush) and the
// engine's mailbox workers call DotsPublished synchronously after each
// snapshot swap, so broadcasts for one channel are naturally serialized
// and ordered.
type dotHub struct {
	svc *Service

	mu     sync.Mutex
	chans  map[string]*channelHub
	closed bool

	nsubs      atomic.Int64
	versions   atomic.Uint64
	encodes    atomic.Uint64
	deliveries atomic.Uint64
	drops      atomic.Uint64
	resyncs    atomic.Uint64
}

// channelHub is the subscriber registry for one channel. tip is the
// cursor already broadcast: the next version's frame carries exactly
// [tip, newTip), so a subscriber that keeps up never receives a dot
// twice and never misses one.
type channelHub struct {
	channel string
	sess    *engine.Session

	mu   sync.Mutex
	tip  int
	subs []*DotStream
}

// DotsPublished implements engine.DotListener: encode the delta since the
// channel's broadcast tip once, fan the frame out. Channels nobody
// subscribes to (including the engine's internal replay sessions) cost
// one map lookup and nothing else.
func (h *dotHub) DotsPublished(sess *engine.Session) {
	h.mu.Lock()
	ch := h.chans[sess.Channel()]
	h.mu.Unlock()
	if ch == nil || ch.sess != sess {
		return
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	e, ck, next, ver, encoded, err := h.svc.liveDotsEntry(sess, ch.channel, ch.tip)
	if err != nil || next <= ch.tip {
		return
	}
	if encoded {
		h.encodes.Add(1)
	}
	f := &PushFrame{Start: ck, End: next, Version: ver}
	f.Data = dotsFrame(e, next)
	h.versions.Add(1)
	var delivered, dropped uint64
	for _, sub := range ch.subs {
		if sub.enqueue(f) {
			delivered++
		} else {
			dropped++
		}
	}
	h.deliveries.Add(delivered)
	h.drops.Add(dropped)
	ch.tip = next
}

// SessionClosed implements engine.DotListener: drop the channel's
// registry and terminate every subscriber with the "end" event. The final
// flush dots were reported through DotsPublished first, so terminated
// subscribers still observe the full history (a queue overflowed by the
// final burst resyncs before the terminal frame is surfaced).
func (h *dotHub) SessionClosed(channel string) {
	// Teardown order matters across a handoff: this hook runs inside
	// CloseSession/DetachSession, BEFORE the channel becomes routable to
	// a new owner (the handoff pins its route only after detach returns).
	// Dropping the response-cache entries first and then ending every
	// push subscriber ("end: closed") guarantees no viewer is served a
	// stale catch-up frame for a channel that has already moved — by the
	// time any router points elsewhere, this node holds no cached frames
	// and no live subscriptions for the channel.
	h.svc.dotsCache.drop(channel)
	h.mu.Lock()
	ch := h.chans[channel]
	delete(h.chans, channel)
	h.mu.Unlock()
	if ch != nil {
		h.terminate(ch, "closed")
	}
}

// terminate delivers the terminal frame to every subscriber of ch and
// empties its registry.
func (h *dotHub) terminate(ch *channelHub, reason string) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	f := &PushFrame{Terminal: true, Start: ch.tip, End: ch.tip}
	f.Data = endFrame(ch.channel, ch.tip, reason)
	for _, sub := range ch.subs {
		sub.terminate(f)
	}
	ch.subs = nil
}

// dotsFrame wraps a cached live-dots entry into a "dots" SSE frame. The
// frame id is the new cursor, so EventSource auto-reconnect (which echoes
// the last id as Last-Event-ID) resumes exactly where delivery stopped.
func dotsFrame(e *cacheEntry, next int) []byte {
	body := e.body
	if n := len(body); n > 0 && body[n-1] == '\n' {
		body = body[:n-1] // encoder's trailing newline; the frame adds its own
	}
	var idBuf [20]byte
	id := strconv.AppendInt(idBuf[:0], int64(next), 10)
	return appendSSEFrame(make([]byte, 0, len(body)+len(id)+24), "dots", string(id), body)
}

// endFrame builds the terminal "end" SSE frame. Cold path (once per
// subscriber lifetime), so it just uses encoding/json.
func endFrame(channel string, cursor int, reason string) []byte {
	body, err := json.Marshal(LiveStreamEndEvent{Channel: channel, Cursor: cursor, Reason: reason})
	if err != nil { // unreachable: the struct is plain strings and ints
		body = []byte("{}")
	}
	return appendSSEFrame(make([]byte, 0, len(body)+32), "end", strconv.Itoa(cursor), body)
}

// DotStream is one subscriber's view of a channel's push delivery. It is
// single-consumer: exactly one goroutine calls Pop (the SSE handler, a
// benchmark subscriber); any number of hub goroutines enqueue into it.
type DotStream struct {
	hub     *dotHub
	sess    *engine.Session
	channel string

	// notify is the readiness signal (capacity 1, never closed); done
	// closes when a terminal frame is queued.
	notify chan struct{}
	done   chan struct{}

	mu      sync.Mutex
	buf     []*PushFrame // fixed-capacity frame ring
	head, n int
	cur     int    // dots delivered so far (the subscriber's cursor)
	lastVer uint64 // last delivered version
	lagged  bool   // queue overflowed (or fresh subscription): resync on next Pop
	closed  bool
	idx     int // position in channelHub.subs, for O(1) removal
}

// Ready returns a channel that receives a token when frames may be
// available; pair it with Pop in a select loop.
func (ds *DotStream) Ready() <-chan struct{} { return ds.notify }

// Done returns a channel closed once a terminal frame has been queued:
// after draining Pop, the stream is over.
func (ds *DotStream) Done() <-chan struct{} { return ds.done }

// Cursor returns how many dots have been delivered so far.
func (ds *DotStream) Cursor() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.cur
}

// enqueue offers a broadcast frame, reporting whether it was queued.
// Called with channelHub.mu held (broadcasts for one channel are
// serialized); ds.mu is what synchronizes against the consumer.
func (ds *DotStream) enqueue(f *PushFrame) bool {
	ds.mu.Lock()
	queued := false
	switch {
	case ds.closed || ds.lagged:
		// Already terminal, or already resyncing — the resync delta will
		// cover this frame's dots too.
	case ds.n == len(ds.buf):
		// Overflow: drop-and-resync. Everything queued is superseded by
		// one coalesced delta from ds.cur, so shed it all at once.
		ds.head, ds.n = 0, 0
		ds.lagged = true
	default:
		ds.buf[(ds.head+ds.n)%len(ds.buf)] = f
		ds.n++
		queued = true
	}
	ds.mu.Unlock()
	select {
	case ds.notify <- struct{}{}:
	default:
	}
	return queued
}

// terminate queues the terminal frame (making room by shedding queued
// frames into the lagged/resync path if the ring is full), closes done,
// and deregisters the subscriber from the hub's count.
func (ds *DotStream) terminate(f *PushFrame) {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return
	}
	ds.closed = true
	if ds.n == len(ds.buf) {
		ds.head, ds.n = 0, 0
		ds.lagged = true
	}
	ds.buf[(ds.head+ds.n)%len(ds.buf)] = f
	ds.n++
	ds.mu.Unlock()
	ds.hub.nsubs.Add(-1)
	close(ds.done)
	select {
	case ds.notify <- struct{}{}:
	default:
	}
}

// Pop returns the next frame to write, or (nil, false) when the queue is
// momentarily empty — wait on Ready/Done and call again. Delivered frames
// are gap-free and version-monotonic by construction: a frame that does
// not start exactly at the subscriber's cursor is discarded and replaced
// by a coalesced resync delta built from the cursor through the
// conditional-GET cache path.
func (ds *DotStream) Pop() (*PushFrame, bool) {
	ds.mu.Lock()
	for {
		// Resync before surfacing a terminal frame: the terminal frame may
		// have shed queued dots, and history must be complete first.
		if ds.lagged && (ds.n == 0 || ds.buf[ds.head].Terminal) {
			ds.lagged = false
			cursor := ds.cur
			ds.mu.Unlock()
			if f := ds.resync(cursor); f != nil {
				return f, true
			}
			ds.mu.Lock()
			continue
		}
		if ds.n == 0 {
			ds.mu.Unlock()
			return nil, false
		}
		f := ds.buf[ds.head]
		ds.buf[ds.head] = nil
		ds.head = (ds.head + 1) % len(ds.buf)
		ds.n--
		switch {
		case f.Terminal:
			ds.mu.Unlock()
			return f, true
		case f.End <= ds.cur:
			// Already covered by an earlier resync; skip.
		case f.Start > ds.cur:
			// Gap (frames shed between resync and now): rebuild from cur.
			ds.lagged = true
		default:
			ds.cur = f.End
			ds.lastVer = f.Version
			ds.mu.Unlock()
			return f, true
		}
	}
}

// resync builds one coalesced delta frame from cursor to the session's
// current tip — the conditional-GET path, so concurrent resyncers at the
// same cursor share a single encode. Returns nil when there is nothing
// newer than cursor (or the encode failed); the caller re-checks the
// queue.
func (ds *DotStream) resync(cursor int) *PushFrame {
	h := ds.hub
	h.resyncs.Add(1)
	e, ck, next, ver, encoded, err := h.svc.liveDotsEntry(ds.sess, ds.channel, cursor)
	if err != nil {
		return nil
	}
	if encoded {
		h.encodes.Add(1)
	}
	ds.mu.Lock()
	if next <= ds.cur {
		ds.mu.Unlock()
		return nil
	}
	ds.cur = next
	if ver > ds.lastVer {
		ds.lastVer = ver
	}
	ds.mu.Unlock()
	h.deliveries.Add(1)
	f := &PushFrame{Start: ck, End: next, Version: ver}
	f.Data = dotsFrame(e, next)
	return f
}

// Close deregisters the subscriber. Idempotent; safe after terminate.
func (ds *DotStream) Close() {
	h := ds.hub
	h.mu.Lock()
	if ch := h.chans[ds.channel]; ch != nil {
		ch.mu.Lock()
		if ds.idx < len(ch.subs) && ch.subs[ds.idx] == ds {
			last := len(ch.subs) - 1
			ch.subs[ds.idx] = ch.subs[last]
			ch.subs[ds.idx].idx = ds.idx
			ch.subs[last] = nil
			ch.subs = ch.subs[:last]
			if len(ch.subs) == 0 {
				delete(h.chans, ds.channel)
			}
		}
		ch.mu.Unlock()
	}
	h.mu.Unlock()
	ds.mu.Lock()
	already := ds.closed
	ds.closed = true
	ds.head, ds.n = 0, 0
	ds.mu.Unlock()
	if !already {
		h.nsubs.Add(-1)
	}
}

// initPush wires the hub to the engine exactly once. Handler and
// SubscribeDots both call it, so embedders get push delivery with either
// entry point.
func (s *Service) initPush() {
	s.pushOnce.Do(func() {
		s.push.svc = s
		if s.Engine != nil {
			s.Engine.Sessions().SetDotListener(&s.push)
		}
	})
}

// SubscribeDots registers a push subscriber on a live channel, starting
// from cursor (clamped to the channel's current history). The first
// frames Pop yields deliver everything from the cursor to the tip via a
// coalesced resync; subsequent frames arrive as the engine publishes
// versions. The caller must Close the stream when done.
func (s *Service) SubscribeDots(channel string, cursor int) (*DotStream, error) {
	s.initPush()
	h := &s.push
	sess, ok := s.Engine.Sessions().Get(channel)
	if !ok {
		return nil, fmt.Errorf("%w: %q", engine.ErrUnknownSession, channel)
	}
	if cursor < 0 {
		cursor = 0
	}
	if h.nsubs.Add(1) > int64(s.maxSubscribers()) {
		h.nsubs.Add(-1)
		return nil, ErrTooManySubscribers
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.nsubs.Add(-1)
		return nil, ErrPushDraining
	}
	ch := h.chans[channel]
	if ch != nil && ch.sess != sess {
		// Stale registry from a predecessor broadcast that was closed
		// without notification (possible for embedders driving Session
		// directly): terminate its subscribers and start fresh.
		delete(h.chans, channel)
		go h.terminate(ch, "closed")
		ch = nil
	}
	if ch == nil {
		_, tip, _ := sess.DotsPage(0)
		ch = &channelHub{channel: channel, sess: sess, tip: tip}
		if h.chans == nil {
			h.chans = make(map[string]*channelHub)
		}
		h.chans[channel] = ch
	}
	ch.mu.Lock()
	// Joining subscribers start lagged: their first Pop resyncs from their
	// own cursor up to whatever the broadcast tip is by then, after which
	// queued frames splice on exactly.
	ds := &DotStream{
		hub:     h,
		sess:    sess,
		channel: channel,
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		buf:     make([]*PushFrame, s.pushQueueLen()),
		cur:     min(cursor, ch.tip),
		lagged:  true,
		idx:     len(ch.subs),
	}
	// Signal the lagged start before publishers can see the stream: once
	// registered, a broadcast or terminate may fill the one-slot notify
	// first, and a blocking send here would then never return.
	ds.notify <- struct{}{}
	ch.subs = append(ch.subs, ds)
	ch.mu.Unlock()
	h.mu.Unlock()
	return ds, nil
}

// ClosePush terminates every push subscriber with a terminal "end" frame
// (reason "draining") and rejects new subscriptions — the SIGTERM path:
// call it before http.Server.Shutdown, or active SSE responses would hold
// the graceful shutdown open forever.
func (s *Service) ClosePush() {
	s.initPush()
	h := &s.push
	h.mu.Lock()
	h.closed = true
	chans := h.chans
	h.chans = nil
	h.mu.Unlock()
	for _, ch := range chans {
		h.terminate(ch, "draining")
	}
}

// pushDraining reports whether ClosePush has run — the drain state
// surfaced by GET /api/healthz.
func (s *Service) pushDraining() bool {
	h := &s.push
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// PushStats snapshots the hub's delivery counters.
func (s *Service) PushStats() PushStats {
	h := &s.push
	return PushStats{
		Subscribers: h.nsubs.Load(),
		Versions:    h.versions.Load(),
		Encodes:     h.encodes.Load(),
		Deliveries:  h.deliveries.Load(),
		Drops:       h.drops.Load(),
		Resyncs:     h.resyncs.Load(),
	}
}

func (s *Service) maxSubscribers() int {
	if s.MaxSubscribers > 0 {
		return s.MaxSubscribers
	}
	return defaultMaxSubscribers
}

func (s *Service) pushQueueLen() int {
	if s.PushQueueLen > 0 {
		return s.PushQueueLen
	}
	return defaultPushQueueLen
}

func (s *Service) pushHeartbeat() time.Duration {
	if s.PushHeartbeat > 0 {
		return s.PushHeartbeat
	}
	return defaultPushHeartbeat
}

// handleLiveStream parses GET /api/live/stream. The cursor comes from the
// query, or — on EventSource auto-reconnect — from Last-Event-ID, which
// echoes the id of the last frame the client received (always the cursor
// it advanced the client to), so reconnects resume without duplication.
func (s *Service) handleLiveStream(w http.ResponseWriter, r *http.Request) {
	channel := r.URL.Query().Get("channel")
	if channel == "" {
		http.Error(w, "missing channel parameter", http.StatusBadRequest)
		return
	}
	// Redirected (not proxied): an SSE response is long-lived, and
	// relaying it would pin forwarder resources on the wrong node for the
	// whole broadcast. 307 repeats the request verbatim, so Last-Event-ID
	// survives and resumes land at the right cursor on the owner.
	if !s.route(w, r, channel, routeRedirect) {
		return
	}
	cursor := 0
	cq := r.URL.Query().Get("cursor")
	if cq == "" {
		cq = r.Header.Get("Last-Event-ID")
	}
	if cq != "" {
		parsed, err := strconv.Atoi(cq)
		if err != nil || parsed < 0 {
			http.Error(w, "invalid cursor", http.StatusBadRequest)
			return
		}
		cursor = parsed
	}
	s.ServeLiveStream(w, r, channel, cursor)
}

// ServeLiveStream streams the channel's dots from cursor onward as SSE
// until the client disconnects, the broadcast closes, or the server
// drains — the push lane behind GET /api/live/stream. Frames:
//
//	event: dots  — a LiveDotsResponse delta; id is the new cursor
//	event: end   — terminal LiveStreamEndEvent; the stream is over
//	: hb         — comment heartbeat every PushHeartbeat, keeps
//	               intermediaries from idling the connection out
//
// The response writer must support flushing (http.ResponseController /
// an Unwrap chain reaching http.Flusher); otherwise the request fails
// up front rather than buffering silently forever.
func (s *Service) ServeLiveStream(w http.ResponseWriter, r *http.Request, channel string, cursor int) {
	if !flushableWriter(w) {
		http.Error(w, "streaming unsupported: response writer cannot flush", http.StatusInternalServerError)
		return
	}
	ds, err := s.SubscribeDots(channel, cursor)
	switch {
	case errors.Is(err, engine.ErrUnknownSession):
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	case errors.Is(err, ErrTooManySubscribers):
		s.shed.subscribers.Add(1)
		shedError(w, http.StatusServiceUnavailable, pushRetryAfterSeconds, "subscribers", err.Error())
		return
	case errors.Is(err, ErrPushDraining):
		s.shed.draining.Add(1)
		shedError(w, http.StatusServiceUnavailable, drainRetryAfterSeconds, "draining", err.Error())
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer ds.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	heartbeat := s.pushHeartbeat()
	write := func(p []byte) bool {
		// Bound the write so one wedged client can't pin the handler
		// (best effort — not every writer supports deadlines).
		_ = rc.SetWriteDeadline(time.Now().Add(2 * heartbeat))
		if _, err := w.Write(p); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	// drain writes everything currently deliverable; it reports whether a
	// terminal frame went out (stream over) and whether the client is
	// still writable.
	drain := func() (terminal, ok bool) {
		for {
			f, ok := ds.Pop()
			if !ok {
				return false, true
			}
			if !write(f.Data) {
				return false, false
			}
			if f.Terminal {
				return true, true
			}
		}
	}
	// Initial catch-up: the subscription starts lagged, so this first
	// drain delivers one coalesced delta from the requested cursor.
	if terminal, ok := drain(); terminal || !ok {
		return
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if !write(sseHeartbeat) {
				return
			}
		case <-ds.Ready():
			if terminal, ok := drain(); terminal || !ok {
				return
			}
		case <-ds.Done():
			drain()
			return
		}
	}
}

// sseHeartbeat is the keepalive comment frame.
var sseHeartbeat = []byte(": hb\n\n")

// flushableWriter reports whether w (or anything it wraps, following the
// ResponseController Unwrap convention) can flush written bytes to the
// client — the capability SSE cannot work without.
func flushableWriter(w http.ResponseWriter) bool {
	for {
		if _, ok := w.(http.Flusher); ok {
			return true
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return false
		}
		w = u.Unwrap()
	}
}

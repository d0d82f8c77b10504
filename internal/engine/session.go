package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
)

// Sentinel errors returned by the session layer.
var (
	// ErrClosed is returned once the manager (or a single session) has been
	// closed: the engine is draining and accepts no new work.
	ErrClosed = errors.New("engine: closed")
	// ErrOutOfOrder is returned when a message's timestamp precedes the
	// session's high-water mark. Live chat is inherently ordered, so
	// disorder means the caller's plumbing is broken; the batch is rejected
	// before it reaches the mailbox, leaving the session usable.
	ErrOutOfOrder = errors.New("engine: message out of time order")
	// ErrUnknownSession is returned when polling a channel that was never
	// opened.
	ErrUnknownSession = errors.New("engine: unknown session")
	// ErrTooManySessions is returned when opening a channel would exceed
	// the engine's session cap — backpressure against unbounded channel
	// creation by misbehaving clients.
	ErrTooManySessions = errors.New("engine: too many open sessions")
	// ErrHandoff is returned by Open/GetOrOpen while a channel is barred
	// mid-handoff (BarOpen): its state is in flight to another node, and
	// opening a fresh empty session here would shadow it and lose the
	// caller's messages. Retryable — the move settles in one transfer
	// round trip.
	ErrHandoff = errors.New("engine: channel handoff in progress")
	// ErrSessionExists is returned by Open and RestoreSession when the
	// channel is already live on this node. Callers racing to resume the
	// same channel (replica failover vs. an operator-driven resume) treat
	// it as "someone else won" and read the live session instead.
	ErrSessionExists = errors.New("engine: session already open")
)

// sessionDetector is the per-session detection backend. Live sessions wrap
// core.OnlineDetector; replay sessions accumulate the log and run the batch
// initializer at flush, which is how batch extraction becomes "replay over
// the streaming path" rather than a separate pipeline.
//
// feedAll consumes a whole ingest batch in one call — the mailbox hands a
// batch envelope's slice straight through, so the per-message cost is the
// detector's alone, with no per-message dispatch above it. The slice is
// only valid for the duration of the call (it returns to a pool);
// implementations must copy any messages they retain.
type sessionDetector interface {
	feedAll(ms []chat.Message) ([]core.RedDot, error)
	advance(now float64) []core.RedDot
	flush() ([]core.RedDot, error)
}

// onlineBackend adapts core.OnlineDetector to the sessionDetector shape.
type onlineBackend struct{ od *core.OnlineDetector }

func (b onlineBackend) feedAll(ms []chat.Message) ([]core.RedDot, error) {
	var dots []core.RedDot
	for _, m := range ms {
		d, err := b.od.Feed(m)
		if len(d) > 0 {
			dots = append(dots, d...)
		}
		if err != nil {
			return dots, err
		}
	}
	return dots, nil
}
func (b onlineBackend) advance(now float64) []core.RedDot { return b.od.Advance(now) }
func (b onlineBackend) flush() ([]core.RedDot, error)     { return b.od.Flush(), nil }

// replayBackend buffers the stream and runs batch top-k detection when the
// stream ends. It sees exactly the same message sequence a live session
// would, but normalizes features over the full log — the semantics of
// Initializer.Detect, and therefore of the legacy Workflow.Run.
type replayBackend struct {
	init     *core.Initializer
	duration float64
	k        int
	messages []chat.Message
}

func (b *replayBackend) feedAll(ms []chat.Message) ([]core.RedDot, error) {
	// One append for the whole batch. The envelope's slice is pooled, so
	// the copy is mandatory, not just prudent.
	b.messages = append(b.messages, ms...)
	return nil, nil
}

func (b *replayBackend) advance(now float64) []core.RedDot { return nil }

func (b *replayBackend) flush() ([]core.RedDot, error) {
	return b.init.Detect(chat.NewLog(b.messages), b.duration, b.k)
}

// envelope is one unit of mailbox work: a message batch, a clock advance,
// a checkpoint request, or a flush. Exactly one kind set per envelope.
// A whole Ingest batch rides ONE envelope — one lock acquisition and one
// dispatch per batch, not per message — which is what lets burst ingest
// amortize the mailbox tax.
type envelope struct {
	msgs       []chat.Message  // batch payload; backed by msgBuf when pooled
	msgBuf     *[]chat.Message // pooled buffer to recycle after processing
	advance    float64
	flush      bool
	checkpoint bool
	detach     bool          // serialize the detector for handoff (see handoff.go)
	done       chan struct{} // non-nil for flush/detach: closed when processed
	ckptRes    chan error    // non-nil for blocking checkpoint: receives the result
}

// msgBufPool recycles ingest batch buffers across all sessions. Buffers
// grow to the largest batch a caller sends and are then reused verbatim,
// so steady-state batched ingest allocates nothing at the envelope level.
var msgBufPool = sync.Pool{
	New: func() any {
		b := make([]chat.Message, 0, 64)
		return &b
	},
}

// maxPooledBatch caps the batch buffer retained in the pool (in
// messages): a one-off giant backfill batch must not pin tens of
// megabytes on the pool forever. Burst-sized buffers recycle; outliers
// are left to the GC.
const maxPooledBatch = 1 << 14

// putMsgBuf recycles a batch buffer. Message structs are zeroed first so
// the pool never pins a batch's chat text for the arbitrary lifetime of an
// idle buffer.
func putMsgBuf(bp *[]chat.Message) {
	if cap(*bp) > maxPooledBatch {
		return
	}
	clear(*bp)
	*bp = (*bp)[:0]
	msgBufPool.Put(bp)
}

// release recycles the envelope's pooled message buffer after processing.
func (env *envelope) release() {
	if env.msgBuf == nil {
		return
	}
	putMsgBuf(env.msgBuf)
	env.msgBuf = nil
	env.msgs = nil
}

// envelopeRing is the session mailbox: a growable FIFO ring whose backing
// array is reused across drain cycles. The slice mailbox it replaces
// re-allocated on every produce/drain cycle (drain handed the slice to the
// worker and left nil behind); the ring reaches its high-water capacity
// once and then enqueues allocation-free forever.
type envelopeRing struct {
	buf  []envelope
	head int
	n    int
}

func (r *envelopeRing) push(env envelope) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = env
	r.n++
}

func (r *envelopeRing) pop() (envelope, bool) {
	if r.n == 0 {
		return envelope{}, false
	}
	env := r.buf[r.head]
	r.buf[r.head] = envelope{} // drop payload references for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return env, true
}

func (r *envelopeRing) len() int { return r.n }

// grow doubles the ring (power-of-two capacity keeps the index mask cheap),
// unwrapping the live window to the front of the new buffer.
func (r *envelopeRing) grow() {
	next := make([]envelope, max(2*len(r.buf), 8))
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = next, 0
}

// dotSnapshot is one immutable published state of a session's emission
// history. The dots slice is copy-on-write: a publish allocates a fresh
// backing array, so every snapshot a reader has loaded stays valid and
// bit-stable forever — readers slice it without locks or copies.
//
// Version is strictly monotonic within a session AND unique across all
// sessions in the process (drawn from a global counter), so a response
// cache keyed by (channel, version) can never serve one broadcast's dots
// for a successor session that reused the channel id.
type dotSnapshot struct {
	dots    []core.RedDot // immutable; never appended to in place
	version uint64
}

// dotVersionSeq issues dot-snapshot versions. Global (not per-session) so
// versions are unique process-wide; see dotSnapshot.
var dotVersionSeq atomic.Uint64

// newDotSnapshot stamps an immutable dots slice with a fresh version. The
// caller must hand over ownership of dots (it is never mutated again).
func newDotSnapshot(dots []core.RedDot) *dotSnapshot {
	return &dotSnapshot{dots: dots, version: dotVersionSeq.Add(1)}
}

// DotListener observes the emission lifecycle of every session in a
// manager. It is the engine-side hook push delivery hangs off: polling
// reads the snapshot pointer whenever it likes, but a broadcast hub needs
// to know the moment the pointer swaps so it can encode the new version
// once and fan the bytes out.
//
// DotsPublished runs synchronously on the worker that owns the session's
// mailbox, immediately after a new dot snapshot is published — calls for
// one session are therefore serialized and ordered, and the listener may
// call s.DotsPage without racing the publish it is being told about. It
// must not block for long (it stalls that channel's mailbox) and must not
// call back into the manager's session lifecycle.
//
// SessionClosed runs after CloseSession has flushed a channel and removed
// it from the manager; the final flush-emitted dots (if any) were reported
// through DotsPublished first, so a listener that forwards both events in
// order never truncates history.
type DotListener interface {
	DotsPublished(s *Session)
	SessionClosed(channel string)
}

// Session is one live channel's detection state: an ordered mailbox in
// front of a detection backend. Any number of goroutines may enqueue work;
// exactly one pool worker drains the mailbox at a time, so the backend
// itself never sees concurrency and messages are processed in arrival
// order.
type Session struct {
	channel string
	mgr     *SessionManager

	// dots is the published emission history: an immutable copy-on-write
	// snapshot readers load without taking any lock. Only the worker that
	// owns the mailbox (and session construction/resume, before the
	// session is visible) stores a new snapshot, so writes never race.
	dots atomic.Pointer[dotSnapshot]

	mu        sync.Mutex // guards queue, running, busy, watermark, closed, err
	queue     envelopeRing
	running   bool
	busy      bool // the worker has popped an envelope it has not finished
	closed    bool
	flushDone chan struct{} // non-nil once a flush is enqueued; closed when processed
	watermark float64       // highest timestamp accepted so far
	flushErr  error

	// Handoff state (see handoff.go): set once a detach is enqueued /
	// processed. Guarded by mu.
	detachDone  chan struct{}
	detachState []byte
	detachWM    float64 // detector clock the detach state captures
	detachErr   error

	detMu   sync.Mutex // guards det across worker/flush handoffs
	det     sessionDetector
	snapBuf []byte // reusable checkpoint encode buffer; guarded by detMu
}

// Channel returns the session's channel identifier.
func (s *Session) Channel() string { return s.channel }

// Ingest validates and enqueues a batch of live chat messages as ONE
// envelope: one watermark check, one lock acquisition, one dispatch —
// the whole batch then flows through the worker in a single feedAll call,
// so the per-message mailbox tax is amortized across the batch. Order is
// checked against the session's high-water mark at enqueue time (including
// within the batch itself), so the caller gets a synchronous ErrOutOfOrder
// with the session untouched instead of a poisoned mailbox. The caller's
// slice is copied into a pooled buffer; steady-state batched ingest is
// allocation-free.
func (s *Session) Ingest(msgs ...chat.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	bp := msgBufPool.Get().(*[]chat.Message)
	*bp = append((*bp)[:0], msgs...)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		putMsgBuf(bp)
		return ErrClosed
	}
	last := s.watermark
	for _, m := range msgs {
		if m.Time < last {
			s.mu.Unlock()
			putMsgBuf(bp)
			return fmt.Errorf("%w: %.3fs after %.3fs on channel %q",
				ErrOutOfOrder, m.Time, last, s.channel)
		}
		last = m.Time
	}
	s.watermark = last
	s.enqueueLocked(envelope{msgs: *bp, msgBuf: bp})
	s.mu.Unlock()
	return nil
}

// Advance moves the session clock during quiet periods so windows finalize
// without requiring a message.
func (s *Session) Advance(now float64) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if now > s.watermark {
		s.watermark = now
	}
	s.enqueueLocked(envelope{advance: now})
	s.mu.Unlock()
	return nil
}

// Flush ends the stream: the session stops accepting work, all queued
// envelopes are processed in order, and remaining windows finalize. It
// blocks until the flush has been processed (or ctx expires) and returns
// the session's full emission history. Flush is idempotent — concurrent
// or repeated calls all wait for the same flush and see the same final
// history. A session closed by the engine's drain (which processes queued
// work but does not finalize) returns ErrClosed.
func (s *Session) Flush(ctx context.Context) ([]core.RedDot, error) {
	s.mu.Lock()
	if s.flushDone == nil {
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		s.closed = true
		s.flushDone = make(chan struct{})
		s.enqueueLocked(envelope{flush: true, done: s.flushDone})
	}
	done := s.flushDone
	s.mu.Unlock()

	select {
	case <-done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// The flush envelope is the mailbox's final item (the session is
	// closed, so nothing enqueues behind it), and its snapshot store and
	// error record both happened before close(done) — this load observes
	// the complete history. Dots are read BEFORE the error on principle:
	// were a publish ever concurrent, the conservative pairing (older
	// dots, newer error) is the one the pre-snapshot code guaranteed.
	// Copied: Flush hands ownership to the caller, unlike the read-only
	// DotsPage view.
	dots := append([]core.RedDot(nil), s.dots.Load().dots...)
	s.mu.Lock()
	flushErr := s.flushErr
	s.mu.Unlock()
	return dots, flushErr
}

// Dots returns a copy of the dots emitted since cursor (an offset into the
// emission history; 0 means "from the beginning") together with the new
// cursor. Pollers hand the cursor back on their next call to receive only
// fresh dots. The copy is the caller's to mutate; high-rate read paths
// should use DotsPage, the allocation-free form.
func (s *Session) Dots(cursor int) ([]core.RedDot, int) {
	fresh, next, _ := s.DotsPage(cursor)
	return append([]core.RedDot(nil), fresh...), next
}

// DotsPage is the lock-free read fast lane: it loads the session's current
// immutable emission snapshot and returns the dots since cursor (clamped to
// [0, len]) as a sub-slice of that snapshot, the new cursor, and the
// snapshot's version. It performs no locking, no copying, and no
// allocation, and never contends with ingest, checkpointing, or other
// readers — millions of concurrent pollers scale linearly.
//
// The returned slice is shared and immutable: callers must not modify it.
// The version is strictly monotonic per session and unique across sessions
// process-wide, so (channel, version, cursor) fully keys a response cache;
// it only changes when new dots are published.
func (s *Session) DotsPage(cursor int) ([]core.RedDot, int, uint64) {
	snap := s.dots.Load()
	if cursor < 0 {
		cursor = 0
	}
	if cursor > len(snap.dots) {
		cursor = len(snap.dots)
	}
	return snap.dots[cursor:], len(snap.dots), snap.version
}

// DotsVersion returns the current emission-snapshot version without
// loading the dots; see DotsPage.
func (s *Session) DotsVersion() uint64 { return s.dots.Load().version }

// publishDots appends newly emitted dots as a fresh immutable snapshot.
// Copy-on-write: the new backing array is allocated here (emissions are
// rare — a handful per broadcast) so every previously returned DotsPage
// slice stays valid. Called only by the worker owning the mailbox.
func (s *Session) publishDots(fresh []core.RedDot) {
	old := s.dots.Load().dots
	merged := make([]core.RedDot, len(old)+len(fresh))
	copy(merged, old)
	copy(merged[len(old):], fresh)
	s.dots.Store(newDotSnapshot(merged))
}

// restoreDots replaces the emission history wholesale — the resume path,
// before the session is visible to any reader. Takes ownership of dots.
func (s *Session) restoreDots(dots []core.RedDot) {
	s.dots.Store(newDotSnapshot(dots))
}

// Pending returns the number of envelopes queued in the mailbox plus the
// one the worker is processing, so it reaches 0 only once every accepted
// batch has been fed and its dots published.
func (s *Session) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy {
		return s.queue.len() + 1
	}
	return s.queue.len()
}

// enqueueLocked pushes work onto the mailbox ring and hands the session to
// the pool if no worker currently owns it. Caller holds s.mu.
func (s *Session) enqueueLocked(env envelope) {
	s.queue.push(env)
	s.mgr.items.Add(1)
	if !s.running {
		s.running = true
		s.mgr.dispatch(s)
	}
}

// drain is run by exactly one pool worker at a time: it pops envelopes off
// the ring and processes them in order, releasing ownership only when the
// mailbox is observed empty under the lock. Popping in place (instead of
// swapping the whole queue out) keeps the ring's backing array live for
// reuse — producers enqueueing into it never re-allocate — and each pop is
// one envelope, i.e. one whole ingest batch, so the lock cost stays
// amortized across the batch.
func (s *Session) drain() {
	for {
		s.mu.Lock()
		env, ok := s.queue.pop()
		s.busy = ok
		if !ok {
			s.running = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.process(&env)
		s.mgr.items.Done()
	}
}

func (s *Session) process(env *envelope) {
	s.detMu.Lock()
	var dots []core.RedDot
	var err error
	switch {
	case env.checkpoint:
		cerr := s.checkpointLocked()
		if env.ckptRes != nil {
			env.ckptRes <- cerr
		}
	case env.msgs != nil:
		dots, err = s.det.feedAll(env.msgs)
		env.release()
	case env.detach:
		// Handoff: serialize the detector as-is — open windows, pending
		// normalization, emission history — WITHOUT flushing (the new
		// owner continues the broadcast, it does not end it). The state
		// is also checkpointed locally first, so a crash between this
		// point and the transfer's confirmation still has the latest
		// state durable on this node.
		if snap, ok := s.det.(snapshotter); ok {
			state := snap.snapshotInto(nil)
			_ = s.checkpointLocked()
			s.mu.Lock()
			s.detachState, s.detachWM = state, snap.now()
			s.mu.Unlock()
		} else {
			s.mu.Lock()
			s.detachErr = errNotSnapshottable
			s.mu.Unlock()
		}
	case env.flush:
		dots, err = s.det.flush()
	default:
		dots = s.det.advance(env.advance)
	}
	// Checkpoint-on-emit: a dot is acknowledged to pollers the moment it
	// lands in s.emitted, so persist the detector state that contains it
	// first — a crash right after emission then recovers a checkpoint that
	// still knows the dot. This includes the flush: its final dots are
	// acknowledged in the Flush/CloseSession response, and the flushed
	// snapshot (clock at +Inf) makes a crash between that ack and
	// CloseSession's checkpoint deletion resurrect an *inert* session —
	// full emission history served, all further ingest rejected — rather
	// than a pre-flush live one missing acknowledged dots. Best-effort: a
	// failed store write is retried by the next interval checkpoint.
	if len(dots) > 0 || env.flush {
		_ = s.checkpointLocked()
	}
	s.detMu.Unlock()

	if len(dots) > 0 {
		s.publishDots(dots)
		if lp := s.mgr.listener.Load(); lp != nil {
			(*lp).DotsPublished(s)
		}
	}
	if err != nil {
		s.mu.Lock()
		if s.flushErr == nil {
			s.flushErr = err
		}
		s.mu.Unlock()
	}
	if env.done != nil {
		close(env.done)
	}
}

// SessionManager multiplexes many live channels over a bounded worker
// pool. Each channel gets an ordered mailbox (its Session); the pool
// guarantees per-channel ordering by granting mailbox ownership to one
// worker at a time while different channels progress in parallel.
type SessionManager struct {
	init        *core.Initializer
	threshold   float64
	warmup      float64
	workers     int
	maxSessions int

	// ckpt, when non-nil, enables durable session checkpointing: on a
	// cadence (ckptEvery), on every emission, and at drain.
	ckpt      CheckpointStore
	ckptEvery time.Duration
	ckptStop  chan struct{}

	// listener, when set, observes dot publications and session closes.
	// Atomic (not mu-guarded) because it is read on every emission by
	// mailbox workers; stored as a pointer-to-interface so a nil store
	// cleanly unregisters.
	listener atomic.Pointer[DotListener]

	// ckptListener, when set, observes durable checkpoint writes and
	// deletions — the hook checkpoint replication hangs off. Same atomic
	// pointer-to-interface pattern as listener: read on every checkpoint
	// by mailbox workers, nil store unregisters.
	ckptListener atomic.Pointer[CheckpointListener]

	mu       sync.Mutex
	sessions map[string]*Session
	// barred holds channels whose re-open is refused (ErrHandoff): their
	// state is mid-transfer to another node, and a fresh empty session
	// here would shadow it. See BarOpen/UnbarOpen in handoff.go. Restore
	// paths lift the bar atomically with registration (registerWith).
	barred map[string]struct{}
	closed bool

	work     chan *Session
	workerWG sync.WaitGroup
	items    sync.WaitGroup // outstanding envelopes across all sessions
}

func newSessionManager(init *core.Initializer, threshold, warmup float64, workers, maxSessions int, ckpt CheckpointStore, ckptEvery time.Duration) *SessionManager {
	m := &SessionManager{
		init:        init,
		threshold:   threshold,
		warmup:      warmup,
		workers:     workers,
		maxSessions: maxSessions,
		ckpt:        ckpt,
		ckptEvery:   ckptEvery,
		ckptStop:    make(chan struct{}),
		sessions:    make(map[string]*Session),
		// The work channel holds ownership tokens (≤ 1 per session with
		// queued work). Its buffer scales with the pool instead of being a
		// fixed constant so large deployments raising SessionWorkers don't
		// start paying the dispatch goroutine fallback sooner than small
		// ones.
		work: make(chan *Session, max(1024, 64*workers)),
	}
	for i := 0; i < workers; i++ {
		m.workerWG.Add(1)
		go func() {
			defer m.workerWG.Done()
			for s := range m.work {
				s.drain()
			}
		}()
	}
	if m.ckpt != nil && m.ckptEvery > 0 {
		go m.checkpointLoop()
	}
	return m
}

// dispatch hands a session to the pool. The work channel is generously
// buffered and each session occupies at most one slot (ownership token),
// but fall back to a goroutine rather than block an ingest caller if it
// ever fills.
func (m *SessionManager) dispatch(s *Session) {
	select {
	case m.work <- s:
	default:
		go func() { m.work <- s }()
	}
}

// Open creates the live session for a channel, erroring if it already
// exists. The detector must be trained.
func (m *SessionManager) Open(channel string) (*Session, error) {
	return m.open(channel, nil)
}

// GetOrOpen returns the existing session for a channel or opens a new one —
// the idempotent form ingestion endpoints want.
func (m *SessionManager) GetOrOpen(channel string) (*Session, error) {
	m.mu.Lock()
	if s, ok := m.sessions[channel]; ok {
		m.mu.Unlock()
		return s, nil
	}
	m.mu.Unlock()
	s, err := m.open(channel, nil)
	if errors.Is(err, ErrSessionExists) {
		return m.GetOrOpen(channel)
	}
	return s, err
}

// Get returns the session for a channel, if any.
func (m *SessionManager) Get(channel string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[channel]
	return s, ok
}

// SetDotListener registers l to observe dot publications and session
// closes across every channel (nil unregisters). At most one listener is
// supported — a later call replaces the earlier registration. Register
// before traffic flows: publications that race the registration itself
// may be missed, which is why push subscribers always start from a
// cursor resync rather than trusting they saw version one.
func (m *SessionManager) SetDotListener(l DotListener) {
	if l == nil {
		m.listener.Store(nil)
		return
	}
	m.listener.Store(&l)
}

// SetCheckpointListener registers l to observe checkpoint writes and
// deletions across every channel (nil unregisters). At most one listener
// is supported — a later call replaces the earlier registration. Register
// before traffic flows; checkpoints that race the registration are healed
// by whatever reconciliation the listener drives (anti-entropy), not by
// replaying missed notifications.
func (m *SessionManager) SetCheckpointListener(l CheckpointListener) {
	if l == nil {
		m.ckptListener.Store(nil)
		return
	}
	m.ckptListener.Store(&l)
}

// Workers returns the size of the pool draining session mailboxes: the
// Config.SessionWorkers override, or runtime.GOMAXPROCS(0) captured at
// engine construction when unset.
func (m *SessionManager) Workers() int { return m.workers }

// Channels returns the ids of all open sessions.
func (m *SessionManager) Channels() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		out = append(out, id)
	}
	return out
}

func (m *SessionManager) open(channel string, det sessionDetector) (*Session, error) {
	s, err := m.prepare(channel, det)
	if err != nil {
		return nil, err
	}
	return m.register(s)
}

// prepare constructs a fully initialized but NOT yet registered session.
// Callers that need to seed state beyond the empty defaults (resume) do
// so between prepare and register, while the session is still invisible
// to every reader and producer.
func (m *SessionManager) prepare(channel string, det sessionDetector) (*Session, error) {
	if channel == "" {
		return nil, errors.New("engine: session needs a channel id")
	}
	if det == nil {
		od, err := core.NewOnlineDetector(m.init, m.threshold)
		if err != nil {
			return nil, err
		}
		switch {
		case m.warmup > 0:
			od.SetWarmup(m.warmup)
		case m.warmup < 0:
			od.SetWarmup(0) // explicitly disabled
		}
		// warmup == 0: keep OnlineDetector's 300 s default.
		det = onlineBackend{od: od}
	}
	s := &Session{channel: channel, mgr: m, det: det}
	s.dots.Store(newDotSnapshot(nil))
	return s, nil
}

// register makes a prepared session visible, enforcing the manager's
// lifecycle and capacity invariants. A channel barred mid-handoff is
// refused — the bar is checked under the same lock that registers, so a
// racing open can never slip a fresh session in behind BarOpen.
func (m *SessionManager) register(s *Session) (*Session, error) {
	return m.registerWith(s, false)
}

// registerWith is register with the restore paths' variant: liftBar
// atomically clears the channel's handoff bar and registers, because a
// successful restore means the state lives here again.
func (m *SessionManager) registerWith(s *Session, liftBar bool) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if liftBar {
		delete(m.barred, s.channel)
	} else if _, ok := m.barred[s.channel]; ok {
		return nil, fmt.Errorf("%w: %q", ErrHandoff, s.channel)
	}
	if _, ok := m.sessions[s.channel]; ok {
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, s.channel)
	}
	if len(m.sessions) >= m.maxSessions {
		return nil, fmt.Errorf("%w (cap %d)", ErrTooManySessions, m.maxSessions)
	}
	m.sessions[s.channel] = s
	return s, nil
}

// CloseSession ends one channel: its session flushes (remaining windows
// finalize) and is removed from the manager, freeing its cap slot. The
// final full emission history is returned. Use it when a broadcast ends —
// or to recover a channel whose clock was poisoned by a bad Advance.
// Concurrent calls for the same channel all wait for the one flush and
// return the same complete history (Flush is idempotent); ErrClosed means
// the engine itself is draining.
func (m *SessionManager) CloseSession(ctx context.Context, channel string) ([]core.RedDot, error) {
	s, ok := m.Get(channel)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, channel)
	}
	dots, err := s.Flush(ctx)
	if err != nil {
		return dots, err
	}
	m.Remove(channel)
	if m.ckpt != nil {
		// The broadcast is over: its checkpoint must not resurrect the
		// channel at the next restart. Best-effort — a leftover checkpoint
		// resumes a flushed (inert) session, which is harmless.
		_ = m.ckpt.DeleteCheckpoint(channel)
		if lp := m.ckptListener.Load(); lp != nil {
			(*lp).CheckpointDropped(channel)
		}
	}
	// Tell the listener the channel is gone so push subscribers receive a
	// terminal event instead of hanging. After Remove: a concurrent
	// subscribe either found the session before removal (and is terminated
	// here) or fails to find it at all — never a silent limbo. Concurrent
	// CloseSession calls may notify twice; listeners treat the second
	// notification for an unknown channel as a no-op.
	if lp := m.listener.Load(); lp != nil {
		(*lp).SessionClosed(channel)
	}
	return dots, nil
}

// Remove drops a finished session from the manager so the map tracks only
// live channels. Flush the session first; queued work already handed to
// the pool still completes.
func (m *SessionManager) Remove(channel string) {
	m.mu.Lock()
	delete(m.sessions, channel)
	m.mu.Unlock()
}

// close drains the manager: new ingest is rejected, every queued envelope
// is processed, and the worker pool exits. Called via Engine.Close.
func (m *SessionManager) close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	open := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()

	// Stop the interval checkpoint loop immediately — including on the
	// drain-interrupted error path below, which would otherwise leak the
	// goroutine and its ticker. Sessions are marked closed before the
	// drain barrier, so a straggler tick finds nothing to enqueue.
	close(m.ckptStop)

	// Stop each session's intake; queued work remains valid.
	for _, s := range open {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
	}

	// Wait for mailboxes to empty.
	drained := make(chan struct{})
	go func() {
		m.items.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return fmt.Errorf("engine: drain interrupted: %w", ctx.Err())
	}

	close(m.work)
	m.workerWG.Wait()

	// Checkpoint-on-drain: every surviving session's final state is
	// persisted so a restart resumes exactly where the drain stopped. The
	// worker pool has exited, so no lock contention remains.
	if m.ckpt != nil {
		var errs []error
		for _, s := range open {
			if err := s.checkpointNow(); err != nil {
				errs = append(errs, fmt.Errorf("engine: checkpointing %q: %w", s.channel, err))
			}
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

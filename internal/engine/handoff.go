package engine

import (
	"context"
	"errors"
	"fmt"

	"lightor/internal/core"
)

// Live channel handoff: the engine half of cluster rebalancing.
//
// A handoff moves a live channel between processes without ending the
// broadcast: DetachSession drains the old owner's mailbox and serializes
// the detector mid-stream (open windows and all — this is a checkpoint
// snapshot, not a flush), the bytes travel to the new owner, and
// RestoreSession resumes them there with the PR 3 crash-recovery
// machinery — same snapshot format, same watermark/emission-history
// seeding, bit-identical detector state. The producer continues from the
// session watermark on the new owner; viewers' cursors into the emission
// history stay valid because the history travels inside the snapshot.

// errNotSnapshottable reports a detach on a session whose backend cannot
// serialize (replay sessions — batch jobs have nothing worth moving).
var errNotSnapshottable = errors.New("engine: session backend does not support snapshots")

// DetachSession ends this process's ownership of a live channel without
// flushing it: intake stops immediately (further Ingest returns
// ErrClosed), every envelope already queued drains in mailbox order, and
// the detector's complete serialized state is returned for RestoreSession
// on another node, together with the detector-clock watermark it captures
// (the position its producer resumes from).
//
// The state is also written to the local checkpoint store before being
// returned, and that checkpoint is deliberately NOT deleted here: until
// the transfer is confirmed, this node's durable copy is the only one,
// and a crash mid-handoff must be able to resume the channel locally.
// Call ForgetCheckpoint once the new owner has acknowledged the restore.
//
// Detach is idempotent — concurrent or repeated calls wait for the same
// drain and return the same bytes. A session already flushing (or an
// engine draining) returns ErrClosed. On ctx expiry the session is left
// closed to intake with its state still durable locally; the handoff
// can be retried (the pending detach result is reused) or the process
// restarted, in which case the channel resumes here from its checkpoint.
func (m *SessionManager) DetachSession(ctx context.Context, channel string) (state []byte, watermark float64, err error) {
	s, ok := m.Get(channel)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownSession, channel)
	}
	s.mu.Lock()
	if s.detachDone == nil {
		if s.closed {
			s.mu.Unlock()
			return nil, 0, ErrClosed
		}
		s.closed = true
		s.detachDone = make(chan struct{})
		s.enqueueLocked(envelope{detach: true, done: s.detachDone})
	}
	done := s.detachDone
	s.mu.Unlock()

	select {
	case <-done:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	s.mu.Lock()
	state, watermark, err = s.detachState, s.detachWM, s.detachErr
	s.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	// The mailbox is empty (closed session, detach was the final
	// envelope), so the session can leave the manager. Like CloseSession,
	// concurrent detaches may notify the listener twice; listeners treat
	// an unknown channel as a no-op.
	m.Remove(channel)
	if lp := m.listener.Load(); lp != nil {
		(*lp).SessionClosed(channel)
	}
	return state, watermark, nil
}

// BarOpen fences a channel against re-creation: until UnbarOpen (or a
// successful RestoreSession, which lifts the bar atomically with
// registration), Open and GetOrOpen return ErrHandoff for it. Call it
// BEFORE DetachSession: between the detach removing the session and the
// routing layer learning the channel's new home there is a full network
// round trip, and without the bar a producer request in that window
// would silently open a fresh empty session whose messages are lost —
// and whose checkpoints would re-write the channel into this node's
// store after ForgetCheckpoint — the moment the transfer completes.
// Sessions already live are unaffected; only creation is fenced.
func (m *SessionManager) BarOpen(channel string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.barred == nil {
		m.barred = make(map[string]struct{})
	}
	m.barred[channel] = struct{}{}
}

// UnbarOpen lifts a channel's handoff bar without restoring state: the
// aborted-handoff path, and the moment a handed-off channel's broadcast
// ends for good (the override clears, so the ring may place a successor
// broadcast here again).
func (m *SessionManager) UnbarOpen(channel string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.barred, channel)
}

// ForgetCheckpoint removes a channel's durable checkpoint from this
// node's store — the final step of a confirmed handoff, after which the
// new owner's copy is authoritative. No-op without a checkpoint store.
func (m *SessionManager) ForgetCheckpoint(channel string) error {
	if m.ckpt == nil {
		return nil
	}
	if err := m.ckpt.DeleteCheckpoint(channel); err != nil {
		return err
	}
	if lp := m.ckptListener.Load(); lp != nil {
		(*lp).CheckpointDropped(channel)
	}
	return nil
}

// restoreFromState builds a session from serialized detector state and
// registers it: the shared core of startup resume (ResumeSessions) and
// live handoff (RestoreSession). The watermark and emission history are
// seeded from the snapshot between prepare and register, so no reader can
// observe a restored watermark with an empty dot history.
func (m *SessionManager) restoreFromState(channel string, state []byte) (*Session, error) {
	od, err := core.NewOnlineDetector(m.init, m.threshold)
	if err != nil {
		return nil, err
	}
	if err := od.RestoreSnapshot(state); err != nil {
		return nil, fmt.Errorf("engine: restoring %q: %w", channel, err)
	}
	s, err := m.prepare(channel, onlineBackend{od: od})
	if err != nil {
		return nil, err
	}
	s.watermark = od.Now()
	s.restoreDots(od.Emitted())
	// Restoring makes the channel live here again, so any handoff bar is
	// lifted in the same critical section that registers — no window where
	// the session exists but opens are still refused, and no window where
	// the bar is gone but the session is not yet visible.
	return m.registerWith(s, true)
}

// RestoreSession adopts a channel handed off from another node: the
// detector resumes bit-identically from the transferred snapshot, and the
// state is checkpointed into THIS node's store so the channel's durable
// home moves with it — a crash after the handoff resumes the channel
// here, not on the node that gave it away. Restoring a channel that is
// already live on this node fails (the caller's routing is confused);
// nothing is modified in that case.
func (m *SessionManager) RestoreSession(channel string, state []byte) (*Session, error) {
	s, err := m.restoreFromState(channel, state)
	if err != nil {
		return nil, err
	}
	if m.ckpt != nil {
		// Best-effort: on failure the next emission or interval
		// checkpoint retries; until then the transferred state lives in
		// memory exactly as a freshly opened session's would.
		if err := m.ckpt.PutCheckpoint(channel, state); err == nil {
			// The adopted channel is re-protected immediately: its new
			// ring successors receive the transferred state without
			// waiting for the next emission or interval checkpoint.
			if lp := m.ckptListener.Load(); lp != nil {
				(*lp).CheckpointSaved(channel, state, s.Watermark())
			}
		}
	}
	return s, nil
}

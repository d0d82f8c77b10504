package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// recordingCkptListener captures CheckpointSaved/CheckpointDropped events,
// copying state exactly as a real replicator must (the encode buffer is
// reused by the next checkpoint).
type recordingCkptListener struct {
	mu      sync.Mutex
	saved   map[string][]byte
	wm      map[string]float64
	saves   int
	dropped []string
}

func newRecordingCkptListener() *recordingCkptListener {
	return &recordingCkptListener{saved: map[string][]byte{}, wm: map[string]float64{}}
}

func (l *recordingCkptListener) CheckpointSaved(channel string, state []byte, watermark float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.saved[channel] = append([]byte(nil), state...)
	l.wm[channel] = watermark
	l.saves++
}

func (l *recordingCkptListener) CheckpointDropped(channel string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropped = append(l.dropped, channel)
}

func (l *recordingCkptListener) snapshot() (map[string][]byte, map[string]float64, int, []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := make(map[string][]byte, len(l.saved))
	for k, v := range l.saved {
		s[k] = append([]byte(nil), v...)
	}
	w := make(map[string]float64, len(l.wm))
	for k, v := range l.wm {
		w[k] = v
	}
	return s, w, l.saves, append([]string(nil), l.dropped...)
}

// TestCheckpointListener pins the replication hook's contract: Saved fires
// with the same bytes the local store accepted and the detector-clock
// watermark, those bytes ALONE rebuild an equivalent session on another
// manager, a failed store write fires nothing, and CloseSession reports the
// checkpoint dropped.
func TestCheckpointListener(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, true)
	if len(want) == 0 {
		t.Fatal("reference emitted nothing; test is vacuous")
	}
	half := len(msgs) / 2

	store := newMemCheckpoints()
	eng := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
	lis := newRecordingCkptListener()
	eng.Sessions().SetCheckpointListener(lis)

	s, err := eng.Sessions().Open("ch")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(msgs[:half]...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	saved, wm, saves, _ := lis.snapshot()
	if saves == 0 {
		t.Fatal("CheckpointSaved never fired")
	}
	if got, want := wm["ch"], msgs[half-1].Time; got != want {
		t.Errorf("watermark = %g, want last fed timestamp %g", got, want)
	}
	if stored := store.Checkpoints()["ch"]; !bytes.Equal(saved["ch"], stored) {
		t.Error("listener state differs from the bytes the store accepted")
	}

	// A rejected store write must not replicate: the replica would hold
	// state the owner's own disk refused.
	store.mu.Lock()
	store.fail = errors.New("injected store failure")
	store.mu.Unlock()
	if err := s.Checkpoint(ctx); err == nil {
		t.Fatal("Checkpoint succeeded against a failing store")
	}
	if _, _, after, _ := lis.snapshot(); after != saves {
		t.Fatalf("failed Put still notified the listener (%d -> %d saves)", saves, after)
	}
	store.mu.Lock()
	store.fail = nil
	store.mu.Unlock()

	// The captured bytes alone — no access to the first engine's store —
	// must rebuild a session that continues equivalently. This is exactly
	// the disk-loss recovery claim replicas make.
	replica := newMemCheckpoints()
	replica.m["ch"] = saved["ch"]
	eng2 := newTestEngine(t, init, Config{Checkpoints: replica, CheckpointInterval: -1})
	resumed, err := eng2.ResumeSessions()
	if err != nil || len(resumed) != 1 {
		t.Fatalf("ResumeSessions = (%v, %v)", resumed, err)
	}
	s2, _ := eng2.Sessions().Get("ch")
	if got := s2.Watermark(); got != wm["ch"] {
		t.Errorf("replica-resumed watermark = %g, want %g", got, wm["ch"])
	}
	if err := s2.Ingest(msgs[half:]...); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDotSlices(got, want) {
		t.Fatalf("replica-resumed run diverged:\n got %v\nwant %v", got, want)
	}

	// Ending the broadcast drops the checkpoint — and tells the listener so
	// replicas can be deleted too.
	if _, err := eng.Sessions().CloseSession(ctx, "ch"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, dropped := lis.snapshot(); len(dropped) != 1 || dropped[0] != "ch" {
		t.Fatalf("dropped = %v, want [ch]", dropped)
	}
}

// TestRestoreSessionNotifiesListener: adopting a handed-off channel
// re-protects it immediately — the transferred state fires Saved on the
// NEW owner so its ring successors hold a replica without waiting for the
// next emission.
func TestRestoreSessionNotifiesListener(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	half := len(msgs) / 2

	storeA := newMemCheckpoints()
	engA := newTestEngine(t, init, Config{Checkpoints: storeA, CheckpointInterval: -1})
	s, err := engA.Sessions().Open("ch")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(msgs[:half]...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	state, _, err := engA.Sessions().DetachSession(ctx, "ch")
	if err != nil {
		t.Fatal(err)
	}

	storeB := newMemCheckpoints()
	engB := newTestEngine(t, init, Config{Checkpoints: storeB, CheckpointInterval: -1})
	lis := newRecordingCkptListener()
	engB.Sessions().SetCheckpointListener(lis)
	s2, err := engB.Sessions().RestoreSession("ch", state)
	if err != nil {
		t.Fatal(err)
	}
	saved, wm, saves, _ := lis.snapshot()
	if saves != 1 {
		t.Fatalf("saves = %d, want 1", saves)
	}
	if !bytes.Equal(saved["ch"], state) {
		t.Error("restored-state notification differs from transferred bytes")
	}
	if got := wm["ch"]; got != s2.Watermark() {
		t.Errorf("restore watermark = %g, want %g", got, s2.Watermark())
	}

	// Restoring a channel that is already live reports ErrSessionExists —
	// the sentinel the failover path races on.
	if _, err := engB.Sessions().RestoreSession("ch", state); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("double restore = %v, want ErrSessionExists", err)
	}
}


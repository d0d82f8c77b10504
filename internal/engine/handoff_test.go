package engine

import (
	"context"
	"testing"
	"time"
)

// TestDetachRestoreEquivalence is the handoff analogue of the PR 3
// resume-equivalence guarantee: ingest part of a stream on node A, detach
// the live channel mid-broadcast, restore it on node B from the
// transferred bytes, feed the rest there, and require the combined
// emission history to equal an uninterrupted serial run exactly.
func TestDetachRestoreEquivalence(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, true)
	if len(want) == 0 {
		t.Fatal("reference emitted nothing; test is vacuous")
	}
	cut := len(msgs) / 2

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	storeA := newMemCheckpoints()
	engA := newTestEngine(t, init, Config{Checkpoints: storeA, CheckpointInterval: -1})
	s, err := engA.Sessions().Open("ch")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(msgs[:cut]...); err != nil {
		t.Fatal(err)
	}

	state, _, err := engA.Sessions().DetachSession(ctx, "ch")
	if err != nil {
		t.Fatal(err)
	}
	if len(state) == 0 {
		t.Fatal("detach returned empty state")
	}
	// Intake is closed and the session is gone from A.
	if err := s.Ingest(msgs[cut]); err != ErrClosed {
		t.Fatalf("post-detach ingest err = %v, want ErrClosed", err)
	}
	if _, ok := engA.Sessions().Get("ch"); ok {
		t.Fatal("detached session still registered on A")
	}
	// A's checkpoint survives until the transfer is confirmed…
	if _, ok := storeA.Checkpoints()["ch"]; !ok {
		t.Fatal("detach must leave the local checkpoint in place until confirmation")
	}

	// …node B adopts the channel…
	storeB := newMemCheckpoints()
	engB := newTestEngine(t, init, Config{Checkpoints: storeB, CheckpointInterval: -1})
	s2, err := engB.Sessions().RestoreSession("ch", state)
	if err != nil {
		t.Fatal(err)
	}
	if wm := s2.Watermark(); wm != msgs[cut-1].Time {
		t.Errorf("restored watermark = %g, want %g", wm, msgs[cut-1].Time)
	}
	// …whose durable home moved with it…
	if _, ok := storeB.Checkpoints()["ch"]; !ok {
		t.Fatal("restore must checkpoint into the new owner's store")
	}
	// …and A forgets its copy once confirmed.
	if err := engA.Sessions().ForgetCheckpoint("ch"); err != nil {
		t.Fatal(err)
	}
	if _, ok := storeA.Checkpoints()["ch"]; ok {
		t.Fatal("ForgetCheckpoint left the old owner's checkpoint behind")
	}

	// The emission history traveled inside the snapshot: B serves the
	// dots A emitted, at the same cursors.
	preDots, preCursor, _ := s2.DotsPage(0)
	if preCursor != len(preDots) {
		t.Fatalf("restored cursor space inconsistent: cursor %d, %d dots", preCursor, len(preDots))
	}

	if err := s2.Ingest(msgs[cut:]...); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDotSlices(got, want) {
		t.Fatalf("handed-off run diverged:\n got %v\nwant %v", got, want)
	}
}

// TestDetachDrainsQueuedWork: envelopes already queued when the detach
// lands must be processed before the state is serialized — a handoff must
// not drop accepted-but-unprocessed batches.
func TestDetachDrainsQueuedWork(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, true)
	if len(want) == 0 {
		t.Fatal("reference emitted nothing; test is vacuous")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	engA := newTestEngine(t, init, Config{Checkpoints: newMemCheckpoints(), CheckpointInterval: -1})
	s, err := engA.Sessions().Open("ch")
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue the whole stream in many small batches and detach without
	// waiting: the detach envelope sits behind all of them in the mailbox.
	for i := 0; i < len(msgs); i += 7 {
		end := min(i+7, len(msgs))
		if err := s.Ingest(msgs[i:end]...); err != nil {
			t.Fatal(err)
		}
	}
	state, _, err := engA.Sessions().DetachSession(ctx, "ch")
	if err != nil {
		t.Fatal(err)
	}

	engB := newTestEngine(t, init, Config{})
	s2, err := engB.Sessions().RestoreSession("ch", state)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDotSlices(got, want) {
		t.Fatalf("detach dropped queued work:\n got %v\nwant %v", got, want)
	}
}

func TestDetachErrors(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	eng := newTestEngine(t, init, Config{})
	if _, _, err := eng.Sessions().DetachSession(ctx, "ghost"); err == nil {
		t.Fatal("detaching an unknown channel succeeded")
	}

	// A flushing session refuses to detach.
	s, err := eng.Sessions().Open("flushing")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(msgs[:10]...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Sessions().DetachSession(ctx, "flushing"); err != ErrClosed {
		t.Fatalf("detach of flushing session err = %v, want ErrClosed", err)
	}

	// Restoring over a live session fails and leaves it untouched.
	live, err := eng.Sessions().Open("live")
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Ingest(msgs[:10]...); err != nil {
		t.Fatal(err)
	}
	state, _, err := eng.Sessions().DetachSession(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sessions().RestoreSession("live", state); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sessions().RestoreSession("live", state); err == nil {
		t.Fatal("restoring over a live session succeeded")
	}

	// Garbage bytes are rejected.
	if _, err := eng.Sessions().RestoreSession("junk", []byte("not a snapshot")); err == nil {
		t.Fatal("restoring garbage succeeded")
	}
}

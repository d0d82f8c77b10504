package main

import (
	"runtime"
	"syscall"
	"time"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

// sleepUntil sleeps in the kernel for the last stretch: the Go
// scheduler's timers wake a sub-millisecond sleep up to a millisecond
// late, which at thousands of requests per second would make the
// generator, not the server, the source of the measured latency.
func (wallClock) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
		d = time.Until(t)
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// pollPause spaces a client's repeated polls for a result, so the
// generator does not compete with the server for the CPU while it waits.
const pollPause = 100 * time.Microsecond

func pause(d time.Duration) { wallClock{}.sleepUntil(time.Now().Add(d)) }

// setTimerSlack lets the kernel wake this thread's sleeps within 1 µs of
// their deadline instead of the default 50 µs, which would otherwise be
// a large part of a sub-millisecond read. Best effort: on failure the
// lateness shows in gen.late.
func setTimerSlack() {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
}

// timing is one open-loop operation: when it was due, when the generator
// actually sent it, and when its response was complete.
type timing struct {
	due, sent, done time.Time
	ok              bool
}

// latency is measured from the due time, not the send time, so a stall
// that delays later operations is charged to them too.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }
func (t timing) late() time.Duration    { return t.sent.Sub(t.due) }

// openLoop runs op(0), op(1), ... on a fixed schedule: operation i is
// due at start + i·interval and is never sent before then. Operations due
// at or after end are not sent. When an operation runs past the next
// due time, the next one is sent late rather than skipped, and its
// latency still counts from its due time.
func openLoop(clk clock, start time.Time, interval time.Duration, end time.Time, op func(i int) bool) []timing {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack()
	var out []timing
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return out
		}
		clk.sleepUntil(due)
		sent := clk.now()
		ok := op(i)
		out = append(out, timing{due: due, sent: sent, done: clk.now(), ok: ok})
	}
}

// closedLoop runs op back to back until end: each operation starts when
// the previous one has completed.
func closedLoop(clk clock, end time.Time, op func()) {
	for clk.now().Before(end) {
		op()
	}
}

// interval converts a rate in operations per second to a schedule step.
func interval(perSecond float64) time.Duration {
	return time.Duration(float64(time.Second) / perSecond)
}

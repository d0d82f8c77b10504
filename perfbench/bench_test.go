package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var d dist
	for i := 1; i <= 100; i++ {
		d.add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := d.q(c.p); got != c.want {
			t.Errorf("q(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tail(c.n); got != c.want {
			t.Errorf("tail(%d) = %g, want %g", c.n, got, c.want)
		}
		if got := tail(c.n); got > 0 && beyond(c.n, got) < 10 {
			t.Errorf("tail(%d) = %g leaves only %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
}

func TestFailuresCountAsInfinite(t *testing.T) {
	var d dist
	for i := 0; i < 95; i++ {
		d.add(1)
	}
	for i := 0; i < 5; i++ {
		d.fail()
	}
	if got := d.q(0.5); got != 1 {
		t.Errorf("p50 = %g, want 1", got)
	}
	if got := d.q(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 5%% failures = %g, want +Inf", got)
	}
	if got := d.mean(); got != 1 {
		t.Errorf("mean of the successes = %g, want 1", got)
	}
	if s := d.summary("ms"); !strings.Contains(s, "(n=100)") {
		t.Errorf("summary %q lacks the sample count", s)
	}
}

// fakeClock advances only when the generator sleeps or an operation
// takes time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	step := 10 * time.Millisecond
	ts := openLoop(clk, start, step, start.Add(60*time.Millisecond), func(i int) bool {
		if i == 1 {
			clk.t = clk.t.Add(35 * time.Millisecond) // a stall on the second operation
		} else {
			clk.t = clk.t.Add(time.Millisecond)
		}
		return i != 4
	})
	if len(ts) != 6 {
		t.Fatalf("sent %d operations, want 6 (due at 0..50 ms, end exclusive)", len(ts))
	}
	want := []struct{ late, lat time.Duration }{
		{0, 1 * time.Millisecond},
		{0, 35 * time.Millisecond},
		{25 * time.Millisecond, 26 * time.Millisecond}, // due at 20, sent at 45
		{16 * time.Millisecond, 17 * time.Millisecond}, // due at 30, sent at 46
		{7 * time.Millisecond, 8 * time.Millisecond},
		{0, 1 * time.Millisecond}, // caught up: sent on time at 50
	}
	for i, w := range want {
		if ts[i].due != start.Add(time.Duration(i)*step) {
			t.Errorf("op %d due %v, want %v", i, ts[i].due.Sub(start), time.Duration(i)*step)
		}
		if ts[i].late() != w.late || ts[i].latency() != w.lat {
			t.Errorf("op %d: late %v latency %v, want %v and %v", i, ts[i].late(), ts[i].latency(), w.late, w.lat)
		}
		if ts[i].sent.Before(ts[i].due) {
			t.Errorf("op %d sent before it was due", i)
		}
	}
	if ts[4].ok || !ts[3].ok {
		t.Errorf("ok flags not recorded per operation")
	}
}

func TestSelfTime(t *testing.T) {
	p := ival{100, 200}
	for _, c := range []struct {
		name string
		kids []ival
		want int64
	}{
		{"no children", nil, 100},
		{"one child", []ival{{120, 150}}, 70},
		{"disjoint children", []ival{{110, 120}, {150, 190}}, 50},
		{"overlapping children count once", []ival{{110, 150}, {140, 160}}, 50},
		{"nested children count once", []ival{{110, 190}, {120, 130}}, 20},
		{"children clipped to the parent", []ival{{50, 120}, {190, 250}}, 70},
		{"child outside the parent", []ival{{10, 90}}, 100},
	} {
		if got := selfTime(p, c.kids); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestStageTableCoverage(t *testing.T) {
	tb := newTable("t", "a", "b")
	tb.add(10, 4, 6)
	tb.add(20, 5, 15)
	if got := tb.coverage(); math.Abs(got-100) > 1e-9 {
		t.Errorf("coverage of contiguous stages = %g%%, want 100%%", got)
	}
	tb.add(30, 5, 5) // 20 of its 30 µs unattributed
	if got, want := tb.coverage(), 100*(14.0/3+26.0/3)/20; math.Abs(got-want) > 1e-9 {
		t.Errorf("coverage = %g%%, want %g%%", got, want)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "store.put_checkpoint_us.p50", "platform.push.publish_to_pop_us", "a", "9-x", strings.Repeat("m", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "a/b", "_x", ".x", "p99%", "ü", strings.Repeat("m", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names only valid metrics
// and that the run reports exactly those names.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, n := range append(append([]struct{ Name, Unit string }{}, b.EndToEnd...), b.PerLayer...) {
		if !validName(n.Name) || seen[n.Name] {
			t.Errorf("metric name %q invalid or repeated", n.Name)
		}
		seen[n.Name] = true
	}
	for _, w := range b.Workloads {
		if _, ok := primaryKind[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	names := func(ms []struct{ Name, Unit string }) map[string]metric {
		m := map[string]metric{}
		for _, n := range ms {
			m[n.Name] = metric{}
		}
		return m
	}
	if err := checkNames(names(b.EndToEnd), e2eNames); err != nil {
		t.Errorf("end_to_end: %v", err)
	}
	if err := checkNames(names(b.PerLayer), perLayerNames); err != nil {
		t.Errorf("per_layer: %v", err)
	}
}

func TestRequestBodiesAreDeterministic(t *testing.T) {
	hash := func(seed int64) []byte {
		e, err := newEnv(config{seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, b := range e.bcs {
			for _, body := range b.bodies {
				h.Write(body)
			}
		}
		v := newViewers(e)
		for i := 0; i < 200; i++ {
			h.Write(v.session().body)
		}
		return h.Sum(nil)
	}
	a, b, c := hash(7), hash(7), hash(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different request bodies")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same request bodies")
	}
}

func TestReferenceDotsAreConsistent(t *testing.T) {
	e, err := newEnv(config{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range e.bcs[:8] {
		if len(b.emitter) != len(b.dots) || len(b.firstAt) != len(b.bodies) {
			t.Fatalf("broadcast %d: %d dots, %d emitters, %d bodies, %d firstAt", i, len(b.dots), len(b.emitter), len(b.bodies), len(b.firstAt))
		}
		for d, em := range b.emitter {
			if em < len(b.bodies) && (b.firstAt[em] > d || (em+1 < len(b.bodies) && b.firstAt[em+1] <= d)) {
				t.Errorf("broadcast %d: dot %d attributed to body %d, inconsistent with firstAt", i, d, em)
			}
		}
	}
}

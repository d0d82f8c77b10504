package perf_test

// Same-run performance gates. Each gate drives the shared fixture bodies
// through testing.Benchmark and compares rows measured in the same
// process, so machine speed cancels and a fixed floor holds on any host.
// The gates run one after another (one package, no t.Parallel), so they
// never compete with each other for cores. They are timing-sensitive and
// skip under -short, which is how the race sweep runs. Multi-core,
// end-to-end performance is perfbench's to judge (bash perfbench/run.sh).

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/perf"
	"lightor/internal/perf/perfcluster"
	"lightor/internal/perf/perfengine"
	"lightor/internal/perf/perfhttp"
	"lightor/internal/perf/perfload"
	"lightor/internal/sim"
)

const (
	// minIngestBatchSpeedup: HTTP live ingest at batch 256 vs batch 1.
	minIngestBatchSpeedup = 3.0
	// minDotsReadSpeedup: cached+conditional vs uncached dots reads at
	// readSpeedupGatePollers or more concurrent pollers. The dots cold
	// path pays the full per-poll history encode the cache removes.
	minDotsReadSpeedup     = 5.0
	readSpeedupGatePollers = 64
	// minReadSanity: the cached read lane never loses to re-encoding,
	// on either endpoint at any fan-in.
	minReadSanity = 1.2
	// minClusterScale: aggregate throughput at N nodes vs 1. Below 1.0
	// because a 1–2 core host can prove absence of collapse, not
	// parallel speedup.
	minClusterScale = 0.5
	// minReplicationIngestRatio: ingest with checkpoint replication on
	// vs off. Shipping is asynchronous and coalesced, so a breach means
	// it leaked into the ingest path.
	minReplicationIngestRatio = 0.9
)

// Push-lane contracts.
const (
	// pushEncodeTolerance bounds |encodes per version − 1| at every
	// fan-out: a version is JSON-encoded once however many subscribers
	// share the frame.
	pushEncodeTolerance = 0.01
	// maxMarginalAllocsPerDelivery bounds the allocations each extra
	// delivery adds across the subscriber sweep: enqueue + Pop of a
	// shared frame allocates nothing per subscriber.
	maxMarginalAllocsPerDelivery = 0.01
	// minPushWireRatio: push must beat 1 Hz conditional polling on wire
	// bytes per viewer by at least this factor.
	minPushWireRatio = 10.0
)

// Tail-latency contracts, admission on.
const (
	// maxLatencyDispersion bounds p999/p50 (medians of ~60–140 observed
	// on one P); the ceiling catches a tail collapsing into queueing.
	maxLatencyDispersion = 2000.0
	// maxFlashColdRatio bounds cold-channel read p99 under the flash
	// crowd as a multiple of the read-heavy Zipf row's: admission must
	// keep the stampede out of cold channels.
	maxFlashColdRatio = 50.0
	// flashBacklogSlack is the admitted-over-budget headroom on the flash
	// channel's mailbox: admission checks Pending() before enqueueing
	// without a lock, so each concurrent writer can slip one batch past
	// the budget. Default options run 8 workers; ×2 for drains racing
	// the final sample.
	flashBacklogSlack = 16
)

// TestMain shortens each measurement to 200 ms unless -test.benchtime
// is given: several short interleaved runs resist background load better
// than one long run, at the same cost. The gates run at the default
// GOMAXPROCS, as the server does, except where oneP says otherwise.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.benchtime" })
	if !set {
		flag.Set("test.benchtime", "200ms")
	}
	os.Exit(m.Run())
}

var (
	fixtureOnce sync.Once
	fixtureInit *core.Initializer
	fixtureMsgs []chat.Message
	fixtureErr  error
)

// fixture skips the gate under -short and returns the shared trained
// initializer and held-out broadcast, trained once per test binary.
func fixture(t *testing.T) (*core.Initializer, []chat.Message) {
	t.Helper()
	if testing.Short() {
		t.Skip("same-run timing gate: skipped under -short")
	}
	fixtureOnce.Do(func() {
		var data sim.VideoData
		fixtureInit, data, fixtureErr = perf.TrainedFixture()
		if fixtureErr == nil {
			fixtureMsgs = data.Chat.Log.Messages()
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureInit, fixtureMsgs
}

// run measures one fixture body and fails the gate if the body reported
// an error or produced no result. testing.Benchmark hides a body's
// b.Error from the caller, hence the sink.
func run(t *testing.T, name string, body func(*perfengine.ErrSink) func(*testing.B)) testing.BenchmarkResult {
	t.Helper()
	var sink perfengine.ErrSink
	r := testing.Benchmark(body(&sink))
	if err := sink.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if r.N <= 0 || r.T <= 0 {
		t.Fatalf("%s: benchmark produced no result", name)
	}
	return r
}

// arm is one side of a same-run comparison: a named fixture body.
type arm struct {
	name string
	body func(*perfengine.ErrSink) func(*testing.B)
}

// rounds is how many times a gate measures each of its rows.
const rounds = 5

// ratios measures every arm rounds times, interleaved, and returns for
// each arm after the first the median over rounds of its reading of
// metric divided by the first arm's reading in the same round. Host load
// drifts over seconds, so readings taken back to back share it and their
// ratio cancels it; the median drops a round where a burst hit one arm.
func ratios(t *testing.T, metric string, arms ...arm) []float64 {
	t.Helper()
	per := make([][]float64, len(arms)-1)
	for range rounds {
		base := 0.0
		for i, a := range arms {
			v := run(t, a.name, a.body).Extra[metric]
			t.Logf("%s: %.0f %s", a.name, v, metric)
			if i == 0 {
				base = v
			} else {
				per[i-1] = append(per[i-1], v/base)
			}
		}
	}
	med := make([]float64, len(per))
	for i, r := range per {
		med[i] = median(r)
	}
	return med
}

// median returns the middle of an odd number of per-round readings.
func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// longSamples measures the rest of the calling gate with 1 s samples,
// the length every reading had in the report these gates come from.
func longSamples(t *testing.T) {
	old := flag.Lookup("test.benchtime").Value.String()
	flag.Set("test.benchtime", "1s")
	t.Cleanup(func() { flag.Set("test.benchtime", old) })
}

// oneP runs the rest of the calling gate on one P, where the tail-latency
// and replication floors were calibrated: every report they come from
// recorded gomaxprocs 1. On a two-vCPU shared host at two Ps their
// readings follow the neighbours' load rather than the program. A
// scheduler-latency trace put the p999 stalls in GC mark termination,
// which waits for both Ps while the host may have descheduled one, and
// the replication fleet's throughput swings with the shared disk. Per
// round, flash-crowd p999/p50 read from ~150× to over 13000× and
// replication on/off 0.73–1.16×, and builds with these gates passed 5 of
// 5 package runs in one hour and failed 2 of 3 in the next. On one P the
// same rounds read mostly under 200× and 0.94–1.18×.
func oneP(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// atLeast logs a gated ratio and fails the gate when it is under floor.
func atLeast(t *testing.T, name string, ratio, floor float64) {
	t.Helper()
	t.Logf("%s: %.2f× (floor %.2f×)", name, ratio, floor)
	if ratio < floor {
		t.Errorf("%s: %.2f× < required %.2f×", name, ratio, floor)
	}
}

func TestIngestBatchSpeedupGate(t *testing.T) {
	init, msgs := fixture(t)
	for _, channels := range perfengine.IngestChannelSweep {
		batch := func(n int) arm {
			return arm{fmt.Sprintf("live_http_ingest/channels=%d/batch=%d", channels, n),
				func(sink *perfengine.ErrSink) func(*testing.B) {
					return perfhttp.LiveChatBurst(init, msgs, channels, n, sink)
				}}
		}
		r := ratios(t, "msgs/sec", batch(1), batch(256))
		atLeast(t, fmt.Sprintf("live_http_ingest[channels=%d] batch 256 vs 1", channels),
			r[0], minIngestBatchSpeedup)
	}
}

// readBody is the shape of perfhttp's read fixtures.
type readBody func(*core.Initializer, []chat.Message, int, bool, *perfengine.ErrSink) func(*testing.B)

// readArm is one (pollers, hot|cold) read row, reporting reads/sec.
func readArm(t *testing.T, endpoint string, body readBody, pollers int, cached bool) arm {
	init, msgs := fixture(t)
	return arm{fmt.Sprintf("%s/pollers=%d/cached=%t", endpoint, pollers, cached),
		func(sink *perfengine.ErrSink) func(*testing.B) { return body(init, msgs, pollers, cached, sink) }}
}

func TestReadSpeedupGate(t *testing.T) {
	for _, ep := range []struct {
		name string
		body readBody
		gate float64 // floor at >= readSpeedupGatePollers
	}{
		{"http_dots_read", perfhttp.DotsRead, minDotsReadSpeedup},
		// Highlights' cold path has no growing history to re-encode, so
		// its win is bounded lower; it gets the sanity floor throughout.
		{"http_highlights_read", perfhttp.HighlightsRead, minReadSanity},
	} {
		for _, pollers := range perfhttp.ReadPollerSweep {
			r := ratios(t, "reads/sec",
				readArm(t, ep.name, ep.body, pollers, false), readArm(t, ep.name, ep.body, pollers, true))
			floor := minReadSanity
			if pollers >= readSpeedupGatePollers {
				floor = ep.gate
			}
			atLeast(t, fmt.Sprintf("%s[pollers=%d] hot vs cold", ep.name, pollers), r[0], floor)
		}
	}
}

// pushRow is one measured push fan-out row.
type pushRow struct {
	subs              int
	deliveriesPerSec  float64
	encodesPerVersion float64
	frameBytes        float64
	versionsPerIter   float64
	deliveriesPerIter float64
	allocsPerIter     float64
}

// Wire-cost model for pushWireRatio. Poll overhead is a typical GET
// /api/live/dots request line + Host + If-None-Match + Accept headers
// (~180 B) and a 304 response (status line, ETag, Date; ~130 B), paid
// once per poll interval. When the version moves, a 1 Hz poller fetches
// the delta once: a 200 adds ~160 B of response headers on top of the
// body. Push pays the SSE frame (body + ~30 B of event/id/data framing,
// already in the measured frame bytes) once per emitted version, plus a
// 6-byte comment heartbeat every 15 s.
const (
	pollRequestBytes        = 180.0
	poll304Bytes            = 130.0
	poll200HeaderBytes      = 160.0
	pollIntervalSec         = 1.0
	sseHeartbeatBytes       = 6.0
	sseHeartbeatIntervalSec = 15.0
	sseFrameOverheadBytes   = 30.0
)

// pushWireRatio is steady-state poll-over-push wire bytes per viewer per
// second. broadcastSec is the broadcast's simulated duration: the
// fixture ingests time-compressed, so only versions per broadcast second
// is a real emission rate.
func pushWireRatio(row pushRow, broadcastSec float64) float64 {
	rate := row.versionsPerIter / broadcastSec
	body := max(row.frameBytes-sseFrameOverheadBytes, 0)
	poll := (pollRequestBytes+poll304Bytes)/pollIntervalSec + rate*(poll200HeaderBytes+body)
	push := rate*row.frameBytes + sseHeartbeatBytes/sseHeartbeatIntervalSec
	return poll / push
}

// pushViolations checks the push lane's same-run contracts over a
// fan-out sweep ordered by subscriber count: encode-once on every row,
// alloc-free marginal delivery from the smallest to the largest fan-out,
// delivery at the largest fan-out at least the hot-poll read throughput,
// and the wire win over polling.
func pushViolations(rows []pushRow, hotPollReadsPerSec, broadcastSec float64) []string {
	var v []string
	for _, row := range rows {
		if d := row.encodesPerVersion - 1; d > pushEncodeTolerance || d < -pushEncodeTolerance {
			v = append(v, fmt.Sprintf("push_fanout[subs=%d]: %.3f encodes/version, want exactly 1",
				row.subs, row.encodesPerVersion))
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if dd := last.deliveriesPerIter - first.deliveriesPerIter; dd > 0 {
		if m := (last.allocsPerIter - first.allocsPerIter) / dd; m > maxMarginalAllocsPerDelivery {
			v = append(v, fmt.Sprintf("push_fanout: %.4f marginal allocs/delivery across %d→%d subscribers > %.2f",
				m, first.subs, last.subs, maxMarginalAllocsPerDelivery))
		}
	}
	if last.deliveriesPerSec < hotPollReadsPerSec {
		v = append(v, fmt.Sprintf("push_fanout[subs=%d]: %.0f deliveries/sec < hot-poll %.0f reads/sec",
			last.subs, last.deliveriesPerSec, hotPollReadsPerSec))
	}
	if r := pushWireRatio(last, broadcastSec); r < minPushWireRatio {
		v = append(v, fmt.Sprintf("push wire: %.1f× poll-over-push < required %.1f×", r, minPushWireRatio))
	}
	return v
}

func TestPushGate(t *testing.T) {
	init, msgs := fixture(t)
	var rows []pushRow
	for _, subs := range perfhttp.PushSubscriberSweep {
		r := run(t, fmt.Sprintf("push_fanout/subs=%d", subs), func(sink *perfengine.ErrSink) func(*testing.B) {
			return perfhttp.PushFanout(init, msgs, subs, sink)
		})
		row := pushRow{
			subs:              subs,
			deliveriesPerSec:  r.Extra["deliveries/sec"],
			encodesPerVersion: r.Extra["encodes/version"],
			frameBytes:        r.Extra["frame_bytes"],
			versionsPerIter:   r.Extra["versions/iter"],
			deliveriesPerIter: r.Extra["deliveries/iter"],
			allocsPerIter:     float64(r.AllocsPerOp()),
		}
		t.Logf("push_fanout[subs=%d]: %.0f deliveries/sec, %.3f encodes/version, %.0f allocs/iter over %.0f deliveries",
			subs, row.deliveriesPerSec, row.encodesPerVersion, row.allocsPerIter, row.deliveriesPerIter)
		rows = append(rows, row)
	}
	// Delivery is compared with the hot poll lane at its largest fan-in.
	sweep := perfhttp.ReadPollerSweep
	hot := readArm(t, "http_dots_read", perfhttp.DotsRead, sweep[len(sweep)-1], true)
	hotPoll := run(t, hot.name, hot.body).Extra["reads/sec"]
	broadcastSec := msgs[len(msgs)-1].Time + 1
	last := rows[len(rows)-1]
	t.Logf("hot poll %.0f reads/sec; wire ratio %.1f×", hotPoll, pushWireRatio(last, broadcastSec))
	for _, msg := range pushViolations(rows, hotPoll, broadcastSec) {
		t.Error(msg)
	}
}

func TestPushViolations(t *testing.T) {
	good := func() []pushRow {
		return []pushRow{
			{subs: 1000, deliveriesPerSec: 4e6, encodesPerVersion: 1, frameBytes: 500,
				versionsPerIter: 30, deliveriesPerIter: 3e4, allocsPerIter: 4000},
			{subs: 100000, deliveriesPerSec: 6e6, encodesPerVersion: 1, frameBytes: 500,
				versionsPerIter: 30, deliveriesPerIter: 3e6, allocsPerIter: 5000},
		}
	}
	const hotPoll, broadcastSec = 4.4e5, 3000.0
	if v := pushViolations(good(), hotPoll, broadcastSec); len(v) != 0 {
		t.Fatalf("healthy rows flagged: %v", v)
	}
	for _, tc := range []struct {
		name   string
		breaks func(rows []pushRow)
		want   string
	}{
		{"encoding per subscriber again", func(r []pushRow) { r[0].encodesPerVersion = 2 }, "2.000 encodes/version"},
		{"0.02 allocs per extra delivery", func(r []pushRow) { r[1].allocsPerIter = 4000 + 0.02*(3e6-3e4) }, "marginal allocs/delivery"},
		{"delivery slower than polling", func(r []pushRow) { r[1].deliveriesPerSec = 1e5 }, "hot-poll"},
		{"frames too big to beat polling", func(r []pushRow) { r[1].versionsPerIter = 3e4 }, "poll-over-push"},
	} {
		rows := good()
		tc.breaks(rows)
		v := pushViolations(rows, hotPoll, broadcastSec)
		if len(v) != 1 || !strings.Contains(v[0], tc.want) {
			t.Errorf("%s: violations %v, want exactly one mentioning %q", tc.name, v, tc.want)
		}
	}
}

func TestClusterScaleGate(t *testing.T) {
	init, msgs := fixture(t)
	const pollers = 64
	var ingest, read []arm
	for _, nodes := range perfcluster.NodeSweep {
		ingest = append(ingest, arm{fmt.Sprintf("cluster_ingest/nodes=%d", nodes),
			func(sink *perfengine.ErrSink) func(*testing.B) {
				return perfcluster.ClusterIngest(init, msgs, nodes, sink)
			}})
		read = append(read, arm{fmt.Sprintf("cluster_read/nodes=%d", nodes),
			func(sink *perfengine.ErrSink) func(*testing.B) {
				return perfcluster.ClusterRead(init, msgs, nodes, pollers, sink)
			}})
	}
	ingestScale := ratios(t, "msgs/sec", ingest...)
	readScale := ratios(t, "reads/sec", read...)
	for i, nodes := range perfcluster.NodeSweep[1:] {
		atLeast(t, fmt.Sprintf("cluster_ingest[nodes=%d] vs 1 node", nodes), ingestScale[i], minClusterScale)
		atLeast(t, fmt.Sprintf("cluster_read[nodes=%d] vs 1 node", nodes), readScale[i], minClusterScale)
	}
}

func TestReplicationOverheadGate(t *testing.T) {
	init, msgs := fixture(t)
	oneP(t)
	// The "on" arm's ship and anti-entropy loops fire every 100–200 ms,
	// which a short sample catches zero or one time.
	longSamples(t)
	replication := func(on bool) arm {
		return arm{fmt.Sprintf("replication_ingest/replicated=%t", on),
			func(sink *perfengine.ErrSink) func(*testing.B) {
				return perfcluster.ReplicatedClusterIngest(init, msgs, perfcluster.ReplicationNodes, on, sink)
			}}
	}
	r := ratios(t, "msgs/sec", replication(false), replication(true))
	atLeast(t, "replication on vs off ingest", r[0], minReplicationIngestRatio)
}

// latencyRow is one tail-latency row, judged over rounds: the median of
// its per-round p999/p50, and whether every shed response in every round
// carried Retry-After.
type latencyRow struct {
	name         string
	dispersion   float64
	retryAfterOK bool
}

// flashRow is the flash-crowd run with admission on.
type flashRow struct {
	latencyRow
	// hotBacklog is the hot channel's largest sampled backlog over all
	// rounds: the bound is structural and must hold in every round.
	hotBacklog    float64
	backlogBudget int
	// coldRatio is the median over rounds of cold-channel read p99 over
	// the read-heavy Zipf row's cold p99 in the same round.
	coldRatio float64
}

// latencyViolations checks the tail-latency contracts: bounded p999/p50
// dispersion and Retry-After on every shed for every row; for the flash
// crowd, the hot channel's backlog within its admission budget plus
// racing-admit slack, and cold-channel read p99 within maxFlashColdRatio
// of the read-heavy Zipf row's.
func latencyViolations(rows []latencyRow, flash flashRow) []string {
	var v []string
	check := func(row latencyRow) {
		if row.dispersion > maxLatencyDispersion {
			v = append(v, fmt.Sprintf("%s: p999/p50 dispersion %.0f× > allowed %.0f×",
				row.name, row.dispersion, maxLatencyDispersion))
		}
		if !row.retryAfterOK {
			v = append(v, row.name+": a shed response was missing Retry-After")
		}
	}
	for _, row := range rows {
		check(row)
	}
	check(flash.latencyRow)
	if flash.hotBacklog > float64(flash.backlogBudget+flashBacklogSlack) {
		v = append(v, fmt.Sprintf("%s: hot_backlog %.0f > budget %d + slack %d",
			flash.name, flash.hotBacklog, flash.backlogBudget, flashBacklogSlack))
	}
	if flash.coldRatio > maxFlashColdRatio {
		v = append(v, fmt.Sprintf("%s: cold-channel read p99 %.1f× the read-heavy row's > allowed %.0f×",
			flash.name, flash.coldRatio, maxFlashColdRatio))
	}
	return v
}

func TestLatencyGate(t *testing.T) {
	init, msgs := fixture(t)
	oneP(t)
	opts := perfload.DefaultOptions()
	zipf := []perfload.Mix{perfload.ReadHeavy, perfload.WriteHeavy}
	rows := make([]latencyRow, len(zipf))
	for i, mix := range zipf {
		rows[i] = latencyRow{name: "latency_zipf[mix=" + mix.Name + "]", retryAfterOK: true}
	}
	flash := flashRow{latencyRow: latencyRow{name: "latency_flash_crowd[admission=on]", retryAfterOK: true},
		backlogBudget: opts.MaxChannelBacklog}
	// One round's reading of a row: log it, fold Retry-After into the
	// row and return p999/p50 and cold p99.
	read := func(row *latencyRow, r testing.BenchmarkResult) (dispersion, coldP99 float64) {
		t.Logf("%s: p50 %.1f µs, p999 %.1f µs, cold p99 %.1f µs, shed %.1f%%, hot backlog %.0f",
			row.name, r.Extra["p50_us"], r.Extra["p999_us"], r.Extra["cold_p99_us"], r.Extra["shed_pct"], r.Extra["hot_backlog"])
		row.retryAfterOK = row.retryAfterOK && r.Extra["retry_ok"] >= 1
		return r.Extra["p999_us"] / r.Extra["p50_us"], r.Extra["cold_p99_us"]
	}
	dispersions := make([][]float64, len(rows)+1) // the flash row last
	var coldRatios []float64
	for range rounds {
		var steadyColdP99 float64
		for i, mix := range zipf {
			r := run(t, rows[i].name, func(sink *perfengine.ErrSink) func(*testing.B) {
				return perfload.ZipfMixed(init, msgs, mix, opts, sink)
			})
			d, cold := read(&rows[i], r)
			dispersions[i] = append(dispersions[i], d)
			if i == 0 {
				steadyColdP99 = cold
			}
		}
		r := run(t, flash.name, func(sink *perfengine.ErrSink) func(*testing.B) {
			return perfload.FlashCrowd(init, msgs, true, opts, sink)
		})
		d, cold := read(&flash.latencyRow, r)
		dispersions[len(rows)] = append(dispersions[len(rows)], d)
		coldRatios = append(coldRatios, cold/steadyColdP99)
		flash.hotBacklog = max(flash.hotBacklog, r.Extra["hot_backlog"])
	}
	for i := range rows {
		rows[i].dispersion = median(dispersions[i])
	}
	flash.dispersion = median(dispersions[len(rows)])
	flash.coldRatio = median(coldRatios)
	for _, row := range append(rows, flash.latencyRow) {
		t.Logf("%s: p999/p50 %.0f× median (ceiling %.0f×)", row.name, row.dispersion, maxLatencyDispersion)
	}
	t.Logf("%s: hot backlog %.0f (budget %d + slack %d); cold p99 %.1f× the read-heavy row median (ceiling %.0f×)",
		flash.name, flash.hotBacklog, flash.backlogBudget, flashBacklogSlack, flash.coldRatio, maxFlashColdRatio)
	for _, msg := range latencyViolations(rows, flash) {
		t.Error(msg)
	}
}

func TestLatencyViolations(t *testing.T) {
	good := func() ([]latencyRow, flashRow) {
		rows := []latencyRow{
			{name: "latency_zipf[mix=read-heavy]", dispersion: 60, retryAfterOK: true},
			{name: "latency_zipf[mix=write-heavy]", dispersion: 38, retryAfterOK: true},
		}
		flash := flashRow{
			latencyRow:    latencyRow{name: "latency_flash_crowd[admission=on]", dispersion: 100, retryAfterOK: true},
			hotBacklog:    64,
			backlogBudget: 64,
			coldRatio:     1.2,
		}
		return rows, flash
	}
	rows, flash := good()
	if v := latencyViolations(rows, flash); len(v) != 0 {
		t.Fatalf("healthy rows flagged: %v", v)
	}
	// Exactly budget + slack is still inside the bound.
	flash.hotBacklog = 64 + flashBacklogSlack
	if v := latencyViolations(rows, flash); len(v) != 0 {
		t.Fatalf("hot backlog at budget+slack flagged: %v", v)
	}
	for _, tc := range []struct {
		name   string
		breaks func(rows []latencyRow, flash *flashRow)
		want   string
	}{
		{"tail blew out", func(r []latencyRow, _ *flashRow) { r[0].dispersion = 2500 }, "read-heavy]: p999/p50 dispersion"},
		{"shed without Retry-After", func(r []latencyRow, _ *flashRow) { r[1].retryAfterOK = false }, "write-heavy]: a shed response was missing Retry-After"},
		{"flash tail blew out", func(_ []latencyRow, f *flashRow) { f.dispersion = 2500 }, "admission=on]: p999/p50 dispersion"},
		{"unbounded flash backlog", func(_ []latencyRow, f *flashRow) { f.hotBacklog = 807 }, "hot_backlog 807 > budget 64"},
		{"stampede leaked into cold channels", func(_ []latencyRow, f *flashRow) { f.coldRatio = 60 }, "cold-channel read p99"},
	} {
		rows, flash := good()
		tc.breaks(rows, &flash)
		v := latencyViolations(rows, flash)
		if len(v) != 1 || !strings.Contains(v[0], tc.want) {
			t.Errorf("%s: violations %v, want exactly one mentioning %q", tc.name, v, tc.want)
		}
	}
}

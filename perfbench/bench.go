package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
)

// Split of --seconds between the two measured phases.
const fixedShare = 0.7

// opRec is one operation of the fixed-rate phase as the generator saw it.
type opRec struct {
	id   int64 // the X-Bench-Id it carried (sent only in traced runs)
	kind string
	key  string // channel or video
	t    timing
}

// dotSample is one red dot: due time of the request whose processing
// emitted it, and when the client read it.
type dotSample struct {
	emitter int64 // X-Bench-Id of the emitting request
	key     string
	idx     int // position in the channel's emission history
	due     time.Time
	read    time.Time
	ok      bool
}

// outcome is what a workload measured. Latencies are in milliseconds.
type outcome struct {
	ack       dist      // the workload's primary acknowledged operation
	ackSeq    []float64 // the same latencies in due-time order
	visible   dist      // until the user sees the result
	ops       []opRec
	dots      []dotSample
	capDone   []sample // capacity-phase completions: when, and how many operations (messages for live chat)
	capStart  time.Time
	capEnd    time.Time
	attempted int
	failed    int
	names     metricNames
	notes     []string

	// Inputs the traced run replays offline through the layers below
	// the handler: the chat streams the workload fed, one per session,
	// and the refine rounds it ran.
	streams [][]chat.Message
	refines []refineRun
}

// sample is a quantity observed at an instant.
type sample struct {
	at time.Time
	v  float64
}

// recordAck adds one primary-operation latency, in due-time order.
func (o *outcome) recordAck(t timing) {
	v := math.Inf(1)
	if t.ok {
		v = float64(t.latency()) / float64(time.Millisecond)
	}
	o.ack.add(v)
	o.ackSeq = append(o.ackSeq, v)
}

// chunkSize is the number of consecutive samples one tail estimate uses:
// the smallest count that puts ten samples beyond a p99.
const chunkSize = 1000

// ackP99 is the median, over consecutive chunks of chunkSize operations,
// of each chunk's p99. One stall of the host lifts the p99 of the chunk
// it lands in; the median over chunks stays put. With fewer than
// chunkSize samples it is the plain p99.
func (o *outcome) ackP99() float64 {
	var per []float64
	for lo := 0; lo+chunkSize <= len(o.ackSeq); lo += chunkSize {
		d := dist{v: append([]float64(nil), o.ackSeq[lo:lo+chunkSize]...)}
		per = append(per, d.q(0.99))
	}
	if len(per) == 0 {
		return o.ack.q(0.99)
	}
	return median(per)
}

// capWindow is the width of one capacity measurement window.
const capWindow = 500 * time.Millisecond

// capacity is the median, over the capacity phase's whole capWindow
// windows, of operations completed per second.
func (o *outcome) capacity() float64 {
	n := int(o.capEnd.Sub(o.capStart) / capWindow)
	if n == 0 {
		return 0
	}
	per := make([]float64, n)
	for _, s := range o.capDone {
		if i := int(s.at.Sub(o.capStart) / capWindow); i >= 0 && i < n {
			per[i] += s.v
		}
	}
	for i := range per {
		per[i] /= capWindow.Seconds()
	}
	return median(per)
}

// metricNames are the names the report gives a workload's primary
// operation latency (ack), its result latency (visible) and its
// capacity.
type metricNames struct {
	ack, visible, capacity string
}

// workload is one traffic mix. prepare runs before timing; fixed drives
// the open-loop phase and capacity the closed-loop phase over the same
// connections; finish completes any open work untimed and checks every
// output against the reference.
type workload interface {
	prepare() error
	fixed(start, end time.Time)
	capacity(end time.Time)
	finish() error
	result() *outcome
}

// env is what every workload shares: the reference model, the seeded
// inputs, the server address and the generator's connections.
type env struct {
	seed  int64
	m     *model
	bcs   []*broadcast
	cold  [][]core.RedDot // reference cold-start dots per crawled video
	conns []*conn
	clk   clock

	mu   sync.Mutex
	errs []string
}

// mismatch records a correctness failure; any one fails the run.
func (e *env) mismatch(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.errs) < 20 {
		e.errs = append(e.errs, fmt.Sprintf(format, args...))
	} else if len(e.errs) == 20 {
		e.errs = append(e.errs, "... further mismatches suppressed")
	}
}

func (e *env) wrong() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.errs) > 0
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "live_broadcast":
		return newLive(e), nil
	case "viewer_interactions":
		return newViewers(e), nil
	case "dot_readers":
		return newReaders(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// numConns is the generator's connection count: every workload uses a
// main lane and a side lane, and the budget is one connection per CPU.
func numConns() (int, error) {
	if n := runtime.NumCPU(); n < 2 {
		return 0, fmt.Errorf("need at least 2 CPUs for the two generator connections, have %d", n)
	}
	return 2, nil
}

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	selfBin   string
	work      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and returns its result line; report
// lines go to stdout as they are produced.
func run(cfg config) (*result, error) {
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := newWorkload(cfg.workload, e); err != nil {
		return nil, err
	}
	fsyncUS, err := fsyncProbe(dir, 50)
	if err != nil {
		return nil, fmt.Errorf("fsync probe: %w", err)
	}
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("env.fsync_p50_us %.1f us (n=50, 4 KiB write+fsync in the data dir's filesystem)\n", fsyncUS)
	if cfg.trace {
		return runTraced(cfg, e, dir, fsyncUS)
	}
	return runUntraced(cfg, e, dir)
}

func newEnv(cfg config) (*env, error) {
	m, err := buildModel(cfg.seed)
	if err != nil {
		return nil, err
	}
	bcs, err := newBroadcasts(m.init, cfg.seed, numBroadcasts)
	if err != nil {
		return nil, err
	}
	e := &env{seed: cfg.seed, m: m, bcs: bcs, clk: wallClock{}}
	for _, v := range m.videos {
		dots, err := m.init.Detect(v.log, v.video.Duration, defaultK)
		if err != nil {
			return nil, err
		}
		e.cold = append(e.cold, dots)
	}
	return e, nil
}

// serverArgs are lightor-server's flags for a run: production defaults,
// a fresh durable data directory, and the seeded corpus.
func serverArgs(dataDir string, seed int64) []string {
	return []string{
		"-data-dir", dataDir,
		"-seed", strconv.FormatInt(seed, 10),
		"-channels", strconv.Itoa(serverChannels),
		"-videos", strconv.Itoa(serverVideos),
	}
}

// e2eNames are the end-to-end metrics every untraced run reports, and
// perLayerNames the per-layer metrics every traced run reports: the
// end_to_end and per_layer lists of BENCHMARK.json.
var (
	e2eNames      = []string{"setup_s", "ack_p50_ms", "visible_p50_ms", "server_rss_mb", "server_cpu_us_per_op"}
	perLayerNames = []string{
		"chat.decode_ns_per_msg",
		"platform.handler.live_chat_us", "platform.handler.interactions_us", "platform.handler.reads_us",
		"platform.net_us", "platform.shed_pct", "platform.not_modified_pct",
		"platform.push.publish_to_pop_us", "platform.push.frame_bytes", "platform.push.drops",
		"store.put_checkpoint_us.p50", "store.put_checkpoint_us.p99", "store.checkpoints", "store.checkpoint_bytes",
		"store.append_events_us.p50", "store.append_events_us.p99", "store.set_refined_us",
		"engine.worker_lag_us", "engine.backlog_max", "engine.refine_wait_us",
		"core.feed_ns_per_msg", "core.window_closes", "core.dots_emitted", "core.refine_ms_per_job",
		"server.cpu_util", "gen.cpu_util", "gen.late_p99_us", "env.fsync_p50_us",
		"trace.overhead_us", "trace.coverage_pct",
	}
)

// checkNames reports a metric set that differs from names, or a name
// outside [A-Za-z0-9_.-]: a benchmark bug, caught before a result line
// goes out.
func checkNames(m map[string]metric, names []string) error {
	if len(m) != len(names) {
		return fmt.Errorf("reporting %d metrics, BENCHMARK.json lists %d", len(m), len(names))
	}
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return fmt.Errorf("metric %q not reported", n)
		}
		if !validName(n) {
			return fmt.Errorf("invalid metric name %q", n)
		}
	}
	return nil
}

// setupRounds is how many times a run starts the server to time set-up;
// the last start serves the workload.
const setupRounds = 5

func runUntraced(cfg config, e *env, dir string) (*result, error) {
	var setups []float64
	var p *proc
	for i := 0; i < setupRounds; i++ {
		data := filepath.Join(dir, fmt.Sprintf("data-%d", i))
		sp, took, err := spawn(cfg.serverBin, serverArgs(data, cfg.seed), filepath.Join(dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRounds-1 {
			if err := sp.stop(); err != nil {
				return nil, err
			}
			continue
		}
		p = sp
	}
	defer p.kill()
	total := time.Duration(cfg.seconds) * time.Second
	fixedLen := time.Duration(float64(total) * fixedShare)
	out, st, err := drive(cfg, e, p, fixedLen, total-fixedLen)
	if err != nil {
		return nil, err
	}
	peak, err := p.memory("VmHWM")
	if err != nil {
		return nil, err
	}
	if err := p.stop(); err != nil {
		return nil, err
	}
	setup := median(setups)
	rss := median(st.rss)
	cpuPerOp := float64(st.serverCPU) / float64(time.Microsecond) / float64(max(len(out.ops), 1))
	printOutcome(out)
	fmt.Printf("setup_s %.4f s (median of %d starts: spawn to first 200 from /api/ping)\n", setup, len(setups))
	fmt.Printf("server_rss_mb %.2f MB (median of %d VmRSS samples over the fixed-rate phase; peak VmHWM %.2f MB)\n", rss, len(st.rss), peak)
	fmt.Printf("server_cpu_us_per_op %.2f us (server CPU in the fixed-rate phase / its %d main-lane operations)\n", cpuPerOp, len(out.ops))
	res := &result{
		Correct:   !e.wrong(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics: map[string]metric{
			"setup_s":              {setup, "s"},
			"ack_p50_ms":           {out.ack.q(0.5), "ms"},
			"visible_p50_ms":       {out.visible.q(0.5), "ms"},
			"server_rss_mb":        {rss, "MB"},
			"server_cpu_us_per_op": {cpuPerOp, "us"},
		},
	}
	printErrors(e)
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s has no finite value (too few samples or too many failures)", k)
		}
	}
	return res, checkNames(res.Metrics, e2eNames)
}

// phaseStats is what the two processes used in the fixed-rate phase: CPU
// time, the phase's length, and the server's resident set sampled
// through it.
type phaseStats struct {
	serverCPU, genCPU, wall time.Duration
	rss                     []float64
}

// drive runs a workload's phases against the server p: the open-loop
// phase for fixedLen, then, when capLen > 0, the closed-loop phase.
func drive(cfg config, e *env, p *proc, fixedLen, capLen time.Duration) (*outcome, phaseStats, error) {
	var st phaseStats
	n, err := numConns()
	if err != nil {
		return nil, st, err
	}
	e.conns = make([]*conn, n)
	for i := range e.conns {
		e.conns[i] = newConn(p.addr, i+1, cfg.trace)
	}
	defer func() {
		for _, c := range e.conns {
			c.close()
		}
	}()
	w, err := newWorkload(cfg.workload, e)
	if err != nil {
		return nil, st, err
	}
	if err := w.prepare(); err != nil {
		return nil, st, fmt.Errorf("prepare: %w", err)
	}
	srv0, err := p.cpuTime()
	if err != nil {
		return nil, st, err
	}
	gen0 := selfCPU()
	start := time.Now().Add(20 * time.Millisecond)
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- sampleRSS(p, stopRSS) }()
	w.fixed(start, start.Add(fixedLen))
	close(stopRSS)
	srv1, err := p.cpuTime()
	if err != nil {
		return nil, st, err
	}
	st = phaseStats{serverCPU: srv1 - srv0, genCPU: selfCPU() - gen0, wall: time.Since(start), rss: <-rssDone}
	out := w.result()
	if capLen > 0 {
		out.capStart = time.Now()
		out.capEnd = out.capStart.Add(capLen)
		w.capacity(out.capEnd)
	}
	if err := w.finish(); err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// sampleRSS reads the server's resident set every 100 ms until stop.
func sampleRSS(p *proc, stop <-chan struct{}) []float64 {
	var out []float64
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
			if mb, err := p.memory("VmRSS"); err == nil {
				out = append(out, mb)
			}
		}
	}
}

// printOutcome prints a workload's end-to-end numbers under their
// per-workload names, each with its unit and sample count.
func printOutcome(out *outcome) {
	n := out.names
	fmt.Printf("%s_p50_ms %.4f ms (%s)\n", n.ack, out.ack.q(0.5), out.ack.summary("ms"))
	fmt.Printf("%s_p99_ms %.4f ms (median over %d chunks of %d operations of each chunk's p99)\n",
		n.ack, out.ackP99(), len(out.ackSeq)/chunkSize, chunkSize)
	fmt.Printf("%s_p50_ms %.4f ms (%s)\n", n.visible, out.visible.q(0.5), out.visible.summary("ms"))
	if supports(out.visible.n(), 0.99) {
		fmt.Printf("%s_p99_ms %.4f ms (n=%d)\n", n.visible, out.visible.q(0.99), out.visible.n())
	}
	if !out.capStart.IsZero() {
		fmt.Printf("%s %.1f 1/s (closed loop: median over the capacity phase's %v windows, %d completions)\n",
			n.capacity, out.capacity(), capWindow, len(out.capDone))
	}
	fmt.Printf("failed_pct %.3f %% (%d of %d operations failed or were refused)\n",
		100*float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	var late dist
	for _, op := range out.ops {
		late.add(float64(op.t.late()) / float64(time.Microsecond))
	}
	fmt.Printf("gen.late_us %s\n", late.summary("us"))
	for _, s := range out.notes {
		fmt.Println(s)
	}
}

func printErrors(e *env) {
	for _, s := range e.errs {
		fmt.Println("MISMATCH:", s)
	}
}

// closedLanes runs op back to back on every connection until end and
// records each success in out.capDone, under mu.
func closedLanes(e *env, end time.Time, mu *sync.Mutex, out *outcome, op func(c *conn) bool) {
	var wg sync.WaitGroup
	for _, c := range e.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			closedLoop(e.clk, end, func() {
				if op(c) {
					mu.Lock()
					out.capDone = append(out.capDone, sample{time.Now(), 1})
					mu.Unlock()
				}
			})
		}(c)
	}
	wg.Wait()
}

// count tallies an operation: failed when transport broke or the status
// is not one of want.
func (o *outcome) count(status int, err error, want ...int) bool {
	o.attempted++
	if err == nil {
		for _, w := range want {
			if status == w {
				return true
			}
		}
	}
	o.failed++
	return false
}

// readOK lists the statuses a read succeeds with.
var readOK = []int{http.StatusOK, http.StatusNotModified}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

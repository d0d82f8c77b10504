package cluster_test

// The kill-a-node drill: the cluster tentpole's end-to-end proof. It
// spawns three real lightor-server processes as a channel-sharded
// cluster, streams live chat at all of them (deliberately misrouting
// batches so the forwarding path carries real traffic), SIGKILLs one
// node mid-broadcast, lets the survivors adopt its channels from their
// standby checkpoint replicas, and finishes every broadcast. The verdict is
// exact: each channel's final emission history must be byte-for-byte the
// history an uninterrupted single-process server produces from the same
// messages, and every dots poll observed along the way must be
// version-monotone (cursors never go backwards, even across the
// failover).
//
// The drill runs as an external test package so it can drive the
// platform layer (which imports this package) without an import cycle,
// and it computes channel placement with the same cluster.NewRing the
// servers use — the test *is* a routing client.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"lightor/internal/chat"
	"lightor/internal/cluster"
	"lightor/internal/core"
	"lightor/internal/platform"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// Shared detector flags: every process in the drill (cluster nodes AND
// the single-process reference) trains the same initializer from the
// same seed, so a detector snapshot serialized on one node restores
// bit-compatibly on another — the same contract a real deployment needs
// for handoff to work.
var drillTrainArgs = []string{
	"-game", "dota2", "-train", "2", "-seed", "7",
	"-channels", "0", "-videos", "0", // no demo crawl: live sessions only
	"-warmup=-1", // deterministic dots from the first window
	"-drain", "5s",
}

// drillSecret is the shared cluster secret the drill's nodes start with;
// every /api/cluster/* call the drill makes must present it, exactly as
// a real operator would.
const drillSecret = "drill-cluster-secret"

// buildDrillServer compiles cmd/lightor-server once per drill run,
// with -race iff this test binary itself is race-instrumented.
func buildDrillServer(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	bin := filepath.Join(t.TempDir(), "lightor-server")
	args := []string{"build"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "./cmd/lightor-server")
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building server binary: %v\n%s", err, out)
	}
	return bin
}

// drillProc is one spawned lightor-server process.
type drillProc struct {
	id   string // cluster node id ("" for the reference server)
	base string // http://host:port
	dir  string // -data-dir ("" for the reference server)
	cmd  *exec.Cmd
	log  string // captured stdout+stderr path
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserving port: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func startDrillServer(t *testing.T, bin, id, addr string, extra ...string) *drillProc {
	t.Helper()
	return startDrillServerEnv(t, bin, id, addr, nil, extra...)
}

// drillProcAttr is applied to every spawned server. On Linux it asks the
// kernel to SIGKILL the server when this test binary dies: a test timeout
// panics past t.Cleanup, which would otherwise leave servers running.
var drillProcAttr *syscall.SysProcAttr

// startDrillServerEnv is startDrillServer with extra environment variables
// appended — the chaos drill arms per-node failpoints via LIGHTOR_FAILPOINTS.
func startDrillServerEnv(t *testing.T, bin, id, addr string, env []string, extra ...string) *drillProc {
	t.Helper()
	args := append([]string{"-addr", addr}, drillTrainArgs...)
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = drillProcAttr
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	logPath := filepath.Join(t.TempDir(), "server.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatalf("creating server log: %v", err)
	}
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting server %s: %v", id, err)
	}
	p := &drillProc{id: id, base: "http://" + addr, cmd: cmd, log: logPath}
	t.Cleanup(func() {
		logFile.Close()
		p.kill(t)
		if t.Failed() {
			if tail, err := os.ReadFile(logPath); err == nil {
				if len(tail) > 4096 {
					tail = tail[len(tail)-4096:]
				}
				t.Logf("server %s (%s) log tail:\n%s", id, addr, tail)
			}
		}
	})
	return p
}

// kill SIGKILLs the process and reaps it; safe to call twice.
func (p *drillProc) kill(t *testing.T) {
	t.Helper()
	if p.cmd.Process == nil || p.cmd.ProcessState != nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	_ = p.cmd.Wait()
}

// waitHealthy polls /api/healthz until the process answers. Startup
// includes detector training, which under -race takes a while.
func waitHealthy(t *testing.T, p *drillProc) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.base + "/api/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if p.cmd.Process.Signal(syscall.Signal(0)) != nil {
			break // process died during startup; fail with its log tail
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("server %s at %s never became healthy", p.id, p.base)
}

// drillStreams generates one deterministic chat stream per channel, with
// strictly increasing timestamps. Strict monotonicity makes the resume
// point unambiguous: "first message with Time > watermark" names exactly
// one position, so the producer can prove it neither skipped nor
// double-fed a message across the failover.
func drillStreams(channels []string, limit int) map[string][]chat.Message {
	profile := sim.Dota2Profile()
	streams := make(map[string][]chat.Message, len(channels))
	for i, ch := range channels {
		rng := stats.NewRand(int64(1000 + i))
		vid := sim.GenerateVideo(rng, profile, ch)
		cr := sim.GenerateChat(rng, vid, profile)
		msgs := append([]chat.Message(nil), cr.Log.Messages()...)
		if limit > 0 && len(msgs) > limit {
			msgs = msgs[:limit]
		}
		for j := 1; j < len(msgs); j++ {
			if msgs[j].Time <= msgs[j-1].Time {
				msgs[j].Time = msgs[j-1].Time + 1e-3
			}
		}
		streams[ch] = msgs
	}
	return streams
}

func drillPost(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("encoding request body: %v", err)
		}
		rd = bytes.NewReader(buf)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// drillClusterPost is drillPost with the shared cluster secret attached —
// the /api/cluster/* control plane refuses requests without it.
func drillClusterPost(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(http.MethodPost, url, rd)
	if err != nil {
		t.Fatalf("building cluster POST: %v", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(platform.ClusterKeyHeader, drillSecret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func drillIngest(t *testing.T, base, channel string, batch []chat.Message) {
	t.Helper()
	resp := drillPost(t, base+"/api/live/chat?channel="+channel, batch)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest %s via %s: status %d: %s", channel, base, resp.StatusCode, body)
	}
	var ir platform.LiveIngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("decoding ingest response: %v", err)
	}
	if ir.Accepted != len(batch) {
		t.Fatalf("ingest %s: accepted %d of %d", channel, ir.Accepted, len(batch))
	}
}

// drillDots polls live dots through whatever node base points at,
// following the 307 to the owner like a browser would.
func drillDots(t *testing.T, base, channel string) platform.LiveDotsResponse {
	t.Helper()
	resp, err := http.Get(base + "/api/live/dots?channel=" + channel)
	if err != nil {
		t.Fatalf("GET dots %s via %s: %v", channel, base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("dots %s via %s: status %d: %s", channel, base, resp.StatusCode, body)
	}
	var dr platform.LiveDotsResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatalf("decoding dots response: %v", err)
	}
	return dr
}

// drillClose ends a broadcast (DELETE is a write, so a non-owner node
// forwards it) and returns the channel's full emission history.
func drillClose(t *testing.T, base, channel string) []core.RedDot {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/api/live/session?channel="+channel, nil)
	if err != nil {
		t.Fatalf("building DELETE: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s via %s: %v", channel, base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("close %s via %s: status %d: %s", channel, base, resp.StatusCode, body)
	}
	var dr platform.LiveDotsResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatalf("decoding close response: %v", err)
	}
	return dr.Dots
}

func drillHealth(t *testing.T, base string) platform.HealthResponse {
	t.Helper()
	resp, err := http.Get(base + "/api/healthz")
	if err != nil {
		t.Fatalf("GET healthz %s: %v", base, err)
	}
	defer resp.Body.Close()
	var hr platform.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	return hr
}

// TestClusterKillNodeDrill is the tentpole acceptance drill. Because it
// compiles and boots four server processes it is the slowest test in the
// repo; -short trims channels and stream length but never skips it.
func TestClusterKillNodeDrill(t *testing.T) {
	numChannels, limit, batch := 6, 700, 40
	if testing.Short() {
		numChannels, limit, batch = 4, 260, 52
	}
	bin := buildDrillServer(t)

	channels := make([]string, numChannels)
	for i := range channels {
		channels[i] = fmt.Sprintf("drill%02d", i)
	}
	streams := drillStreams(channels, limit)

	// ---- Reference: one uninterrupted single-process run. ----
	ref := startDrillServer(t, bin, "ref", freeAddr(t))
	waitHealthy(t, ref)
	want := make(map[string][]core.RedDot, numChannels)
	for _, ch := range channels {
		msgs := streams[ch]
		for i := 0; i < len(msgs); i += batch {
			drillIngest(t, ref.base, ch, msgs[i:min(i+batch, len(msgs))])
		}
		want[ch] = drillClose(t, ref.base, ch)
	}
	ref.kill(t)
	for _, ch := range channels {
		if len(want[ch]) == 0 {
			t.Fatalf("reference run emitted no dots for %s; drill would prove nothing", ch)
		}
	}

	// ---- The cluster: three nodes, per-node data dirs. ----
	ids := []string{"n1", "n2", "n3"}
	addrs := make(map[string]string, len(ids))
	var peerSpec []string
	for _, id := range ids {
		addrs[id] = freeAddr(t)
		peerSpec = append(peerSpec, id+"="+addrs[id])
	}
	peers := strings.Join(peerSpec, ",")
	nodes := make(map[string]*drillProc, len(ids))
	dirs := make(map[string]string, len(ids))
	for _, id := range ids {
		dirs[id] = filepath.Join(t.TempDir(), id)
		nodes[id] = startDrillServer(t, bin, id, addrs[id],
			"-node-id", id, "-peers", peers, "-cluster-secret", drillSecret,
			"-data-dir", dirs[id], "-checkpoint-interval", "150ms")
	}
	for _, id := range ids {
		waitHealthy(t, nodes[id])
	}

	// The test computes placement with the very ring the servers use.
	ring, err := cluster.NewRing(ids, cluster.DefaultVNodes)
	if err != nil {
		t.Fatalf("building placement ring: %v", err)
	}
	owners := make(map[string]string, numChannels)
	byOwner := make(map[string][]string, len(ids))
	for _, ch := range channels {
		o := ring.Owner(ch)
		owners[ch] = o
		byOwner[o] = append(byOwner[o], ch)
	}
	victim := ids[0]
	for _, id := range ids[1:] {
		if len(byOwner[id]) > len(byOwner[victim]) {
			victim = id
		}
	}
	if len(byOwner[victim]) == 0 {
		t.Fatalf("no node owns any channel: placement %v", owners)
	}
	t.Logf("placement %v; victim %s owns %v", byOwner, victim, byOwner[victim])

	// ---- Phase 1: broadcast ~60%% of every stream, round-robining ----
	// batches across ALL nodes so a share of the ingest load crosses the
	// forwarding path before the failure.
	cut := make(map[string]int, numChannels)
	rr := 0
	for _, ch := range channels {
		msgs := streams[ch]
		c := (len(msgs) * 6 / 10 / batch) * batch
		cut[ch] = c
		for i := 0; i < c; i += batch {
			drillIngest(t, nodes[ids[rr%len(ids)]].base, ch, msgs[i:min(i+batch, c)])
			rr++
		}
	}
	// Version-monotone watch: seed cursors from pre-failure polls.
	cursors := make(map[string]int, numChannels)
	for _, ch := range channels {
		cursors[ch] = drillDots(t, nodes[ids[0]].base, ch).Cursor
	}
	// Every standby must hold the victim's latest state before the kill.
	successorFor := func(ch string) string {
		s := ring.OwnerSkipping(ch, func(id string) bool { return id == victim })
		if s == "" || s == victim {
			t.Fatalf("no successor for %s", ch)
		}
		return s
	}
	waitStandbysCaughtUp(t, nodes, victim, byOwner[victim], successorFor)

	// ---- The failure: SIGKILL the victim mid-broadcast. ----
	nodes[victim].kill(t)
	var survivors []string
	for _, id := range ids {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	for _, id := range survivors {
		resp := drillClusterPost(t, nodes[id].base+"/api/cluster/down?node="+victim, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("marking %s down on %s: status %d", victim, id, resp.StatusCode)
		}
	}

	// ---- Failover: marking the victim down is the only operator move. ----
	// Each survivor adopts, from its local replica area, the victim
	// channels the ring now places on it.
	waitReplicaFailover(t, nodes, survivors, numChannels, byOwner[victim])
	for _, ch := range byOwner[victim] {
		owners[ch] = successorFor(ch)
	}
	resumeFrom := drillResumePoints(t, nodes, byOwner[victim], owners)

	// ---- Phase 2: finish every broadcast through the survivors. ----
	// Failed-over channels resume from the watermark their new owner
	// reports: first message strictly after it, no skips, no refeeds.
	rr = 0
	for _, ch := range channels {
		msgs := streams[ch]
		start := cut[ch]
		if wm, failedOver := resumeFrom[ch]; failedOver {
			start = len(msgs)
			for j, m := range msgs {
				if m.Time > wm {
					start = j
					break
				}
			}
			if start > cut[ch] {
				t.Fatalf("%s watermark %.3f beyond producer position %d", ch, wm, cut[ch])
			}
		}
		for i := start; i < len(msgs); i += batch {
			drillIngest(t, nodes[survivors[rr%len(survivors)]].base, ch, msgs[i:min(i+batch, len(msgs))])
			rr++
			// Poll through the OTHER survivor so redirects stay exercised,
			// and hold the version-monotone line across the failover.
			dr := drillDots(t, nodes[survivors[(rr+1)%len(survivors)]].base, ch)
			if dr.Cursor < cursors[ch] {
				t.Fatalf("%s cursor went backwards: %d -> %d", ch, cursors[ch], dr.Cursor)
			}
			cursors[ch] = dr.Cursor
		}
	}

	// ---- Verdict: histories must match the uninterrupted run exactly. ----
	rr = 0
	for _, ch := range channels {
		got := drillClose(t, nodes[survivors[rr%len(survivors)]].base, ch)
		rr++
		if len(got) < cursors[ch] {
			t.Errorf("%s final history (%d) shorter than last observed cursor (%d)", ch, len(got), cursors[ch])
		}
		if !reflect.DeepEqual(got, want[ch]) {
			t.Errorf("%s history diverged from uninterrupted run: got %d dots, want %d", ch, len(got), len(want[ch]))
			for i := 0; i < len(got) && i < len(want[ch]); i++ {
				if got[i] != want[ch][i] {
					t.Errorf("  first divergence at dot %d: got %+v want %+v", i, got[i], want[ch][i])
					break
				}
			}
		}
	}
}

// waitStandbysCaughtUp is the replication lag gate, observed through the
// extended /api/cluster/owned report: with ingest quiescent, the victim's
// interval checkpoints settle at its final detector clock, and each of its
// channels' standby has caught up once its stored replica watermark
// reaches the victim's live watermark.
func waitStandbysCaughtUp(t *testing.T, nodes map[string]*drillProc, victim string, channels []string, successorFor func(string) string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		victimOwned := drillOwnedReport(t, nodes[victim].base)
		reports := make(map[string]platform.OwnedResponse, len(nodes)-1)
		for id, p := range nodes {
			if id != victim {
				reports[id] = drillOwnedReport(t, p.base)
			}
		}
		caughtUp := true
		for _, ch := range channels {
			wm, live := victimOwned.Owned[ch]
			have, stored := reports[successorFor(ch)].Replicas[ch]
			if !live || !stored || have.Watermark < wm {
				caughtUp = false
				break
			}
		}
		if caughtUp {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby replicas never caught up: victim %v, reports %v", victimOwned, reports)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitReplicaFailover polls the survivors' healthz until every channel is
// resident on exactly one of them and each of the victim's channels is
// reported as resumed_from: replica — adopted from a standby envelope,
// never from the victim's disk.
func waitReplicaFailover(t *testing.T, nodes map[string]*drillProc, survivors []string, numChannels int, victimChannels []string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resident := make(map[string]int)
		total := 0
		resumed := make(map[string]string)
		for _, id := range survivors {
			hr := drillHealth(t, nodes[id].base)
			total += hr.Sessions
			for _, ch := range hr.Channels {
				resident[ch]++
			}
			for ch, src := range hr.ResumedFrom {
				resumed[ch] = src
			}
		}
		converged := total == numChannels && len(resident) == numChannels
		for _, ch := range victimChannels {
			if resumed[ch] != "replica" {
				converged = false
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never self-healed: %d sessions, residents %v, resumed %v",
				total, resident, resumed)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// drillResumePoints asks each failed-over channel's new owner for the
// watermark its producer continues from (GET /api/cluster/owned?channel=)
// — the producer's only source once the old owner is gone.
func drillResumePoints(t *testing.T, nodes map[string]*drillProc, channels []string, owners map[string]string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(channels))
	for _, ch := range channels {
		resp := drillClusterGet(t, nodes[owners[ch]].base+"/api/cluster/owned?channel="+ch)
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			t.Fatalf("owned probe %s on %s: status %d: %s", ch, owners[ch], resp.StatusCode, body)
		}
		var hr platform.HandoffResponse
		if err := jsonDecode(resp.Body, &hr); err != nil {
			t.Fatalf("decoding owned probe: %v", err)
		}
		resp.Body.Close()
		out[ch] = hr.Watermark
	}
	return out
}

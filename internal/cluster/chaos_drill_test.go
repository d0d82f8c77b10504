package cluster_test

// The chaos drill: the fault-injection tentpole's end-to-end proof. It
// extends the kill-a-node drill with armed failpoints: every node's
// node-to-node transport drops a quarter of its calls (retried by the
// forwarding layer), and one node's disk starts failing fsync
// mid-broadcast. The claims under test:
//
//   - transport chaos is invisible to producers: retries + breakers absorb
//     it, and every acknowledged batch lands exactly once
//   - the disk-faulted node DEGRADES instead of crashing: reads keep
//     serving from memory, writes shed 503 + Retry-After with the
//     "degraded" reason, healthz reports the mode and cause
//   - after the faulted node is SIGKILLed, the survivors notice by
//     heartbeat alone — no operator POST /api/cluster/down anywhere in
//     this test — and adopt its channels from their standby replicas
//     (healthz reports resumed_from: replica for each)
//   - the final emission histories are byte-identical to a fault-free
//     single-process reference run: nothing acknowledged was lost,
//     nothing was double-applied
//
// Heartbeat probes are deliberately NOT fault-injected: a probabilistic
// probe fault would flap liveness (p³ per window) and turn routing
// churn into spurious history divergence. The transport sites cover the
// paths that carry data; liveness is attacked the honest way, by killing
// the process.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lightor/internal/chat"
	"lightor/internal/cluster"
	"lightor/internal/core"
	"lightor/internal/platform"
)

// chaosIngestResult classifies one batch's outcome.
type chaosIngestResult int

const (
	chaosAccepted chaosIngestResult = iota
	chaosDegraded                   // owner is in fail-stop read-only mode
)

// chaosIngest posts one batch, riding out injected transport faults: 502
// forward_failed and 503 handoff/overload answers are retried (the
// forwarding layer never got an HTTP response from the owner, so nothing
// was applied and the bytes are safe to re-send). A 503 with the
// "degraded" reason is terminal for the channel — its owner's disk is
// gone — and anything else fails the test.
func chaosIngest(t *testing.T, base, channel string, batch []chat.Message) chaosIngestResult {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp := drillPost(t, base+"/api/live/chat?channel="+channel, batch)
		reason := resp.Header.Get(platform.ShedReasonHeader)
		switch {
		case resp.StatusCode == http.StatusAccepted:
			var ir platform.LiveIngestResponse
			err := jsonDecode(resp.Body, &ir)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decoding ingest response: %v", err)
			}
			if ir.Accepted != len(batch) {
				t.Fatalf("ingest %s: accepted %d of %d", channel, ir.Accepted, len(batch))
			}
			return chaosAccepted
		case resp.StatusCode == http.StatusServiceUnavailable && reason == "degraded":
			resp.Body.Close()
			return chaosDegraded
		case resp.StatusCode == http.StatusBadGateway,
			resp.StatusCode == http.StatusServiceUnavailable,
			resp.StatusCode == http.StatusTooManyRequests:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			if time.Now().After(deadline) {
				t.Fatalf("ingest %s via %s: still failing at deadline: %d (%s) %s",
					channel, base, resp.StatusCode, reason, body)
			}
			time.Sleep(50 * time.Millisecond)
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			t.Fatalf("ingest %s via %s: unexpected status %d (%s): %s",
				channel, base, resp.StatusCode, reason, body)
		}
	}
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// TestClusterChaosDrill runs the full chaos scenario. Like the kill
// drill it boots four real server processes, so it is slow; -short trims
// the streams but never skips it.
func TestClusterChaosDrill(t *testing.T) {
	numChannels, limit, batch := 6, 700, 40
	if testing.Short() {
		numChannels, limit, batch = 4, 260, 52
	}
	bin := buildDrillServer(t)

	channels := make([]string, numChannels)
	for i := range channels {
		channels[i] = fmt.Sprintf("chaos%02d", i)
	}
	streams := drillStreams(channels, limit)

	// ---- Reference: one uninterrupted, fault-free single-process run. ----
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

	// ---- The cluster: three nodes, heartbeats on, failpoints armed. ----
	ids := []string{"n1", "n2", "n3"}
	addrs := make(map[string]string, len(ids))
	var peerSpec []string
	for _, id := range ids {
		addrs[id] = freeAddr(t)
		peerSpec = append(peerSpec, id+"="+addrs[id])
	}
	peers := strings.Join(peerSpec, ",")

	// Placement first: the victim (the node owning the most channels) gets
	// the disk fault on top of the transport chaos every node runs.
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

	nodes := make(map[string]*drillProc, len(ids))
	dirs := make(map[string]string, len(ids))
	for i, id := range ids {
		dirs[id] = filepath.Join(t.TempDir(), id)
		// Per-node deterministic transport chaos: a quarter of forwarding
		// and control-plane attempts fail, with a distinct PRNG seed per
		// node so the fault patterns differ across the cluster.
		spec := fmt.Sprintf(
			"cluster/forward=err:injected link chaos@p:0.25:%d;cluster/control=err:injected link chaos@p:0.25:%d",
			100+i, 200+i)
		if id == victim {
			// The 26th group commit fails; the WAL poisons and the backend
			// flips to degraded read-only. Checkpoints tick every 150ms, so
			// the budget drains a couple of seconds into the broadcast.
			spec += ";wal/sync=err:injected disk fault@after:25"
		}
		nodes[id] = startDrillServerEnv(t, bin, id, addrs[id],
			[]string{"LIGHTOR_FAILPOINTS=" + spec},
			"-node-id", id, "-peers", peers, "-cluster-secret", drillSecret,
			"-data-dir", dirs[id], "-checkpoint-interval", "150ms",
			"-heartbeat-interval", "100ms", "-heartbeat-misses", "3",
			"-cluster-call-timeout", "5s")
	}
	for _, id := range ids {
		waitHealthy(t, nodes[id])
	}
	// The env arming took: every node reports its failpoints on healthz.
	for _, id := range ids {
		hr := drillHealth(t, nodes[id].base)
		wantFPs := 2
		if id == victim {
			wantFPs = 3
		}
		if len(hr.Failpoints) != wantFPs {
			t.Fatalf("node %s reports failpoints %v, want %d armed", id, hr.Failpoints, wantFPs)
		}
	}

	// ---- Phase 1: ~60%% of every stream, round-robined across ALL ----
	// nodes so forwards cross the faulty links. pos tracks how far each
	// channel's producer actually got an ack; a channel whose owner
	// degrades mid-phase stops there.
	pos := make(map[string]int, numChannels)
	cut := make(map[string]int, numChannels)
	rr := 0
	for _, ch := range channels {
		msgs := streams[ch]
		c := (len(msgs) * 6 / 10 / batch) * batch
		cut[ch] = c
		for i := 0; i < c; i += batch {
			res := chaosIngest(t, nodes[ids[rr%len(ids)]].base, ch, msgs[i:min(i+batch, c)])
			rr++
			if res == chaosDegraded {
				t.Logf("channel %s: owner degraded at position %d/%d", ch, i, c)
				break
			}
			pos[ch] = min(i+batch, c)
		}
	}
	// Version-monotone watch, seeded before the failure.
	cursors := make(map[string]int, numChannels)
	for _, ch := range channels {
		cursors[ch] = drillDots(t, nodes[ids[0]].base, ch).Cursor
	}

	// ---- The disk fault bites: the victim degrades, does not crash. ----
	// Its checkpoint loop keeps attempting group commits, so the armed
	// after:25 budget drains even with ingest paused.
	deadline := time.Now().Add(60 * time.Second)
	for {
		hr := drillHealth(t, nodes[victim].base)
		if hr.Degraded {
			if hr.DegradedReason == "" {
				t.Fatal("victim degraded without a reason")
			}
			t.Logf("victim %s degraded: %s", victim, hr.DegradedReason)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %s never degraded", victim)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Degraded contract at the HTTP surface: reads serve from memory,
	// writes shed with reason + Retry-After.
	probeCh := byOwner[victim][0]
	if dr := drillDots(t, nodes[victim].base, probeCh); dr.Cursor < 0 {
		t.Fatalf("degraded read returned bad cursor %d", dr.Cursor)
	}
	resp := drillPost(t, nodes[victim].base+"/api/live/chat?channel="+probeCh,
		streams[probeCh][:1])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable ||
		resp.Header.Get(platform.ShedReasonHeader) != "degraded" ||
		resp.Header.Get("Retry-After") == "" {
		t.Fatalf("write to degraded node: status %d reason %q retry-after %q",
			resp.StatusCode, resp.Header.Get(platform.ShedReasonHeader), resp.Header.Get("Retry-After"))
	}

	// ---- SIGKILL the victim. The survivors must notice by heartbeat ----
	// alone: this drill never posts /api/cluster/down.
	nodes[victim].kill(t)
	var survivors []string
	for _, id := range ids {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	for _, id := range survivors {
		waitPeerDown(t, nodes[id], victim)
	}

	// ---- Failover, hands-off: each survivor adopts, from its local ----
	// replica area, the victim channels the ring now places on it. The
	// victim's replicas froze at its last durable checkpoint when its disk
	// failed, so they hold exactly what a local recovery would replay.
	waitReplicaFailover(t, nodes, survivors, numChannels, byOwner[victim])
	for _, ch := range byOwner[victim] {
		owners[ch] = ring.OwnerSkipping(ch, func(id string) bool { return id == victim })
	}
	resumeFrom := drillResumePoints(t, nodes, byOwner[victim], owners)

	// ---- Phase 2: finish every broadcast through the survivors, still ----
	// under transport chaos. Failed-over channels restart from the resume
	// watermark (their post-checkpoint ingest died with the victim's
	// memory — exactly why those acks were never durable is the WAL's
	// fail-stop story); healthy channels continue from their producer
	// position.
	rr = 0
	for _, ch := range channels {
		msgs := streams[ch]
		start := pos[ch]
		if wm, failedOver := resumeFrom[ch]; failedOver {
			start = len(msgs)
			for j, m := range msgs {
				if m.Time > wm {
					start = j
					break
				}
			}
			if start > pos[ch] {
				t.Fatalf("%s watermark %.3f beyond producer position %d", ch, wm, pos[ch])
			}
		}
		for i := start; i < len(msgs); i += batch {
			if res := chaosIngest(t, nodes[survivors[rr%len(survivors)]].base, ch,
				msgs[i:min(i+batch, len(msgs))]); res != chaosAccepted {
				t.Fatalf("%s: survivor shed with degraded during phase 2", ch)
			}
			rr++
			dr := drillDots(t, nodes[survivors[(rr+1)%len(survivors)]].base, ch)
			if dr.Cursor < cursors[ch] {
				t.Fatalf("%s cursor went backwards: %d -> %d", ch, cursors[ch], dr.Cursor)
			}
			cursors[ch] = dr.Cursor
		}
	}

	// ---- Verdict: histories equal the fault-free reference, exactly. ----
	// Closes go straight to each channel's current owner (no forward leg)
	// so an injected fault cannot 502 a close whose side effect already
	// happened.
	for _, ch := range channels {
		got := drillClose(t, nodes[owners[ch]].base, ch)
		if len(got) < cursors[ch] {
			t.Errorf("%s final history (%d) shorter than last observed cursor (%d)", ch, len(got), cursors[ch])
		}
		if !reflect.DeepEqual(got, want[ch]) {
			t.Errorf("%s history diverged from fault-free run: got %d dots, want %d", ch, len(got), len(want[ch]))
			for i := 0; i < len(got) && i < len(want[ch]); i++ {
				if got[i] != want[ch][i] {
					t.Errorf("  first divergence at dot %d: got %+v want %+v", i, got[i], want[ch][i])
					break
				}
			}
		}
	}
}

// waitPeerDown polls a survivor's healthz until its heartbeat monitor has
// marked the victim down.
func waitPeerDown(t *testing.T, p *drillProc, victim string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		hr := drillHealth(t, p.base)
		for _, ph := range hr.PeersHealth {
			if ph.ID == victim && ph.State == "down" {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("survivor %s never marked %s down by heartbeat", p.id, victim)
}

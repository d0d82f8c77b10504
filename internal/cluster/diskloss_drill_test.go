package cluster_test

// The disk-loss drill: the replicated-checkpoints tentpole's end-to-end
// proof, and the harshest failure this repo simulates. It extends the
// chaos drill's kill with total state loss: the victim's data directory
// (WAL, snapshots, checkpoints — everything) is WIPED before the SIGKILL,
// so no recovery path can ever read the victim's disk. The claims under
// test:
//
//   - checkpoint replication keeps ring-successor standbys current while
//     the replica send path probabilistically drops deliveries (the
//     anti-entropy reconciler repairs the gaps; the drill gates on the
//     extended /api/cluster/owned report showing every standby caught up)
//   - after the wipe + kill, the survivors notice by heartbeat alone and
//     resume the victim's channels from their LOCAL replica areas — no
//     operator action of any kind appears between the kill and the
//     recovery, and healthz reports each adopted channel as
//     resumed_from: replica
//   - producers learn their resume point from the new owner's
//     /api/cluster/owned probe and continue from the returned watermark:
//     no skips, no double-feeds
//   - the final emission histories are byte-identical to a fault-free
//     single-process reference run
//
// Transport chaos rides along on both the forwarding path and the replica
// send path, with distinct per-node PRNG seeds. Heartbeats and the
// control plane stay clean, as in the chaos drill: liveness is attacked
// the honest way, by killing the process.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lightor/internal/cluster"
	"lightor/internal/core"
	"lightor/internal/platform"
)

// drillClusterGet GETs a /api/cluster/* URL with the shared secret.
func drillClusterGet(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("building cluster GET: %v", err)
	}
	req.Header.Set(platform.ClusterKeyHeader, drillSecret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

// drillOwnedReport fetches a node's parameterless /api/cluster/owned
// report: live-session watermarks plus stored replica watermarks.
func drillOwnedReport(t *testing.T, base string) platform.OwnedResponse {
	t.Helper()
	resp := drillClusterGet(t, base+"/api/cluster/owned")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		t.Fatalf("owned report %s: status %d: %s", base, resp.StatusCode, body)
	}
	var or platform.OwnedResponse
	if err := jsonDecode(resp.Body, &or); err != nil {
		t.Fatalf("decoding owned report: %v", err)
	}
	return or
}

// TestClusterDiskLossDrill runs the full disk-loss scenario. Like its
// sibling drills it boots four real server processes, so it is slow;
// -short trims the streams but never skips it.
func TestClusterDiskLossDrill(t *testing.T) {
	numChannels, limit, batch := 6, 700, 40
	if testing.Short() {
		numChannels, limit, batch = 4, 260, 52
	}
	bin := buildDrillServer(t)

	channels := make([]string, numChannels)
	for i := range channels {
		channels[i] = fmt.Sprintf("diskloss%02d", i)
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

	// ---- The cluster: three nodes, replication on, heartbeats on, ----
	// transport + replica-send chaos armed.
	ids := []string{"n1", "n2", "n3"}
	addrs := make(map[string]string, len(ids))
	var peerSpec []string
	for _, id := range ids {
		addrs[id] = freeAddr(t)
		peerSpec = append(peerSpec, id+"="+addrs[id])
	}
	peers := strings.Join(peerSpec, ",")

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
		// Per-node deterministic chaos on the paths that carry data: a fifth
		// of forwarding attempts and a fifth of replica deliveries fail,
		// distinct PRNG seed per node. The reconciler must close whatever
		// gaps the send faults open.
		spec := fmt.Sprintf(
			"cluster/forward=err:injected link chaos@p:0.2:%d;replica/send=err:injected replica drop@p:0.2:%d",
			300+i, 400+i)
		nodes[id] = startDrillServerEnv(t, bin, id, addrs[id],
			[]string{"LIGHTOR_FAILPOINTS=" + spec},
			"-node-id", id, "-peers", peers, "-cluster-secret", drillSecret,
			"-data-dir", dirs[id], "-checkpoint-interval", "150ms",
			"-replicas", "1",
			"-heartbeat-interval", "100ms", "-heartbeat-misses", "3",
			"-cluster-call-timeout", "5s")
	}
	for _, id := range ids {
		waitHealthy(t, nodes[id])
	}
	for _, id := range ids {
		if hr := drillHealth(t, nodes[id].base); len(hr.Failpoints) != 2 {
			t.Fatalf("node %s reports failpoints %v, want 2 armed", id, hr.Failpoints)
		}
	}

	// ---- Phase 1: ~60%% of every stream, round-robined across ALL ----
	// nodes so forwards cross the faulty links while replication runs.
	cut := make(map[string]int, numChannels)
	rr := 0
	for _, ch := range channels {
		msgs := streams[ch]
		c := (len(msgs) * 6 / 10 / batch) * batch
		cut[ch] = c
		for i := 0; i < c; i += batch {
			if res := chaosIngest(t, nodes[ids[rr%len(ids)]].base, ch, msgs[i:min(i+batch, c)]); res != chaosAccepted {
				t.Fatalf("%s: unexpected degraded shed during phase 1", ch)
			}
			rr++
		}
	}

	// ---- Replication catch-up gate: the lag contract, whatever the ----
	// send faults dropped along the way.
	successorFor := func(ch string) string {
		s := ring.OwnerSkipping(ch, func(id string) bool { return id == victim })
		if s == "" || s == victim {
			t.Fatalf("no successor for %s", ch)
		}
		return s
	}
	waitStandbysCaughtUp(t, nodes, victim, byOwner[victim], successorFor)

	// Version-monotone watch, seeded after catch-up and before the loss.
	cursors := make(map[string]int, numChannels)
	for _, ch := range channels {
		cursors[ch] = drillDots(t, nodes[ids[0]].base, ch).Cursor
	}

	// ---- The failure: WIPE the victim's disk, then SIGKILL it. From ----
	// here on nothing may read dirs[victim] — the replicas are the only
	// surviving copy of the victim's channels.
	if err := os.RemoveAll(dirs[victim]); err != nil {
		t.Fatalf("wiping victim data dir: %v", err)
	}
	nodes[victim].kill(t)
	_ = os.RemoveAll(dirs[victim]) // anything the dying process re-created
	var survivors []string
	for _, id := range ids {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	for _, id := range survivors {
		waitPeerDown(t, nodes[id], victim)
	}

	// ---- Self-healing failover: NO operator action. Each survivor's ----
	// peer-down observer resumes, from its local replica area, exactly the
	// victim channels the ring now places on it, pins ownership, and
	// reports the source on healthz.
	waitReplicaFailover(t, nodes, survivors, numChannels, byOwner[victim])

	// ---- Phase 2: finish every broadcast through the survivors, still ----
	// under chaos. Failed-over channels restart from the watermark the NEW
	// owner reports — the producer's only source, since the victim's disk
	// no longer exists.
	for _, ch := range byOwner[victim] {
		owners[ch] = successorFor(ch)
	}
	resumeFrom := drillResumePoints(t, nodes, byOwner[victim], owners)
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

	// ---- Verdict: histories equal the fault-free reference, exactly, ----
	// with the victim's disk gone since mid-broadcast.
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

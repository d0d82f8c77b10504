package perfcluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"lightor/internal/chat"
	"lightor/internal/cluster"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/perf/perfengine"
	"lightor/internal/perf/perfhttp"
	"lightor/internal/platform"
)

// The replication rows price what checkpoint replication costs the hot
// path: the same sharded live-ingest fleet as ClusterIngest, but on
// nodes that checkpoint to a durable backend and — in the "on" arm —
// ship every checkpoint to the channel's ring successor over real
// loopback HTTP. Unlike clusterFixture, peer addresses here are real
// started listeners: the replica traffic must actually be delivered,
// applied, and fsynced on the standby for the measured overhead to be
// honest. The headline is a same-run on/off ratio, so machine speed
// cancels out and a same-run gate can hold a floor under it.
const (
	// ReplicationNodes is the fixed topology for the replication rows:
	// big enough that every channel has a distinct ring successor to
	// ship to, small enough to stay honest on a laptop.
	ReplicationNodes = 3
	// ReplicationReplicas is the standby count per channel (the server
	// default for -replicas).
	ReplicationReplicas = 1
)

const (
	replSecret = "perf-replication-secret"
	// replCheckpointEvery keeps interval checkpoints firing throughout
	// each measured ingest iteration — with replication on, every one of
	// them is shipped. Far more aggressive than the 30 s production
	// default, so the measured overhead is an upper bound.
	replCheckpointEvery = 100 * time.Millisecond
	// replReconcileEvery is the anti-entropy cadence: frequent enough
	// that the reconciler's /api/cluster/owned sweeps are part of the
	// measured steady state, not an artifact that never fires.
	replReconcileEvery = 200 * time.Millisecond
)

type replNode struct {
	id      string
	node    *cluster.Node
	eng     *engine.Engine
	store   *platform.Store
	handler http.Handler
	srv     *httptest.Server
	rep     *platform.Replicator
}

type replFixture struct {
	nodes []*replNode
}

// newReplFixture stands up n checkpointing cluster nodes behind real
// listeners. replicated wires a ReplicaStore + Replicator per node and
// starts the ship and anti-entropy loops.
func newReplFixture(b *testing.B, init *core.Initializer, n int, replicated bool) (*replFixture, error) {
	nodes := make([]*replNode, n)
	var peerSpec []string
	// Listeners first: peer addresses must exist before any Node (and
	// therefore any Handler) can be built.
	for i := range nodes {
		srv := httptest.NewUnstartedServer(http.NotFoundHandler())
		nodes[i] = &replNode{id: fmt.Sprintf("node%02d", i), srv: srv}
		peerSpec = append(peerSpec, fmt.Sprintf("%s=%s", nodes[i].id, srv.Listener.Addr().String()))
	}
	fx := &replFixture{nodes: nodes}
	peers, err := cluster.ParsePeers(strings.Join(peerSpec, ","))
	if err != nil {
		fx.closeAll()
		return nil, err
	}
	for _, rn := range nodes {
		rn.node, err = cluster.New(rn.id, peers, cluster.DefaultVNodes)
		if err != nil {
			fx.closeAll()
			return nil, err
		}
		rn.node.Secret = replSecret
		be, err := platform.OpenFileBackend(b.TempDir(), platform.FileConfig{SyncInterval: time.Millisecond})
		if err != nil {
			fx.closeAll()
			return nil, err
		}
		rn.store = platform.NewStoreWith(be)
		ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
		if err != nil {
			fx.closeAll()
			return nil, err
		}
		rn.eng, err = engine.New(init, ext, engine.Config{
			Warmup:             -1,
			Checkpoints:        rn.store,
			CheckpointInterval: replCheckpointEvery,
		})
		if err != nil {
			fx.closeAll()
			return nil, err
		}
		// DisableAdmission for the same reason as the sharding rows: the
		// bench queues past the backlog budget by design.
		svc := &platform.Service{Store: rn.store, Engine: rn.eng, Cluster: rn.node, DisableAdmission: true}
		rn.handler = svc.Handler()
		rn.srv.Config.Handler = rn.handler
		rn.srv.Start()
		if replicated {
			rs, err := platform.OpenReplicaStore(b.TempDir())
			if err != nil {
				fx.closeAll()
				return nil, err
			}
			rn.rep = platform.NewReplicator(svc, rs, ReplicationReplicas, replReconcileEvery)
		}
	}
	// Start the ship/reconcile loops only once every listener serves, so
	// the first anti-entropy sweep never races node bring-up.
	for _, rn := range nodes {
		if rn.rep != nil {
			rn.rep.Start()
		}
	}
	return fx, nil
}

func (fx *replFixture) closeAll() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, rn := range fx.nodes {
		if rn.rep != nil {
			rn.rep.Stop()
		}
	}
	for _, rn := range fx.nodes {
		rn.srv.Close()
		if rn.eng != nil {
			_ = rn.eng.Close(ctx)
		}
		if rn.store != nil {
			_ = rn.store.Close()
		}
	}
}

func (fx *replFixture) ownerIdx(channel string) int {
	owner := fx.nodes[0].node.Owner(channel)
	for i, rn := range fx.nodes {
		if rn.id == owner {
			return i
		}
	}
	return 0
}

// verifyReplication proves the "on" arm actually replicated: it opens a
// probe channel on its owner, checkpoints it explicitly, and waits for
// the envelope to land in another node's replica area. Without this, a
// replicator that silently ships nothing would win the overhead ratio
// by forfeit.
func (fx *replFixture) verifyReplication(msgs []chat.Message) error {
	const probe = "perf-repl-probe"
	rn := fx.nodes[fx.ownerIdx(probe)]
	s, err := rn.eng.Sessions().GetOrOpen(probe)
	if err != nil {
		return err
	}
	n := len(msgs)
	if n > ClusterIngestBatch {
		n = ClusterIngestBatch
	}
	if err := s.Ingest(msgs[:n]...); err != nil {
		return err
	}
	deadline := time.Now().Add(15 * time.Second)
	for s.Pending() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("replication probe: %s never drained (pending %d)", probe, s.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Checkpoint(context.Background()); err != nil {
		return err
	}
	for {
		for i, other := range fx.nodes {
			if i == fx.ownerIdx(probe) || other.rep == nil {
				continue
			}
			if _, _, ok := other.rep.Store().Get(probe); ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication probe: checkpoint for %s never reached a standby", probe)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ReplicatedClusterIngest is the ClusterIngest workload on checkpointing
// nodes, with checkpoint replication on or off — the overhead headline.
// Reports aggregate msgs/sec; the on-arm additionally proves a probe
// checkpoint reached a standby before the result counts.
func ReplicatedClusterIngest(init *core.Initializer, msgs []chat.Message, nodes int, replicated bool, sink *perfengine.ErrSink) func(*testing.B) {
	return func(b *testing.B) {
		fail := func(err error) {
			if sink != nil {
				sink.Set(err)
			}
			b.Error(err)
		}
		fx, err := newReplFixture(b, init, nodes, replicated)
		if err != nil {
			fail(err)
			return
		}
		defer fx.closeAll()
		bodies, err := perfhttp.EncodeBatches(msgs, ClusterIngestBatch)
		if err != nil {
			fail(err)
			return
		}

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < ClusterChannels; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					id := fmt.Sprintf("perf-repl-i%d-c%d", i, c)
					handler := fx.nodes[fx.ownerIdx(id)].handler
					ingestURL := url.URL{Path: "/api/live/chat", RawQuery: "channel=" + id}
					for _, body := range bodies {
						req := &http.Request{
							Method: http.MethodPost,
							URL:    &ingestURL,
							Header: http.Header{},
							Body:   io.NopCloser(bytes.NewReader(body)),
							Host:   "bench",
						}
						rec := httptest.NewRecorder()
						handler.ServeHTTP(rec, req)
						if rec.Code != http.StatusAccepted {
							fail(fmt.Errorf("replicated live chat POST: %d %s", rec.Code, rec.Body.String()))
							return
						}
					}
					closeURL := url.URL{Path: "/api/live/session", RawQuery: "channel=" + id}
					req := &http.Request{
						Method: http.MethodDelete,
						URL:    &closeURL,
						Header: http.Header{},
						Body:   http.NoBody,
						Host:   "bench",
					}
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						fail(fmt.Errorf("replicated live session DELETE: %d %s", rec.Code, rec.Body.String()))
					}
				}(c)
			}
			wg.Wait()
		}
		b.StopTimer()
		if replicated {
			if err := fx.verifyReplication(msgs); err != nil {
				fail(err)
				return
			}
		}
		total := float64(b.N) * ClusterChannels * float64(len(msgs))
		b.ReportMetric(total/b.Elapsed().Seconds(), "msgs/sec")
		b.ReportMetric(total/b.Elapsed().Seconds()/float64(nodes), "msgs/sec/node")
	}
}

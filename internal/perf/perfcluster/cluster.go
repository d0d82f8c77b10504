// Package perfcluster holds the cluster-mode benchmark bodies: the same
// live-ingest and dots-read workloads as perfhttp, but served by N
// in-process nodes sharing one machine, with every channel placed by the
// production consistent-hash ring. Clients are pre-routed (they hit the
// owner directly, like a producer that cached the ring), so the rows
// measure what sharding itself costs and buys: the per-request Owner()
// routing check on every hot path, engines and caches split N ways, and
// the aggregate-throughput scale ratio aggregate(N)/aggregate(1) that
// the cluster scale gate holds a floor under. Peer addresses point at
// TEST-NET-3 and are never dialed — misrouted-traffic cost is the
// forwarding tests' business; these bodies isolate the sharding tax.
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

// NodeSweep is the canonical node-count sweep: single node (the routing
// check on an owned channel, nothing else), and two- and three-way
// sharding of the same channel fleet.
var NodeSweep = []int{1, 2, 3}

// ClusterChannels is the fixed channel fleet every row shards. Divisible
// interests aside, 12 channels over ≤3 nodes keeps each node busy enough
// that per-node throughput is meaningful.
const ClusterChannels = 12

// ClusterIngestBatch matches the batched-ingest steady state.
const ClusterIngestBatch = 256

// readsPerPoller amortizes goroutine spawn outside the measured reads,
// mirroring perfhttp's read bodies.
const readsPerPoller = 4

// clusterFixture is N nodes of a cluster on one machine: each node has
// its own engine, store, response cache, and cluster routing state, all
// behind its real HTTP handler.
type clusterFixture struct {
	ids   []string
	ring  *cluster.Ring
	engs  []*engine.Engine
	mux   []http.Handler
	close func()
}

func newClusterFixture(init *core.Initializer, n int, threshold float64) (*clusterFixture, error) {
	ids := make([]string, n)
	specs := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%02d", i)
		// TEST-NET-3 (RFC 5737): syntactically valid, never dialed.
		specs[i] = fmt.Sprintf("%s=203.0.113.%d:9", ids[i], i+1)
	}
	peers, err := cluster.ParsePeers(strings.Join(specs, ","))
	if err != nil {
		return nil, err
	}
	ring, err := cluster.NewRing(ids, cluster.DefaultVNodes)
	if err != nil {
		return nil, err
	}
	fx := &clusterFixture{ids: ids, ring: ring}
	for _, id := range ids {
		node, err := cluster.New(id, peers, cluster.DefaultVNodes)
		if err != nil {
			fx.closeAll()
			return nil, err
		}
		ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
		if err != nil {
			fx.closeAll()
			return nil, err
		}
		eng, err := engine.New(init, ext, engine.Config{Warmup: -1, Threshold: threshold})
		if err != nil {
			fx.closeAll()
			return nil, err
		}
		// DisableAdmission: the sharding benchmarks queue far past the
		// backlog budget by design; admission policy is priced separately
		// in perfload.
		svc := &platform.Service{Store: platform.NewStore(), Engine: eng, Cluster: node, DisableAdmission: true}
		fx.engs = append(fx.engs, eng)
		fx.mux = append(fx.mux, svc.Handler())
	}
	return fx, nil
}

func (fx *clusterFixture) closeAll() {
	for _, eng := range fx.engs {
		eng.Close(context.Background())
	}
}

// ownerIdx places a channel the way every node in the fixture does.
func (fx *clusterFixture) ownerIdx(channel string) int {
	owner := fx.ring.Owner(channel)
	for i, id := range fx.ids {
		if id == owner {
			return i
		}
	}
	return 0
}

// ClusterIngest streams the full simulated broadcast into ClusterChannels
// concurrent channels, each POSTed to its ring owner's handler in
// ClusterIngestBatch-sized bodies and closed through the API. Reports
// aggregate msgs/sec across the whole cluster and msgs/sec/node.
func ClusterIngest(init *core.Initializer, msgs []chat.Message, nodes int, sink *perfengine.ErrSink) func(*testing.B) {
	return func(b *testing.B) {
		fail := func(err error) {
			if sink != nil {
				sink.Set(err)
			}
			b.Error(err)
		}
		fx, err := newClusterFixture(init, nodes, 0)
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
					id := fmt.Sprintf("perf-i%d-c%d", i, c)
					handler := fx.mux[fx.ownerIdx(id)]
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
							fail(fmt.Errorf("cluster live chat POST: %d %s", rec.Code, rec.Body.String()))
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
						fail(fmt.Errorf("cluster live session DELETE: %d %s", rec.Code, rec.Body.String()))
					}
				}(c)
			}
			wg.Wait()
		}
		b.StopTimer()
		total := float64(b.N) * ClusterChannels * float64(len(msgs))
		b.ReportMetric(total/b.Elapsed().Seconds(), "msgs/sec")
		b.ReportMetric(total/b.Elapsed().Seconds()/float64(nodes), "msgs/sec/node")
	}
}

// ClusterRead pre-ingests the broadcast into ClusterChannels channels
// sharded across the cluster, then measures `pollers` concurrent viewers
// polling GET /api/live/dots on their channels' owners with conditional
// GETs (the hot lane: cache hits and bodyless 304s). Reports aggregate
// reads/sec and reads/sec/node.
func ClusterRead(init *core.Initializer, msgs []chat.Message, nodes, pollers int, sink *perfengine.ErrSink) func(*testing.B) {
	return func(b *testing.B) {
		fail := func(err error) {
			if sink != nil {
				sink.Set(err)
			}
			b.Error(err)
		}
		// The low threshold guarantees a served dot history regardless of
		// detector tuning — these rows measure serving, not detection.
		fx, err := newClusterFixture(init, nodes, 0.01)
		if err != nil {
			fail(err)
			return
		}
		defer fx.closeAll()

		channels := make([]string, ClusterChannels)
		owners := make([]int, ClusterChannels)
		etags := make([]string, ClusterChannels)
		for c := range channels {
			channels[c] = fmt.Sprintf("perf-read-c%02d", c)
			owners[c] = fx.ownerIdx(channels[c])
			s, err := fx.engs[owners[c]].Sessions().GetOrOpen(channels[c])
			if err != nil {
				fail(err)
				return
			}
			if err := s.Ingest(msgs...); err != nil {
				fail(err)
				return
			}
			// Wait for the dots themselves: the read lane needs a
			// history to serve, not just an empty mailbox.
			deadline := time.Now().Add(30 * time.Second)
			for {
				if _, n := s.Dots(0); n > 0 {
					break
				}
				if time.Now().After(deadline) {
					fail(fmt.Errorf("cluster read fixture: %s emitted no dots (pending %d)", channels[c], s.Pending()))
					return
				}
				time.Sleep(time.Millisecond)
			}
			// Prime each channel's cache entry and record its ETag so the
			// measured loop runs the steady state: conditional 304s.
			rec := httptest.NewRecorder()
			fx.mux[owners[c]].ServeHTTP(rec, readReq(channels[c], ""))
			if rec.Code != http.StatusOK {
				fail(fmt.Errorf("cluster read prime: %d %s", rec.Code, rec.Body.String()))
				return
			}
			etags[c] = rec.Header().Get("ETag")
		}

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for p := 0; p < pollers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for r := 0; r < readsPerPoller; r++ {
						c := (p*readsPerPoller + r) % ClusterChannels
						rec := httptest.NewRecorder()
						fx.mux[owners[c]].ServeHTTP(rec, readReq(channels[c], etags[c]))
						if rec.Code != http.StatusOK && rec.Code != http.StatusNotModified {
							fail(fmt.Errorf("cluster dots GET: %d %s", rec.Code, rec.Body.String()))
							return
						}
					}
				}(p)
			}
			wg.Wait()
		}
		b.StopTimer()
		total := float64(b.N) * float64(pollers) * readsPerPoller
		b.ReportMetric(total/b.Elapsed().Seconds(), "reads/sec")
		b.ReportMetric(total/b.Elapsed().Seconds()/float64(nodes), "reads/sec/node")
	}
}

func readReq(channel, etag string) *http.Request {
	u := url.URL{Path: "/api/live/dots", RawQuery: "channel=" + channel}
	h := http.Header{}
	if etag != "" {
		h.Set("If-None-Match", etag)
	}
	return &http.Request{Method: http.MethodGet, URL: &u, Header: h, Body: http.NoBody, Host: "bench"}
}

// Command lightor-server runs the LIGHTOR back-end web service of Section
// VI (Figure 5), engine-backed: the browser-extension front end fetches
// red dots from it and reports viewer interactions back, refinement runs
// as background jobs, and live broadcast chat streams through the
// concurrent session engine.
//
// For a self-contained demo it also starts a simulated Twitch API, crawls
// a batch of simulated recorded videos through the real crawler stack, and
// trains the detector on simulated labeled data:
//
//	lightor-server -addr :8080 -game dota2 -channels 2 -videos 3
//
// Endpoints:
//
//	GET  /api/ping                             (static liveness probe)
//	GET  /api/highlights?video=ID&k=5
//	POST /api/interactions?video=ID            (JSON array of player events)
//	GET  /api/interactions?video=ID&offset=N&limit=M (paginated event log)
//	POST /api/refine?video=ID                  (202: job enqueued)
//	GET  /api/refine/status?job=ID
//	POST /api/live/chat?channel=ID             (JSON array of chat messages)
//	POST /api/live/advance?channel=ID&now=T
//	GET  /api/live/dots?channel=ID&cursor=N
//	GET  /api/live/stream?channel=ID&cursor=N  (SSE push of dots since cursor)
//	DELETE /api/live/session?channel=ID        (end broadcast, flush, free slot)
//	GET  /api/healthz                          (node id, load, drain state)
//
// With -node-id/-peers the server is one node of a channel-sharded
// cluster: a consistent-hash ring over the peer set maps every channel
// and video id to its owner node, misrouted writes are forwarded to the
// owner over pooled keep-alive connections, misrouted reads answer 307
// so viewers stream straight from the owner, and the /api/cluster/*
// endpoints (handoff, route, down, owned, replica) rebalance live
// channels between nodes without ending their broadcasts. Every
// checkpoint ships to -replicas ring-successor standbys (kept under
// <data-dir>/replicas), so when a node dies together with its disk the
// survivors resume its channels from their local replica areas (healthz
// reports them under "resumed_from"); a handoff moves the same checkpoint
// envelope. Cluster mode therefore requires -data-dir (its own per node).
// The control plane shares the public listener, so cluster mode also
// requires -cluster-secret (the same value on every node); /api/cluster/*
// requests without the matching X-Lightor-Cluster-Key header are
// refused. Without -peers nothing changes: single-node operation is the
// default and pays no routing overhead.
//
// With -pprof-addr the standard net/http/pprof handlers are served on a
// separate listener (off by default), so production ingest hot spots can
// be profiled without exposing debug endpoints on the API port.
//
// With -data-dir the store is durable: every mutation rides a
// CRC-checked write-ahead log (interactions and session checkpoints are
// fsynced before they are acknowledged), snapshots compact the log, and
// startup replays the WAL and resumes every checkpointed live session
// from exactly where it stopped.
//
// On SIGINT/SIGTERM the server drains gracefully: push subscribers get a
// terminal "end" event (so their long-lived SSE responses finish instead
// of pinning the HTTP drain), in-flight requests finish, queued live chat
// is processed, background refinements complete, live sessions write
// final checkpoints, and the durable store compacts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"lightor/internal/cluster"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/fault"
	"lightor/internal/platform"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

func main() {
	addr := flag.String("addr", ":8080", "service listen address")
	game := flag.String("game", "dota2", "game profile for the demo data (dota2|lol)")
	channels := flag.Int("channels", 2, "simulated channels")
	videos := flag.Int("videos", 3, "videos per simulated channel")
	trainN := flag.Int("train", 3, "simulated labeled training videos")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "engine session/refine workers (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful-drain timeout on shutdown")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + snapshots): interactions and live-session checkpoints survive a crash, and startup replays the log and resumes live channels")
	eventRetention := flag.Int("event-retention", 100000, "max interaction events retained per video (0 = unlimited)")
	ckptInterval := flag.Duration("checkpoint-interval", 15*time.Second, "live-session checkpoint cadence with -data-dir (0 or negative disables the interval loop; emit and drain checkpoints always run)")
	maxSubscribers := flag.Int("max-subscribers", 1<<20, "cap on concurrent /api/live/stream push subscribers across all channels; beyond it new subscribers get 503 + Retry-After")
	sseHeartbeat := flag.Duration("sse-heartbeat", 15*time.Second, "SSE keepalive comment interval on /api/live/stream")
	warmup := flag.Float64("warmup", 0, "live-detector warm-up window in stream seconds (0 = detector default, negative = disabled)")
	nodeID := flag.String("node-id", "", "this node's id in cluster mode; must appear in -peers")
	peersSpec := flag.String("peers", "", "cluster membership as id=host:port,... (all nodes, this one included); empty = single-node mode")
	clusterSecret := flag.String("cluster-secret", "", "shared secret authenticating the /api/cluster/* control plane; required in cluster mode and must match on every node")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) so ingest hot spots are profileable in production; empty (the default) disables it entirely")
	maxInflightWrites := flag.Int("max-inflight-writes", 1024, "global in-flight write budget across all mutating endpoints; beyond it writes get 503 + Retry-After")
	maxChannelBacklog := flag.Int("max-channel-backlog", 256, "per-channel mailbox backlog budget (queued ingest batches); beyond it that channel's writes get 429 + Retry-After while other channels are unaffected")
	maxRefineQueue := flag.Int("max-refine-queue", 256, "cap on admitted-but-unfinished refine jobs; beyond it POST /api/refine gets 429 + Retry-After (negative disables)")
	disableAdmission := flag.Bool("disable-admission", false, "turn off admission control entirely (unbounded queues under overload) — for load experiments only, never production")
	heartbeatInterval := flag.Duration("heartbeat-interval", time.Second, "cluster peer liveness probe cadence (0 disables heartbeats; down-marking then requires POST /api/cluster/down)")
	heartbeatMisses := flag.Int("heartbeat-misses", 3, "consecutive missed heartbeats before a peer is marked down (one success marks it back up)")
	heartbeatTimeout := flag.Duration("heartbeat-timeout", 0, "per-probe deadline (0 = -heartbeat-interval)")
	clusterCallTimeout := flag.Duration("cluster-call-timeout", 10*time.Second, "per-attempt deadline on node-to-node calls (forwarded writes and control plane)")
	clusterRetries := flag.Int("cluster-retries", 3, "attempts per node-to-node call; transport failures retry with jittered backoff, any HTTP response is final")
	replicaCount := flag.Int("replicas", 1, "standby checkpoint replicas per channel in cluster mode: each checkpoint ships asynchronously to this many ring successors so a node's channels survive losing the node AND its disk (minimum 1)")
	flag.Parse()

	// Fault injection is opt-in via LIGHTOR_FAILPOINTS and refuses to be
	// subtle: a malformed spec is fatal, an armed one is shouted at
	// startup and reported on /api/healthz.
	if armed, err := fault.ArmFromEnv(); err != nil {
		log.Fatalf("%s: %v", fault.EnvVar, err)
	} else if len(armed) > 0 {
		log.Printf("WARNING: fault injection ARMED via %s: %v — never run this in production", fault.EnvVar, armed)
	}

	// Cluster membership, validated before anything expensive: both flags
	// or neither, a parseable peer list, and this node actually in it.
	var clusterNode *cluster.Node
	if (*nodeID == "") != (*peersSpec == "") {
		log.Fatalf("cluster mode needs BOTH -node-id and -peers (got -node-id=%q, -peers=%q)", *nodeID, *peersSpec)
	}
	if *peersSpec != "" {
		// The control plane can inject detector state, repin routing, and
		// mark nodes down — and it listens on the public API port. A
		// cluster node therefore refuses to start without the shared
		// secret that gates it.
		if *clusterSecret == "" {
			log.Fatalf("cluster mode requires -cluster-secret (the /api/cluster/* control plane shares the public listener)")
		}
		// Checkpoints are how a channel's state moves between nodes —
		// replicated to standbys, handed off, adopted on failover — and
		// only the durable store takes them.
		if *dataDir == "" {
			log.Fatalf("cluster mode requires -data-dir (checkpoint replication and handoff move durable checkpoints)")
		}
		peers, err := cluster.ParsePeers(*peersSpec)
		if err != nil {
			log.Fatalf("%v", err)
		}
		clusterNode, err = cluster.New(*nodeID, peers, cluster.DefaultVNodes)
		if err != nil {
			log.Fatalf("%v", err)
		}
		clusterNode.Secret = *clusterSecret
		clusterNode.CallTimeout = *clusterCallTimeout
		clusterNode.CallAttempts = *clusterRetries
		log.Printf("cluster mode: node %s among %d peers", *nodeID, len(peers))
		if *heartbeatInterval > 0 {
			clusterNode.StartHeartbeats(cluster.HeartbeatConfig{
				Interval: *heartbeatInterval,
				Timeout:  *heartbeatTimeout,
				Misses:   *heartbeatMisses,
			})
			defer clusterNode.StopHeartbeats()
			log.Printf("heartbeats: probing %d peers every %s (down after %d misses)",
				len(peers)-1, *heartbeatInterval, *heartbeatMisses)
		}
	}

	// Opt-in profiling endpoint, on its own listener so the debug surface
	// never shares a port (or a mux) with the public API.
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, http.DefaultServeMux); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	var profile sim.Profile
	switch *game {
	case "dota2":
		profile = sim.Dota2Profile()
	case "lol":
		profile = sim.LoLProfile()
	default:
		log.Fatalf("unknown game %q", *game)
	}

	rng := stats.NewRand(*seed)

	// Train the detector.
	trainData := sim.GenerateDataset(rng, profile, *trainN)
	init, err := core.NewInitializer(core.DefaultInitializerConfig())
	if err != nil {
		log.Fatalf("initializer: %v", err)
	}
	tvs := make([]core.TrainingVideo, len(trainData))
	for i, d := range trainData {
		ws := init.Windows(d.Chat.Log, d.Video.Duration)
		tvs[i] = core.TrainingVideo{
			Log:        d.Chat.Log,
			Duration:   d.Video.Duration,
			Labels:     sim.LabelWindows(ws, d.Chat.Bursts),
			Highlights: d.Video.Highlights,
		}
	}
	if err := init.Train(tvs); err != nil {
		log.Fatalf("training: %v", err)
	}
	log.Printf("detector trained on %d videos (delay c = %ds)", *trainN, init.DelayC())

	// Stand up the simulated platform and crawl it.
	tw := platform.NewSimTwitch()
	for c := 0; c < *channels; c++ {
		channel := fmt.Sprintf("channel%02d", c)
		for v := 0; v < *videos; v++ {
			vid := sim.GenerateVideo(rng, profile, fmt.Sprintf("c%dv%d", c, v))
			cr := sim.GenerateChat(rng, vid, profile)
			tw.AddVideo(platform.TwitchVideo{
				ID:       vid.ID,
				Channel:  channel,
				Duration: vid.Duration,
				Viewers:  stats.IntBetween(rng, 200, 5000),
			}, cr.Log)
		}
	}
	apiSrv := httptest.NewServer(tw.Handler())
	defer apiSrv.Close()
	log.Printf("simulated platform API at %s", apiSrv.URL)

	// Storage: a durable WAL+snapshot backend under -data-dir, or the
	// in-memory store.
	var store *platform.Store
	durable := *dataDir != ""
	if durable {
		backend, err := platform.OpenFileBackend(*dataDir, platform.FileConfig{
			EventRetention: *eventRetention,
		})
		if err != nil {
			log.Fatalf("opening data dir %s: %v", *dataDir, err)
		}
		store = platform.NewStoreWith(backend)
		log.Printf("durable store at %s recovered: %d videos", *dataDir, len(store.VideoIDs()))
	} else {
		store = platform.NewStore()
	}
	crawler := &platform.Crawler{BaseURL: apiSrv.URL, Store: store}
	chans, err := crawler.Channels()
	if err != nil {
		log.Fatalf("listing channels: %v", err)
	}
	n, err := crawler.CrawlChannels(chans)
	if err != nil {
		log.Fatalf("crawling: %v", err)
	}
	log.Printf("crawled %d videos: %v", n, store.VideoIDs())

	// The session engine: live-channel multiplexing and background
	// refinement, shared by every handler.
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		log.Fatalf("extractor: %v", err)
	}
	engCfg := engine.Config{
		SessionWorkers:   *workers,
		RefineWorkers:    *workers,
		Warmup:           *warmup,
		MaxQueuedRefines: *maxRefineQueue,
	}
	if durable {
		engCfg.Checkpoints = store
		engCfg.CheckpointInterval = *ckptInterval
		if *ckptInterval == 0 {
			// Flag idiom: 0 disables. (The engine treats 0 as "unset" and
			// would install its own 30 s default.)
			engCfg.CheckpointInterval = -1
		}
	}
	eng, err := engine.New(init, ext, engCfg)
	if err != nil {
		log.Fatalf("engine: %v", err)
	}
	if durable {
		// Crash recovery: every checkpointed live channel resumes from its
		// last durable state; producers continue from the session watermark
		// without re-feeding history.
		resumed, err := eng.ResumeSessions()
		if err != nil {
			log.Printf("session resume (continuing with healthy channels): %v", err)
		}
		if len(resumed) > 0 {
			log.Printf("resumed %d live sessions: %v", len(resumed), resumed)
		}
	}

	svc := &platform.Service{
		Store:             store,
		Engine:            eng,
		Crawler:           crawler,
		Cluster:           clusterNode,
		MaxSubscribers:    *maxSubscribers,
		PushHeartbeat:     *sseHeartbeat,
		MaxInflightWrites: *maxInflightWrites,
		MaxChannelBacklog: *maxChannelBacklog,
		DisableAdmission:  *disableAdmission,
	}
	if *disableAdmission {
		log.Printf("WARNING: admission control disabled — queues are unbounded under overload")
	}

	// Checkpoint replication: a cluster node ships every checkpoint to
	// ring-successor standbys, files peers' envelopes in its replica area
	// (kept apart from its own state so startup resume never adopts a
	// standby copy), and resumes dead peers' channels from it.
	var replicator *platform.Replicator
	if clusterNode != nil {
		rdir := filepath.Join(*dataDir, "replicas")
		replicaStore, err := platform.OpenReplicaStore(rdir)
		if replicaStore == nil {
			log.Fatalf("replica store at %s: %v", rdir, err)
		}
		if err != nil {
			log.Printf("replica store at %s (continuing with healthy replicas): %v", rdir, err)
		}
		cadence := *heartbeatInterval
		if cadence <= 0 {
			cadence = time.Second
		}
		replicator = platform.NewReplicator(svc, replicaStore, *replicaCount, cadence)
		replicator.Start()
		log.Printf("checkpoint replication: %d standby(s) per channel, replica area %s, anti-entropy every %s",
			*replicaCount, rdir, cadence)
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	go func() {
		log.Printf("LIGHTOR service listening on %s", *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}()

	// Graceful drain: stop accepting HTTP, drain the engine (queued live
	// chat and in-flight refine jobs), then compact the durable store.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	log.Printf("shutting down: draining for up to %s", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// End push delivery FIRST: SSE responses are in-flight requests that
	// never finish on their own, so Shutdown would otherwise wait out the
	// whole drain timeout while subscribers hold their connections open.
	// ClosePush sends every subscriber the terminal "end" event (reason
	// "draining") and rejects new subscriptions with Retry-After.
	svc.ClosePush()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	// Engine close takes the final per-session checkpoints (written through
	// the store); the durable backend then compacts everything into one
	// snapshot so the next start replays nothing.
	if err := eng.Close(ctx); err != nil {
		log.Printf("engine drain: %v", err)
	}
	// Stop replication after the engine drain so the final per-session
	// checkpoints get their chance to ship; anything still unsent is
	// covered by the standbys' existing (at most one interval old) copies.
	if replicator != nil {
		replicator.Stop()
	}
	if durable {
		if err := store.Close(); err != nil {
			log.Printf("closing durable store: %v", err)
		} else {
			log.Printf("durable store compacted and closed")
		}
	}
	log.Printf("shutdown complete")
}

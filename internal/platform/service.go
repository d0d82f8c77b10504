package platform

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lightor/internal/cluster"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/play"
)

// Service is the LIGHTOR back end of Figure 5, now engine-backed: it
// serves red dots to the browser-extension front end, logs the interaction
// data the front end reports, refines highlight boundaries in the
// background, and multiplexes live broadcast chat through the session
// engine.
//
//	GET  /healthz                          → 200 ok
//	GET  /api/highlights?video=ID&k=5      → {"dots":[...], "boundaries":[...]}
//	POST /api/interactions?video=ID        → body: JSON array of play events
//	GET  /api/interactions?video=ID&offset=N&limit=M → one page of the log
//	POST /api/refine?video=ID              → 202, enqueue background refinement
//	GET  /api/refine/status?job=ID         → poll a refinement job
//	POST /api/live/chat?channel=ID         → 202, ingest live chat messages
//	POST /api/live/advance?channel=ID&now=T→ 202, advance a quiet stream's clock
//	GET  /api/live/dots?channel=ID&cursor=N→ poll dots emitted since cursor
//	GET  /api/live/stream?channel=ID&cursor=N → SSE push of dots since cursor
//
// The two viewer-facing GETs — /api/highlights and /api/live/dots — are
// the read fast lane: responses carry a strong ETag, a request echoing it
// via If-None-Match gets 304 Not Modified with no body, and changed
// responses serve from a version-keyed cache of pre-encoded bytes
// (invalidated by dot emission, SetRedDots, and refine completion).
// Steady-state polling by millions of viewers costs a lock-free snapshot
// load and a header compare per request.
//
// /api/live/stream is the push lane on top of the same machinery: each
// newly published dot version is encoded once (into the same cache the
// poll lane serves from) and the bytes fan out to every SSE subscriber
// of the channel; see push.go for the hub and the drop-and-resync
// slow-client policy.
type Service struct {
	Store *Store
	// Engine is the concurrent session engine every detection and
	// refinement request routes through.
	Engine *engine.Engine
	// Crawler, when set, fetches chat on demand for unknown videos (the
	// online crawling mode of Section VI-A).
	Crawler *Crawler
	// Cluster, when set, makes this service one node of a channel-sharded
	// cluster: channel/video-keyed requests for keys this node does not
	// own are forwarded (writes) or 307-redirected (reads) to the owner,
	// and the /api/cluster/* handoff endpoints are registered. Nil (the
	// default) is single-node operation, unchanged: handlers check one
	// nil field, so the hot paths keep their zero-allocation contracts.
	// See cluster.go.
	Cluster *cluster.Node
	// Replication, when set (NewReplicator sets it), enables checkpoint
	// replication to ring successors and replica-backed failover: the
	// /api/cluster/replica endpoints store peers' envelopes in the local
	// replica area (and adopt handed-off channels), and healthz reports
	// channels resumed from replicas. Requires Cluster; a node without it
	// cannot receive a handoff. See replicator.go.
	Replication *Replicator
	// DefaultK is the number of red dots served when the request does not
	// specify k (default 5).
	DefaultK int
	// DisableReadCache turns off the version-keyed response cache on the
	// read endpoints (every GET re-encodes from live state). Responses
	// stay byte-identical either way — the knob exists for differential
	// tests and for the cold-path benchmarks that measure the uncached
	// read lane.
	DisableReadCache bool
	// MaxSubscribers caps concurrent push subscribers across all channels
	// (default 1<<20); beyond it /api/live/stream answers 503 with a
	// Retry-After.
	MaxSubscribers int
	// PushHeartbeat is the SSE keepalive comment interval (default 15s).
	PushHeartbeat time.Duration
	// PushQueueLen is the per-subscriber frame-queue capacity (default
	// 32). A subscriber that falls further behind is dropped to the
	// coalesced resync path; see push.go.
	PushQueueLen int
	// MaxInflightWrites is the global write-path admission budget: the
	// number of chat/interaction/advance/refine requests allowed in flight
	// at once (default 1024). Past it the node sheds with 503 +
	// Retry-After. See admission.go.
	MaxInflightWrites int
	// MaxChannelBacklog is the per-channel admission budget: the number of
	// mailbox envelopes a channel may have queued before its chat ingest
	// sheds with 429 + Retry-After (default 256). Bounds how far one
	// flash-crowded channel can fall behind without touching cold
	// channels.
	MaxChannelBacklog int
	// DisableAdmission turns off both admission budgets (requests are
	// never shed; queues grow without bound under overload). Mirrors
	// DisableReadCache: the knob exists for the differential benchmarks
	// that measure what admission control buys.
	DisableAdmission bool

	// Read-path response caches: pre-encoded bodies keyed by
	// (channel, cursor, dot-snapshot version) for /api/live/dots and
	// (video, k, store revision) for /api/highlights. Dot emission,
	// SetRedDots, and refine completion invalidate by bumping the
	// version/revision — stale entries simply stop being addressed.
	dotsCache respCache
	hlCache   respCache

	// Cold-start detection single-flight: N concurrent first readers of
	// the same video collapse onto one Initializer.Detect run.
	flightMu sync.Mutex
	flights  map[string]*detectFlight

	// push is the SSE broadcast hub (push.go); pushOnce wires it to the
	// engine's dot-publication hook on first use.
	push     dotHub
	pushOnce sync.Once

	// Observability + admission state (admission.go): per-endpoint latency
	// histograms, shed counters by cause, and the global write-path
	// in-flight count.
	metrics        endpointMetrics
	shed           shedCounters
	inflightWrites atomic.Int64
}

// HighlightsResponse is the payload of GET /api/highlights.
type HighlightsResponse struct {
	VideoID    string          `json:"video_id"`
	Dots       []core.RedDot   `json:"dots"`
	Boundaries []core.Interval `json:"boundaries,omitempty"`
}

// RefineJobResponse is the payload of POST /api/refine and
// GET /api/refine/status: the job's current state, with boundaries once it
// finishes.
type RefineJobResponse struct {
	Job        string           `json:"job"`
	VideoID    string           `json:"video_id"`
	Status     engine.JobStatus `json:"status"`
	Dots       []core.RedDot    `json:"dots,omitempty"`
	Boundaries []core.Interval  `json:"boundaries,omitempty"`
}

// LiveIngestResponse is the payload of POST /api/live/chat and /advance.
type LiveIngestResponse struct {
	Channel  string `json:"channel"`
	Accepted int    `json:"accepted"`
}

// LiveDotsResponse is the payload of GET /api/live/dots. Cursor is an
// offset into the channel's emission history; pass it back to receive only
// dots emitted after this poll.
type LiveDotsResponse struct {
	Channel string        `json:"channel"`
	Dots    []core.RedDot `json:"dots"`
	Cursor  int           `json:"cursor"`
}

// Handler returns the HTTP handler implementing the service API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	// The heartbeat probe target: a static body with no JSON assembly or
	// state walks, cheap enough to answer once per second per peer times
	// the whole cluster. Operators and dashboards keep /api/healthz.
	mux.HandleFunc("GET /api/ping", handlePing)
	// Every request-scoped endpoint is timed into its own histogram
	// (surfaced on /api/healthz); /api/live/stream is not — an SSE
	// request's duration is its subscription lifetime, not a latency.
	mux.HandleFunc("GET /api/highlights", timed(&s.metrics.highlights, s.handleHighlights))
	mux.HandleFunc("POST /api/interactions", timed(&s.metrics.interactionsPost, s.handleInteractions))
	mux.HandleFunc("GET /api/interactions", timed(&s.metrics.interactionsGet, s.handleInteractionsPage))
	mux.HandleFunc("POST /api/refine", timed(&s.metrics.refine, s.handleRefine))
	mux.HandleFunc("GET /api/refine/status", timed(&s.metrics.refineStatus, s.handleRefineStatus))
	mux.HandleFunc("POST /api/live/chat", timed(&s.metrics.liveChat, s.handleLiveChat))
	mux.HandleFunc("POST /api/live/advance", timed(&s.metrics.liveAdvance, s.handleLiveAdvance))
	mux.HandleFunc("GET /api/live/dots", timed(&s.metrics.liveDots, s.handleLiveDots))
	mux.HandleFunc("GET /api/live/stream", s.handleLiveStream)
	mux.HandleFunc("DELETE /api/live/session", timed(&s.metrics.liveClose, s.handleLiveClose))
	mux.HandleFunc("GET /api/healthz", s.handleHealthz)
	if s.Cluster != nil {
		// The control plane shares the public listener but not the public
		// trust level: it can inject detector state, repin routing, and
		// mark nodes down, so every endpoint sits behind the shared
		// cluster secret (see requireClusterKey).
		mux.HandleFunc("POST /api/cluster/handoff", s.requireClusterKey(s.handleClusterHandoff))
		mux.HandleFunc("POST /api/cluster/route", s.requireClusterKey(s.handleClusterRoute))
		mux.HandleFunc("POST /api/cluster/down", s.requireClusterKey(s.handleClusterDown))
		mux.HandleFunc("GET /api/cluster/owned", s.requireClusterKey(s.handleClusterOwned))
		mux.HandleFunc("POST /api/cluster/replica", s.requireClusterKey(s.handleClusterReplica))
		mux.HandleFunc("DELETE /api/cluster/replica", s.requireClusterKey(s.handleClusterReplica))
	}
	s.initPush()
	return mux
}

func (s *Service) defaultK() int {
	if s.DefaultK > 0 {
		return s.DefaultK
	}
	return 5
}

func (s *Service) handleHighlights(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("video")
	if id == "" {
		http.Error(w, "missing video parameter", http.StatusBadRequest)
		return
	}
	k := s.defaultK()
	if kq := r.URL.Query().Get("k"); kq != "" {
		parsed, err := strconv.Atoi(kq)
		if err != nil || parsed <= 0 {
			http.Error(w, "invalid k", http.StatusBadRequest)
			return
		}
		k = parsed
	}
	if !s.route(w, r, id, routeRedirect) {
		return
	}

	// The serving path reads through the zero-copy HighlightView — no
	// deep clone of dots/boundaries per poll, and the chat log (which
	// this handler only needs for cold-start detection) is a shared
	// pointer, never copied.
	view, ok := s.Store.HighlightView(id)
	if !ok || view.Chat == nil {
		// Online crawling (Section VI-A): when a viewer opens a video the
		// store has never seen, fetch its chat from the platform API on
		// the fly.
		if s.Crawler == nil {
			http.Error(w, fmt.Sprintf("video %q not crawled", id), http.StatusNotFound)
			return
		}
		tv, err := s.Crawler.LookupVideo(id)
		if err != nil {
			http.Error(w, fmt.Sprintf("video %q unknown to the platform: %v", id, err), http.StatusNotFound)
			return
		}
		if err := s.Crawler.CrawlVideo(tv); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		view, ok = s.Store.HighlightView(id)
		if !ok || view.Chat == nil {
			http.Error(w, fmt.Sprintf("video %q could not be crawled", id), http.StatusNotFound)
			return
		}
	}
	if len(view.RedDots) < k {
		if err := s.detectColdStart(id, k, view); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s.ServeHighlights(w, id, k, r.Header.Get("If-None-Match"))
}

// detectFlight is one in-flight cold-start detection; concurrent readers
// of the same (video, k) wait on done instead of re-running Detect.
type detectFlight struct {
	done chan struct{}
	err  error
}

// detectColdStart runs batch detection for a video whose stored dots are
// insufficient and persists the result, single-flighted per (video, k):
// when a cold video suddenly gets N concurrent viewers — the exact
// many-readers shape this service is built for — exactly one request pays
// the detection; the rest wait on its result instead of stampeding the
// initializer (and the store) with N identical runs.
func (s *Service) detectColdStart(id string, k int, view HighlightView) error {
	key := id + "\x00" + strconv.Itoa(k)
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		<-f.done
		return f.err
	}
	if s.flights == nil {
		s.flights = make(map[string]*detectFlight)
	}
	f := &detectFlight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()

	var err error
	// Deferred so a panic inside detection can never wedge the key: the
	// flight is always removed and its waiters always released, even if
	// Detect blows up on pathological input (net/http recovers the
	// panicking handler; the herd proceeds and serves whatever the store
	// holds).
	defer func() {
		f.err = err
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	}()

	// Double-check under flight leadership: a previous flight may have
	// landed its dots between the caller's view load and now — flights
	// are removed only after SetRedDots is applied, so a fresh view
	// already satisfying k proves the work is done.
	if v, ok := s.Store.HighlightView(id); !ok || len(v.RedDots) < k {
		var dots []core.RedDot
		dots, err = s.Engine.Initializer().Detect(view.Chat, view.Duration, k)
		if err == nil {
			// SetRedDots bumps the store revision, so every cached
			// response for this video is invalidated the moment the
			// dots land.
			err = s.Store.SetRedDots(id, dots)
		}
	}
	return err
}

// ServeHighlights serves the highlights payload for (video, k) onto w,
// honoring If-None-Match — the router-free read fast lane behind
// GET /api/highlights (embedders with their own mux can call it
// directly; it does not crawl or cold-start, the handler does that).
// Steady state is a cache hit: one revision load, one map lookup, and
// either a 304 or one Write of the pre-encoded body — no JSON encoding,
// no store cloning, zero allocations.
func (s *Service) ServeHighlights(w http.ResponseWriter, video string, k int, ifNoneMatch string) {
	if k <= 0 {
		k = s.defaultK()
	}
	// Revision loaded BEFORE the view (see Store.bumpRev): a racing
	// writer can at worst pair an old revision with newer data, which
	// re-encodes on the next poll — never a new revision with stale data.
	rev := s.Store.Revision(video)
	if !s.DisableReadCache {
		if e, ok := s.hlCache.get(video, k, rev); ok {
			serveEntry(w, ifNoneMatch, e)
			return
		}
	}
	view, ok := s.Store.HighlightView(video)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown video %q", video), http.StatusNotFound)
		return
	}
	dots := view.RedDots
	if len(dots) > k {
		dots = dots[:k]
	}
	e, err := encodeEntry(HighlightsResponse{VideoID: video, Dots: dots, Boundaries: view.Boundaries},
		highlightsETag(rev, k))
	if err != nil {
		log.Printf("platform: encoding highlights response: %v", err)
		http.Error(w, "encoding response failed", http.StatusInternalServerError)
		return
	}
	if !s.DisableReadCache {
		s.hlCache.put(video, k, rev, e)
	}
	serveEntry(w, ifNoneMatch, e)
}

func (s *Service) handleInteractions(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("video")
	if id == "" {
		http.Error(w, "missing video parameter", http.StatusBadRequest)
		return
	}
	if !s.route(w, r, id, routeForward) {
		return
	}
	if !s.admitStore(w) {
		return
	}
	if !s.acquireWrite(w) {
		return
	}
	defer s.releaseWrite()
	dec := eventDecPool.Get().(*streamDecoder[play.Event])
	events, err := dec.decode(r.Body)
	if err != nil {
		dec.release(&eventDecPool)
		http.Error(w, fmt.Sprintf("bad interaction payload: %v", err), http.StatusBadRequest)
		return
	}
	// The store copies (and, when durable, marshals) the events before
	// returning, so the pooled slice can be released right after.
	err = s.Store.LogEvents(id, events)
	dec.release(&eventDecPool)
	if err != nil {
		if errors.Is(err, ErrDegraded) {
			// The durable backend fail-stopped mid-request (or between the
			// admission check and the append): shed, don't 404.
			s.shed.degraded.Add(1)
			shedError(w, http.StatusServiceUnavailable, degradedRetryAfterSeconds, "degraded", err.Error())
			return
		}
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// InteractionsResponse is the payload of GET /api/interactions: one page
// of a video's retained interaction-event log. Offset indexes the retained
// log (0 = oldest retained event); Total is the retained count, so clients
// page with offset += len(events) until offset >= total.
type InteractionsResponse struct {
	VideoID string       `json:"video_id"`
	Events  []play.Event `json:"events"`
	Offset  int          `json:"offset"`
	Total   int          `json:"total"`
}

// interactionsPageLimit caps one page of GET /api/interactions. Reads are
// paginated so a long-lived video's log (bounded only by the backend's
// retention cap) can never be forced into a single response.
const (
	defaultInteractionsPage = 500
	maxInteractionsPage     = 5000
)

// handleInteractionsPage serves one page of a video's interaction log.
func (s *Service) handleInteractionsPage(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("video")
	if id == "" {
		http.Error(w, "missing video parameter", http.StatusBadRequest)
		return
	}
	if !s.route(w, r, id, routeRedirect) {
		return
	}
	if !s.Store.HasVideo(id) {
		http.Error(w, fmt.Sprintf("unknown video %q", id), http.StatusNotFound)
		return
	}
	offset := 0
	if oq := r.URL.Query().Get("offset"); oq != "" {
		parsed, err := strconv.Atoi(oq)
		if err != nil || parsed < 0 {
			http.Error(w, "invalid offset", http.StatusBadRequest)
			return
		}
		offset = parsed
	}
	limit := defaultInteractionsPage
	if lq := r.URL.Query().Get("limit"); lq != "" {
		parsed, err := strconv.Atoi(lq)
		if err != nil || parsed <= 0 {
			http.Error(w, "invalid limit", http.StatusBadRequest)
			return
		}
		limit = parsed
	}
	if limit > maxInteractionsPage {
		limit = maxInteractionsPage
	}
	events, total := s.Store.EventsPage(id, offset, limit)
	if events == nil {
		events = []play.Event{}
	}
	writeJSON(w, InteractionsResponse{VideoID: id, Events: events, Offset: offset, Total: total})
}

// snapshotPlaySource feeds the extractor a per-job snapshot of the
// video's sessionized plays. Reading the store once per job keeps the
// fan-out's data fetch O(events) total instead of O(dots × iterations ×
// events) — the same freshness the old synchronous handler had.
type snapshotPlaySource []play.Play

func (s snapshotPlaySource) Interactions(dot float64) []play.Play { return s }

// handleRefine enqueues background refinement of a video's red dots and
// returns 202 immediately. Refined dots and boundaries are persisted to
// the store when the job completes; poll /api/refine/status (or re-fetch
// /api/highlights) to observe them.
func (s *Service) handleRefine(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("video")
	if id == "" {
		http.Error(w, "missing video parameter", http.StatusBadRequest)
		return
	}
	// Refinement runs on the video's owner (its interaction log lives
	// there); the job id in the 202 is node-local, so poll status on the
	// node that answered.
	if !s.route(w, r, id, routeForward) {
		return
	}
	if !s.admitStore(w) {
		return
	}
	if !s.acquireWrite(w) {
		return
	}
	defer s.releaseWrite()
	rec, ok := s.Store.Video(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown video %q", id), http.StatusNotFound)
		return
	}
	store := s.Store
	job, err := s.Engine.Refine().Enqueue(id, rec.RedDots,
		snapshotPlaySource(store.Plays(id)),
		func(done engine.RefineJob) {
			dots := make([]core.RedDot, len(done.Results))
			spans := make([]core.Interval, len(done.Results))
			for i, res := range done.Results {
				dots[i] = res.Dot
				dots[i].Time = res.Boundary.Start
				spans[i] = res.Boundary
			}
			// Best effort: the video can only vanish if the store was
			// swapped out underneath a running service.
			_ = store.SetRefined(id, dots, spans)
		})
	if err != nil {
		// ErrRefineBusy and ErrClosed are sheds (429/503 + Retry-After);
		// anything else is a server fault.
		s.writeLiveError(w, err)
		return
	}
	writeJSONStatus(w, http.StatusAccepted, refineResponse(job))
}

func (s *Service) handleRefineStatus(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("job")
	if id == "" {
		http.Error(w, "missing job parameter", http.StatusBadRequest)
		return
	}
	job, ok := s.Engine.Refine().Job(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown refine job %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, refineResponse(job))
}

func refineResponse(job engine.RefineJob) RefineJobResponse {
	resp := RefineJobResponse{
		Job:     job.ID,
		VideoID: job.VideoID,
		Status:  job.Status,
		Dots:    job.Dots,
	}
	if job.Status == engine.JobDone {
		// Copy before adjusting dot times to the refined boundary starts:
		// resp.Dots aliases the job snapshot's slice, and mutating it in
		// place would corrupt whatever handed us the job — repeated
		// status polls must serve identical payloads, never progressively
		// re-adjusted times.
		resp.Dots = make([]core.RedDot, len(job.Dots))
		copy(resp.Dots, job.Dots)
		resp.Boundaries = make([]core.Interval, len(job.Results))
		for i, res := range job.Results {
			resp.Dots[i].Time = res.Boundary.Start
			resp.Boundaries[i] = res.Boundary
		}
	}
	return resp
}

// handleLiveChat ingests a batch of live chat messages for a channel,
// opening its session on first contact. This is the burst hot path: the
// body stream-decodes through a pooled decoder into a pooled message
// slice, and the whole batch enters the engine as ONE mailbox envelope
// (one watermark check, one lock, one dispatch — see Session.Ingest), so
// a goal-moment spike costs per-message work only inside the detector.
// The engine processes the batch asynchronously; emitted dots surface on
// /api/live/dots.
func (s *Service) handleLiveChat(w http.ResponseWriter, r *http.Request) {
	channel := r.URL.Query().Get("channel")
	if channel == "" {
		http.Error(w, "missing channel parameter", http.StatusBadRequest)
		return
	}
	if !s.route(w, r, channel, routeForward) {
		return
	}
	// Admission runs before the body decode: a shed request under overload
	// costs two atomic checks, not a JSON parse. admitStore runs after
	// routing so a degraded node still forwards writes it does not own.
	if !s.admitStore(w) {
		return
	}
	if !s.acquireWrite(w) {
		return
	}
	defer s.releaseWrite()
	if !s.admitChannelWrite(w, channel) {
		return
	}
	ci := chatIngestPool.Get().(*chatIngest)
	msgs, err := ci.decode(r.Body)
	if err != nil {
		ci.release()
		http.Error(w, fmt.Sprintf("bad chat payload: %v", err), http.StatusBadRequest)
		return
	}
	sess, err := s.Engine.Sessions().GetOrOpen(channel)
	if err != nil {
		ci.release()
		s.writeLiveError(w, err)
		return
	}
	// Ingest copies the batch into the engine's own pooled mailbox buffer,
	// so the decoded slice can be recycled as soon as it returns.
	err = sess.Ingest(msgs...)
	accepted := len(msgs)
	ci.release()
	if err != nil {
		s.writeLiveError(w, err)
		return
	}
	writeJSONStatus(w, http.StatusAccepted, LiveIngestResponse{Channel: channel, Accepted: accepted})
}

// handleLiveAdvance moves a quiet channel's stream clock so pending
// windows can finalize without chat traffic.
func (s *Service) handleLiveAdvance(w http.ResponseWriter, r *http.Request) {
	channel := r.URL.Query().Get("channel")
	if channel == "" {
		http.Error(w, "missing channel parameter", http.StatusBadRequest)
		return
	}
	if !s.route(w, r, channel, routeForward) {
		return
	}
	if !s.admitStore(w) {
		return
	}
	if !s.acquireWrite(w) {
		return
	}
	defer s.releaseWrite()
	if !s.admitChannelWrite(w, channel) {
		return
	}
	now, err := strconv.ParseFloat(r.URL.Query().Get("now"), 64)
	if err != nil || now < 0 {
		http.Error(w, "invalid now parameter", http.StatusBadRequest)
		return
	}
	sess, ok := s.Engine.Sessions().Get(channel)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown channel %q", channel), http.StatusNotFound)
		return
	}
	if err := sess.Advance(now); err != nil {
		s.writeLiveError(w, err)
		return
	}
	writeJSONStatus(w, http.StatusAccepted, LiveIngestResponse{Channel: channel})
}

// handleLiveClose ends a broadcast: the session flushes its remaining
// windows and is removed, freeing its slot (and recovering channels whose
// clock was poisoned by a stray advance). The response carries the
// channel's full emission history.
func (s *Service) handleLiveClose(w http.ResponseWriter, r *http.Request) {
	channel := r.URL.Query().Get("channel")
	if channel == "" {
		http.Error(w, "missing channel parameter", http.StatusBadRequest)
		return
	}
	if !s.route(w, r, channel, routeForward) {
		return
	}
	// Degraded mode sheds close too: the closing flush advances state that
	// could never be checkpointed, and the checkpoint delete could not be
	// made durable — the whole mutation family is read-only until restart.
	if !s.admitStore(w) {
		return
	}
	dots, err := s.Engine.Sessions().CloseSession(r.Context(), channel)
	if errors.Is(err, engine.ErrUnknownSession) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if err != nil {
		s.writeLiveError(w, err)
		return
	}
	// Hygiene, not correctness: dot-snapshot versions are unique across
	// sessions, so a successor broadcast on this channel could never hit
	// these entries — dropping them just frees the memory promptly.
	s.dotsCache.drop(channel)
	// If a past handoff pinned this channel off its ring position, the
	// pin (and the old owner's re-open bar) dies with the broadcast.
	s.retireOverride(r, channel)
	if dots == nil {
		dots = []core.RedDot{}
	}
	writeJSON(w, LiveDotsResponse{Channel: channel, Dots: dots, Cursor: len(dots)})
}

func (s *Service) handleLiveDots(w http.ResponseWriter, r *http.Request) {
	channel := r.URL.Query().Get("channel")
	if channel == "" {
		http.Error(w, "missing channel parameter", http.StatusBadRequest)
		return
	}
	if !s.route(w, r, channel, routeRedirect) {
		return
	}
	cursor := 0
	if cq := r.URL.Query().Get("cursor"); cq != "" {
		parsed, err := strconv.Atoi(cq)
		if err != nil || parsed < 0 {
			http.Error(w, "invalid cursor", http.StatusBadRequest)
			return
		}
		cursor = parsed
	}
	s.ServeLiveDots(w, channel, cursor, r.Header.Get("If-None-Match"))
}

// ServeLiveDots serves the live-dots payload for (channel, cursor) onto
// w, honoring If-None-Match — the router-free read fast lane behind
// GET /api/live/dots. The engine read is a lock-free snapshot load
// (engine.Session.DotsPage): it never contends with ingest,
// checkpointing, or other pollers. Steady state is a cache hit or a 304:
// one snapshot load, one map lookup, and either no body at all or one
// Write of the pre-encoded bytes — zero allocations on the platform
// layer, no JSON work, no per-poll copying of the emission history.
func (s *Service) ServeLiveDots(w http.ResponseWriter, channel string, cursor int, ifNoneMatch string) {
	sess, ok := s.Engine.Sessions().Get(channel)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown channel %q", channel), http.StatusNotFound)
		return
	}
	e, _, _, _, _, err := s.liveDotsEntry(sess, channel, cursor)
	if err != nil {
		log.Printf("platform: encoding live dots response: %v", err)
		http.Error(w, "encoding response failed", http.StatusInternalServerError)
		return
	}
	serveEntry(w, ifNoneMatch, e)
}

// liveDotsEntry returns the pre-encoded live-dots response for (channel,
// cursor) at the session's current snapshot version — the shared core of
// the poll lane (ServeLiveDots) and the push lane (the broadcast hub and
// its resyncs). ck is the clamped cursor the page actually starts at
// (the cache sub-key, so every past-the-end cursor shares the tip
// entry), next the new cursor, ver the snapshot version, and encoded
// whether this call performed the JSON encode (false = cache hit).
// Because both lanes address the same (channel, ck, ver) entries, a
// version broadcast to push subscribers pre-warms the poll cache and
// vice versa.
func (s *Service) liveDotsEntry(sess *engine.Session, channel string, cursor int) (e *cacheEntry, ck, next int, ver uint64, encoded bool, err error) {
	dots, next, ver := sess.DotsPage(cursor)
	ck = next - len(dots)
	if !s.DisableReadCache {
		if e, ok := s.dotsCache.get(channel, ck, ver); ok {
			return e, ck, next, ver, false, nil
		}
	}
	if dots == nil {
		dots = []core.RedDot{}
	}
	e, err = encodeEntry(LiveDotsResponse{Channel: channel, Dots: dots, Cursor: next}, dotsETag(ver, ck))
	if err != nil {
		return nil, ck, next, ver, false, err
	}
	if !s.DisableReadCache {
		s.dotsCache.put(channel, ck, ver, e)
	}
	return e, ck, next, ver, true, nil
}

// writeLiveError maps engine errors onto HTTP statuses: out-of-order chat
// is the caller's bug (409); drain, handoff, the session cap, and refine
// admission are sheds — temporary, counted, and always answered with
// Retry-After through shedError.
func (s *Service) writeLiveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrOutOfOrder):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, engine.ErrClosed):
		s.shed.draining.Add(1)
		shedError(w, http.StatusServiceUnavailable, drainRetryAfterSeconds, "draining", "service is draining")
	case errors.Is(err, engine.ErrHandoff):
		s.shed.handoff.Add(1)
		shedError(w, http.StatusServiceUnavailable, handoffRetryAfterSeconds, "handoff", err.Error())
	case errors.Is(err, engine.ErrTooManySessions):
		s.shed.sessionsCap.Add(1)
		shedError(w, http.StatusTooManyRequests, capacityRetryAfterSeconds, "sessions_cap", err.Error())
	case errors.Is(err, engine.ErrRefineBusy):
		s.shed.refineBusy.Add(1)
		shedError(w, http.StatusTooManyRequests, capacityRetryAfterSeconds, "refine_busy", err.Error())
	case errors.Is(err, ErrDegraded):
		// A store write surfaced through an engine path (blocking
		// checkpoint, handoff detach) after the backend fail-stopped.
		s.shed.degraded.Add(1)
		shedError(w, http.StatusServiceUnavailable, degradedRetryAfterSeconds, "degraded", err.Error())
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

package platform

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"lightor/internal/cluster"
	"lightor/internal/engine"
	"lightor/internal/fault"
)

// Cluster routing: the service half of channel-sharded scale-out.
//
// When Service.Cluster is set, every channel- or video-keyed endpoint
// first resolves the key's owner on the consistent-hash ring. Owned keys
// are served exactly as in single-node mode — the owner check is two
// nil-map lookups and a binary search, lock-free and allocation-free.
// Misrouted requests take one of two paths:
//
//	writes (chat ingest, advance, close, interactions, refine)
//	   → forwarded server-side over the pooled keep-alive transport,
//	     body verbatim, so producers never have to re-send
//	reads (dots, stream/SSE, highlights, interaction pages)
//	   → 307-redirected, so the millions-of-viewers read fast lane
//	     always runs directly between viewer and owner — no node pays
//	     proxy bandwidth for another node's audience
//
// 307 (not 301/302) because clients repeat the request verbatim —
// method, If-None-Match, Last-Event-ID all survive, so conditional GETs
// and SSE resumes work unchanged across the redirect.
//
// With Service.Cluster nil (the default) none of this exists: handlers
// check one nil field and proceed, so single-node hot paths keep their
// zero-allocation contracts bit-for-bit.

// hopHeader counts server-side forwards of one logical request. Nodes
// agree on ring placement by construction, so a forwarded request lands
// on a node that serves it locally (hop 1); a second forward can only
// mean membership disagreement (a node restarted with different -peers),
// and the counter turns that ping-pong into a visible 508.
const hopHeader = "X-Lightor-Hop"

// maxForwardHops is the forward budget: the first hop is the legitimate
// misroute correction; reaching the limit means the ring is split.
const maxForwardHops = 2

// routeAction says how a misrouted request travels to its owner.
type routeAction bool

const (
	routeForward  routeAction = true  // server-side proxy (writes)
	routeRedirect routeAction = false // 307 to the owner (reads)
)

// route resolves the owner of key and reports whether the request should
// be handled locally. Misrouted requests are answered here (forward or
// redirect) and the handler must return. A key fenced mid-handoff on
// this node answers 503 + Retry-After: its state is in flight to another
// node, so neither serving locally (the session is detached) nor routing
// away (the new owner is not confirmed yet) is correct — the client
// retries after the one-transfer-round-trip move settles. Single-node
// (Cluster nil) always serves locally at the cost of one nil check.
func (s *Service) route(w http.ResponseWriter, r *http.Request, key string, action routeAction) bool {
	c := s.Cluster
	if c == nil {
		return true
	}
	owner, moving := c.Resolve(key)
	if moving {
		s.shed.handoff.Add(1)
		shedError(w, http.StatusServiceUnavailable, handoffRetryAfterSeconds, "handoff",
			fmt.Sprintf("channel %q is being handed off; retry", key))
		return false
	}
	if owner == c.Self() {
		return true
	}
	addr, ok := c.Addr(owner)
	if !ok || owner == "" {
		http.Error(w, fmt.Sprintf("no live owner for %q (cluster unhealthy)", key), http.StatusBadGateway)
		return false
	}
	if action == routeForward {
		s.forwardToOwner(w, r, owner, addr)
	} else {
		// The cluster speaks plain HTTP on the peer addresses; the
		// redirect carries the original path and query verbatim.
		http.Redirect(w, r, "http://"+addr+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}
	return false
}

// forwardBufPool recycles body and copy buffers for the forwarding path,
// so a steady trickle of misrouted ingest does not allocate a fresh
// buffer per request.
var forwardBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// maxPooledForwardBuf caps buffers retained by the pool; a one-off giant
// body should not pin its memory forever.
const maxPooledForwardBuf = 1 << 20

// maxForwardBody caps a misrouted request body staged for forwarding.
// The largest legitimate forwarded payloads are chat and interaction
// batches — single-digit megabytes at the bench's batch sizes — so 16 MB
// leaves an order of magnitude of headroom while keeping one hostile
// POST to a non-owned channel from allocating unbounded memory on the
// forwarding node. (Checkpoint envelopes never forward: /api/cluster/*
// calls go peer-to-peer, not through route.)
const maxForwardBody = 16 << 20

// ClusterKeyHeader carries the shared cluster secret (cluster.Node.Secret)
// on every /api/cluster/* control-plane request. Requests without the
// right value are refused: the control plane can inject detector state,
// repin routing, and mark nodes down, so it must not be callable by the
// public clients that share the listener.
const ClusterKeyHeader = "X-Lightor-Cluster-Key"

// requireClusterKey gates a control-plane handler behind the shared
// cluster secret. An empty configured secret leaves the gate open — the
// in-process test fixtures' mode; the server binary refuses to start a
// cluster node without one.
func (s *Service) requireClusterKey(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if secret := s.Cluster.Secret; secret != "" &&
			subtle.ConstantTimeCompare([]byte(r.Header.Get(ClusterKeyHeader)), []byte(secret)) != 1 {
			http.Error(w, "missing or invalid "+ClusterKeyHeader, http.StatusForbidden)
			return
		}
		h(w, r)
	}
}

// forwardToOwner proxies the request to the owning peer over the pooled
// keep-alive client and relays the response verbatim. The body is staged
// through a pooled buffer (bodies are bounded request payloads — chat
// batches, interaction batches) so every retry sends byte-identical
// content with an exact Content-Length, and steady-state forwarding
// reuses both buffers and connections.
//
// The forward is self-healing: each attempt gets its own deadline
// (Cluster.Timeout), transport failures are retried up to
// Cluster.Attempts times with jittered exponential backoff, and the
// peer's circuit breaker fails fast once the owner looks dead. Any HTTP
// response — whatever its status — is authoritative and relayed without
// retry: the owner handled the request, and replaying a handled write
// (e.g. a 409 on an already-applied batch) would be wrong. Exhausted
// retries surface as 502 + Retry-After through the shedding path so
// producers treat it like any other backpressure signal.
func (s *Service) forwardToOwner(w http.ResponseWriter, r *http.Request, owner, addr string) {
	hops := 0
	if hv := r.Header.Get(hopHeader); hv != "" {
		if n, err := strconv.Atoi(hv); err == nil {
			hops = n
		}
	}
	if hops+1 >= maxForwardHops {
		http.Error(w, fmt.Sprintf(
			"forwarding loop: this node and %s disagree on ownership (inconsistent -peers?)", owner),
			http.StatusLoopDetected)
		return
	}

	buf := forwardBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledForwardBuf {
			forwardBufPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxForwardBody)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("body exceeds the %d-byte forwarding limit", maxForwardBody),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("reading body to forward: %v", err), http.StatusBadRequest)
		return
	}

	c := s.Cluster
	br := c.Breaker(owner)
	if !br.Allow() {
		s.shedForwardFailed(w, owner, fmt.Errorf("circuit breaker %s", br.State()))
		return
	}
	var lastErr error
	for attempt := 1; attempt <= c.Attempts(); attempt++ {
		if attempt > 1 {
			if !sleepOrDone(r.Context(), c.RetryDelay(attempt-1)) {
				// The producer hung up; nothing to answer and nothing to
				// retry for.
				return
			}
			if !br.Allow() {
				// A concurrent failure streak (or our own half-open probe
				// failing) opened the breaker mid-loop; honor it rather
				// than hammering a dead peer through its cooldown.
				break
			}
		}
		done, err := s.forwardOnce(w, r, addr, hops, buf.Bytes(), br)
		if done {
			return
		}
		lastErr = err
	}
	s.shedForwardFailed(w, owner, lastErr)
}

// forwardOnce performs one forwarding attempt under its own deadline.
// done=true means the peer answered and the response was relayed (the
// attempt loop must stop, whatever the status); done=false is a
// transport-level failure worth retrying, already counted against the
// breaker.
func (s *Service) forwardOnce(w http.ResponseWriter, r *http.Request, addr string, hops int, body []byte, br *cluster.Breaker) (done bool, err error) {
	if fault.Enabled() {
		if ferr := fault.Hit(cluster.FailpointForward); ferr != nil {
			br.Failure()
			return false, ferr
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.Cluster.Timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method,
		"http://"+addr+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		// Malformed request, not a peer problem: not a breaker failure,
		// and retrying the same bytes cannot help.
		http.Error(w, fmt.Sprintf("building forward request: %v", err), http.StatusInternalServerError)
		return true, nil
	}
	req.Header = r.Header.Clone()
	req.Header.Set(hopHeader, strconv.Itoa(hops+1))
	resp, err := s.Cluster.Client().Do(req)
	if err != nil {
		br.Failure()
		return false, err
	}
	br.Success()
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		h[k] = vv
	}
	w.WriteHeader(resp.StatusCode)
	cp := forwardBufPool.Get().(*bytes.Buffer)
	cp.Reset()
	cp.Grow(32 << 10)
	b := cp.Bytes()[:cp.Cap()]
	_, _ = io.CopyBuffer(w, resp.Body, b)
	if cp.Cap() <= maxPooledForwardBuf {
		forwardBufPool.Put(cp)
	}
	return true, nil
}

// shedForwardFailed answers a forward whose every attempt failed at the
// transport level: 502 + Retry-After through the shedding path, so
// producers back off and re-send (bodies were never partially applied —
// no attempt got an HTTP response).
func (s *Service) shedForwardFailed(w http.ResponseWriter, owner string, cause error) {
	s.shed.forwardFailed.Add(1)
	shedError(w, http.StatusBadGateway, forwardRetryAfterSeconds, "forward_failed",
		fmt.Sprintf("forwarding to owner %s failed: %v", owner, cause))
}

// sleepOrDone waits d or until ctx is done, reporting whether the full
// wait elapsed.
func sleepOrDone(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// HealthResponse is the payload of GET /api/healthz: one node's identity
// and load, for routers, the kill-a-node drill, and operators watching a
// handoff converge.
type HealthResponse struct {
	Node          string   `json:"node,omitempty"`  // cluster node id ("" single-node)
	Peers         int      `json:"peers,omitempty"` // cluster size
	Sessions      int      `json:"sessions"`        // live sessions resident here
	OwnedChannels int      `json:"owned_channels"`  // resident sessions this node owns
	Channels      []string `json:"channels"`        // resident channel ids, sorted
	Subscribers   int64    `json:"subscribers"`     // current SSE push subscribers
	Draining      bool     `json:"draining"`        // push hub closed (shutdown under way)
	// Latency is the per-endpoint p50/p99/p999 digest since process start
	// (endpoints that have served nothing are omitted); Shed counts shed
	// responses by cause. Operators see the same numbers the load harness
	// gates on — see admission.go.
	Latency map[string]LatencySummary `json:"latency,omitempty"`
	Shed    map[string]uint64         `json:"shed"`
	// Degraded reports the fail-stop read-only mode: a disk fault poisoned
	// the WAL, writes shed 503, reads serve from memory (see
	// FileBackend.failStop). DegradedReason carries the root cause.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// PeersHealth is the heartbeat monitor's per-peer liveness detail
	// (alive/suspect/down, last-beat age, breaker state); omitted
	// single-node.
	PeersHealth []cluster.PeerHealth `json:"peers_health,omitempty"`
	// Failpoints lists armed fault-injection sites. Empty in production —
	// the fault framework is disarmed by default and only LIGHTOR_FAILPOINTS
	// arms it — so any non-empty value is a loud signal.
	Failpoints []string `json:"failpoints,omitempty"`
	// ResumedFrom maps channels this node adopted through failover to the
	// source of their state ("replica": resumed from the local standby
	// replica area after the previous owner died). Omitted when empty or
	// when replication is off.
	ResumedFrom map[string]string `json:"resumed_from,omitempty"`
}

// pingBody is the whole of GET /api/ping. Static on purpose: heartbeat
// probes hit this once per second per peer, and the liveness signal they
// need is "the listener accepts and the mux answers" — no session walks,
// no latency digests, no allocation.
var pingBody = []byte("pong\n")

func handlePing(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(pingBody)
}

// handleHealthz reports this node's status. Always registered — a
// single-node deployment answers with empty cluster fields — so probes
// and dashboards need no mode switch.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	channels := s.Engine.Sessions().Channels()
	resp := HealthResponse{
		Sessions:    len(channels),
		Channels:    channels,
		Subscribers: s.PushStats().Subscribers,
		Draining:    s.pushDraining(),
		Latency:     s.latencySnapshot(),
		Shed:        s.shed.snapshot(),
	}
	if channels == nil {
		resp.Channels = []string{}
	}
	resp.Degraded, resp.DegradedReason = s.Store.Degraded()
	if fault.Enabled() {
		resp.Failpoints = fault.Armed()
	}
	if s.Replication != nil {
		resp.ResumedFrom = s.Replication.ResumedFrom()
	}
	if c := s.Cluster; c != nil {
		resp.Node = c.Self()
		resp.Peers = len(c.Peers())
		resp.PeersHealth = c.PeerHealth()
		for _, ch := range channels {
			if c.OwnsLocally(ch) {
				resp.OwnedChannels++
			}
		}
	} else {
		resp.OwnedChannels = len(channels)
	}
	writeJSON(w, resp)
}

// HandoffResponse is the payload of POST /api/cluster/handoff, of the
// replica endpoint, and of GET /api/cluster/owned?channel=: where the
// channel now lives and the resume point its producer should continue
// from.
type HandoffResponse struct {
	Channel   string  `json:"channel"`
	Owner     string  `json:"owner"`
	Watermark float64 `json:"watermark"` // highest timestamp in the moved state
	Cursor    int     `json:"cursor"`    // emission-history length carried over
}

// handleClusterHandoff moves a live channel this node owns to a target
// peer, without ending the broadcast:
//
//  1. The channel is fenced first — Cluster.BeginMove makes route answer
//     503 + Retry-After for it, and SessionManager.BarOpen makes a
//     racing request that already passed route unable to re-create the
//     session — so nothing can serve or resurrect the channel here
//     while its state is in flight.
//  2. DetachSession: intake stops, the mailbox drains, the detector
//     serializes mid-stream and reports the watermark it captured; push
//     subscribers get the terminal "end: closed" event and this node's
//     response-cache entries for the channel are dropped (both via the
//     SessionClosed listener, BEFORE the channel becomes routable
//     anywhere else — no viewer can be served a stale catch-up frame
//     across the handoff).
//  3. The checkpoint envelope ships to the target's replica endpoint with
//     promote=1 — the same envelope replication ships, so the target files
//     it like any replica and then adopts it. The transfer runs on a
//     context detached from the admin request: a caller hanging up after
//     the target adopted the channel must not be able to turn a completed
//     transfer into a local-restore split brain. Promotion is idempotent
//     (a channel already live on the target answers with its resume
//     point), so a lost response is settled by clusterDo's retry.
//  4. Only after the target confirms does this node commit the move
//     (checkpoint forgotten, route pinned, fence lifted — atomically)
//     and best-effort notify the remaining peers. A failed transfer
//     restores the state locally; the channel never leaves limbo.
func (s *Service) handleClusterHandoff(w http.ResponseWriter, r *http.Request) {
	c := s.Cluster
	channel := r.URL.Query().Get("channel")
	target := r.URL.Query().Get("target")
	if channel == "" || target == "" {
		http.Error(w, "missing channel or target parameter", http.StatusBadRequest)
		return
	}
	addr, ok := c.Addr(target)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown target node %q", target), http.StatusBadRequest)
		return
	}
	if target == c.Self() {
		http.Error(w, "target is this node; nothing to hand off", http.StatusBadRequest)
		return
	}
	if owner := c.Owner(channel); owner != c.Self() {
		http.Error(w, fmt.Sprintf("channel %q is owned by %q, not this node", channel, owner),
			http.StatusConflict)
		return
	}
	if !c.BeginMove(channel) {
		http.Error(w, fmt.Sprintf("channel %q is already mid-handoff", channel), http.StatusConflict)
		return
	}
	mgr := s.Engine.Sessions()
	mgr.BarOpen(channel)

	state, wm, err := mgr.DetachSession(r.Context(), channel)
	if err != nil {
		c.AbortMove(channel)
		mgr.UnbarOpen(channel)
		if errors.Is(err, engine.ErrUnknownSession) {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		s.writeLiveError(w, err)
		return
	}
	mark := ReplicaMark{Watermark: wm}
	if s.Replication != nil {
		mark.Inc = s.Replication.incarnation(channel, 0)
	}

	// Detached from the admin request: once the state is off this node's
	// engine, the transfer must run to a definite outcome even if the
	// handoff caller disconnects. The pooled client's own timeout bounds
	// each leg.
	ctx := context.WithoutCancel(r.Context())
	resp, err := s.clusterDo(ctx, target, http.MethodPost, replicaURL(addr, channel, mark)+"&promote=1", state)
	if err != nil {
		// Undo: the channel comes back to life here; its checkpoint never
		// left this node, so even a crash now loses nothing. Restoring
		// lifts the open bar atomically with registration; the route fence
		// lifts after, so no request can race the restore itself.
		if _, rerr := s.adopt(channel, mark.Inc, state); rerr != nil {
			// Fence deliberately left up: the durable checkpoint is the
			// only good copy, and letting traffic open a fresh empty
			// session would shadow it. A restart resumes the channel from
			// the checkpoint.
			http.Error(w, fmt.Sprintf("transfer failed (%v) AND local restore failed (%v); channel %q recoverable from local checkpoint",
				err, rerr, channel), http.StatusBadGateway)
			return
		}
		c.AbortMove(channel)
		http.Error(w, fmt.Sprintf("transfer to %s failed, channel restored locally: %v", target, err),
			http.StatusBadGateway)
		return
	}

	// Confirmed: the channel's durable home is the target now. The open
	// bar stays until the override clears (the broadcast's eventual close
	// lifts both), so a straggler request that passed route before the
	// fence still cannot resurrect the channel here.
	_ = mgr.ForgetCheckpoint(channel)
	_ = c.CommitMove(channel, target)
	for _, p := range c.Peers() {
		if p.ID == c.Self() || p.ID == target {
			continue
		}
		if _, err := s.clusterDo(ctx, p.ID, http.MethodPost,
			"http://"+p.Addr+"/api/cluster/route?channel="+url.QueryEscape(channel)+"&owner="+url.QueryEscape(target), nil); err != nil {
			// Best-effort: an unnotified peer forwards/redirects through
			// the ring owner (this node), which now pins to the target —
			// one extra hop, never a wrong answer.
			continue
		}
	}
	writeJSON(w, resp)
}

// adopt makes channel live on this node from a checkpoint envelope's
// state — the one restore path behind handoff promotion, a failed
// handoff's local undo, and replica failover. The session resumes
// bit-identically and checkpoints into this node's store; the route is
// pinned here so requests stay local even where the ring disagrees, and
// the broadcast's incarnation (see Replicator.incarnation) is raised above
// the envelope's so this node's replicas supersede the sender's.
//
// A channel already live here is not replaced: adoption is idempotent (a
// retried promote whose first response was lost, or failover racing a
// handoff), and the live session wins — it may have accepted messages the
// envelope predates. That case returns the live session together with
// engine.ErrSessionExists.
func (s *Service) adopt(channel string, inc uint64, state []byte) (*engine.Session, error) {
	if s.Replication != nil {
		s.Replication.incarnation(channel, inc)
	}
	mgr := s.Engine.Sessions()
	sess, err := mgr.RestoreSession(channel, state)
	switch {
	case errors.Is(err, engine.ErrSessionExists):
		sess, _ = mgr.Get(channel)
	case err == nil:
		// Stale entries from a previous local life of this channel cannot
		// be addressed (versions are process-unique), but drop them anyway
		// so the adoption starts clean.
		s.dotsCache.drop(channel)
	}
	if sess != nil {
		_ = s.Cluster.SetOverride(channel, s.Cluster.Self())
	}
	return sess, err
}

// liveResponse reports a session resident on this node: its owner (this
// node) and the resume point a producer continues from.
func (s *Service) liveResponse(sess *engine.Session) HandoffResponse {
	_, cursor, _ := sess.DotsPage(0)
	return HandoffResponse{
		Channel:   sess.Channel(),
		Owner:     s.Cluster.Self(),
		Watermark: sess.Watermark(),
		Cursor:    cursor,
	}
}

// errClusterTransport tags transport-level control-plane failures (no
// HTTP response from the peer) so the retry loop can tell them apart
// from authoritative answers like a 409 or a decode error.
var errClusterTransport = errors.New("cluster transport failure")

// clusterDo sends a control-plane request (with the shared cluster
// secret attached) to peer's endpoint and decodes the HandoffResponse,
// surfacing non-2xx answers as errors. Same resilience contract as
// forwarding: per-attempt deadline layered over ctx (which may be a
// context.WithoutCancel — the deadline still applies, so a detached
// transfer can never hang forever), transport-only retries with jittered
// backoff, per-peer breaker. A received HTTP response — success or not —
// is authoritative and never retried. Transport failures are retried, so
// every verb sent through here must be idempotent: replica ships and
// promotes are (monotone Put, idempotent adoption), as are route pins.
func (s *Service) clusterDo(ctx context.Context, peer, method, url string, body []byte) (HandoffResponse, error) {
	c := s.Cluster
	br := c.Breaker(peer)
	if !br.Allow() {
		return HandoffResponse{}, fmt.Errorf("%s: peer %s circuit breaker %s", url, peer, br.State())
	}
	var lastErr error
	for attempt := 1; attempt <= c.Attempts(); attempt++ {
		if attempt > 1 {
			if !sleepOrDone(ctx, c.RetryDelay(attempt-1)) {
				return HandoffResponse{}, ctx.Err()
			}
			if !br.Allow() {
				break
			}
		}
		var out HandoffResponse
		err := s.clusterDoOnce(ctx, method, url, body, br, &out)
		if err == nil || !errors.Is(err, errClusterTransport) {
			return out, err
		}
		lastErr = err
	}
	return HandoffResponse{}, fmt.Errorf("%s: all %d attempts failed: %w", url, c.Attempts(), lastErr)
}

// clusterDoOnce performs one control-plane call attempt under its own
// deadline, decoding the JSON answer into out. Errors wrapping
// errClusterTransport are retryable; anything else (including non-2xx
// statuses) is the peer's authoritative answer.
func (s *Service) clusterDoOnce(ctx context.Context, method, url string, body []byte, br *cluster.Breaker, out any) error {
	if fault.Enabled() {
		if ferr := fault.Hit(cluster.FailpointControl); ferr != nil {
			br.Failure()
			return fmt.Errorf("%w: %w", errClusterTransport, ferr)
		}
	}
	ctx, cancel := context.WithTimeout(ctx, s.Cluster.Timeout())
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if s.Cluster.Secret != "" {
		req.Header.Set(ClusterKeyHeader, s.Cluster.Secret)
	}
	resp, err := s.Cluster.Client().Do(req)
	if err != nil {
		br.Failure()
		return fmt.Errorf("%w: %w", errClusterTransport, err)
	}
	br.Success()
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// OwnedResponse is the payload of GET /api/cluster/owned without a
// channel parameter: this node's live sessions and stored replica marks,
// keyed by channel. The anti-entropy reconciler compares Replicas against
// its own latest checkpoints to find successors that are missing or
// behind.
type OwnedResponse struct {
	Node string `json:"node"`
	// Owned maps each live resident session to its watermark.
	Owned map[string]float64 `json:"owned"`
	// Replicas maps each channel in the local replica area to the mark
	// its envelope was stored under; omitted when replication is off.
	Replicas map[string]ReplicaMark `json:"replicas,omitempty"`
}

// handleClusterOwned reports, with a channel parameter, whether this node
// currently holds a live session for that channel with its resume point —
// failover's split-brain probe, and where a producer learns where to
// continue after its channel failed over. Without a channel parameter it
// is the anti-entropy report: every live session's watermark plus every
// stored replica's mark.
func (s *Service) handleClusterOwned(w http.ResponseWriter, r *http.Request) {
	channel := r.URL.Query().Get("channel")
	if channel == "" {
		resp := OwnedResponse{Node: s.Cluster.Self(), Owned: map[string]float64{}}
		for _, ch := range s.Engine.Sessions().Channels() {
			if sess, ok := s.Engine.Sessions().Get(ch); ok {
				resp.Owned[ch] = sess.Watermark()
			}
		}
		if s.Replication != nil {
			resp.Replicas = s.Replication.Store().Marks()
		}
		writeJSON(w, resp)
		return
	}
	sess, ok := s.Engine.Sessions().Get(channel)
	if !ok {
		http.Error(w, fmt.Sprintf("channel %q is not resident on this node", channel), http.StatusNotFound)
		return
	}
	writeJSON(w, s.liveResponse(sess))
}

// handleClusterReplica is the one way a checkpoint envelope (channel,
// incarnation, watermark, state) crosses nodes. POST files it in this
// node's replica area, DELETE tombstones the incarnation (the broadcast
// closed or moved on the owner). Deliveries are idempotent and monotone —
// the store drops anything at or below the mark it already holds — so the
// sender can retry or duplicate freely and late reordered ships cannot
// roll a replica back.
//
// POST with promote=1 is a handoff's transfer leg: after filing, this
// node adopts the state carried in the request. It must not adopt from
// the store — Put drops an envelope whose mark equals the stored one (two
// checkpoints share a detector clock when chat messages share a
// timestamp), and drops everything behind a tombstone. A channel already
// live here answers with the live session's resume point, so a retried
// promote whose first response was lost commits the move.
func (s *Service) handleClusterReplica(w http.ResponseWriter, r *http.Request) {
	if s.Replication == nil {
		http.Error(w, "replication is not enabled on this node", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	channel := q.Get("channel")
	if channel == "" {
		http.Error(w, "missing channel parameter", http.StatusBadRequest)
		return
	}
	if ferr := fault.Hit(cluster.FailpointReplicaApply); ferr != nil {
		http.Error(w, ferr.Error(), http.StatusServiceUnavailable)
		return
	}
	inc, err := strconv.ParseUint(q.Get("inc"), 10, 64)
	if err != nil {
		http.Error(w, "missing or malformed inc parameter", http.StatusBadRequest)
		return
	}
	store := s.Replication.Store()
	if r.Method == http.MethodDelete {
		if err := store.Delete(channel, inc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, HandoffResponse{Channel: channel, Owner: s.Cluster.Self()})
		return
	}
	mark := ReplicaMark{Inc: inc}
	mark.Watermark, err = strconv.ParseFloat(q.Get("watermark"), 64)
	if err != nil || math.IsInf(mark.Watermark, 0) || math.IsNaN(mark.Watermark) {
		http.Error(w, "missing or malformed watermark parameter", http.StatusBadRequest)
		return
	}
	state, err := io.ReadAll(io.LimitReader(r.Body, maxReplicaState+1))
	if err != nil {
		http.Error(w, "reading replica state: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(state) > maxReplicaState {
		http.Error(w, fmt.Sprintf("replica state exceeds %d bytes", maxReplicaState), http.StatusRequestEntityTooLarge)
		return
	}
	if _, err := store.Put(channel, mark, state); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if q.Get("promote") == "" {
		writeJSON(w, HandoffResponse{Channel: channel, Owner: s.Cluster.Self(), Watermark: mark.Watermark})
		return
	}
	sess, err := s.adopt(channel, inc, state)
	if sess == nil {
		if errors.Is(err, engine.ErrSessionExists) {
			// Closed between the restore attempt and the lookup; report
			// the conflict rather than inventing a resume point.
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		s.writeLiveError(w, err)
		return
	}
	writeJSON(w, s.liveResponse(sess))
}

// handleClusterRoute pins (or clears, with owner="") a channel's owner on
// this node's routing overlay. Handoffs broadcast it so peers route
// straight to the new owner instead of through the ring position; closes
// broadcast the clear so pins (and the re-open bars backing them) don't
// accumulate across a channel's handoff history.
func (s *Service) handleClusterRoute(w http.ResponseWriter, r *http.Request) {
	channel := r.URL.Query().Get("channel")
	if channel == "" {
		http.Error(w, "missing channel parameter", http.StatusBadRequest)
		return
	}
	owner := r.URL.Query().Get("owner")
	if err := s.Cluster.SetOverride(channel, owner); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if owner == "" {
		// The channel's broadcast is over and its pin is gone: the ring
		// may place a successor broadcast here, so re-opening must work.
		s.Engine.Sessions().UnbarOpen(channel)
	}
	writeJSON(w, HandoffResponse{Channel: channel, Owner: owner})
}

// retireOverride cleans up a handed-off channel's routing pin once its
// broadcast ends: every peer is told to clear its override (which also
// lifts the re-open bar a past handoff left on the old owner), and this
// node's own pin clears only if ALL peers acked — a partially-notified
// cluster keeps forwarding through this node's pin (one extra hop, never
// a wrong answer) instead of ping-ponging between ring and override
// placements. Channels that never handed off carry no pin and return
// immediately, so the ordinary close path pays one nil-map lookup.
func (s *Service) retireOverride(r *http.Request, channel string) {
	c := s.Cluster
	if c == nil {
		return
	}
	if _, pinned := c.Override(channel); !pinned {
		return
	}
	// Detached like the handoff's transfer leg: the close has already
	// happened, so the cleanup must not die with the caller.
	ctx := context.WithoutCancel(r.Context())
	allAcked := true
	for _, p := range c.Peers() {
		if p.ID == c.Self() {
			continue
		}
		if _, err := s.clusterDo(ctx, p.ID, http.MethodPost,
			"http://"+p.Addr+"/api/cluster/route?channel="+url.QueryEscape(channel)+"&owner=", nil); err != nil {
			allAcked = false
		}
	}
	if allAcked {
		_ = c.SetOverride(channel, "")
		s.Engine.Sessions().UnbarOpen(channel)
	}
}

// handleClusterDown marks a peer down (down=true) or back up (down=false)
// on this node's routing overlay: keys owned by a down node remap to
// their ring successors, and only those keys. The up→down transition
// fires replica failover (Replicator.PeerDown): the new owners adopt the
// dead node's channels from their local replica areas.
func (s *Service) handleClusterDown(w http.ResponseWriter, r *http.Request) {
	node := r.URL.Query().Get("node")
	if node == "" {
		http.Error(w, "missing node parameter", http.StatusBadRequest)
		return
	}
	down := r.URL.Query().Get("down") != "false"
	if err := s.Cluster.SetDown(node, down); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

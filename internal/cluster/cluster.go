package cluster

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lightor/internal/fault"
)

// Peer is one cluster member: a stable node id and the HTTP address the
// other members reach it on ("host:port"; the cluster speaks plain HTTP
// on the same listener as the public API).
type Peer struct {
	ID   string
	Addr string
}

// ParsePeers parses the -peers flag: a comma-separated list of id=addr
// entries, e.g. "n1=10.0.0.1:8080,n2=10.0.0.2:8080,n3=10.0.0.3:8080".
// Duplicate ids and duplicate addresses are rejected — a copy-pasted
// address would silently route two nodes' traffic to one process.
func ParsePeers(spec string) ([]Peer, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty -peers list")
	}
	var peers []Peer
	ids := make(map[string]bool)
	addrs := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad peer entry %q (want id=host:port)", part)
		}
		if ids[id] {
			return nil, fmt.Errorf("cluster: duplicate node id %q in -peers", id)
		}
		if prev, dup := addrs[addr]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer address %q (nodes %q and %q)", addr, prev, id)
		}
		ids[id] = true
		addrs[addr] = id
		peers = append(peers, Peer{ID: id, Addr: addr})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty -peers list")
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	return peers, nil
}

// routeState is the copy-on-write routing overlay on top of the static
// ring: which members are marked down, which channels have an explicit
// owner override (set during handoff, before the ring alone would agree),
// and which channels are mid-handoff on this node. Readers load the
// snapshot atomically — the request hot path costs a few nil-map lookups
// and never takes a lock or allocates.
type routeState struct {
	down      map[string]bool   // members excluded from ring placement
	overrides map[string]string // channel → pinned owner (wins over the ring)
	moving    map[string]bool   // channels this node is handing off right now
}

// Default node-to-node call policy; override with the Node fields.
const (
	defaultCallTimeout      = 10 * time.Second
	defaultCallAttempts     = 3
	defaultRetryBackoff     = 25 * time.Millisecond
	defaultRetryBackoffMax  = 500 * time.Millisecond
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 2 * time.Second
)

// Failpoint sites (package fault) in the node-to-node transport. The
// service hits them immediately before each attempt of the corresponding
// call, so an armed error behaves exactly like a transport failure —
// retried, counted against the peer's breaker, surfaced as 502 when
// exhausted.
var (
	// FailpointForward fires per forwarding attempt (misrouted writes
	// relayed to their owner).
	FailpointForward = fault.Register("cluster/forward")
	// FailpointControl fires per control-plane call attempt (handoff,
	// resume, route broadcast, owned probe).
	FailpointControl = fault.Register("cluster/control")
	// FailpointReplicaSend fires on the owner as each checkpoint replica
	// is about to ship to a ring successor; an armed error drops that
	// delivery (anti-entropy re-ships it later).
	FailpointReplicaSend = fault.Register("replica/send")
	// FailpointReplicaApply fires on the receiver as a replica envelope
	// is about to be stored; an armed error rejects the delivery.
	FailpointReplicaApply = fault.Register("replica/apply")
)

// Node is one member's view of the cluster: the shared ring, its own
// identity, the peer address book, the mutable routing overlay, and a
// pooled HTTP client for forwarding misrouted writes to their owners.
type Node struct {
	// Secret, when non-empty, authenticates the /api/cluster/* control
	// plane: every peer-to-peer control call carries it in a header and
	// receivers reject requests without it, so a public client cannot
	// inject detector state, hijack routing, or mark nodes down. All
	// nodes must share the same value.
	Secret string

	// CallTimeout bounds each ATTEMPT of a node-to-node call (forwarded
	// write or control-plane call); retries get a fresh deadline. Zero
	// means defaultCallTimeout. Flag: -cluster-call-timeout.
	CallTimeout time.Duration
	// CallAttempts is how many times a node-to-node call is tried before
	// the failure surfaces (transport errors only — an HTTP response,
	// whatever its status, is authoritative and never retried). Zero means
	// defaultCallAttempts. Flag: -cluster-retries.
	CallAttempts int
	// BreakerThreshold and BreakerCooldown tune the per-peer circuit
	// breakers (zero = defaults): threshold consecutive transport failures
	// open a peer's breaker; after cooldown one half-open probe may pass.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	self  string
	ring  *Ring
	peers []Peer
	addrs map[string]string // id → addr

	state atomic.Pointer[routeState]
	mu    sync.Mutex // serializes state updates (readers never take it)

	clientOnce sync.Once
	client     *http.Client

	brMu     sync.Mutex
	breakers map[string]*Breaker

	hbMu sync.Mutex
	hb   *heartbeatMonitor

	downMu sync.Mutex
	onDown func(id string) // up→down transition observer; see OnPeerDown
}

// New builds this process's cluster membership from its node id and the
// full peer list. The id must itself appear in peers — a node that is not
// in the ring would forward every request and own nothing, which is
// always a misconfiguration.
func New(self string, peers []Peer, vnodes int) (*Node, error) {
	if self == "" {
		return nil, fmt.Errorf("cluster: empty node id")
	}
	addrs := make(map[string]string, len(peers))
	ids := make([]string, 0, len(peers))
	for _, p := range peers {
		if _, dup := addrs[p.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", p.ID)
		}
		addrs[p.ID] = p.Addr
		ids = append(ids, p.ID)
	}
	if _, ok := addrs[self]; !ok {
		return nil, fmt.Errorf("cluster: -node-id %q does not appear in -peers (members: %s)",
			self, strings.Join(ids, ", "))
	}
	ring, err := NewRing(ids, vnodes)
	if err != nil {
		return nil, err
	}
	n := &Node{
		self:  self,
		ring:  ring,
		peers: append([]Peer(nil), peers...),
		addrs: addrs,
	}
	n.state.Store(&routeState{})
	return n, nil
}

// Self returns this node's id.
func (n *Node) Self() string { return n.self }

// Peers returns the full membership, sorted by id. Shared; do not mutate.
func (n *Node) Peers() []Peer { return n.peers }

// Ring returns the underlying consistent-hash ring.
func (n *Node) Ring() *Ring { return n.ring }

// Addr returns the HTTP address of a member.
func (n *Node) Addr(id string) (string, bool) {
	addr, ok := n.addrs[id]
	return addr, ok
}

// Owner resolves the effective owner of a key: an explicit override wins
// (a channel pinned by handoff) unless its target is marked down — a
// pinned channel must not keep routing to a dead node forever, so the
// pin is skipped (not deleted: the target coming back up is still where
// the session lives) and placement falls back to the ring. Otherwise
// ring placement skipping down-marked members. The common case — no
// overrides, nobody down, nothing moving — is three nil-map lookups plus
// one ring binary search: lock-free and allocation-free, cheap enough to
// run on every request.
func (n *Node) Owner(key string) string {
	owner, _ := n.Resolve(key)
	return owner
}

// Resolve is Owner plus the mid-handoff flag: moving == true means this
// node is handing the key off RIGHT NOW (between detach and commit), and
// the caller must not serve or re-create state for it — answer 503 and
// let the client retry after the move settles. One snapshot load answers
// both questions, so the request hot path pays no second atomic read.
func (n *Node) Resolve(key string) (owner string, moving bool) {
	st := n.state.Load()
	if st.moving[key] {
		return n.self, true
	}
	if o, ok := st.overrides[key]; ok && !st.down[o] {
		return o, false
	}
	owner = n.ring.Owner(key)
	if len(st.down) == 0 || !st.down[owner] {
		return owner, false
	}
	return n.ring.OwnerSkipping(key, func(id string) bool { return st.down[id] }), false
}

// OwnsLocally reports whether this node is the effective owner of key.
func (n *Node) OwnsLocally(key string) bool { return n.Owner(key) == n.self }

// mutate installs a new routeState produced by fn from a copy of the
// current one.
func (n *Node) mutate(fn func(st *routeState)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.state.Load()
	next := &routeState{
		down:      make(map[string]bool, len(cur.down)),
		overrides: make(map[string]string, len(cur.overrides)),
		moving:    make(map[string]bool, len(cur.moving)),
	}
	for k, v := range cur.down {
		next.down[k] = v
	}
	for k, v := range cur.overrides {
		next.overrides[k] = v
	}
	for k, v := range cur.moving {
		next.moving[k] = v
	}
	fn(next)
	n.state.Store(next)
}

// SetDown marks a member down (or back up). Keys owned by a down member
// remap to their ring successors — and only those keys move. Marking a
// node down does not itself transfer state: the OnPeerDown observer (the
// platform's replica failover) adopts the dead member's channels on their
// new owners from standby checkpoint replicas.
func (n *Node) SetDown(id string, down bool) error {
	if _, ok := n.addrs[id]; !ok {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	if id == n.self && down {
		return fmt.Errorf("cluster: refusing to mark self (%q) down", id)
	}
	var wentDown bool
	n.mutate(func(st *routeState) {
		if down {
			// st is the pre-mutation copy at this point, so this reads the
			// previous state under the same lock that serializes updates —
			// concurrent SetDown calls yield exactly one transition.
			wentDown = !st.down[id]
			st.down[id] = true
		} else {
			delete(st.down, id)
		}
	})
	if wentDown {
		n.downMu.Lock()
		fn := n.onDown
		n.downMu.Unlock()
		if fn != nil {
			// Asynchronous: SetDown is called from the heartbeat probe loop,
			// which must never block on failover work (resuming a dead
			// node's channels makes cluster calls of its own).
			go fn(id)
		}
	}
	return nil
}

// OnPeerDown registers fn to run — in its own goroutine — each time a
// member transitions from up to down, whether heartbeat-detected or
// operator-announced (POST /api/cluster/down). At most one observer; a
// later call replaces it, nil unregisters. The replica failover path hangs
// off this: survivors resume a dead node's channels from their standby
// replica envelopes the moment it is declared down.
func (n *Node) OnPeerDown(fn func(id string)) {
	n.downMu.Lock()
	n.onDown = fn
	n.downMu.Unlock()
}

// Down reports whether a member is currently marked down.
func (n *Node) Down(id string) bool { return n.state.Load().down[id] }

// SetOverride pins a key to an explicit owner (handoff has moved it off
// its ring position), or clears the pin with owner == "".
func (n *Node) SetOverride(key, owner string) error {
	if owner != "" {
		if _, ok := n.addrs[owner]; !ok {
			return fmt.Errorf("cluster: unknown node %q", owner)
		}
	}
	n.mutate(func(st *routeState) {
		if owner == "" {
			delete(st.overrides, key)
		} else {
			st.overrides[key] = owner
		}
	})
	return nil
}

// Override returns the explicit owner pin for a key, if any.
func (n *Node) Override(key string) (string, bool) {
	o, ok := n.state.Load().overrides[key]
	return o, ok
}

// BeginMove claims a key for handoff: until CommitMove or AbortMove,
// Resolve reports it as moving and the routing layer fences requests for
// it with a retryable error instead of serving (or re-creating) state
// locally. This closes the window between detaching the session and
// installing the post-transfer override — without it, a producer request
// arriving mid-transfer would find no session, silently open a fresh
// empty one on this node, and lose its messages once the override lands.
// Returns false if the key is already mid-move (a concurrent handoff).
func (n *Node) BeginMove(key string) bool {
	claimed := false
	n.mutate(func(st *routeState) {
		if st.moving[key] {
			return
		}
		st.moving[key] = true
		claimed = true
	})
	return claimed
}

// CommitMove completes a handoff in one atomic overlay swap: the key's
// owner pin is installed and the moving fence lifted, so no reader can
// observe the gap between them.
func (n *Node) CommitMove(key, owner string) error {
	if _, ok := n.addrs[owner]; !ok {
		return fmt.Errorf("cluster: unknown node %q", owner)
	}
	n.mutate(func(st *routeState) {
		delete(st.moving, key)
		st.overrides[key] = owner
	})
	return nil
}

// AbortMove lifts a key's moving fence without installing an override —
// the failed-transfer path, after the session has been restored locally.
func (n *Node) AbortMove(key string) {
	n.mutate(func(st *routeState) { delete(st.moving, key) })
}

// Moving reports whether a key is currently fenced mid-handoff.
func (n *Node) Moving(key string) bool { return n.state.Load().moving[key] }

// Overrides returns a copy of the current channel→owner pins.
func (n *Node) Overrides() map[string]string {
	st := n.state.Load()
	out := make(map[string]string, len(st.overrides))
	for k, v := range st.overrides {
		out[k] = v
	}
	return out
}

// OwnedKeys filters keys down to those this node effectively owns.
func (n *Node) OwnedKeys(keys []string) []string {
	var out []string
	for _, k := range keys {
		if n.OwnsLocally(k) {
			out = append(out, k)
		}
	}
	return out
}

// callTimeout returns the per-attempt deadline for node-to-node calls.
func (n *Node) callTimeout() time.Duration {
	if n.CallTimeout > 0 {
		return n.CallTimeout
	}
	return defaultCallTimeout
}

// Timeout is the exported form of the per-attempt call deadline.
func (n *Node) Timeout() time.Duration { return n.callTimeout() }

// Attempts returns how many times each node-to-node call may be tried.
func (n *Node) Attempts() int {
	if n.CallAttempts > 0 {
		return n.CallAttempts
	}
	return defaultCallAttempts
}

// RetryDelay returns the backoff before retry attempt (1-based across
// retries: the delay before the second try is RetryDelay(1)): bounded
// exponential with full jitter, so a burst of callers retrying against
// the same recovering peer spreads out instead of stampeding in phase.
func (n *Node) RetryDelay(attempt int) time.Duration {
	d := defaultRetryBackoff << (attempt - 1)
	if d > defaultRetryBackoffMax || d <= 0 {
		d = defaultRetryBackoffMax
	}
	return time.Duration(rand.Int64N(int64(d))) + d/2
}

// Breaker returns the circuit breaker guarding calls to a peer, creating
// it on first use.
func (n *Node) Breaker(id string) *Breaker {
	n.brMu.Lock()
	defer n.brMu.Unlock()
	if n.breakers == nil {
		n.breakers = make(map[string]*Breaker)
	}
	b, ok := n.breakers[id]
	if !ok {
		threshold, cooldown := n.BreakerThreshold, n.BreakerCooldown
		if threshold <= 0 {
			threshold = defaultBreakerThreshold
		}
		if cooldown <= 0 {
			cooldown = defaultBreakerCooldown
		}
		b = NewBreaker(threshold, cooldown)
		n.breakers[id] = b
	}
	return b
}

// Client returns the shared forwarding client: keep-alive pooled
// connections to each peer, so a steady trickle of misrouted writes rides
// warm TCP connections instead of paying a dial per request. Timeouts are
// generous — a forwarded ingest blocks only its own caller — but bounded,
// so a hung peer cannot pin forwarder goroutines forever.
func (n *Node) Client() *http.Client {
	n.clientOnce.Do(func() {
		n.client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
			// Server-side forwarding must never follow redirects: a peer
			// answering 307 means ring disagreement, and following it from
			// inside the cluster would hide the loop the hop counter exists
			// to expose.
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				return http.ErrUseLastResponse
			},
		}
	})
	return n.client
}

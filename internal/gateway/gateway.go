// Package gateway multiplexes many ReMICSS sessions over one shared pool
// of UDP sockets. The paper's protocol is point-to-point — one sender, one
// receiver, one socket per channel — which does not survive contact with a
// multi-tenant deployment: ten thousand sessions would need ten thousand
// socket sets and as many reader goroutines. The gateway keeps the paper's
// per-session protocol machinery intact and changes only the transport
// arrangement:
//
//   - every share carries its session ID in the v2 wire header
//     (wire.AppendMarshalSession), stamped by a Sender whose
//     SenderConfig.Session is set;
//   - the Server side owns one udptrans.Listener (one socket per channel)
//     and dispatches each incoming datagram to its session by peeking the
//     header (wire.PeekSession) — no copy, no full parse;
//   - the session table is sharded like the receiver's reassembly table
//     (splitmix64-mixed ID, power-of-two shards) with a lock-free read
//     path, so ingest goroutines never contend with each other or with
//     registration;
//   - the client side shares one socket set across all its sessions (Pool),
//     coalescing their datagrams into kernel batches
//     (udptrans.Link.SendBatch).
//
// Per-tenant observability is capped: tenant label values are admitted
// first-come up to ServerConfig.TenantCap, and every later tenant shares
// one "other"-labeled series, so a hostile or buggy tenant namespace cannot
// blow up metric cardinality.
package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"remicss/internal/obs"
	"remicss/internal/shardix"
	"remicss/internal/udptrans"
	"remicss/internal/wire"
)

// DefaultShards is the default session-table shard count. Sized for
// registration-heavy workloads: registering n sessions costs O(n²/shards)
// map-entry copies under the copy-on-write scheme, so at 100k sessions a
// 1024-way split keeps the total rebuild work in the low millions.
const DefaultShards = 1024

// DefaultTenantCap is the default bound on distinct tenant label values.
const DefaultTenantCap = 64

// Gateway errors.
var (
	// ErrDuplicateSession means Register was given an ID already in use.
	ErrDuplicateSession = errors.New("gateway: session ID already registered")
	// ErrZeroSession means session ID 0 was requested; 0 is the wire
	// format's "no session" value carried by v1 headers.
	ErrZeroSession = errors.New("gateway: session ID 0 is reserved for sessionless (v1) traffic")
)

// ServerConfig configures a Server.
type ServerConfig struct {
	// Shards is the session-table shard count, rounded up to a power of
	// two; 0 picks DefaultShards.
	Shards int
	// TenantCap bounds distinct tenant label values on the per-tenant
	// series; 0 picks DefaultTenantCap. See tenantSeries.
	TenantCap int
	// Metrics receives the gateway's series. Nil gives the server a
	// private registry.
	Metrics *obs.Registry
	// Sessionless, when non-nil, receives datagrams that carry no session
	// ID (v1 headers, which parse as session 0) — the escape hatch that
	// lets a gateway front one legacy point-to-point receiver. Nil counts
	// such datagrams as unknown-session drops. Like session handlers, it
	// must not retain the slice after returning.
	Sessionless func(datagram []byte)
}

// serverMetrics are the dispatch-path handles, resolved at construction.
type serverMetrics struct {
	reg       *obs.Registry
	malformed *obs.Counter
	unknown   *obs.Counter
}

// Server is the receiving half of the gateway: a sharded session table
// plus the dispatch path that routes every incoming datagram to its
// session. Safe for concurrent use; Dispatch is lock-free.
type Server struct {
	shards  []gwShard
	mask    uint64
	met     serverMetrics
	tenants *tenantSeries
	active  atomic.Int64

	sessionless func(datagram []byte)
}

// gwShard is one slice of the session table. Writers (Register and
// Unregister) serialize on mu and replace the map copy-on-write; the
// dispatch path loads the pointer atomically and reads the immutable map
// with no lock, so ingest goroutines are never blocked by registration.
// The trailing pad keeps neighboring shards' mutexes off one cache line.
type gwShard struct {
	mu sync.Mutex
	// sessions points at this shard's current immutable ID→session map.
	// guarded by mu for writers; readers use the atomic load only.
	sessions atomic.Pointer[map[uint64]*Session]
	_        [40]byte
}

// Session is one registered session: the routing entry datagrams with its
// ID are dispatched to.
type Session struct {
	id     uint64
	tenant string
	// handle receives this session's datagrams, possibly concurrently
	// (one call per ingest goroutine); it must not retain the slice.
	handle func(datagram []byte)
	// dgrams is the session's per-tenant datagram counter, resolved once
	// at Register so dispatch is one atomic increment.
	dgrams *obs.Counter
	srv    *Server
}

// ID returns the session's wire ID.
func (s *Session) ID() uint64 { return s.id }

// Tenant returns the tenant the session was registered under.
func (s *Session) Tenant() string { return s.tenant }

// Close unregisters the session; datagrams for its ID count as unknown
// afterwards. Closing twice is harmless.
func (s *Session) Close() { s.srv.unregister(s) }

// NewServer builds a session-routing server.
func NewServer(cfg ServerConfig) *Server {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	capN := cfg.TenantCap
	if capN <= 0 {
		capN = DefaultTenantCap
	}
	s := &Server{
		shards: make([]gwShard, n),
		mask:   uint64(n - 1),
		met: serverMetrics{
			reg:       reg,
			malformed: reg.Counter("remicss_gateway_malformed_total"),
			unknown:   reg.Counter("remicss_gateway_unknown_session_total"),
		},
		tenants:     newTenantSeries(reg, capN),
		sessionless: cfg.Sessionless,
	}
	empty := make(map[uint64]*Session)
	for i := range s.shards {
		s.shards[i].sessions.Store(&empty) //lint:allow mutexguard construction: the server is not shared until NewServer returns
	}
	return s
}

// Metrics returns the registry holding the gateway's series.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// Sessions returns the number of currently registered sessions.
func (s *Server) Sessions() int { return int(s.active.Load()) }

// Register adds a session under the given wire ID and tenant. handle
// receives the session's datagrams directly from the ingest goroutines
// (possibly concurrently — remicss.Receiver.HandleDatagram is safe) and
// must not retain the slice after returning. The ID must be nonzero and
// not in use.
func (s *Server) Register(id uint64, tenant string, handle func(datagram []byte)) (*Session, error) {
	if id == 0 {
		return nil, ErrZeroSession
	}
	if handle == nil {
		return nil, fmt.Errorf("gateway: nil handler for session %d", id)
	}
	th := s.tenants.handles(tenant)
	sess := &Session{id: id, tenant: tenant, handle: handle, dgrams: th.datagrams, srv: s}
	sh := &s.shards[shardix.Index(id, s.mask)]
	sh.mu.Lock()
	cur := *sh.sessions.Load()
	if _, dup := cur[id]; dup {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrDuplicateSession, id)
	}
	next := make(map[uint64]*Session, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[id] = sess
	sh.sessions.Store(&next)
	sh.mu.Unlock()
	s.active.Add(1)
	th.active.Add(1)
	return sess, nil
}

// unregister removes sess from the table, idempotently: only the entry
// that is actually this session is deleted, so closing twice (or closing
// after the ID was re-registered) removes nothing it should not.
func (s *Server) unregister(sess *Session) {
	sh := &s.shards[shardix.Index(sess.id, s.mask)]
	sh.mu.Lock()
	cur := *sh.sessions.Load()
	if cur[sess.id] != sess {
		sh.mu.Unlock()
		return
	}
	next := make(map[uint64]*Session, len(cur)-1)
	for k, v := range cur {
		if k != sess.id {
			next[k] = v
		}
	}
	sh.sessions.Store(&next)
	sh.mu.Unlock()
	s.active.Add(-1)
	s.tenants.handles(sess.tenant).active.Add(-1)
}

// Lookup returns the session registered under id, or nil. Lock-free.
func (s *Server) Lookup(id uint64) *Session {
	sh := &s.shards[shardix.Index(id, s.mask)]
	return (*sh.sessions.Load())[id]
}

// Dispatch routes one datagram to its session's handler: peek the session
// ID from the header (no full parse, no copy), look the session up on the
// lock-free path, and hand the datagram over. Malformed headers and
// unknown sessions are counted and dropped — exactly the failure
// containment a shared ingest path needs, since one tenant's garbage must
// not cost another tenant anything but the peek.
//
// Dispatch is the ServeBatch/ServeConcurrent handler; like them it does
// not retain the slice.
//
//remicss:noalloc
func (s *Server) Dispatch(datagram []byte) {
	id, ok := wire.PeekSession(datagram)
	if !ok {
		s.met.malformed.Inc()
		return
	}
	if id == 0 {
		if s.sessionless != nil {
			s.sessionless(datagram)
			return
		}
		s.met.unknown.Inc()
		return
	}
	sh := &s.shards[shardix.Index(id, s.mask)]
	sess := (*sh.sessions.Load())[id]
	if sess == nil {
		s.met.unknown.Inc()
		return
	}
	sess.dgrams.Inc()
	sess.handle(datagram)
}

// Attach starts consuming datagrams from the listener's sockets through
// the batched receive path (recvmmsg where available), one ingest
// goroutine per socket, all funneling into Dispatch. Returns immediately;
// closing the listener stops ingest.
func (s *Server) Attach(lis *udptrans.Listener) {
	lis.ServeBatch(s.Dispatch)
}

package remicss

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"remicss/internal/obs"
	"remicss/internal/shardix"
	"remicss/internal/sharing"
	"remicss/internal/slotpool"
	"remicss/internal/wire"
)

// Default reassembly parameters. The timeout mirrors IP fragment reassembly
// (generous relative to channel delays); the pending cap bounds memory.
const (
	DefaultReassemblyTimeout = 2 * time.Second
	DefaultMaxPending        = 4096
)

// closedMemoryFactor sizes the replay window (see recvShard.top) as a
// multiple of MaxPending.
const closedMemoryFactor = 4

// ReceiverStats counts receiver-side activity. It is a point-in-time
// snapshot assembled from the receiver's metric registry; the registry
// itself (see Receiver.Metrics) additionally exposes a one-way delay
// histogram, a datagram total, and a pending gauge.
//
// Each datagram lands in exactly one of the four Shares counters, decided in
// this order: a header that does not parse is invalid; then, from the header
// before the checksum is looked at, a share the replay window refuses is
// late, one whose (k, m) disagree with its symbol's is invalid and one whose
// index is held is a duplicate; a share whose checksum fails is invalid; the
// rest are received.
type ReceiverStats struct {
	// SharesReceived counts shares accepted into reassembly: checksum
	// verified, consistent with their symbol, index not yet held.
	SharesReceived int64
	// SharesInvalid counts datagrams whose header does not parse (too
	// short, bad magic, version or length field, bad (k, m, index), or M
	// above 32), whose (k, m) disagree with the symbol's first accepted
	// share, or whose checksum fails. A corrupted datagram whose header
	// reads late or duplicate is counted there instead. An authentication
	// tag failure is not counted here but in CombineFailures.
	SharesInvalid int64
	// SharesDuplicate counts shares for an index already held, read from
	// the header before the checksum.
	SharesDuplicate int64
	// SharesLate counts shares the replay window refused, read from the
	// header before the checksum: their symbol was already delivered, or
	// its seq lies closedMemoryFactor × MaxPending or more behind the
	// highest delivered. A share of an evicted incomplete symbol is not
	// late: it re-admits the seq.
	SharesLate int64
	// SymbolsDelivered counts symbols reconstructed and handed to the
	// callback.
	SymbolsDelivered int64
	// SymbolsEvicted counts incomplete symbols dropped by timeout or
	// memory pressure.
	SymbolsEvicted int64
	// CombineFailures counts reconstruction errors: share data that passed
	// the checksum but not the scheme, such as an authentication tag that
	// fails under a mismatched key or on a forged share, or a scheme
	// mismatch.
	CombineFailures int64
}

// ReceiverConfig configures a Receiver. Scheme, Clock, and OnSymbol are
// required.
type ReceiverConfig struct {
	// Scheme reconstructs symbols from shares; must match the sender's.
	Scheme sharing.Scheme
	// Clock supplies arrival timestamps on the same timeline as the
	// sender's clock.
	Clock func() time.Duration
	// OnSymbol is invoked for every reconstructed symbol with its one-way
	// delay (reconstruction time minus the sender's timestamp). The payload
	// is lent for the duration of the call: it lives in a pooled buffer that
	// is wiped to zeros when OnSymbol returns and then reconstructs a later
	// symbol, so a callback that keeps the bytes copies them. OnSymbol runs
	// outside the reassembly shard locks but under a dedicated delivery
	// mutex — deliveries arrive one at a time, so the callback needs no
	// internal locking — and it must not call back into the Receiver.
	OnSymbol func(seq uint64, payload []byte, delay time.Duration)
	// Timeout evicts partial symbols idle longer than this. Defaults to
	// DefaultReassemblyTimeout.
	Timeout time.Duration
	// MaxPending bounds the number of incomplete symbols held (a delivered
	// symbol holds nothing); the oldest are evicted first. It also sets the
	// replay horizon, closedMemoryFactor × MaxPending seqs. Defaults to
	// DefaultMaxPending.
	MaxPending int
	// Metrics receives the receiver's counters, delay histogram, and
	// pending gauge. Nil gives the receiver a private registry; Stats and
	// Metrics work either way.
	Metrics *obs.Registry
	// Trace, when non-nil, receives symbol-delivered and symbol-evicted
	// events. Nil disables tracing.
	Trace *obs.Trace
	// Shards is the number of independent reassembly shards, rounded up to
	// a power of two and capped at maxReceiverShards. Incoming shares are
	// routed to a shard by a mixed hash of their sequence number, so
	// concurrent transport goroutines (udptrans.ServeConcurrent) contend
	// per shard rather than on one receiver-wide lock. 0 picks a default
	// sized to GOMAXPROCS at construction time. 1 restores the single-lock
	// receiver, whose receiver-wide oldest-first eviction order some tests
	// pin down.
	Shards int
}

// receiverMetrics bundles every handle the ingest path touches. Handles
// are resolved once at construction; ingest increments are single atomic
// operations.
type receiverMetrics struct {
	reg             *obs.Registry
	datagrams       *obs.Counter
	sharesReceived  *obs.Counter
	sharesInvalid   *obs.Counter
	sharesDuplicate *obs.Counter
	sharesLate      *obs.Counter
	symbolsDeliv    *obs.Counter
	symbolsEvicted  *obs.Counter
	combineFailures *obs.Counter
	pending         *obs.Gauge
	delay           *obs.Histogram
}

// newReceiverMetrics registers the receiver series.
func newReceiverMetrics(reg *obs.Registry) receiverMetrics {
	return receiverMetrics{
		reg:             reg,
		datagrams:       reg.Counter("remicss_receiver_datagrams_total"),
		sharesReceived:  reg.Counter("remicss_receiver_shares_received_total"),
		sharesInvalid:   reg.Counter("remicss_receiver_shares_invalid_total"),
		sharesDuplicate: reg.Counter("remicss_receiver_shares_duplicate_total"),
		sharesLate:      reg.Counter("remicss_receiver_shares_late_total"),
		symbolsDeliv:    reg.Counter("remicss_receiver_symbols_delivered_total"),
		symbolsEvicted:  reg.Counter("remicss_receiver_symbols_evicted_total"),
		combineFailures: reg.Counter("remicss_receiver_combine_failures_total"),
		pending:         reg.Gauge("remicss_receiver_pending"),
		delay:           reg.Histogram("remicss_receiver_symbol_delay_ns", obs.DefaultDelayBounds()),
	}
}

// maxReceiverShards caps the shard count: past this, lock contention is no
// longer the bottleneck and more shards only multiply per-shard series.
const maxReceiverShards = 64

// Receiver is the receiving half of the protocol: a reassembly buffer over
// incoming share datagrams. It is safe for concurrent use and scales with
// ingest goroutines: reassembly state is split into seq-hashed shards, each
// with its own mutex, so HandleDatagram calls for different shards do not
// contend; counters are atomic and readable without any lock, and symbol
// delivery is serialized by a dedicated mutex taken outside the shard
// locks.
//
// Steady-state ingest allocates nothing. A symbol is reconstructed into a
// buffer from the process-wide secretPool, lent to OnSymbol for the call and
// wiped when it returns. A datagram is classified from its header first:
// a share whose symbol is delivered or whose index is held costs a header
// read and no checksum. A share that can help has its checksum verified;
// then, unless it completes its symbol, its payload is copied out of the
// transport's datagram into a buffer its symbol's entry owns. The completing
// share is combined straight from the datagram, which HandleDatagram reads
// only during the call, so a symbol fills at most k−1 share buffers. The
// entry leaves the shard the moment the symbol is delivered, fails to
// combine or is evicted, taking its buffers into the process-wide
// entryPool, where the next symbol of any receiver overwrites them; of a
// delivered symbol a shard keeps one bit.
type Receiver struct {
	cfg   ReceiverConfig
	met   receiverMetrics
	trace *obs.Trace

	// shards holds the reassembly state, indexed by a mixed hash of the
	// sequence number; len(shards) is a power of two and shardMask is
	// len(shards)-1. The slice itself is read-only after construction.
	shards    []recvShard
	shardMask uint64

	// deliverMu serializes OnSymbol callbacks (and their trace events)
	// across shards. Lock order: a shard mutex is always released before
	// deliverMu is taken, never the reverse.
	deliverMu sync.Mutex

	// Feedback report state (see feedback.go).
	reportMu    sync.Mutex
	reportEpoch uint64        // guarded by reportMu
	lastReport  ReceiverStats // guarded by reportMu
}

// recvShard is one slice of the reassembly state. Every field below the
// mutex is the sharded counterpart of what used to be a receiver-wide
// structure; a shard is only ever touched with its own mutex held.
type recvShard struct {
	mu sync.Mutex

	// pending maps seq -> reassembly entry; oldest and newest are the ends
	// of the admission order, linked through the entries themselves, for
	// timeout scans and memory-pressure eviction (oldest first within the
	// shard).
	pending map[uint64]*entry // guarded by mu //remicss:secret
	oldest  *entry            // guarded by mu
	newest  *entry            // guarded by mu

	// The anti-replay window of RFC 4303 §3.4.3 over this shard's seqs: top
	// is the highest seq delivered here, window one bit for each of the span
	// seqs ending at top (bit seq mod span), set once that seq is delivered.
	// Only a successful combine moves either. span is closedMemoryFactor ×
	// MaxPending; read-only after construction.
	top    uint64   // guarded by mu
	window []uint64 // guarded by mu
	span   uint64

	// maxPending is this shard's slice of ReceiverConfig.MaxPending
	// (ceiling division); read-only after construction.
	maxPending int

	// Per-shard series: reassembly depth and evictions for this shard
	// only. The unlabeled receiver-wide series remain the exact aggregates
	// (the pending gauge is maintained by ±1 deltas on the same admissions
	// and drops that move these), which the obs-vs-netem cross-validation
	// test checks.
	depth     *obs.Gauge
	evictions *obs.Counter

	// Pad shards to separate cache lines so one shard's mutex traffic does
	// not false-share with its neighbors.
	_ [64]byte
}

// entry is one incomplete symbol, in its shard's pending map from its first
// share until it is delivered, fails to combine or is evicted; prev and next
// link the shard's admission order. The payload buffers behind shares, in
// use or spare, are the entry's own and go with it through entryPool:
// until a share overwrites one, it holds share bytes of whichever session of
// this process had the entry last.
type entry struct {
	seq        uint64
	k, m       int
	sentAt     int64
	arrived    time.Duration   // first-share arrival, for timeout eviction
	shares     []sharing.Share //remicss:secret
	haveIdx    uint32          // bitmask of share indices held; ingest bounds Index < M ≤ maxLinks
	prev, next *entry          // toward oldest, toward newest
}

// entryPool recycles reassembly entries, with their share buffers, across
// symbols and across every receiver in the process.
var entryPool slotpool.Pool[entry]

// secretPool recycles the buffers symbols are reconstructed into, across
// symbols and across every receiver in the process. A buffer at rest is all
// zeros: HandleDatagram wipes it when the callback returns.
var secretPool slotpool.Pool[[]byte]

// bit locates seq's bit in the replay window.
// Callers hold sh.mu.
func (sh *recvShard) bit(seq uint64) (word *uint64, mask uint64) {
	i := seq % sh.span
	return &sh.window[i/64], 1 << (i % 64)
}

// refuses reports whether the replay window refuses seq: delivered already,
// or so far behind top that the window no longer tells.
// Callers hold sh.mu.
func (sh *recvShard) refuses(seq uint64) bool {
	word, mask := sh.bit(seq)
	return seq <= sh.top && (sh.top-seq >= sh.span || *word&mask != 0)
}

// markDelivered sets seq's bit, after moving top up to seq and clearing the
// bit of every seq that thereby enters the window: it is the bit of one that
// leaves. The caller has checked !refuses(seq).
// Callers hold sh.mu.
func (sh *recvShard) markDelivered(seq uint64) {
	if seq > sh.top && seq-sh.top >= sh.span {
		clear(sh.window)
		sh.top = seq
	}
	for sh.top < seq {
		sh.top++
		word, mask := sh.bit(sh.top)
		*word &^= mask
	}
	word, mask := sh.bit(seq)
	*word |= mask
}

// pushNewest appends e to the shard's admission order.
// Callers hold sh.mu.
func (sh *recvShard) pushNewest(e *entry) {
	e.prev, e.next = sh.newest, nil
	if sh.newest != nil {
		sh.newest.next = e
	} else {
		sh.oldest = e
	}
	sh.newest = e
}

// unlink removes e from the shard's admission order.
// Callers hold sh.mu.
func (sh *recvShard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.oldest = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.newest = e.prev
	}
	e.prev, e.next = nil, nil
}

// NewReceiver builds a receiver.
//
//lint:allow mutexguard construction: the shards are not published to any other goroutine until NewReceiver returns
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("remicss: nil scheme")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("remicss: nil clock")
	}
	if cfg.OnSymbol == nil {
		return nil, fmt.Errorf("remicss: nil symbol callback")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultReassemblyTimeout
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxReceiverShards {
		n = maxReceiverShards
	}
	// Round up to a power of two so shard routing is a mask, not a mod.
	for n&(n-1) != 0 {
		n++
	}
	r := &Receiver{
		cfg:       cfg,
		met:       newReceiverMetrics(reg),
		trace:     cfg.Trace,
		shards:    make([]recvShard, n),
		shardMask: uint64(n - 1),
	}
	perShard := (cfg.MaxPending + n - 1) / n
	for i := range r.shards {
		sh := &r.shards[i]
		sh.pending = make(map[uint64]*entry)
		sh.span = uint64(closedMemoryFactor * cfg.MaxPending)
		sh.window = make([]uint64, (sh.span+63)/64)
		sh.maxPending = perShard
		label := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
		sh.depth = reg.Gauge("remicss_receiver_shard_pending", label)
		sh.evictions = reg.Counter("remicss_receiver_shard_evictions_total", label)
	}
	return r, nil
}

// shardFor routes a sequence number to its shard. Senders assign seqs
// sequentially, so the raw low bits would stripe neighbors onto neighboring
// shards but correlate with any power-of-two traffic pattern; the shared
// splitmix64 finalizer (internal/shardix, also used by the gateway's
// session table) decorrelates them before masking.
func (r *Receiver) shardFor(seq uint64) *recvShard {
	return &r.shards[shardix.Index(seq, r.shardMask)]
}

// Metrics returns the registry holding the receiver's series (the one
// from ReceiverConfig.Metrics, or the private registry created in its
// absence), for exposition via internal/obs writers.
func (r *Receiver) Metrics() *obs.Registry { return r.met.reg }

// Stats returns a snapshot of the receiver counters. Counters are atomic,
// so the snapshot does not block concurrent ingest.
func (r *Receiver) Stats() ReceiverStats {
	return ReceiverStats{
		SharesReceived:   r.met.sharesReceived.Value(),
		SharesInvalid:    r.met.sharesInvalid.Value(),
		SharesDuplicate:  r.met.sharesDuplicate.Value(),
		SharesLate:       r.met.sharesLate.Value(),
		SymbolsDelivered: r.met.symbolsDeliv.Value(),
		SymbolsEvicted:   r.met.symbolsEvicted.Value(),
		CombineFailures:  r.met.combineFailures.Value(),
	}
}

// Pending returns the number of incomplete symbols held across all shards:
// those with at least one share and fewer than k, not yet timed out.
func (r *Receiver) Pending() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += len(sh.pending)
		sh.mu.Unlock()
	}
	return n
}

// HandleDatagram processes one received share datagram. The buffer is only
// read, never retained or mutated, so callers may reuse it immediately.
// Concurrent calls from multiple transport goroutines contend only when
// their datagrams hash to the same reassembly shard; completed symbols are
// delivered one at a time under a separate delivery mutex.
func (r *Receiver) HandleDatagram(buf []byte) {
	r.met.datagrams.Inc()
	now := r.cfg.Clock()

	// The header is parsed without the checksum, read-only and outside any
	// lock; ingest verifies the checksum only of a share that can help.
	pkt, err := wire.UnmarshalHeader(buf)
	if err != nil || pkt.M > maxLinks {
		// The wire format admits indices up to 254 but haveIdx is one bit
		// per link: a forged wide share would slip past the duplicate
		// check, so it may neither create nor fill an entry.
		r.met.sharesInvalid.Inc()
		return
	}
	sb, secret, delay, deliver := r.ingest(r.shardFor(pkt.Seq), buf, &pkt, now)
	if sb == nil {
		return
	}
	if deliver {
		// The shard lock is already released: reconstruction of other
		// symbols proceeds while this delivery runs. deliverMu keeps the
		// OnSymbol contract — one callback at a time — across shards.
		r.deliverMu.Lock()
		r.trace.Record(obs.EventSymbolDelivered, -1, now, pkt.Seq, int64(delay))
		r.cfg.OnSymbol(pkt.Seq, secret, delay) //lint:allow lockorder deliverMu exists to serialize the delivery callback; OnSymbol must not reenter the receiver
		r.deliverMu.Unlock()
	}
	// The plaintext goes with the call. The pool's own buffer is wiped, not
	// the slice the scheme returned, so nothing but that buffer is written.
	clear(*sb)
	secretPool.Put(sb)
}

// ingest runs the reassembly state machine for one share, whose header pkt
// was parsed from the datagram buf, under its shard's lock. A share that
// cannot help is counted late, invalid or duplicate from its header alone;
// dropping on an unverified header only ever drops. Only a share whose
// checksum verifies creates an entry, sets a held bit or is copied. When
// this share completes the symbol, it returns the pooled buffer the symbol
// was combined into, which the caller wipes and pools after releasing the
// shard lock, and, if the combine succeeded, the secret to deliver.
func (r *Receiver) ingest(sh *recvShard, buf []byte, pkt *wire.SharePacket, now time.Duration) (sb *[]byte, secret []byte, delay time.Duration, deliver bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()

	r.evictExpired(sh, now)

	if sh.refuses(pkt.Seq) {
		// Checked before the lookup: an incomplete symbol the window has
		// overtaken takes no more shares and leaves by timeout.
		r.met.sharesLate.Inc()
		return nil, nil, 0, false
	}
	e := sh.pending[pkt.Seq]
	if e != nil && (int(pkt.K) != e.k || int(pkt.M) != e.m) {
		// Shares of one symbol must agree on parameters; the first share
		// admitted wins and inconsistent ones are discarded.
		r.met.sharesInvalid.Inc()
		return nil, nil, 0, false
	}
	if e != nil && e.haveIdx&(1<<uint(pkt.Index)) != 0 {
		r.met.sharesDuplicate.Inc()
		return nil, nil, 0, false
	}
	if wire.VerifyChecksum(buf) != nil {
		r.met.sharesInvalid.Inc()
		return nil, nil, 0, false
	}
	if e == nil {
		e = r.open(sh, pkt, now)
	}
	e.haveIdx |= 1 << uint(pkt.Index)
	r.met.sharesReceived.Inc()
	n := len(e.shares)
	if n == cap(e.shares) {
		e.shares = append(e.shares, sharing.Share{})
	}
	e.shares = e.shares[:n+1]
	slot := &e.shares[n]
	slot.Index = int(pkt.Index)
	if n+1 < e.k {
		// The copy goes into the buffer the last symbol here left, if it fits.
		slot.Data = append(slot.Data[:0], pkt.Payload...)
		return nil, nil, 0, false
	}
	// The completing share is combined from the datagram itself, which is
	// readable for the duration of the call; the slot's own buffer goes back
	// before the entry is pooled. The secret goes into a pooled buffer as
	// long as a share, which no scheme's secret outgrows (see
	// sharing.Scheme), so the combine writes nothing else.
	sb = secretPool.Get()
	if sb == nil {
		sb = new([]byte)
	}
	if cap(*sb) < len(pkt.Payload) {
		*sb = make([]byte, len(pkt.Payload))
	}
	*sb = (*sb)[:len(pkt.Payload)]
	own := slot.Data
	slot.Data = pkt.Payload
	secret, err := sharing.CombineInto(r.cfg.Scheme, (*sb)[:0], e.shares, e.k, e.m)
	slot.Data = own
	delay = now - time.Duration(e.sentAt)
	r.remove(sh, e)
	if err != nil {
		// Nothing is remembered: the shares that failed may have been
		// forged, and the honest ones still to come may complete the symbol.
		r.met.combineFailures.Inc()
		return sb, nil, 0, false
	}
	sh.markDelivered(pkt.Seq)
	r.met.symbolsDeliv.Inc()
	r.met.delay.Observe(int64(delay))
	return sb, secret, delay, true
}

// open admits a pooled entry for pkt's symbol, first making room under the
// shard's slice of the memory cap; pkt's (k, m) become the symbol's.
// Callers hold sh.mu.
func (r *Receiver) open(sh *recvShard, pkt *wire.SharePacket, now time.Duration) *entry {
	r.admit(sh)
	e := entryPool.Get()
	if e == nil {
		e = new(entry)
	}
	e.seq = pkt.Seq
	e.k, e.m = int(pkt.K), int(pkt.M)
	e.sentAt = pkt.SentAt
	e.arrived = now
	e.haveIdx = 0
	sh.pushNewest(e)
	sh.pending[pkt.Seq] = e
	r.met.pending.Add(1)
	sh.depth.Set(int64(len(sh.pending)))
	return e
}

// Tick performs timeout eviction across every shard. Ingest evicts only in
// the shard a datagram lands in, so a quiet receiver keeps its incomplete
// symbols, their share buffers and the pending gauge until traffic returns
// unless something ticks it. Serve runs a ticker; a caller who builds a
// receiver with NewReceiver, as on the gateway path, must call Tick
// periodically itself (every half timeout bounds a symbol's stay at 1.5
// timeouts).
func (r *Receiver) Tick() {
	now := r.cfg.Clock()
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		r.evictExpired(sh, now)
		sh.mu.Unlock()
	}
}

// evictExpired evicts the shard's symbols older than the timeout, oldest first.
// Callers hold sh.mu.
func (r *Receiver) evictExpired(sh *recvShard, now time.Duration) {
	for e := sh.oldest; e != nil && now-e.arrived >= r.cfg.Timeout; e = sh.oldest {
		r.evict(sh, e, now)
	}
}

// admit makes room for a new entry under the shard's slice of the memory
// cap.
// Callers hold sh.mu.
func (r *Receiver) admit(sh *recvShard) {
	for len(sh.pending) >= sh.maxPending {
		r.evict(sh, sh.oldest, sh.oldest.arrived+r.cfg.Timeout)
	}
}

// evict gives up on one incomplete symbol: counted, traced at now, not
// remembered, so later shares may admit its seq again.
func (r *Receiver) evict(sh *recvShard, e *entry, now time.Duration) {
	r.met.symbolsEvicted.Inc()
	sh.evictions.Inc()
	r.trace.Record(obs.EventSymbolEvicted, -1, now, e.seq, int64(len(e.shares)))
	r.remove(sh, e)
}

// remove takes one entry out of its shard and pools it, buffers and all.
// Callers hold sh.mu.
func (r *Receiver) remove(sh *recvShard, e *entry) {
	sh.unlink(e)
	delete(sh.pending, e.seq)
	r.met.pending.Add(-1)
	sh.depth.Set(int64(len(sh.pending)))
	e.shares = e.shares[:0]
	entryPool.Put(e)
}

package remicss

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"remicss/internal/obs"
	"remicss/internal/sharing"
	"remicss/internal/slotpool"
	"remicss/internal/wire"
)

// SenderStats counts sender-side activity. It is a point-in-time snapshot
// assembled from the sender's metric registry; the registry itself (see
// Sender.Metrics) additionally breaks shares down per channel and
// histograms share sizes.
type SenderStats struct {
	// SymbolsSent counts symbols whose shares were handed to the links.
	SymbolsSent int64
	// SymbolsStalled counts symbols dropped because the chooser could not
	// find enough ready channels (sender-side backpressure).
	SymbolsStalled int64
	// SharesSent counts shares accepted by links.
	SharesSent int64
	// SharesDropped counts shares rejected by a full link queue.
	SharesDropped int64
}

// SenderConfig configures a Sender. Scheme, Chooser, and Clock are
// required.
type SenderConfig struct {
	// Scheme splits symbols into shares. Splits run concurrently outside
	// the sender's locks, so the scheme — including its randomness source —
	// must be safe for concurrent use. The default drbg.Shared pool is;
	// a seeded *math/rand.Rand (deterministic tests) is not, and such
	// senders must be driven from a single goroutine.
	Scheme sharing.Scheme
	// Chooser picks (k, M) per symbol.
	Chooser Chooser
	// Clock supplies send timestamps; in simulation this is the virtual
	// clock, over UDP it is wall time since an epoch shared with the
	// receiver.
	Clock func() time.Duration
	// Metrics receives the sender's counters and histograms. Nil gives
	// the sender a private registry; Stats and Metrics work either way.
	// Sharing one registry between a sender, receiver, and transport
	// links composes their series into one exposition endpoint.
	Metrics *obs.Registry
	// Trace, when non-nil, receives share-sent and datagram-dropped
	// events with per-channel labels. Nil disables tracing.
	Trace *obs.Trace
	// FirstSeq is the first sequence number the sender assigns. A sender
	// rebuilt mid-session (e.g. to change parameters) must continue the
	// previous sender's sequence space (pass its Seq() here): the receiver
	// refuses every sequence number it has delivered or that lies behind its
	// replay window, so restarting from zero would discard the reused range
	// as late shares.
	FirstSeq uint64
	// Health, when non-nil, receives every share send outcome
	// (HealthTracker.ObserveSend), driving the per-channel failure EWMA
	// and failover state machine. Pair it with a HealthChooser so the
	// schedule actually avoids channels the tracker declares down.
	Health *HealthTracker
	// Session, when nonzero, stamps every share with this gateway session
	// ID using the v2 wire header, so a multi-tenant gateway sharing one
	// socket pool can dispatch each datagram to its session without parsing
	// the full packet. Zero keeps the v1 header, byte-compatible with
	// receivers that predate the gateway.
	Session uint64
}

// senderChannelCounters are the per-channel metric handles, resolved once
// at construction so the hot path indexes a slice instead of hashing
// labels.
type senderChannelCounters struct {
	sent    *obs.Counter
	dropped *obs.Counter
}

// senderMetrics bundles every handle the send path touches.
type senderMetrics struct {
	reg            *obs.Registry
	symbolsSent    *obs.Counter
	symbolsStalled *obs.Counter
	shareBytes     *obs.Histogram
	perChan        []senderChannelCounters
}

// newSenderMetrics registers the sender series for n channels.
func newSenderMetrics(reg *obs.Registry, n int) senderMetrics {
	m := senderMetrics{
		reg:            reg,
		symbolsSent:    reg.Counter("remicss_sender_symbols_sent_total"),
		symbolsStalled: reg.Counter("remicss_sender_symbols_stalled_total"),
		shareBytes:     reg.Histogram("remicss_sender_share_bytes", obs.DefaultSizeBounds()),
		perChan:        make([]senderChannelCounters, n),
	}
	for i := range m.perChan {
		label := obs.Label{Key: "channel", Value: strconv.Itoa(i)}
		m.perChan[i] = senderChannelCounters{
			sent:    reg.Counter("remicss_sender_shares_sent_total", label),
			dropped: reg.Counter("remicss_sender_shares_dropped_total", label),
		}
	}
	return m
}

// Sender is the sending half of the protocol. It is safe for concurrent
// use and, unlike the earlier single-mutex design, scales with callers:
// sequence numbers are assigned atomically, split and marshal run outside
// any lock on per-caller scratch, the chooser (the only remaining shared
// mutable state) is serialized by its own small mutex, and each link has
// its own send lock so concurrent callers fanning out to disjoint links
// proceed in parallel. Counters are atomic and readable without any lock.
//
// The steady-state Send path reuses a scratch's datagram buffers, one per
// share, and splits each share straight into its datagram, so every share
// byte is written once and the replication and XOR schemes transmit without
// heap allocation even with metrics and tracing on; links must therefore not
// retain the datagram slice after Send returns (see the Link contract). The
// scratch belongs to the call, not the sender: claimed from the process-wide
// sendScratchPool when Send starts, returned when it ends. Idle senders hold
// no buffers, and between calls a scratch holds the shares and datagrams of
// whichever sender of this process had it last.
//
// Because splits now run concurrently, the configured Scheme — including
// its randomness source — must be safe for concurrent use. The default
// drbg.Shared pool is; a seeded *math/rand.Rand (test determinism) is
// not, and such senders must be driven from one goroutine.
type Sender struct {
	cfg    SenderConfig
	links  []Link
	met    senderMetrics
	trace  *obs.Trace
	health *HealthTracker

	// seq is the next sequence number to assign. Atomic: Send claims
	// numbers with a single Add, no lock held.
	seq atomic.Uint64

	// chooser is the shared channel-selection state (DynamicChooser carries
	// a PRNG and scratch). guarded by chooserMu.
	chooser   Chooser
	chooserMu sync.Mutex

	// linkMu[i] serializes Send calls on links[i] only, so concurrent
	// symbols contend per link rather than per sender.
	linkMu []sync.Mutex
}

// marshalShare encodes pkt in the sender's wire version: the v2
// session-bearing header when the sender is bound to a gateway session,
// the v1 header otherwise.
//
//remicss:noalloc
func (s *Sender) marshalShare(dst []byte, pkt wire.SharePacket) ([]byte, error) {
	if s.cfg.Session != 0 {
		pkt.Session = s.cfg.Session
		return wire.AppendMarshalSession(dst, pkt)
	}
	return wire.AppendMarshal(dst, pkt)
}

// sendScratchPool holds the per-call scratch of every sender in the process.
var sendScratchPool slotpool.Pool[sendScratch]

// getScratch claims a working set for one Send call.
func getScratch() *sendScratch {
	if sc := sendScratchPool.Get(); sc != nil {
		return sc
	}
	return new(sendScratch)
}

// sendScratch is one Send call's working set: the split output and one
// datagram buffer per share. place points each share's Data at its
// datagram's payload region, so a scheme that reuses Data capacity (every
// scheme here) splits the share where it is sent from, and marshalling it
// writes only the header and checksum.
type sendScratch struct {
	shares []sharing.Share
	dgrams [][]byte //remicss:secret
}

// place readies m shares for a split into the datagrams, whose headers are
// hdr bytes: share j's Data is the empty slice at dgrams[j][hdr], or nil
// while that datagram is too small to hold a header (the first use, when
// the split and the marshal size it).
//
//remicss:noalloc
func (sc *sendScratch) place(m, hdr int) {
	for len(sc.dgrams) < m {
		sc.dgrams = append(sc.dgrams, nil)
	}
	sc.shares = sc.shares[:0]
	for _, d := range sc.dgrams[:m] {
		var data []byte
		if cap(d) >= hdr {
			data = d[hdr:hdr]
		}
		sc.shares = append(sc.shares, sharing.Share{Data: data})
	}
}

// maxLinks is the width of the channel masks (Chooser results, the
// receiver's held-index set): a sender has at most this many links, so no
// honest share carries M above it.
const maxLinks = 32

// NewSender builds a sender over the given links.
func NewSender(cfg SenderConfig, links []Link) (*Sender, error) {
	if len(links) == 0 {
		return nil, ErrNoLinks
	}
	if len(links) > maxLinks {
		return nil, fmt.Errorf("remicss: %d links exceeds the %d-channel mask limit", len(links), maxLinks)
	}
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("remicss: nil scheme")
	}
	if cfg.Chooser == nil {
		return nil, fmt.Errorf("remicss: nil chooser")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("remicss: nil clock")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Sender{
		cfg:     cfg,
		links:   links,
		met:     newSenderMetrics(reg, len(links)),
		trace:   cfg.Trace,
		health:  cfg.Health,
		chooser: cfg.Chooser,
		linkMu:  make([]sync.Mutex, len(links)),
	}
	s.seq.Store(cfg.FirstSeq)
	return s, nil
}

// Metrics returns the registry holding the sender's series (the one from
// SenderConfig.Metrics, or the private registry created in its absence),
// for exposition via internal/obs writers.
func (s *Sender) Metrics() *obs.Registry { return s.met.reg }

// Stats returns a snapshot of the sender counters. Counters are atomic,
// so the snapshot does not block concurrent Send calls; per-channel
// counts are summed into the aggregate fields.
func (s *Sender) Stats() SenderStats {
	st := SenderStats{
		SymbolsSent:    s.met.symbolsSent.Value(),
		SymbolsStalled: s.met.symbolsStalled.Value(),
	}
	for i := range s.met.perChan {
		st.SharesSent += s.met.perChan[i].sent.Value()
		st.SharesDropped += s.met.perChan[i].dropped.Value()
	}
	return st
}

// Send transmits one source symbol. It returns ErrBackpressure if no
// channel subset is currently available (the symbol is not queued anywhere;
// best-effort semantics), or a split/encoding error. Safe to call from
// multiple goroutines: the chooser decision is the only serialized step,
// split and marshal run on pooled per-caller scratch, and the fan-out takes
// only the per-link send locks. Sequence numbers are claimed atomically
// after a successful split, so each caller's own sequence is monotonic but
// concurrent callers interleave without a defined order (they race in real
// time anyway).
//
//remicss:noalloc
//remicss:secret payload
func (s *Sender) Send(payload []byte) error {
	sc := getScratch()
	defer sendScratchPool.Put(sc)

	s.chooserMu.Lock()
	k, mask, ok := s.chooser.Choose(s.links) //lint:allow lockorder chooserMu exists to serialize Choose; choosers are pure policy and take no locks
	s.chooserMu.Unlock()
	if !ok {
		s.met.symbolsStalled.Inc()
		return ErrBackpressure
	}
	m := bits.OnesCount32(mask)

	hdr := wire.HeaderSize
	if s.cfg.Session != 0 {
		hdr = wire.HeaderSizeV2
	}
	sc.place(m, hdr)
	shares, err := sharing.SplitInto(s.cfg.Scheme, payload, k, m, sc.shares)
	if err != nil {
		return fmt.Errorf("remicss: splitting symbol: %w", err)
	}
	sc.shares = shares

	seq := s.seq.Add(1) - 1
	now := s.cfg.Clock()
	// The committed schedule is ground truth for the threshold-floor
	// invariant: chaos tests assert Value>>8 (the threshold) never drops
	// below ⌊κ⌋ across every scheduled symbol.
	s.trace.Record(obs.EventSymbolScheduled, -1, now, seq, int64(k)<<8|int64(m))

	shareIdx := 0
	for i := 0; i < len(s.links); i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		pkt := wire.SharePacket{
			Seq:     seq,
			K:       uint8(k),
			M:       uint8(m),
			Index:   uint8(shares[shareIdx].Index),
			SentAt:  int64(now),
			Payload: shares[shareIdx].Data,
		}
		// The share usually sits in its datagram already, and the marshal
		// adds the header around it. Links do not retain the datagram after
		// Send returns, so the next symbol may overwrite it.
		dgram, err := s.marshalShare(sc.dgrams[shareIdx][:0], pkt)
		if err != nil {
			return fmt.Errorf("remicss: encoding share: %w", err)
		}
		sc.dgrams[shareIdx] = dgram
		// Size and events are recorded only after a successful marshal: an
		// encoding error must not leave a phantom share size in the
		// histogram.
		s.met.shareBytes.Observe(int64(len(dgram)))
		s.linkMu[i].Lock()
		delivered := s.links[i].Send(dgram) //lint:allow lockorder linkMu[i] exists to serialize this link's Send; transports never call back into the sender
		s.linkMu[i].Unlock()
		if delivered {
			s.met.perChan[i].sent.Inc()
			s.trace.Record(obs.EventShareSent, int32(i), now, seq, int64(len(dgram)))
		} else {
			s.met.perChan[i].dropped.Inc()
			s.trace.Record(obs.EventDatagramDropped, int32(i), now, seq, int64(len(dgram)))
		}
		s.health.ObserveSend(i, delivered)
		shareIdx++
	}
	s.met.symbolsSent.Inc()
	return nil
}

// SendBatch transmits a burst of source symbols, one Send per payload in
// order: a convenience loop, not a second path (taking the chooser and link
// locks once per burst instead measures about 1 % of a symbol end to end). A
// stalled payload is counted and skipped, a split or encoding error skips
// that payload, and later payloads are still sent.
//
// It returns the number of symbols handed to the links and the first hard
// error (split or marshal); if no hard error occurred but at least one
// payload stalled, it returns ErrBackpressure.
//
//remicss:secret payloads
func (s *Sender) SendBatch(payloads [][]byte) (int, error) {
	var firstErr error
	sent, stalled := 0, false
	for _, payload := range payloads {
		switch err := s.Send(payload); {
		case err == nil:
			sent++
		case err == ErrBackpressure:
			stalled = true
		case firstErr == nil:
			firstErr = err
		}
	}
	if firstErr == nil && stalled {
		firstErr = ErrBackpressure
	}
	return sent, firstErr
}

// Seq returns the next sequence number to be assigned (FirstSeq plus the
// number of symbols sent; stalled attempts do not consume a sequence
// number). Pass it as a replacement sender's FirstSeq to continue the
// session's sequence space.
func (s *Sender) Seq() uint64 {
	return s.seq.Load()
}

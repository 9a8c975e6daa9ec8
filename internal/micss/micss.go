// Package micss implements the MICSS baseline protocol (Pohly & McDaniel,
// GLOBECOM 2015), the predecessor the paper redesigns ReMICSS from.
//
// MICSS fixes κ = μ = n: every symbol is split with a perfect n-of-n scheme
// (XOR pads) and one share travels on every channel. Share transport is
// reliable: lost shares are retransmitted on the same channel after a
// timeout, which stalls the symbol until every share has arrived. The
// paper's Section V observes that this wastes network resources whenever
// k < m would have sufficed; this package exists so benchmarks can measure
// that gap against ReMICSS.
//
// The implementation runs on the internal/netem virtual-time engine. The
// acknowledgment path is modeled as a per-channel reverse link with the
// same delay but no loss or rate limit — acks are tiny compared to shares,
// so their serialization is negligible, and modeling ack loss would only
// add retransmissions that make MICSS look worse; the comparison stays
// conservative.
package micss

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"remicss/internal/netem"
	"remicss/internal/sharing"
)

// Config parameterizes a MICSS session.
type Config struct {
	// Links are the forward channels, one share per channel per symbol.
	Links []netem.LinkConfig
	// RTO is the retransmission timeout for an unacknowledged share.
	// Defaults to 4x the largest channel delay plus 100ms if zero.
	RTO time.Duration
	// Window is the maximum number of symbols in flight. Defaults to 64.
	Window int
	// Seed drives the loss processes and the sharing scheme.
	Seed int64
}

// Stats summarizes a run.
type Stats struct {
	// SymbolsDelivered counts fully reassembled symbols.
	SymbolsDelivered int64
	// SharesSent counts share transmissions, including retransmissions.
	SharesSent int64
	// Retransmissions counts re-sent shares.
	Retransmissions int64
	// MeanDelay is the average time from first transmission of a symbol to
	// its completion.
	MeanDelay time.Duration
}

// Session is one MICSS sender/receiver pair over emulated channels.
type Session struct {
	eng    *netem.Engine
	cfg    Config
	scheme *sharing.XOR
	links  []*netem.Link
	n      int

	nextSeq   uint64
	inFlight  map[uint64]*symbolState
	delivered int64
	sharesTx  int64
	retx      int64
	delaySum  time.Duration

	pending [][]byte // symbols waiting for window space //remicss:secret
}

type symbolState struct {
	seq      uint64
	shares   []sharing.Share
	acked    []bool
	sentAt   time.Duration
	timers   []uint64 // retransmission generation per channel
	complete bool
}

// NewSession builds a session over fresh links on a new engine.
func NewSession(cfg Config) (*Session, error) {
	if len(cfg.Links) == 0 {
		return nil, errors.New("micss: no channels")
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.RTO <= 0 {
		var maxDelay time.Duration
		for _, l := range cfg.Links {
			if l.Delay > maxDelay {
				maxDelay = l.Delay
			}
		}
		cfg.RTO = 4*maxDelay + 100*time.Millisecond
	}
	s := &Session{
		eng:      netem.NewEngine(),
		cfg:      cfg,
		scheme:   sharing.NewXOR(rand.New(rand.NewSource(cfg.Seed))), //lint:allow insecure-rand deterministic simulation baseline needs reproducible pads
		inFlight: make(map[uint64]*symbolState),
		n:        len(cfg.Links),
	}
	for i, lc := range cfg.Links {
		i := i
		link, err := netem.NewLink(s.eng, lc, rand.New(rand.NewSource(cfg.Seed+int64(i)+1)),
			func(payload []byte, _ time.Duration) { s.onShareArrival(i, payload) })
		if err != nil {
			return nil, fmt.Errorf("micss: channel %d: %w", i, err)
		}
		s.links = append(s.links, link)
	}
	return s, nil
}

// Engine exposes the virtual-time engine so callers can schedule workload
// and advance time.
func (s *Session) Engine() *netem.Engine { return s.eng }

// Send submits one symbol; it queues if the window is full.
//
//remicss:secret payload
func (s *Session) Send(payload []byte) error {
	if len(s.inFlight) >= s.cfg.Window {
		s.pending = append(s.pending, payload)
		return nil
	}
	return s.transmit(payload)
}

func (s *Session) transmit(payload []byte) error {
	// Fresh shares per symbol: they stay in flight for retransmission.
	shares, err := s.scheme.SplitSharesInto(payload, s.n, s.n, nil)
	if err != nil {
		return fmt.Errorf("micss: split: %w", err)
	}
	st := &symbolState{
		seq:    s.nextSeq,
		shares: shares,
		acked:  make([]bool, s.n),
		sentAt: s.eng.Now(),
		timers: make([]uint64, s.n),
	}
	s.nextSeq++
	s.inFlight[st.seq] = st
	for i := 0; i < s.n; i++ {
		s.sendShare(st, i)
	}
	return nil
}

// shareWire is the minimal in-simulation encoding: seq plus channel index.
// MICSS reassembly is per-channel reliable, so the full ReMICSS header is
// unnecessary inside the simulator.
func (s *Session) encode(st *symbolState, ch int) []byte {
	buf := make([]byte, 9+len(st.shares[ch].Data))
	buf[0] = byte(ch)
	for b := 0; b < 8; b++ {
		buf[1+b] = byte(st.seq >> (8 * (7 - b)))
	}
	copy(buf[9:], st.shares[ch].Data)
	return buf
}

func decodeSeq(buf []byte) (uint64, bool) {
	if len(buf) < 9 {
		return 0, false
	}
	var seq uint64
	for b := 0; b < 8; b++ {
		seq = seq<<8 | uint64(buf[1+b])
	}
	return seq, true
}

func (s *Session) sendShare(st *symbolState, ch int) {
	s.sharesTx++
	gen := st.timers[ch]
	s.links[ch].Send(s.encode(st, ch))
	// Arm the retransmission timer; a later ack bumps the generation and
	// cancels this timer logically.
	s.eng.Schedule(s.cfg.RTO, func() {
		if st.complete || st.acked[ch] || st.timers[ch] != gen {
			return
		}
		st.timers[ch]++
		s.retx++
		s.sendShare(st, ch)
	})
}

// onShareArrival models the receiver: it acks the share back over a
// lossless reverse path with the channel's delay, and completes the symbol
// when every channel's share has arrived.
func (s *Session) onShareArrival(ch int, payload []byte) {
	seq, ok := decodeSeq(payload)
	if !ok {
		return
	}
	s.eng.Schedule(s.cfg.Links[ch].Delay, func() { s.onAck(ch, seq) })
}

func (s *Session) onAck(ch int, seq uint64) {
	st, ok := s.inFlight[seq]
	if !ok || st.acked[ch] {
		return
	}
	st.acked[ch] = true
	st.timers[ch]++ // cancel outstanding timer
	for _, a := range st.acked {
		if !a {
			return
		}
	}
	// All shares delivered: the receiver has reconstructed the symbol. The
	// completion time is when the last share arrived (one channel delay
	// before its ack returned).
	st.complete = true
	delete(s.inFlight, seq)
	s.delivered++
	s.delaySum += (s.eng.Now() - s.cfg.Links[ch].Delay) - st.sentAt
	if len(s.pending) > 0 {
		next := s.pending[0]
		s.pending = s.pending[1:]
		if err := s.transmit(next); err != nil {
			// Splitting cannot fail for payloads that succeeded before;
			// drop the symbol rather than wedge the window.
			return
		}
	}
}

// Stats summarizes the session so far.
func (s *Session) Stats() Stats {
	st := Stats{
		SymbolsDelivered: s.delivered,
		SharesSent:       s.sharesTx,
		Retransmissions:  s.retx,
	}
	if s.delivered > 0 {
		st.MeanDelay = s.delaySum / time.Duration(s.delivered)
	}
	return st
}

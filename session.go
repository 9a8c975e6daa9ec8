package remicss

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand" //lint:allow insecure-rand seeds only the schedule dither; share material always comes from crypto/rand
	"sync"
	"sync/atomic"
	"time"

	"remicss/internal/remicss"
	"remicss/internal/udptrans"
)

// SessionConfig bundles the choices for a UDP session.
type SessionConfig struct {
	// Params are the protocol parameters; zero value defaults to
	// κ = 2, μ = min(3, n): one interception and one loss tolerated.
	Params Params
	// Key, when non-empty, enables per-share HMAC authentication; both ends
	// must use the same key.
	Key []byte //remicss:secret
	// Rates paces each channel in packets per second (nil or 0 entries mean
	// unpaced). Sender side only.
	Rates []float64
	// Burst is the pacing bucket depth (default 8).
	Burst int
	// Seed fixes the schedule dither for reproducibility; 0 draws a fresh
	// seed from crypto/rand so concurrent sessions never share a schedule.
	// The dither only spreads shares across channels — share material
	// itself is always cryptographic regardless of Seed.
	Seed int64
	// Timeout and MaxPending configure receiver reassembly (zero values use
	// the protocol defaults).
	Timeout    time.Duration
	MaxPending int
	// Shards overrides the receiver's reassembly shard count (power of
	// two; see ReceiverConfig.Shards). 0 sizes it to GOMAXPROCS so
	// multi-socket ingest scales with cores. Receiver side only.
	Shards int
	// Metrics, when non-nil, receives the session's metric series —
	// protocol counters and histograms plus per-channel UDP transport
	// counters. Nil gives each endpoint a private registry, still readable
	// via Client.Metrics / Server.Metrics.
	Metrics *MetricsRegistry
	// Trace, when non-nil, receives structured protocol events
	// (share-sent, datagram-dropped, symbol-delivered, ...). Nil disables
	// tracing.
	Trace *EventTrace
	// Health, when non-nil, enables sender-side channel health tracking
	// and failover: send failures drive a per-channel EWMA and state
	// machine (healthy → suspect → down → probing with exponential
	// backoff), down channels are excluded from the share schedule, and
	// the multiplicity degrades — never the threshold, which stays at or
	// above ⌊κ⌋ — while channels are out. The zero HealthConfig value
	// selects the defaults, so &HealthConfig{} turns failover on as-is.
	// Sender side only.
	Health *HealthConfig
}

func (c SessionConfig) scheme() (SharingScheme, error) {
	base := NewSharingScheme(nil)
	if len(c.Key) == 0 {
		return base, nil
	}
	return NewAuthenticatedScheme(base, c.Key)
}

func (c SessionConfig) params(n int) Params {
	p := c.Params
	if p.Kappa == 0 && p.Mu == 0 {
		p = Params{Kappa: 2, Mu: 3}
		if n < 3 {
			p.Mu = float64(n)
		}
		if p.Kappa > p.Mu {
			p.Kappa = p.Mu
		}
	}
	return p
}

// Client is the sending half of a UDP session. Safe for concurrent use.
type Client struct {
	mu     sync.RWMutex // held for reading through each Send attempt
	sender *Sender
	out    *udptrans.Coalescer
	health *HealthTracker
	closed bool // guarded by mu

	// What Send reads to tell a busy caller from an idle one (see idleGap):
	// Sends in flight, and when the last one returned, in ns since epoch.
	epoch      time.Time
	inflight   atomic.Int32
	lastReturn atomic.Int64
}

// clientLink is channel i of a Client as its sender sees it: readiness from
// the socket's own token bucket, sends through the client's coalescer.
type clientLink struct {
	*UDPLink
	out *udptrans.Coalescer
	i   int
}

// Send writes the datagram inline or queues it, as the coalescer's state
// says (see Client.Send).
func (l clientLink) Send(datagram []byte) bool { return l.out.Send(l.i, datagram) }

// Connect opens one UDP channel per address and builds a sender with the
// session's parameters and the dynamic share schedule.
func Connect(addrs []string, cfg SessionConfig) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("remicss: no channel addresses")
	}
	scheme, err := cfg.scheme()
	if err != nil {
		return nil, err
	}
	p := cfg.params(len(addrs))
	// Each share of a symbol needs a channel of its own: a μ above the
	// address count would stall every Send (or, with Health, be clamped).
	if err := p.Validate(make(ChannelSet, len(addrs))); err != nil {
		return nil, fmt.Errorf("remicss: %w", err)
	}
	seed := cfg.Seed
	if seed == 0 {
		var raw [8]byte
		if _, err := crand.Read(raw[:]); err != nil {
			return nil, fmt.Errorf("remicss: seeding schedule dither: %w", err)
		}
		seed = int64(binary.LittleEndian.Uint64(raw[:]))
	}
	var (
		chooser Chooser
		tracker *HealthTracker
	)
	if cfg.Health != nil {
		tracker, err = NewHealthTracker(*cfg.Health, len(addrs), WallClock, cfg.Metrics, cfg.Trace)
		if err != nil {
			return nil, err
		}
		chooser, err = NewHealthChooser(p.Kappa, p.Mu, tracker, rand.New(rand.NewSource(seed)))
	} else {
		chooser, err = NewDynamicChooser(p.Kappa, p.Mu, rand.New(rand.NewSource(seed)))
	}
	if err != nil {
		return nil, err
	}
	dialed, err := DialUDP(addrs, cfg.Rates, cfg.Burst)
	if err != nil {
		return nil, err
	}
	socks := make([]*UDPLink, len(dialed))
	for i, l := range dialed {
		socks[i] = l.(*UDPLink)
		if cfg.Metrics != nil {
			socks[i].Instrument(cfg.Metrics, i)
		}
	}
	var onFail func(ch, n int)
	if tracker != nil {
		// A queued share the socket refused reaches health as the failure an
		// inline one reports through the sender.
		onFail = func(ch, n int) {
			for ; n > 0; n-- {
				tracker.ObserveSend(ch, false)
			}
		}
	}
	out := udptrans.NewCoalescer(socks, onFail)
	links := make([]Link, len(socks))
	for i, l := range socks {
		links[i] = clientLink{UDPLink: l, out: out, i: i}
	}
	sender, err := NewSender(SenderConfig{
		Scheme:  scheme,
		Chooser: chooser,
		Clock:   WallClock,
		Metrics: cfg.Metrics,
		Trace:   cfg.Trace,
		Health:  tracker,
	}, links)
	if err != nil {
		out.Close()
		return nil, err
	}
	c := &Client{sender: sender, out: out, health: tracker, epoch: time.Now()}
	c.lastReturn.Store(-int64(idleGap))
	return c, nil
}

// idleGap tells the two kinds of caller a Client serves apart. A Send that
// starts within idleGap of the previous Send returning comes from a caller
// with the next symbol already in hand, such as a closed loop with free
// window slots, which calls straight back (that gap was not measured; it is
// the caller's own bookkeeping between two calls). Its shares are queued per
// channel and leave in runs (see Send). A paced caller leaves far more
// between symbols: about 17 µs on the benchmark's tiny64-xor3of3 (a 29.4 µs
// interval less a send of about 12 µs) and about 140 µs on
// bulk16k-shamir3of5. Its shares are written inline, because for a symbol
// that is alone a queue only adds the drain goroutine's wake-up to its
// latency.
const idleGap = 5 * time.Microsecond

// Send transmits one message (up to ~64 KiB minus headers) as a single
// protocol symbol. It retries briefly on backpressure and returns
// ErrBackpressure if the channels stay saturated. Safe to call from
// multiple goroutines: concurrent calls split and encode in parallel and
// serialize only on the chooser and on each channel's socket.
//
// A nil return means every share the schedule placed was either written to
// its socket or queued for it. An idle caller's shares are written before
// Send returns. A busy caller's are copied into per-channel queues that one
// goroutine of the Client writes in runs — under the "gso" batch mode each
// run is one segmented message — and a caller is busy when it calls within
// a few microseconds of its previous Send returning, when another Send is in
// flight, or while anything is still queued. Pacing (SessionConfig.Rates)
// and a closed socket refuse a share inside Send on both paths, counted in
// Stats().SharesDropped. A queued share that the socket then refuses is
// counted in the channel's udp_socket_errors_total, kept as its
// UDPLink.LastSendError, and reported to SessionConfig.Health as a failed
// send. Close writes whatever is still queued.
//
//remicss:secret payload
func (c *Client) Send(payload []byte) error {
	const (
		retries = 50
		backoff = time.Millisecond
	)
	for attempt := 0; attempt < retries; attempt++ {
		err := c.send(payload)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrBackpressure) {
			return err
		}
		time.Sleep(backoff)
	}
	return ErrBackpressure
}

// send is one attempt of Send, queued if the caller is busy (see idleGap).
// It holds mu for reading throughout, so Close finds no attempt in flight.
//
//remicss:secret payload
func (c *Client) send(payload []byte) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	busy := c.inflight.Add(1) > 1 || c.out.Queued() ||
		int64(time.Since(c.epoch))-c.lastReturn.Load() < int64(idleGap)
	if busy {
		c.out.Hold()
	}
	err := c.sender.Send(payload)
	if busy {
		c.out.Release()
	}
	c.lastReturn.Store(int64(time.Since(c.epoch)))
	c.inflight.Add(-1)
	return err
}

// ErrClosed is returned by operations on a closed session endpoint.
var ErrClosed = errors.New("remicss: session closed")

// Stats returns the sender counters.
func (c *Client) Stats() SenderStats { return c.sender.Stats() }

// Metrics returns the registry holding the client's series (the one from
// SessionConfig.Metrics, or the private registry created in its absence).
func (c *Client) Metrics() *MetricsRegistry { return c.sender.Metrics() }

// Health returns the client's channel health tracker, or nil when
// SessionConfig.Health was not set. Use it to inspect per-channel states
// and failure EWMAs at runtime.
func (c *Client) Health() *HealthTracker { return c.health }

// Close stops the client: later Sends return ErrClosed, what is still
// queued is written, and the channel sockets are closed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.out.Close()
}

// Server is the receiving half of a UDP session.
type Server struct {
	listener *UDPListener
	receiver *Receiver

	// stop ends the eviction ticker (see evictLoop), which closes evicted
	// when it has returned.
	stop     chan struct{}
	stopOnce sync.Once
	evicted  chan struct{}
}

// Serve binds one UDP socket per address (port 0 picks free ports) and
// delivers reconstructed messages to onMessage. Each channel socket feeds
// the receiver from its own goroutine; sockets contend only when their
// datagrams land on the same reassembly shard, and completed symbols are
// handed to onMessage one at a time (a dedicated delivery lock), so
// onMessage needs no internal locking. The payload is lent for the call
// only: it is wiped to zeros when onMessage returns and its buffer
// reconstructs a later message, so onMessage copies whatever it keeps.
// A ticker evicts timed-out incomplete symbols while no datagrams arrive.
func Serve(addrs []string, cfg SessionConfig, onMessage func(seq uint64, payload []byte, delay time.Duration)) (*Server, error) {
	if onMessage == nil {
		return nil, errors.New("remicss: nil message callback")
	}
	scheme, err := cfg.scheme()
	if err != nil {
		return nil, err
	}
	receiver, err := NewReceiver(ReceiverConfig{
		Scheme:     scheme,
		Clock:      WallClock,
		OnSymbol:   onMessage,
		Timeout:    cfg.Timeout,
		MaxPending: cfg.MaxPending,
		Metrics:    cfg.Metrics,
		Trace:      cfg.Trace,
		Shards:     cfg.Shards,
	})
	if err != nil {
		return nil, err
	}
	listener, err := ListenUDP(addrs)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		listener.Instrument(cfg.Metrics)
	}
	s := &Server{listener: listener, receiver: receiver, stop: make(chan struct{}), evicted: make(chan struct{})}
	// HandleDatagram only reads the buffer during the call, which is
	// exactly ServeConcurrent's reuse contract — no per-datagram copy or
	// cross-channel serialization in the transport. Under the "gso" batch
	// mode each socket reads with UDP_GRO, so a run a busy Client sent as one
	// segmented message arrives in one kernel entry.
	listener.ServeConcurrent(receiver.HandleDatagram)
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = remicss.DefaultReassemblyTimeout
	}
	go s.evictLoop(max(timeout/2, time.Millisecond))
	return s, nil
}

// evictLoop calls the receiver's Tick every period until Close. Ingest
// evicts only in the shard a datagram lands in, so without it an incomplete
// symbol on a quiet server, its share buffers and the pending gauge would
// stay until traffic returned. Serve ticks at half the timeout, a
// millisecond at the least, so such a symbol leaves at most one period
// after it times out.
func (s *Server) evictLoop(period time.Duration) {
	defer close(s.evicted)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.receiver.Tick()
		}
	}
}

// Addrs returns the bound channel addresses, in order, for Connect.
func (s *Server) Addrs() []string { return s.listener.Addrs() }

// Stats returns the receiver counters.
func (s *Server) Stats() ReceiverStats { return s.receiver.Stats() }

// Metrics returns the registry holding the server's series (the one from
// SessionConfig.Metrics, or the private registry created in its absence).
func (s *Server) Metrics() *MetricsRegistry { return s.receiver.Metrics() }

// Close shuts the channel sockets down and stops the reader goroutines and
// the eviction ticker, waiting for the ticker to return.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.evicted
	return s.listener.Close()
}

// String renders a short description for logs.
func (s *Server) String() string {
	return fmt.Sprintf("remicss server on %v", s.Addrs())
}

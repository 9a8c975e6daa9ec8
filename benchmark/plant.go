package main

import (
	"fmt"
	"math/rand" // seeds only the choosers' schedule dither, as session.go does; share material comes from the program's own DRBG
	"time"

	"remicss"
	"remicss/internal/sharing"
)

// plant is the system under test, assembled for one workload: a sending side
// and a receiving side joined by real loopback UDP sockets in this process.
type plant struct {
	w *workload

	// send carries one symbol; sendBurst carries several in one SendBatch
	// call, and flush pushes coalesced datagrams to the kernel (both gateway
	// composition only, nil elsewhere).
	send      func(payload []byte) error
	sendBurst func(payloads [][]byte) (int, error)
	flush     func()

	senders   []*remicss.Sender // empty when the facade Client owns the sender
	client    *remicss.Client
	receivers []*remicss.Receiver // empty when the facade Server owns the receiver
	server    *remicss.Server

	// Registries the transport and gateway count into; nil on untraced
	// plants, which run exactly as an application would build them.
	sendReg, recvReg, gwReg *remicss.MetricsRegistry

	// intact is the fault script's per-symbol count of shares that reached a
	// socket on time and undamaged (lossy workloads).
	intact int

	closers []func()
}

// hmacKey is the lossy workload's pre-shared share-authentication key.
var hmacKey = []byte("remicss-benchmark-share-auth-key")

// listenAddrs asks for n kernel-chosen loopback ports.
func listenAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return addrs
}

func (w *workload) sessionConfig(seed uint64) remicss.SessionConfig {
	cfg := remicss.SessionConfig{
		Params:     remicss.Params{Kappa: w.Kappa, Mu: w.Mu},
		Seed:       int64(splitmix64(seed)>>1) | 1,
		Timeout:    w.Timeout,
		MaxPending: w.MaxPending,
	}
	if w.Auth {
		cfg.Key = hmacKey
	}
	return cfg
}

// scheme builds the sharing scheme the way SessionConfig does, wrapped for
// timing when tr is set.
func (w *workload) scheme(tr *tracer) (remicss.SharingScheme, error) {
	s := remicss.NewSharingScheme(nil)
	if w.Auth {
		var err error
		if s, err = remicss.NewAuthenticatedScheme(s, hmacKey); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		return &timedScheme{inner: s.(sharing.IntoScheme), tr: tr}, nil
	}
	return s, nil
}

// chooser builds session i's dynamic chooser, wrapped for timing when tr is
// set.
func (w *workload) chooser(seed uint64, i int, tr *tracer) (remicss.Chooser, error) {
	rng := rand.New(rand.NewSource(int64(splitmix64(seed+uint64(i)) >> 1)))
	c, err := remicss.NewDynamicChooser(w.Kappa, w.Mu, rng)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		return &timedChooser{inner: c, tr: tr}, nil
	}
	return c, nil
}

// wrapLinks puts the fault script (lossy workloads) and then the timing
// wrapper (traced runs) around the socket links. Timing sits outermost so
// the j-th timed call on a link is the j-th symbol's share whatever the
// script does with it.
func (p *plant) wrapLinks(links []remicss.Link, seed uint64, t *tracker, tr *tracer) []remicss.Link {
	out := make([]remicss.Link, len(links))
	for i, l := range links {
		if p.w.Lossy {
			l = &faultLink{inner: l, seed: seed, ch: i, clock: t.now, intact: &p.intact}
		}
		if tr != nil {
			l = &timedLink{inner: l, tr: tr, idx: i}
		}
		out[i] = l
	}
	return out
}

// build assembles the workload's plant. With tr nil it is the composition an
// application would use; with tr set the same parts are joined exactly as
// session.go joins them, each public boundary wrapped in a span.
func build(w *workload, seed uint64, t *tracker, tr *tracer) (*plant, error) {
	p := &plant{w: w}
	onSymbol := t.onSymbol
	if tr != nil {
		onSymbol = tr.timedDeliver(t.onSymbol)
		p.sendReg, p.recvReg, p.gwReg = remicss.NewMetricsRegistry(), remicss.NewMetricsRegistry(), remicss.NewMetricsRegistry()
	}
	var err error
	switch {
	case w.Sessions > 1:
		err = p.buildGateway(seed, t, tr, onSymbol)
	case tr == nil && !w.Lossy:
		err = p.buildFacade(seed, onSymbol)
	default:
		err = p.buildParts(seed, t, tr, onSymbol)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// buildFacade is Serve + Connect: one session through the public facade.
func (p *plant) buildFacade(seed uint64, onSymbol func(uint64, []byte, time.Duration)) error {
	cfg := p.w.sessionConfig(seed)
	srv, err := remicss.Serve(listenAddrs(p.w.Channels), cfg, onSymbol)
	if err != nil {
		return err
	}
	p.server = srv
	p.closers = append(p.closers, func() { srv.Close() })
	cl, err := remicss.Connect(srv.Addrs(), cfg)
	if err != nil {
		return err
	}
	p.client = cl
	p.closers = append(p.closers, func() { cl.Close() })
	p.send = cl.Send
	return nil
}

// buildParts joins ListenUDP/NewReceiver/ServeConcurrent and
// DialUDP/NewDynamicChooser/NewSender the way Serve and Connect do. Untraced
// it serves the lossy workload, whose sender needs the fault script between
// it and the sockets (its receiver still comes from Serve); traced it serves
// every single-session workload.
func (p *plant) buildParts(seed uint64, t *tracker, tr *tracer, onSymbol func(uint64, []byte, time.Duration)) error {
	w := p.w
	var addrs []string
	if tr == nil {
		srv, err := remicss.Serve(listenAddrs(w.Channels), w.sessionConfig(seed), onSymbol)
		if err != nil {
			return err
		}
		p.server = srv
		p.closers = append(p.closers, func() { srv.Close() })
		addrs = srv.Addrs()
	} else {
		scheme, err := w.scheme(tr)
		if err != nil {
			return err
		}
		recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
			Scheme: scheme, Clock: remicss.WallClock, OnSymbol: onSymbol,
			Timeout: w.Timeout, MaxPending: w.MaxPending, Metrics: p.recvReg,
		})
		if err != nil {
			return err
		}
		lis, err := remicss.ListenUDP(listenAddrs(w.Channels))
		if err != nil {
			return err
		}
		p.closers = append(p.closers, func() { lis.Close() })
		lis.Instrument(p.recvReg)
		lis.ServeConcurrent(tr.timedHandler(spHandle, recv.HandleDatagram))
		p.receivers = []*remicss.Receiver{recv}
		addrs = lis.Addrs()
	}

	links, err := remicss.DialUDP(addrs, nil, 0)
	if err != nil {
		return err
	}
	for i, l := range links {
		ul := l.(*remicss.UDPLink)
		p.closers = append(p.closers, func() { ul.Close() })
		if p.sendReg != nil {
			ul.Instrument(p.sendReg, i)
		}
	}
	scheme, err := w.scheme(tr)
	if err != nil {
		return err
	}
	chooser, err := w.chooser(seed, 0, tr)
	if err != nil {
		return err
	}
	sender, err := remicss.NewSender(remicss.SenderConfig{
		Scheme: scheme, Chooser: chooser, Clock: remicss.WallClock, Metrics: p.sendReg,
	}, p.wrapLinks(links, seed, t, tr))
	if err != nil {
		return err
	}
	p.senders = []*remicss.Sender{sender}
	p.send = sender.Send
	return nil
}

// tenantLabels is how many distinct tenant names the gateway sessions carry.
const tenantLabels = 8

// buildGateway multiplexes w.Sessions sessions over w.Channels shared
// sockets: ListenUDP + NewGateway + Register per session + Attach on the
// receiving side, DialGatewayPool + pool.NewSender per session on the
// sending side. The producer walks the sessions round-robin.
func (p *plant) buildGateway(seed uint64, t *tracker, tr *tracer, onSymbol func(uint64, []byte, time.Duration)) error {
	w := p.w
	lis, err := remicss.ListenUDP(listenAddrs(w.Channels))
	if err != nil {
		return err
	}
	p.closers = append(p.closers, func() { lis.Close() })
	gw := remicss.NewGateway(remicss.GatewayConfig{Metrics: p.gwReg})
	if tr != nil {
		lis.Instrument(p.recvReg)
	}
	for i := 0; i < w.Sessions; i++ {
		scheme, err := w.scheme(tr)
		if err != nil {
			return err
		}
		recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
			Scheme: scheme, Clock: remicss.WallClock, OnSymbol: onSymbol,
			Timeout: w.Timeout, MaxPending: w.MaxPending,
		})
		if err != nil {
			return err
		}
		handle := recv.HandleDatagram
		if tr != nil {
			handle = tr.timedHandler(spHandle, handle)
		}
		if _, err := gw.Register(uint64(i+1), fmt.Sprintf("tenant-%d", i%tenantLabels), handle); err != nil {
			return err
		}
		p.receivers = append(p.receivers, recv)
	}
	if tr != nil {
		// What Attach does, with the dispatch boundary timed.
		lis.ServeBatch(tr.timedHandler(spDispatch, gw.Dispatch))
	} else {
		gw.Attach(lis)
	}

	pool, err := remicss.DialGatewayPool(lis.Addrs(), remicss.GatewayPoolConfig{Metrics: p.sendReg})
	if err != nil {
		return err
	}
	p.closers = append(p.closers, func() { pool.Close() })
	p.flush = pool.Flush
	for i := 0; i < w.Sessions; i++ {
		scheme, err := w.scheme(tr)
		if err != nil {
			return err
		}
		chooser, err := w.chooser(seed, i, tr)
		if err != nil {
			return err
		}
		cfg := remicss.SenderConfig{Scheme: scheme, Chooser: chooser, Clock: remicss.WallClock}
		var sender *remicss.Sender
		if tr != nil {
			// What pool.NewSender does, over timed copies of the pool's links.
			cfg.Session = uint64(i + 1)
			sender, err = remicss.NewSender(cfg, p.wrapLinks(pool.SessionLinks(), seed, t, tr))
		} else {
			sender, err = pool.NewSender(cfg, uint64(i+1))
		}
		if err != nil {
			return err
		}
		p.senders = append(p.senders, sender)
	}
	next := 0
	p.send = func(payload []byte) error {
		s := p.senders[next]
		next = (next + 1) % len(p.senders)
		return s.Send(payload)
	}
	p.sendBurst = func(payloads [][]byte) (int, error) {
		s := p.senders[next]
		next = (next + 1) % len(p.senders)
		return s.SendBatch(payloads)
	}
	return nil
}

// close tears the plant down, newest resource first, and waits for the
// reader goroutines to exit (the listeners' Close does).
func (p *plant) close() {
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
	p.closers = nil
}

// senderStats sums the sender counters over every session.
func (p *plant) senderStats() remicss.SenderStats {
	if p.client != nil {
		return p.client.Stats()
	}
	var st remicss.SenderStats
	for _, s := range p.senders {
		x := s.Stats()
		st.SymbolsSent += x.SymbolsSent
		st.SymbolsStalled += x.SymbolsStalled
		st.SharesSent += x.SharesSent
		st.SharesDropped += x.SharesDropped
	}
	return st
}

// receiverStats sums the receiver counters over every session.
func (p *plant) receiverStats() remicss.ReceiverStats {
	if p.server != nil {
		return p.server.Stats()
	}
	var st remicss.ReceiverStats
	for _, r := range p.receivers {
		x := r.Stats()
		st.SharesReceived += x.SharesReceived
		st.SharesInvalid += x.SharesInvalid
		st.SharesDuplicate += x.SharesDuplicate
		st.SharesLate += x.SharesLate
		st.SymbolsDelivered += x.SymbolsDelivered
		st.SymbolsEvicted += x.SymbolsEvicted
		st.CombineFailures += x.CombineFailures
	}
	return st
}

// sumSeries adds up every series of the given name in reg (0 if reg is nil).
func sumSeries(reg *remicss.MetricsRegistry, name string) int64 {
	if reg == nil {
		return 0
	}
	var total int64
	for _, s := range reg.Gather() {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

package gateway

import (
	"fmt"
	"math"
	"sync"
	"time"

	"remicss/internal/obs"
	"remicss/internal/remicss"
	"remicss/internal/udptrans"
)

// DefaultBatch is the default per-socket coalescing threshold: a queue
// flushes to the kernel once it holds this many datagrams.
const DefaultBatch = 32

// PoolConfig configures a client Pool.
type PoolConfig struct {
	// Batch is the per-socket flush threshold; 0 picks DefaultBatch, 1
	// degenerates to one syscall per datagram.
	Batch int
	// Rate and Burst pace each underlying socket exactly as in
	// udptrans.Dial; Rate 0 disables pacing.
	Rate  float64
	Burst int
	// Metrics, when non-nil, instruments each underlying link with the
	// udp_* series, channel-indexed in Addrs order.
	Metrics *obs.Registry
}

// Pool is the sending half of the gateway: every session's sender shares
// one socket per channel, and their datagrams leave in kernel batches. A
// session is an ordinary remicss.Sender whose links (SessionLinks) enqueue
// marshaled shares into per-socket queues instead of writing them; each
// queue flushes through udptrans.Link.SendBatch — sendmmsg where available
// — once it holds Batch datagrams, or when Flush is called.
//
// Queueing semantics match the emulator's queue links: Send accepting a
// datagram means it was enqueued, and later pacing or socket drops surface
// in the link's udp_* metrics rather than in the sender's return values.
// A partially filled queue holds its datagrams until the next threshold
// crossing or Flush, so latency-sensitive callers should Flush at burst
// boundaries (remicss.Sender.SendBatch makes that one call per burst).
type Pool struct {
	links  []poolSocket
	queues []udptrans.SendQueue //remicss:secret
	qlinks []remicss.Link       //remicss:secret
	batch  int

	mu     sync.Mutex
	closed bool // guarded by mu
}

// poolSocket is the transport surface the pool drives, satisfied by
// *udptrans.Link. The indirection mirrors remicss.Link: dynamic dispatch is
// where the module's taint perimeter hands share bytes to the network, the
// same declared egress boundary the sender's links use.
type poolSocket interface {
	SendBatch(datagrams [][]byte) int
	Writable() bool
	Backlog() time.Duration
	Close() error
}

// DialPool opens one socket per address (the shared channel set) and
// builds the coalescing queues over them.
func DialPool(addrs []string, cfg PoolConfig) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("gateway: no pool addresses")
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	p := &Pool{batch: batch}
	for i, a := range addrs {
		l, err := udptrans.Dial(a, cfg.Rate, cfg.Burst)
		if err != nil {
			p.Close()
			return nil, err
		}
		if cfg.Metrics != nil {
			l.Instrument(cfg.Metrics, i)
		}
		p.links = append(p.links, l)
	}
	p.queues = make([]udptrans.SendQueue, len(addrs))
	p.qlinks = make([]remicss.Link, len(addrs))
	for i := range p.qlinks {
		p.qlinks[i] = &queueLink{p: p, idx: i}
	}
	return p, nil
}

// SessionLinks returns the pool's channel set as remicss.Links, one per
// socket. Every session's sender is built over this same slice — that is
// the multiplexing — so the links are safe for concurrent use.
func (p *Pool) SessionLinks() []remicss.Link { return p.qlinks }

// NewSender builds a sender for one gateway session: cfg with
// SenderConfig.Session set to id (so every share carries the v2 header the
// server dispatches on), over the pool's shared links.
func (p *Pool) NewSender(cfg remicss.SenderConfig, id uint64) (*remicss.Sender, error) {
	if id == 0 {
		return nil, ErrZeroSession
	}
	cfg.Session = id
	return remicss.NewSender(cfg, p.qlinks)
}

// enqueue copies the datagram into queue i, flushing the queue if it
// reached the batch threshold. The copy is mandatory: the remicss sender
// recycles its datagram buffers, so the queue must own the bytes it holds.
func (p *Pool) enqueue(i int, datagram []byte) bool {
	if burst, _ := p.queues[i].Put(datagram, p.batch, math.MaxInt); burst != nil {
		p.flushBurst(i, burst)
	}
	return true
}

// flushBurst writes one swapped-out burst to socket i and recycles its
// buffers. Runs outside the queue's lock so enqueues continue during the
// writes.
func (p *Pool) flushBurst(i int, burst [][]byte) {
	p.links[i].SendBatch(burst)
	p.queues[i].Recycle(burst)
}

// Flush writes out every queue's pending datagrams regardless of the
// threshold. Call at burst boundaries.
func (p *Pool) Flush() {
	for i := range p.queues {
		if burst := p.queues[i].Take(); burst != nil {
			p.flushBurst(i, burst)
		}
	}
}

// Close flushes pending datagrams and releases the sockets. Only the first
// call does; later ones return nil. Datagrams enqueued or flushed after it
// meet closed links and are counted there as paced drops.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.Flush()
	var firstErr error
	for _, l := range p.links {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// queueLink adapts one pool queue to the remicss.Link interface.
type queueLink struct {
	p   *Pool
	idx int
}

// Send enqueues the datagram for batched transmission; acceptance means
// "queued", with pacing and socket failures surfacing in link metrics.
func (q *queueLink) Send(datagram []byte) bool { return q.p.enqueue(q.idx, datagram) }

// Writable defers to the underlying socket's pacer.
func (q *queueLink) Writable() bool { return q.p.links[q.idx].Writable() }

// Backlog defers to the underlying socket's pacer.
func (q *queueLink) Backlog() time.Duration { return q.p.links[q.idx].Backlog() }

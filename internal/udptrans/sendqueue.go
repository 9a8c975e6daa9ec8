package udptrans

import (
	"math"
	"sync"
	"sync/atomic"
)

// SendQueue is one socket's coalescing buffer, the one queue type of both
// senders that write a socket in runs: gateway.Pool, and the Coalescer behind
// the facade client. Senders copy datagrams in with Put — the copy is
// mandatory, since the remicss sender recycles its datagram buffers — a flush
// swaps the pending list out whole under the lock (Put or Take) and writes it
// outside it, and Recycle hands the written buffers back. When to flush is
// the owner's policy; the queue applies the thresholds it is given.
//
// The queue accounts for its buffers by capacity. A buffer is held from Put
// until Recycle, through the flush that writes it, so a byte bound on Put is
// a bound on everything the queue has in use. The free list keeps at most
// maxRunBytes, one segmented message's worth; a sender that holds no more
// than that therefore cycles the same buffers, and an idle queue keeps one
// run. The trailing pad keeps neighboring queues' mutexes off one cache line.
type SendQueue struct {
	mu sync.Mutex
	// pending holds datagrams awaiting the next flush, in arrival order; the
	// backing buffers are queue-owned and recycled through free. guarded by mu.
	pending [][]byte //remicss:secret
	// held is the capacity of the buffers pending or taken by a flush and
	// not yet recycled. guarded by mu.
	held int
	// free holds recycled datagram buffers. guarded by mu.
	free [][]byte //remicss:secret
	// freeBytes is the capacity of free, at most maxRunBytes. guarded by mu.
	freeBytes int
	// spares are idle slice headers, one of which becomes pending after a
	// flush swap, so steady-state flushing reuses stable backing arrays: two,
	// since two bursts may be out at once (a Coalescer's drain and a send
	// that found the queue full). They alias memory that held datagrams,
	// hence stay in the secret perimeter. guarded by mu.
	spares [2][][]byte //remicss:secret
	_      [8]byte
}

// Put copies datagram onto the queue, unless the queue would then hold more
// than maxBytes: it returns the pending datagrams instead (nil if none),
// swapped out for the caller to write, and queued false. When the datagram
// is queued and brings the pending count to maxCount, the pending datagrams
// are swapped out with it and returned; otherwise burst is nil.
func (q *SendQueue) Put(datagram []byte, maxCount, maxBytes int) (burst [][]byte, queued bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// A buffer from the free list is held at its capacity; one too small
	// for this datagram is left to the collector, and a new one is exactly
	// as large as what it carries.
	n := len(q.free)
	size := len(datagram)
	if n > 0 {
		size = max(size, cap(q.free[n-1]))
	}
	if q.held+size > maxBytes {
		if len(q.pending) == 0 {
			return nil, false
		}
		return q.swap(), false
	}
	var buf []byte
	if n > 0 {
		buf = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		q.freeBytes -= cap(buf)
	}
	if cap(buf) < len(datagram) {
		buf = make([]byte, 0, len(datagram))
	}
	buf = append(buf[:0], datagram...)
	q.pending = append(q.pending, buf)
	q.held += cap(buf)
	if len(q.pending) >= maxCount {
		return q.swap(), true
	}
	return nil, true
}

// Take swaps the pending datagrams out for the caller to write; nil when
// there are none.
func (q *SendQueue) Take() [][]byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return nil
	}
	return q.swap()
}

// swap detaches the pending list, installing a spare backing array in its
// place, or a new one as large as the burst's when no spare is back yet.
// Callers hold mu.
func (q *SendQueue) swap() [][]byte {
	burst := q.pending
	for j, spare := range q.spares {
		if spare != nil {
			q.pending, q.spares[j] = spare, nil
			return burst
		}
	}
	q.pending = make([][]byte, 0, cap(burst))
	return burst
}

// Recycle takes back a written burst: its buffers join the free list while
// the list stays within maxRunBytes (the rest are left to the collector), the
// burst's entries are cleared, and its backing array is kept as a spare if
// there is room.
func (q *SendQueue) Recycle(burst [][]byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for j, buf := range burst {
		q.held -= cap(buf)
		if q.freeBytes+cap(buf) <= maxRunBytes {
			q.free = append(q.free, buf)
			q.freeBytes += cap(buf)
		}
		burst[j] = nil
	}
	for j, spare := range q.spares {
		if spare == nil {
			q.spares[j] = burst[:0]
			break
		}
	}
}

// Coalescer carries one sender's datagrams over a set of links, each either
// straight to its socket (Link.Send) or through that link's SendQueue, which
// one drain goroutine writes with a single batched call per queue. The
// Coalescer is the mechanism; its owner decides when to queue, by bracketing
// the sends of a caller it judges busy with Hold and Release. A send queues
// while any Hold is open, and also while anything queued is still unwritten,
// so a link never writes inline past datagrams of its own that are waiting.
//
// A queued datagram has been through the link's admission (pacing, closed)
// when Send returns true, exactly as an inline one; the drain does not admit
// it again. A queue holds at most maxRunBytes, one segmented message, counting
// what the drain is writing: the send that would take it past that writes the
// pending datagrams itself.
// What fails at the socket after queueing lands in the link's
// udp_socket_errors_total and LastSendError, and is reported to onFail.
type Coalescer struct {
	links  []socket
	queues []SendQueue //remicss:secret
	onFail func(link, n int)

	holds  atomic.Int32 // Hold calls not yet Released
	queued atomic.Int64 // datagrams put and not yet written

	wake      chan struct{} // capacity 1: a drain pass is due
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// socket is the surface of a Link a Coalescer drives. The indirection mirrors
// remicss.Link and gateway's pool sockets: dynamic dispatch is where the
// module's taint perimeter hands share bytes to the network.
type socket interface {
	Send(datagram []byte) bool
	admit(n int) int
	sendOne(datagram []byte) bool
	sendAdmitted(datagrams [][]byte) int
	Close() error
}

// NewCoalescer builds the queues over links and starts the drain goroutine.
// onFail, when non-nil, is called from the drain with a link index and how
// many of the datagrams it had queued there the socket did not take. Close
// stops the goroutine and closes the links.
func NewCoalescer(links []*Link, onFail func(link, n int)) *Coalescer {
	c := &Coalescer{
		links:  make([]socket, len(links)),
		queues: make([]SendQueue, len(links)),
		onFail: onFail,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i, l := range links {
		c.links[i] = l
	}
	go c.drain()
	return c
}

// Hold makes every Send queue until the matching Release.
func (c *Coalescer) Hold() { c.holds.Add(1) }

// Release ends a Hold and wakes the drain goroutine to write what was queued.
func (c *Coalescer) Release() {
	c.holds.Add(-1)
	c.kick()
}

// Queued reports whether any datagram is queued and not yet written.
func (c *Coalescer) Queued() bool { return c.queued.Load() != 0 }

// kick makes sure a drain pass starts after this call.
func (c *Coalescer) kick() {
	select {
	case c.wake <- struct{}{}:
	default: // a pass is already due
	}
}

// Send offers one datagram to link i, returning whether the link accepted
// it: written to the socket when nothing is held or queued, copied into the
// link's queue otherwise. A queue that cannot take it within maxRunBytes is
// written by this call instead: what it holds pending, then this datagram,
// in one burst, or this datagram alone if the drain is writing the rest. The
// datagram is not retained either way.
func (c *Coalescer) Send(i int, datagram []byte) bool {
	if c.holds.Load() == 0 && c.queued.Load() == 0 {
		return c.links[i].Send(datagram)
	}
	if c.links[i].admit(1) == 0 {
		return false
	}
	c.queued.Add(1)
	if burst, queued := c.queues[i].Put(datagram, math.MaxInt, maxRunBytes); !queued {
		if burst == nil {
			// All the queue holds is being written already: this datagram
			// follows it straight from the caller's buffer.
			c.queued.Add(-1)
			return c.links[i].sendOne(datagram)
		}
		c.write(i, append(burst, datagram), len(burst))
	}
	if c.holds.Load() == 0 {
		// Queued behind unwritten datagrams with no Release to come: the
		// drain may already have passed this queue.
		c.kick()
	}
	return true
}

// write sends a burst of admitted datagrams to link i and hands its first own
// entries, the ones taken from queue i, back to the queue; any after them are
// the caller's.
func (c *Coalescer) write(i int, burst [][]byte, own int) {
	n := c.links[i].sendAdmitted(burst)
	c.queued.Add(-int64(len(burst)))
	clear(burst[own:])
	c.queues[i].Recycle(burst[:own])
	if failed := len(burst) - n; failed > 0 && c.onFail != nil {
		c.onFail(i, failed)
	}
}

// flush writes every queue's pending datagrams.
func (c *Coalescer) flush() {
	for i := range c.queues {
		if burst := c.queues[i].Take(); burst != nil {
			c.write(i, burst, len(burst))
		}
	}
}

// drain is the Coalescer's goroutine: a flush per wake-up, and a last one
// when Close stops it.
func (c *Coalescer) drain() {
	defer close(c.done)
	for {
		select {
		case <-c.wake:
			c.flush()
		case <-c.stop:
			c.flush()
			return
		}
	}
}

// QueueFootprint reports the capacity queue i holds (pending, or being
// written) and the capacity its free list keeps, for tests bounding the
// queue's memory.
func (c *Coalescer) QueueFootprint(i int) (held, free int) {
	q := &c.queues[i]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.held, q.freeBytes
}

// Close stops the drain goroutine, which writes what was queued first, and
// then closes the links, returning the first error. Call it once no Send is
// in flight; only the first call does anything.
func (c *Coalescer) Close() error {
	var firstErr error
	c.closeOnce.Do(func() {
		close(c.stop)
		<-c.done
		for _, l := range c.links {
			if err := l.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	return firstErr
}

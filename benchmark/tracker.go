package main

import (
	"bytes"
	"encoding/binary"
	"sort"
	"sync/atomic"
	"time"
)

// Payload layout: bytes 0–7 symbol id, bytes 8–15 due time (ns since the
// run's base instant), the rest pool bytes compared on delivery.
const hdrLen = 16

// A symbol id packs the in-flight slot it occupies above a 40-bit send
// counter: id = slot<<40 | counter. The counter starts at 1, so an id is
// never 0 and never repeats within a run.
const (
	counterBits = 40
	counterMask = 1<<counterBits - 1
)

// pacedSlots bounds the paced phase's outstanding symbols. On a healthy run
// a handful are in flight; the bound only matters when deliveries stop.
const pacedSlots = 4096

// seenBits is the size of the arrival ring (128 KiB of bits): a symbol's
// arrival is remembered until seenBits more symbols have been sent, at least
// ten seconds at any workload's rate, while the last copy of a symbol can
// arrive no later than a reassembly timeout or a held-back share allows.
const seenBits = 1 << 20

// splitmix64 is the benchmark's seeded generator: payload pool bytes, fault
// fates and chooser seeds all derive from it, so one -seed fixes every input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// buildPool makes the seeded payload pool: about 1 MiB of symbols of the
// given size (at least 64, at most 4096 of them), so consecutive symbols
// differ and the pool stays small beside the program's own heap.
func buildPool(seed uint64, size int) [][]byte {
	n := (1 << 20) / size
	if n < 64 {
		n = 64
	}
	if n > 4096 {
		n = 4096
	}
	backing := make([]byte, n*size)
	x := seed
	for off := 0; off+8 <= len(backing); off += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(backing[off:], x)
	}
	pool := make([][]byte, n)
	for i := range pool {
		pool[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return pool
}

// slot is one in-flight position. The producer stamps it, the receive side
// clears it on verified delivery, and the producer's reaper clears it after
// the deadline.
type slot struct {
	id  atomic.Uint64 // symbol occupying the slot; 0 when free
	t0  atomic.Int64  // send or due time
	kth atomic.Int64  // traced runs: when the k-th share left link.send
	_   [40]byte      // one slot per cache line
}

// tracker owns the payload pool and the in-flight table, and is the
// receiver's OnSymbol: it checks every delivered symbol byte for byte.
type tracker struct {
	base     time.Time
	size     int
	pool     [][]byte
	deadline int64 // ns; see workload.deadline
	lossy    bool

	slots  []slot
	active int         // slots in use this phase; producer only
	free   chan uint32 // free slot indices; capacity len(slots), so a release never blocks
	// seen has one bit per send counter modulo seenBits, set by the symbol's
	// first arrival: a second arrival finds it set however long ago the slot
	// was reused. The producer clears a counter's bit before sending it.
	seen []atomic.Uint64

	counter uint64 // producer only
	// inflight counts occupied slots. Whoever clears a slot decrements it
	// last of all, so a producer that reads 0 sees everything the receive
	// side recorded for those symbols.
	inflight atomic.Int64

	// Receive-side counts.
	delivered atomic.Int64 // first, byte-correct deliveries
	bytes     atomic.Int64 // payload bytes of those
	wrong     atomic.Int64 // wrong length or bytes
	dup       atomic.Int64 // delivered twice
	stray     atomic.Int64 // arrived, once, after the slot was reclaimed or abandoned

	// Producer-side counts.
	attempted      int64 // symbols handed to the sender
	expected       int64 // of those, symbols that should be delivered
	closedExpected int64 // the closed loop's part of expected
	expired        int64 // closed loop: expected symbols still undelivered at the deadline
	lost           int64 // open loop: the same, or refused for want of a free slot
	openLoop       bool  // which of the two reap counts into

	// Latency (due → OnSymbol) and flight (k-th link.send end → OnSymbol)
	// samples, recorded while sampling is on into buffers the phase sized
	// beforehand (none are held during the saturate phase of an untraced
	// run, so they do not show in its live heap).
	sampling atomic.Bool
	lat      sampleBuf
	flight   sampleBuf
}

// sample is one timing with the instant it belongs to.
type sample struct {
	at, ns int64
}

// sampleBuf is a preallocated sample array many goroutines append to.
type sampleBuf struct {
	n atomic.Int64
	v []sample
}

func (b *sampleBuf) add(at, ns int64) {
	if i := b.n.Add(1) - 1; i < int64(len(b.v)) {
		b.v[i] = sample{at, ns}
	}
}

// reset empties the buffer and gives it room for n samples.
func (b *sampleBuf) reset(n int64) {
	b.v = make([]sample, n)
	b.n.Store(0)
}

// take returns the recorded samples and releases the buffer.
func (b *sampleBuf) take() []sample {
	n := b.n.Swap(0)
	if n > int64(len(b.v)) {
		n = int64(len(b.v))
	}
	out := b.v[:n]
	b.v = nil
	return out
}

// sortedNs returns the samples' timings in ascending order.
func sortedNs(v []sample) []int64 {
	out := make([]int64, len(v))
	for i, s := range v {
		out[i] = s.ns
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func newTracker(seed uint64, w *workload) *tracker {
	n := pacedSlots
	if w.Window > n {
		n = w.Window
	}
	return &tracker{
		base:     time.Now(),
		size:     w.Size,
		deadline: int64(w.deadline()),
		lossy:    w.Lossy,
		pool:     buildPool(seed, w.Size),
		slots:    make([]slot, n),
		free:     make(chan uint32, n),
		seen:     make([]atomic.Uint64, seenBits/64),
	}
}

// now is the run's clock: monotonic nanoseconds since the tracker was built.
func (t *tracker) now() int64 { return int64(time.Since(t.base)) }

// openWindow starts a phase with n free slots. Any slot still occupied from
// the previous phase is reclaimed first (its symbol was already counted).
func (t *tracker) openWindow(n int) {
	for len(t.free) > 0 {
		<-t.free
	}
	for i := range t.slots {
		t.slots[i].id.Store(0)
	}
	t.inflight.Store(0)
	t.active = n
	for i := 0; i < n; i++ {
		t.free <- uint32(i)
	}
}

// markSeen sets the arrival bit of a send counter and reports whether it was
// already set. (A load-and-swap loop: atomic Or needs a newer Go than go.mod
// asks for.)
func (t *tracker) markSeen(counter uint64) (already bool) {
	w, bit := &t.seen[counter%seenBits/64], uint64(1)<<(counter%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|bit) {
			return false
		}
	}
}

// clearSeen clears the arrival bit a counter seenBits earlier may have left.
func (t *tracker) clearSeen(counter uint64) {
	w, bit := &t.seen[counter%seenBits/64], uint64(1)<<(counter%64)
	for {
		old := w.Load()
		if old&bit == 0 || w.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// stamp occupies slot s with the next symbol: picks its pool payload, writes
// the id and due time into the header, and publishes the slot.
func (t *tracker) stamp(s uint32, due int64) (payload []byte, id uint64) {
	t.counter++
	id = uint64(s)<<counterBits | t.counter&counterMask
	t.clearSeen(id & counterMask)
	payload = t.pool[t.counter%uint64(len(t.pool))]
	binary.BigEndian.PutUint64(payload[0:8], id)
	binary.BigEndian.PutUint64(payload[8:16], uint64(due))
	sl := &t.slots[s]
	sl.t0.Store(due)
	sl.kth.Store(0)
	sl.id.Store(id)
	t.inflight.Add(1)
	t.attempted++
	return payload, id
}

// abandon frees the slot of a symbol the fault script has doomed: it is not
// expected, so nothing waits for it.
func (t *tracker) abandon(s uint32, id uint64) {
	if t.slots[s].id.CompareAndSwap(id, 0) {
		t.free <- s
		t.inflight.Add(-1)
	}
}

// reap reclaims every slot whose symbol has been in flight longer than the
// deadline. Only symbols that should have arrived stay in slots. In the
// closed loop each one reclaimed is a failure: at most W symbols were in
// flight, so nothing excuses the loss. In the open loop it is a lost symbol
// (loadgen.paced_lost_share, and the deadline in the latency percentiles):
// the generator keeps to its schedule through a stall and then sends the
// backlog as one burst, which the sockets' receive buffers may not hold.
func (t *tracker) reap(now int64) {
	for i := 0; i < t.active; i++ {
		sl := &t.slots[i]
		id := sl.id.Load()
		if id != 0 && now-sl.t0.Load() > t.deadline && sl.id.CompareAndSwap(id, 0) {
			if t.openLoop {
				t.lost++
			} else {
				t.expired++
			}
			t.free <- uint32(i)
			t.inflight.Add(-1)
		}
	}
}

// drain waits until nothing is in flight, reaping as deadlines pass.
func (t *tracker) drain() {
	for t.inflight.Load() > 0 {
		time.Sleep(200 * time.Microsecond)
		t.reap(t.now())
	}
}

// payloadID reads the symbol id from a delivered payload (0 if too short).
func payloadID(p []byte) uint64 {
	if len(p) < hdrLen {
		return 0
	}
	return binary.BigEndian.Uint64(p[0:8])
}

// onSymbol is the receiver's delivery callback. It may run on several
// reader goroutines at once (one receiver per gateway session).
func (t *tracker) onSymbol(_ uint64, payload []byte, _ time.Duration) {
	now := t.now()
	if len(payload) != t.size {
		t.wrong.Add(1)
		return
	}
	id := binary.BigEndian.Uint64(payload[0:8])
	due := int64(binary.BigEndian.Uint64(payload[8:16]))
	counter := id & counterMask
	s := id >> counterBits
	if s >= uint64(len(t.slots)) || !bytes.Equal(payload[hdrLen:], t.pool[counter%uint64(len(t.pool))][hdrLen:]) {
		t.wrong.Add(1)
		return
	}
	// The arrival bit decides first-or-repeat in one atomic step, so two
	// copies racing each other cannot both pass.
	if t.markSeen(counter) {
		t.dup.Add(1)
		return
	}
	sl := &t.slots[s]
	kth := sl.kth.Load()
	if !sl.id.CompareAndSwap(id, 0) {
		t.stray.Add(1)
		return
	}
	t.delivered.Add(1)
	t.bytes.Add(int64(len(payload)))
	if t.sampling.Load() {
		t.lat.add(due, now-due)
		if kth != 0 {
			t.flight.add(due, now-kth)
		}
	}
	t.free <- uint32(s)
	t.inflight.Add(-1)
}

// failed is the number of symbols that went wrong so far: delivered with
// wrong bytes or delivered twice in either loop, or expected in the closed
// loop but not delivered within the deadline. The last does not count under
// the fault script: the window bounds symbols in flight, not the surplus
// shares of symbols already delivered from k others, so a socket whose reader
// lags can overflow its receive buffer, and when the script has used up a
// symbol's redundancy that kernel drop loses it. There it is reported as
// harness.overdue_share (and costs goodput: the slot is held to the deadline).
func (t *tracker) failed() int64 {
	n := t.wrong.Load() + t.dup.Load()
	if !t.lossy {
		n += t.expired
	}
	return n
}

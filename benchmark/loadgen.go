package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// runner drives one plant from the single producer goroutine (the caller's).
type runner struct {
	w  *workload
	t  *tracker
	p  *plant
	tr *tracer // nil on untraced runs

	// Scratch for one burst.
	slots    []uint32
	ids      []uint64
	payloads [][]byte

	tick *time.Ticker
}

func newRunner(w *workload, t *tracker, p *plant, tr *tracer) *runner {
	return &runner{w: w, t: t, p: p, tr: tr, tick: time.NewTicker(50 * time.Millisecond)}
}

// acquire takes a free slot, blocking until one is released or end passes.
// Before blocking it flushes coalesced datagrams — otherwise the symbols it
// waits for might still sit in a send queue. While blocked it wakes on a
// coarse tick to reap overdue slots; it never spins.
func (r *runner) acquire(end int64) (uint32, bool) {
	select {
	case s := <-r.t.free:
		return s, true
	default:
	}
	r.flushTimed()
	for {
		select {
		case s := <-r.t.free:
			return s, true
		case <-r.tick.C:
			now := r.t.now()
			r.t.reap(now)
			if now >= end {
				return 0, false
			}
		}
	}
}

// sendBurst stamps and sends the symbols occupying r.slots (one Send, or one
// SendBatch when there are several), then settles which of them should
// arrive.
func (r *runner) sendBurst(due int64) error {
	r.ids, r.payloads = r.ids[:0], r.payloads[:0]
	for _, s := range r.slots {
		payload, id := r.t.stamp(s, due)
		r.ids = append(r.ids, id)
		r.payloads = append(r.payloads, payload)
	}
	r.p.intact = 0
	var t0 int64
	if r.tr != nil {
		t0 = r.t.now()
		r.tr.begin(r.slots, r.ids, t0)
	}
	var err error
	if len(r.payloads) == 1 {
		err = r.p.send(r.payloads[0])
	} else {
		_, err = r.p.sendBurst(r.payloads)
	}
	if r.tr != nil {
		r.tr.span(spSend, t0, r.t.now(), r.ids[0])
	}
	if err != nil {
		return fmt.Errorf("send: %w", err)
	}
	if r.w.Lossy && r.p.intact < r.w.k() {
		// The script left fewer than k intact shares: not expected.
		r.t.abandon(r.slots[0], r.ids[0])
	} else {
		r.t.expected += int64(len(r.slots))
		if !r.t.openLoop {
			r.t.closedExpected += int64(len(r.slots))
		}
	}
	return nil
}

// flushTimed flushes the plant's send queues, if it has any, recording a
// flush span on traced runs.
func (r *runner) flushTimed() {
	if r.p.flush == nil {
		return
	}
	if r.tr == nil {
		r.p.flush()
		return
	}
	t0 := r.t.now()
	r.p.flush()
	r.tr.span(spFlush, t0, r.t.now(), 0)
}

// usage is a snapshot of what the saturate phase's per-symbol costs are
// differences of.
type usage struct {
	cpu   int64
	mem   runtime.MemStats
	deliv int64
}

// cpuTime is the process's user plus system time so far, in ns.
func cpuTime() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

func (r *runner) usage() (usage, error) {
	cpu, err := cpuTime()
	if err != nil {
		return usage{}, err
	}
	u := usage{cpu: cpu, deliv: r.t.delivered.Load()}
	runtime.ReadMemStats(&u.mem)
	return u, nil
}

// satResult is what one saturate phase measured.
type satResult struct {
	goodputMBps float64 // median of the 1-second windows
	cpuNsPerSym float64 // median of the 1-second windows
	liveHeap    float64 // bytes, median of the 1-second windows
	windows     int
	delivered   int64
	attempted   int64
	cpuNs       int64
	allocs      uint64
	heapBytes   uint64
	gcCycles    uint32
}

// saturate runs the closed loop for d: W symbols in flight, a slot freed on
// verified delivery or at the deadline, the producer blocked (never
// spinning) whenever the window is full.
func (r *runner) saturate(d time.Duration) (satResult, error) {
	r.t.openWindow(r.w.Window)
	before, err := r.usage()
	if err != nil {
		return satResult{}, err
	}
	attempted0 := r.t.attempted
	start := r.t.now()
	end := start + int64(d)
	winStart, winBytes, winCPU := start, r.t.bytes.Load(), before.cpu
	var rates, cpus, lives []float64
	closeWindow := func(now int64) error {
		b := r.t.bytes.Load()
		cpu, err := cpuTime()
		if err != nil {
			return err
		}
		if b > winBytes {
			rates = append(rates, float64(b-winBytes)/float64(now-winStart)*1e3) // B/ns → MB/s
			cpus = append(cpus, float64(cpu-winCPU)/(float64(b-winBytes)/float64(r.w.Size)))
			lives = append(lives, float64(markedHeap()))
		}
		winStart, winBytes, winCPU = now, b, cpu
		return nil
	}
	for {
		now := r.t.now()
		if now-winStart >= int64(time.Second) {
			if err := closeWindow(now); err != nil {
				return satResult{}, err
			}
		}
		if now >= end {
			break
		}
		s, ok := r.acquire(end)
		if !ok {
			break
		}
		r.slots = append(r.slots[:0], s)
	fill:
		for len(r.slots) < r.w.Burst {
			select {
			case s := <-r.t.free:
				r.slots = append(r.slots, s)
			default:
				break fill
			}
		}
		if err := r.sendBurst(r.t.now()); err != nil {
			return satResult{}, err
		}
	}
	r.flushTimed()
	r.t.drain()
	after, err := r.usage()
	if err != nil {
		return satResult{}, err
	}
	if len(rates) == 0 { // shorter than one window (tests): the whole phase is the window
		if err := closeWindow(r.t.now()); err != nil {
			return satResult{}, err
		}
		if len(rates) == 0 {
			return satResult{}, fmt.Errorf("saturate phase delivered nothing")
		}
	}
	return satResult{
		goodputMBps: median(rates),
		cpuNsPerSym: median(cpus),
		liveHeap:    median(lives),
		windows:     len(rates),
		delivered:   after.deliv - before.deliv,
		attempted:   r.t.attempted - attempted0,
		cpuNs:       after.cpu - before.cpu,
		allocs:      after.mem.Mallocs - before.mem.Mallocs,
		heapBytes:   after.mem.TotalAlloc - before.mem.TotalAlloc,
		gcCycles:    after.mem.NumGC - before.mem.NumGC,
	}, nil
}

// warmUp runs the saturate loop for at least d, then in half-second steps
// until the live heap stops growing (2 %) or d has doubled, and finally
// touches the memory the collector will let the heap grow into.
func (r *runner) warmUp(d time.Duration) error {
	if _, err := r.saturate(d); err != nil {
		return err
	}
	prev := liveHeap()
	for extra := time.Duration(0); extra < d; extra += 500 * time.Millisecond {
		if _, err := r.saturate(500 * time.Millisecond); err != nil {
			return err
		}
		cur := liveHeap()
		if float64(cur) <= float64(prev)*1.02 {
			break
		}
		prev = cur
	}
	prefault()
	return nil
}

// prefault makes the pages between the live heap and the collector's next
// goal resident before anything is measured. Between two collections the heap
// grows from its live size to that goal; on a host that backs memory lazily
// the first touch of a page costs tens of microseconds (15–27 µs measured
// here against 0.5 µs for a page touched before), so a phase that happens to
// cross fresh address space would be timing the hypervisor, not the program.
func prefault() {
	const chunk, page = 1 << 20, 4096
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ballast [][]byte
	for need := int64(ms.NextGC) - int64(ms.HeapAlloc); need > 0; need -= chunk {
		b := make([]byte, chunk)
		for i := 0; i < chunk; i += page {
			b[i] = 1
		}
		ballast = append(ballast, b)
	}
	runtime.KeepAlive(ballast)
	ballast = nil
	runtime.GC()
}

// markedHeap is the live heap as the most recent collection found it. The
// collector runs several times a second under every workload, so reading
// this at each window's end samples the live heap over the whole phase
// without forcing a collection into it.
func markedHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pacedResult is what one paced phase measured.
type pacedResult struct {
	deadline int64   // what a lost symbol's latency reads as, ns
	expected int64   // symbols sent that should arrive (all of them, but for the fault script)
	lost     int64   // of those, the ones that did not
	lat      []int64 // due → OnSymbol, ns, delivered symbols only, sorted
	// p50s holds, for each full second of the phase, the median latency of
	// the symbols due in it (lost ones included).
	p50s []float64
	late []int64 // how late the generator started each send, ns, sorted
}

// percentile returns the q-quantile of the phase's latencies in ns, every
// symbol that should arrive counted: one that never did ranks above all that
// did and reads as the deadline.
func (pr *pacedResult) percentile(q float64) int64 {
	return quantileOf(pr.lat, pr.expected, q, pr.deadline)
}

// quantileOf is the q-quantile of sorted, taken as the low end of a
// population of total values whose missing members all read as lost.
func quantileOf(sorted []int64, total int64, q float64, lost int64) int64 {
	if total < int64(len(sorted)) {
		total = int64(len(sorted))
	}
	if total == 0 {
		return 0
	}
	i := int64(q * float64(total-1))
	if i < int64(len(sorted)) {
		return sorted[i]
	}
	return lost
}

// lostShare is the share of the symbols that should arrive that never did.
func (pr *pacedResult) lostShare() float64 {
	return ratio(float64(pr.lost), float64(pr.expected))
}

// paced runs the open loop for d at the workload's frozen rate: symbol i is
// due at start + i/rate whatever happened to its predecessors, the producer
// spins to each due time, and latency counts from the due time, so a stall
// is charged to every symbol it delays.
func (r *runner) paced(d time.Duration) (pacedResult, error) {
	r.t.openWindow(pacedSlots)
	r.t.openLoop = true
	defer func() { r.t.openLoop = false }()
	interval := float64(time.Second) / r.w.PacedRate
	n := int64(float64(d) / interval)
	late := make([]int64, 0, n)
	// A trailing partial second is left out of the per-second medians unless
	// it is all there is.
	windows := int(d / time.Second)
	if windows == 0 {
		windows = 1
	}
	expectedIn := make([]int64, windows+1) // symbols due in each second that should arrive
	expected0, lost0 := r.t.expected, r.t.lost
	r.t.lat.reset(n)
	r.t.sampling.Store(true)
	start := r.t.now() + int64(time.Millisecond)
	lastReap := start
	for i := int64(0); i < n; i++ {
		due := start + int64(float64(i)*interval)
		now := r.t.now()
		for now < due {
			now = r.t.now()
		}
		if now-lastReap > int64(50*time.Millisecond) {
			r.t.reap(now)
			lastReap = now
		}
		var s uint32
		select {
		case s = <-r.t.free:
		default:
			// Every slot is taken by an undelivered symbol: refused, which
			// counts as attempted, expected and never delivered.
			r.t.attempted++
			r.t.expected++
			r.t.lost++
			expectedIn[min(int((due-start)/int64(time.Second)), windows)]++
			continue
		}
		late = append(late, now-due)
		r.slots = append(r.slots[:0], s)
		before := r.t.expected
		if err := r.sendBurst(due); err != nil {
			return pacedResult{}, err
		}
		expectedIn[min(int((due-start)/int64(time.Second)), windows)] += r.t.expected - before
		r.flushTimed()
	}
	r.t.drain()
	r.t.sampling.Store(false)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	res := pacedResult{deadline: r.t.deadline, expected: r.t.expected - expected0, lost: r.t.lost - lost0, late: late}
	samples := r.t.lat.take()
	res.lat = sortedNs(samples)
	perWindow := make([][]sample, windows)
	for _, s := range samples {
		if w := int((s.at - start) / int64(time.Second)); w < windows {
			perWindow[w] = append(perWindow[w], s)
		}
	}
	for w, ws := range perWindow {
		res.p50s = append(res.p50s, float64(quantileOf(sortedNs(ws), expectedIn[w], 0.5, res.deadline)))
	}
	return res, nil
}

package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"remicss"
	"remicss/internal/sharing"
)

// spanKind names a boundary the traced run times. Every span is recorded
// from the benchmark's own wrappers around a public call; nothing inside
// the program is instrumented.
type spanKind int

const (
	spSend spanKind = iota
	spChoose
	spSplit
	spLinkSend
	spFlush
	spDispatch
	spHandle
	spCombine
	spDeliver
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"send", "choose", "split", "link.send", "flush", "dispatch", "handle", "combine", "deliver"}

// spanParent is the static nesting: send ⊃ {choose, split, link.send} on the
// producer; per datagram dispatch ⊃ handle ⊃ {combine, deliver} on the
// reader goroutines (dispatch exists only in the gateway composition).
var spanParent = [nSpanKinds]spanKind{-1, spSend, spSend, spSend, -1, -1, spDispatch, spHandle, spHandle}

const (
	// rawEvery keeps raw spans for one symbol in this many.
	rawEvery = 64
	// rawWindow is how long raw recording stays on after a sampled symbol's
	// send starts, if its delivery does not close the window sooner.
	rawWindow = 2 * time.Millisecond
	// maxRaw and maxDurs bound what a traced run keeps in memory.
	maxRaw  = 1 << 16
	maxDurs = 1 << 20
)

// spanAgg accumulates one span name: exact sum and count, and the first
// maxDurs durations for the median.
type spanAgg struct {
	sum   atomic.Int64
	count atomic.Int64
	durs  []int32
}

// rawSpan is one recorded span. Parent indexes the raw list (-1 for a
// root); it is filled in at exit by containment.
type rawSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"symbol_id,omitempty"`
	Parent int    `json:"parent"`
	kind   spanKind
}

// tracer collects spans. Aggregates are lock-free; raw spans, kept only
// around sampled symbols, take a mutex.
type tracer struct {
	t    *tracker
	k    int
	aggs [nSpanKinds]spanAgg

	rawUntil atomic.Int64
	rawMu    sync.Mutex
	raw      []rawSpan // guarded by rawMu

	// cur describes the burst the producer is sending, so the send-side
	// wrappers (which see no symbol id) can tell whose span they record:
	// every symbol of every workload puts exactly one share on each link, so
	// the j-th call on a link within a burst belongs to the burst's j-th
	// symbol. Producer goroutine only.
	cur struct {
		slots     []uint32
		ids       []uint64
		shares    []int // link.send calls completed per symbol
		linkCalls []int // calls seen per link
		chooses   int
		splits    int
	}
	// sampled is the id whose delivery closes the raw window early, and
	// until the window end begin set for it.
	sampled atomic.Uint64
	until   atomic.Int64
}

func newTracer(t *tracker, w *workload) *tracer {
	tr := &tracer{t: t, k: w.k()}
	for i := range tr.aggs {
		tr.aggs[i].durs = make([]int32, maxDurs)
	}
	tr.cur.linkCalls = make([]int, w.Channels)
	return tr
}

// span records one finished span.
func (tr *tracer) span(kind spanKind, start, end int64, id uint64) {
	a := &tr.aggs[kind]
	d := end - start
	a.sum.Add(d)
	if i := a.count.Add(1) - 1; i < maxDurs {
		if d > 1<<31-1 {
			d = 1<<31 - 1
		}
		a.durs[i] = int32(d)
	}
	if start < tr.rawUntil.Load() {
		tr.rawMu.Lock()
		if len(tr.raw) < maxRaw {
			tr.raw = append(tr.raw, rawSpan{Name: spanNames[kind], Start: start, End: end, ID: id, Parent: -1, kind: kind})
		}
		tr.rawMu.Unlock()
	}
}

// reset forgets everything recorded so far (the warm-up's spans).
func (tr *tracer) reset() {
	for i := range tr.aggs {
		tr.aggs[i].sum.Store(0)
		tr.aggs[i].count.Store(0)
	}
	tr.rawMu.Lock()
	tr.raw = tr.raw[:0]
	tr.rawMu.Unlock()
}

// begin tells the tracer which symbols the next Send/SendBatch carries.
func (tr *tracer) begin(slots []uint32, ids []uint64, now int64) {
	c := &tr.cur
	c.slots, c.ids = slots, ids
	c.shares = c.shares[:0]
	for range ids {
		c.shares = append(c.shares, 0)
	}
	for i := range c.linkCalls {
		c.linkCalls[i] = 0
	}
	c.chooses, c.splits = 0, 0
	for _, id := range ids {
		if id&counterMask%rawEvery == 0 {
			tr.sampled.Store(id)
			tr.until.Store(now + int64(rawWindow))
			tr.rawUntil.Store(now + int64(rawWindow))
			break
		}
	}
}

// delivered closes the raw window early once the sampled symbol has arrived,
// unless a later sampled symbol has already moved it.
func (tr *tracer) delivered(id uint64, end int64) {
	if id == tr.sampled.Load() {
		tr.rawUntil.CompareAndSwap(tr.until.Load(), end)
	}
}

// nextID returns the id of the i-th symbol of the current burst (0 if the
// wrapper was called more often than the burst has symbols).
func (tr *tracer) nextID(i int) uint64 {
	if i < len(tr.cur.ids) {
		return tr.cur.ids[i]
	}
	return 0
}

// timedLink times Link.Send and notes when a symbol's k-th share has left.
type timedLink struct {
	inner remicss.Link
	tr    *tracer
	idx   int
}

// Send implements remicss.Link.
func (l *timedLink) Send(datagram []byte) bool {
	tr := l.tr
	t0 := tr.t.now()
	ok := l.inner.Send(datagram)
	t1 := tr.t.now()
	c := &tr.cur
	j := c.linkCalls[l.idx]
	c.linkCalls[l.idx]++
	tr.span(spLinkSend, t0, t1, tr.nextID(j))
	if j < len(c.shares) {
		c.shares[j]++
		if c.shares[j] == tr.k {
			tr.t.slots[c.slots[j]].kth.Store(t1)
		}
	}
	return ok
}

// Writable implements remicss.Link.
func (l *timedLink) Writable() bool { return l.inner.Writable() }

// Backlog implements remicss.Link.
func (l *timedLink) Backlog() time.Duration { return l.inner.Backlog() }

// timedChooser times Chooser.Choose.
type timedChooser struct {
	inner remicss.Chooser
	tr    *tracer
}

// Choose implements remicss.Chooser.
func (c *timedChooser) Choose(links []remicss.Link) (int, uint32, bool) {
	t0 := c.tr.t.now()
	k, mask, ok := c.inner.Choose(links)
	t1 := c.tr.t.now()
	c.tr.span(spChoose, t0, t1, c.tr.nextID(c.tr.cur.chooses))
	c.tr.cur.chooses++
	return k, mask, ok
}

// timedScheme times the split on the producer and the combine on whichever
// reader goroutine completes a symbol. It implements sharing.IntoScheme so
// the sender and receiver keep their buffer-reusing paths.
type timedScheme struct {
	inner sharing.IntoScheme
	tr    *tracer
}

// Name implements sharing.Scheme.
func (s *timedScheme) Name() string { return s.inner.Name() }

// Split implements sharing.Scheme.
func (s *timedScheme) Split(secret []byte, k, m int) ([]sharing.Share, error) {
	return s.SplitSharesInto(secret, k, m, nil)
}

// Combine implements sharing.Scheme.
func (s *timedScheme) Combine(shares []sharing.Share, k, m int) ([]byte, error) {
	return s.CombineInto(nil, shares, k, m)
}

// SplitSharesInto implements sharing.IntoScheme.
func (s *timedScheme) SplitSharesInto(secret []byte, k, m int, shares []sharing.Share) ([]sharing.Share, error) {
	t0 := s.tr.t.now()
	out, err := s.inner.SplitSharesInto(secret, k, m, shares)
	t1 := s.tr.t.now()
	s.tr.span(spSplit, t0, t1, s.tr.nextID(s.tr.cur.splits))
	s.tr.cur.splits++
	return out, err
}

// CombineInto implements sharing.IntoScheme.
func (s *timedScheme) CombineInto(dst []byte, shares []sharing.Share, k, m int) ([]byte, error) {
	t0 := s.tr.t.now()
	out, err := s.inner.CombineInto(dst, shares, k, m)
	t1 := s.tr.t.now()
	var id uint64
	if err == nil {
		id = payloadID(out)
	}
	s.tr.span(spCombine, t0, t1, id)
	return out, err
}

// timedHandler wraps a datagram handler (a receiver's HandleDatagram or the
// gateway's Dispatch) in a span.
func (tr *tracer) timedHandler(kind spanKind, inner func([]byte)) func([]byte) {
	return func(datagram []byte) {
		t0 := tr.t.now()
		inner(datagram)
		tr.span(kind, t0, tr.t.now(), 0)
	}
}

// timedDeliver wraps the tracker's OnSymbol in a span.
func (tr *tracer) timedDeliver(inner func(uint64, []byte, time.Duration)) func(uint64, []byte, time.Duration) {
	return func(seq uint64, payload []byte, delay time.Duration) {
		t0 := tr.t.now()
		inner(seq, payload, delay)
		t1 := tr.t.now()
		id := payloadID(payload)
		tr.span(spDeliver, t0, t1, id)
		tr.delivered(id, t1)
	}
}

// spanRow is one line of the traced run's table.
type spanRow struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	SumNs  int64  `json:"sum_ns"`
	P50Ns  int64  `json:"p50_ns"`
	SelfNs int64  `json:"self_ns"`
}

// table summarises every span name: count, total, median, and self time
// (the span's total minus its children's totals — exact, because each child
// span lies inside exactly one span of its parent name).
func (tr *tracer) table() []spanRow {
	rows := make([]spanRow, nSpanKinds)
	for k := range rows {
		a := &tr.aggs[k]
		n := a.count.Load()
		rows[k] = spanRow{Name: spanNames[k], Count: n, SumNs: a.sum.Load(), SelfNs: a.sum.Load()}
		if n > maxDurs {
			n = maxDurs
		}
		if n > 0 {
			d := append([]int32(nil), a.durs[:n]...)
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			rows[k].P50Ns = int64(d[(n-1)/2])
		}
	}
	for k, p := range spanParent {
		// handle is a root when nothing dispatches to it.
		if p >= 0 && rows[p].Count > 0 {
			rows[p].SelfNs -= rows[k].SumNs
		}
	}
	return rows
}

// linkRaw sorts the raw spans by start time and gives each its parent: the
// tightest span of the parent name that contains it.
func (tr *tracer) linkRaw() []rawSpan {
	tr.rawMu.Lock()
	raw := tr.raw
	tr.raw = nil
	tr.rawMu.Unlock()
	sort.Slice(raw, func(i, j int) bool {
		if raw[i].Start != raw[j].Start {
			return raw[i].Start < raw[j].Start
		}
		return raw[i].End > raw[j].End // a parent sorts before the child it starts with
	})
	// Readers are few, so a span's parent started at most a few dozen spans
	// before it.
	const lookBack = 256
	for i := range raw {
		p := spanParent[raw[i].kind]
		if p < 0 {
			continue
		}
		best := -1
		for j := i - 1; j >= 0 && j >= i-lookBack; j-- {
			c := &raw[j]
			if c.kind != p || c.End < raw[i].End {
				continue
			}
			if best < 0 || c.End-c.Start < raw[best].End-raw[best].Start {
				best = j
			}
		}
		raw[i].Parent = best
	}
	return raw
}

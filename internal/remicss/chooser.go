package remicss

import (
	"fmt"
	"math"
	"math/rand" //lint:allow insecure-rand the chooser dithers share placement only; it never touches share material
	"time"

	"remicss/internal/core"
	"remicss/internal/schedule"
)

// Chooser decides, per source symbol, the threshold k and the subset of
// channels (as a bitmask over links) to carry its shares.
type Chooser interface {
	// Choose inspects the links and returns the threshold and channel mask
	// for the next symbol. ok is false if the choice cannot currently be
	// satisfied (e.g. not enough writable channels); the symbol is then
	// dropped or retried by the caller.
	Choose(links []Link) (k int, mask uint32, ok bool)
}

// DynamicChooser is the paper's dynamic share schedule: rather than
// computing an explicit distribution over (k, M), it picks the first m
// channels that are ready for writing. m and k are dithered between ⌊μ⌋/⌈μ⌉
// and ⌊κ⌋/⌈κ⌉ with a shared uniform draw, which yields exact averages μ and
// κ while guaranteeing k <= m for every symbol.
//
// Ready channels are taken in ascending order of transmit backlog
// (water-filling over queue space). On a real host, epoll readiness plus
// scheduling jitter spreads shares across channels the same way; in the
// deterministic simulator, taking ready channels in fixed index order
// instead locks identical channels into synchronized drain bursts and
// wastes capacity — the IndexOrder option exists to measure exactly that
// effect.
type DynamicChooser struct {
	dither
	// indexOrder reverts to fixed index-order channel selection (ablation).
	indexOrder bool
}

// dither is the (k, m) draw and the least-backlog placement both dynamic
// choosers share (DynamicChooser and HealthChooser). Choose mutates the
// rng, the pending draw and the scratch, so a chooser must not be shared
// between senders (the owning Sender serializes its own calls).
type dither struct {
	kappa, mu float64
	rng       *rand.Rand
	// pending holds a (k, m) draw that could not be satisfied yet. The
	// reference protocol blocks until m channels are ready rather than
	// skipping the symbol, so the draw must survive failed attempts —
	// redrawing on every attempt would bias the realized μ downward (large
	// m draws stall more often and would be resampled away).
	pendingValid bool
	pendingK     int
	pendingM     int
	// ready and backlog are the caller's ready channels and their transmit
	// backlogs, reused across calls so the per-symbol hot path stays
	// allocation-free.
	ready   []int
	backlog []time.Duration
}

// draw returns the pending (k, m), drawing one if none is pending.
//
//remicss:noalloc
func (d *dither) draw() (k, m int) {
	if !d.pendingValid {
		// Comonotone dither: the same uniform drives both roundings, so
		// kappa <= mu implies k <= m symbol by symbol.
		u := d.rng.Float64()
		m := int(math.Floor(d.mu))
		if u < d.mu-math.Floor(d.mu) {
			m++
		}
		k := int(math.Floor(d.kappa))
		if u < d.kappa-math.Floor(d.kappa) {
			k++
		}
		d.pendingK, d.pendingM, d.pendingValid = k, m, true
	}
	return d.pendingK, d.pendingM
}

// place settles the pending draw on the first m of d.ready (m <=
// len(d.ready)), taken in ascending backlog order when byBacklog is set and
// in index order otherwise, and returns them as a channel mask.
//
//remicss:noalloc
func (d *dither) place(m int, byBacklog bool) uint32 {
	ready, backlog := d.ready, d.backlog
	if byBacklog {
		// Stable insertion sort by backlog: sort.SliceStable's closure and
		// interface conversion allocate on every call, and readiness sets
		// are tiny (≤ 32 channels), so this keeps Choose allocation-free.
		// Backlogs are sampled once per link by the caller rather than
		// re-queried per comparison.
		for i := 1; i < len(ready); i++ {
			for j := i; j > 0 && backlog[j] < backlog[j-1]; j-- {
				ready[j], ready[j-1] = ready[j-1], ready[j]
				backlog[j], backlog[j-1] = backlog[j-1], backlog[j]
			}
		}
	}
	var mask uint32
	for _, i := range ready[:m] {
		mask |= 1 << uint(i)
	}
	d.pendingValid = false
	return mask
}

// DynamicOption configures a DynamicChooser.
type DynamicOption func(*DynamicChooser)

// IndexOrder makes the chooser take ready channels in fixed index order
// instead of least-backlog order. This is the naive reading of "first m
// ready channels" and is measurably worse under deterministic timing; it
// exists as an ablation.
func IndexOrder() DynamicOption {
	return func(c *DynamicChooser) { c.indexOrder = true }
}

// NewDynamicChooser builds a dynamic chooser for targets 1 <= kappa <= mu.
// The rng must not be nil.
func NewDynamicChooser(kappa, mu float64, rng *rand.Rand, opts ...DynamicOption) (*DynamicChooser, error) {
	if math.IsNaN(kappa) || math.IsNaN(mu) || kappa < 1 || mu < kappa {
		return nil, fmt.Errorf("%w: kappa=%v, mu=%v", core.ErrInvalidParams, kappa, mu)
	}
	if rng == nil {
		return nil, fmt.Errorf("remicss: nil rng")
	}
	c := &DynamicChooser{dither: dither{kappa: kappa, mu: mu, rng: rng}}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Choose implements Chooser.
//
//remicss:noalloc
func (c *DynamicChooser) Choose(links []Link) (int, uint32, bool) {
	k, m := c.draw()
	if m > len(links) {
		return 0, 0, false
	}
	ready := c.ready[:0]
	backlog := c.backlog[:0]
	for i, l := range links {
		if l.Writable() {
			ready = append(ready, i)
			backlog = append(backlog, l.Backlog())
		}
	}
	c.ready, c.backlog = ready, backlog
	// Fewer than m ready channels: stall, keeping the draw for the retry.
	if len(ready) < m {
		return 0, 0, false
	}
	return k, c.place(m, !c.indexOrder), true
}

// StaticChooser draws (k, M) i.i.d. from an explicit share schedule, such
// as an LP optimum from internal/schedule. It does not consult writability:
// if a chosen channel's queue is full the share is simply dropped by the
// link, exactly the best-effort semantics of the reference protocol.
type StaticChooser struct {
	sampler *schedule.Sampler
}

// NewStaticChooser builds a chooser sampling from sched over n channels.
func NewStaticChooser(sched core.Schedule, n int, rng *rand.Rand) (*StaticChooser, error) {
	sampler, err := schedule.NewSampler(sched, n, rng)
	if err != nil {
		return nil, err
	}
	return &StaticChooser{sampler: sampler}, nil
}

// Choose implements Chooser.
func (c *StaticChooser) Choose(links []Link) (int, uint32, bool) {
	a := c.sampler.Next()
	if int(a.Mask) >= 1<<uint(len(links)) {
		return 0, 0, false
	}
	return a.K, a.Mask, true
}

// FixedChooser always returns the same assignment; useful for tests and for
// MICSS-style operation (k = m = n on all channels).
type FixedChooser struct {
	// K and Mask define the constant assignment.
	K    int
	Mask uint32
}

// Choose implements Chooser.
func (c FixedChooser) Choose(links []Link) (int, uint32, bool) {
	if c.Mask == 0 || int(c.Mask) >= 1<<uint(len(links)) || c.K < 1 {
		return 0, 0, false
	}
	return c.K, c.Mask, true
}

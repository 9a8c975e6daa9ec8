package schedule

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"remicss/internal/core"
	"remicss/internal/lp"
	"remicss/internal/obs"
)

// SolveTier reports how a Cache resolved a schedule request. Ordered from
// cheapest to most expensive.
type SolveTier int

// Solve tiers, carried by the schedule-resolved trace event.
const (
	// TierCached: the quantized channel state hit the cache; no solve ran.
	TierCached SolveTier = iota
	// TierWarm: a cache miss solved by warm-starting the retained simplex
	// basis (any lp reuse tier better than cold).
	TierWarm
	// TierCold: a cache miss solved from scratch.
	TierCold
)

// String implements fmt.Stringer.
func (t SolveTier) String() string {
	switch t {
	case TierCached:
		return "cached"
	case TierWarm:
		return "warm"
	case TierCold:
		return "cold"
	default:
		return "tier(?)"
	}
}

// programKind distinguishes the two LP shapes a Cache serves; it is part of
// the cache key.
type programKind uint8

const (
	programSectionIVB programKind = iota + 1
	programMaxRate
	programLarge
)

// CacheConfig tunes a schedule Cache. The zero value selects the documented
// defaults.
type CacheConfig struct {
	// RiskStep, LossStep, DelayStep, and RateStep define the quantization
	// grid: channel properties are snapped to multiples of these steps
	// before keying and solving, so nearby channel states share one cache
	// entry (and one schedule). Coarser steps raise the hit rate at the
	// cost of schedule fidelity. Defaults: 0.01, 0.01, 5ms, 10 sym/s.
	RiskStep  float64
	LossStep  float64
	DelayStep time.Duration
	RateStep  float64
	// RhoStep quantizes correlation factors for OptimizeCorrelated keys
	// and solves, analogous to RiskStep for channel risk. Default 0.05.
	RhoStep float64
	// MaxEntries bounds the table size; beyond it the least-recently-used
	// quarter of entries is evicted. Default 1024.
	MaxEntries int
	// Options applies to every solve the cache performs.
	Options Options
	// Metrics, when non-nil, registers the cache and warm-solve counters.
	Metrics *obs.Registry
	// Trace, when non-nil, receives a schedule-resolved event (value =
	// solve tier) for every Optimize call. Now supplies event timestamps
	// and defaults to zero timestamps when nil.
	Trace *obs.Trace
	// Now supplies trace timestamps; see Trace.
	Now func() time.Duration
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.RiskStep <= 0 {
		c.RiskStep = 0.01
	}
	if c.LossStep <= 0 {
		c.LossStep = 0.01
	}
	if c.DelayStep <= 0 {
		c.DelayStep = 5 * time.Millisecond
	}
	if c.RateStep <= 0 {
		c.RateStep = 10
	}
	if c.RhoStep <= 0 {
		c.RhoStep = 0.05
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1024
	}
	return c
}

// cacheEntry is one immutable resolved schedule. Entries form collision
// chains; all fields except lastUsed are written once before publication.
type cacheEntry struct {
	next     *cacheEntry
	kind     programKind
	obj      Objective
	kappa    uint64 // float bits
	mu       uint64
	qchan    []int64 // 4 quantized values per channel
	qcorr    []int64 // 3 quantized values per shared-risk group; nil when uncorrelated
	sched    core.Schedule
	members  []int         // wide-program support compaction; nil for mask programs
	lastUsed atomic.Uint64 // generation clock at last touch
}

// cacheTable is the immutable published state of the cache. Readers load it
// atomically; writers replace it wholesale.
type cacheTable struct {
	entries map[uint64]*cacheEntry
	count   int
}

// Cache memoizes optimized share schedules keyed by quantized channel
// state, so steady-state adaptation (health failover, controller retuning)
// is a lock-free lookup instead of a linear-program solve. Misses fall back
// to a warm-started simplex re-solve on the retained basis, then to a cold
// solve — the three tiers of the solve path.
//
// The read path takes no locks and performs no allocation: it hashes the
// quantized channel state, walks an immutable table published by atomic
// pointer swap, and compares entries field-wise. Writes (misses) are
// serialized by a mutex and publish a fresh table. Schedules returned by
// the cache are shared and must not be mutated by callers.
//
// Because solves run on the quantized channel values, any two states that
// quantize equally produce byte-identical schedules — across goroutines and
// across cache instances with the same grid.
type Cache struct {
	cfg   CacheConfig
	table atomic.Pointer[cacheTable]
	gen   atomic.Uint64

	mu     sync.Mutex // serializes the miss path
	solver *lp.Solver // guarded by mu
	basis  *lp.Basis  // guarded by mu

	hits       *obs.Counter
	misses     *obs.Counter
	evictions  *obs.Counter
	warmSolves *obs.Counter
	warmPivots *obs.Counter
}

// NewCache builds a schedule cache.
func NewCache(cfg CacheConfig) *Cache {
	c := &Cache{cfg: cfg.withDefaults(), solver: lp.NewSolver()}
	if reg := c.cfg.Metrics; reg != nil {
		c.hits = reg.Counter("remicss_schedule_cache_hits_total")
		c.misses = reg.Counter("remicss_schedule_cache_misses_total")
		c.evictions = reg.Counter("remicss_schedule_cache_evictions_total")
		c.warmSolves = reg.Counter("lp_warm_solves_total")
		c.warmPivots = reg.Counter("lp_warm_pivots_total")
	}
	return c
}

// Optimize is the cached form of Optimize: it resolves the Section IV-B
// program for the channel state quantized to the cache's grid, returning
// the schedule and the tier that produced it.
func (c *Cache) Optimize(s core.Set, kappa, mu float64, obj Objective) (core.Schedule, SolveTier, error) {
	return c.resolve(programSectionIVB, s, core.Correlation{}, kappa, mu, obj)
}

// OptimizeCorrelated is Optimize under a correlated-adversary model: the
// program is built with correlated risk/loss coefficients and — when the
// cache's Options set GroupExposureCap — per-group exposure rows. The
// correlation factors are quantized to the RhoStep grid and join the cache
// key, so health-driven rho drift within one grid cell stays a lock-free
// hit while a genuine regime change re-solves (warm-started, like any other
// miss). An empty model is exactly Optimize and shares its cache entries.
func (c *Cache) OptimizeCorrelated(s core.Set, corr core.Correlation, kappa, mu float64, obj Objective) (core.Schedule, SolveTier, error) {
	return c.resolve(programSectionIVB, s, corr, kappa, mu, obj)
}

// OptimizeAtMaxRate is the cached form of OptimizeAtMaxRate (the Section
// IV-D program). It shares the table and retained solver with Optimize;
// the program shape is part of the cache key.
func (c *Cache) OptimizeAtMaxRate(s core.Set, kappa, mu float64, obj Objective) (core.Schedule, SolveTier, error) {
	return c.resolve(programMaxRate, s, core.Correlation{}, kappa, mu, obj)
}

func (c *Cache) resolve(kind programKind, s core.Set, corr core.Correlation, kappa, mu float64, obj Objective) (core.Schedule, SolveTier, error) {
	if e, ok := c.lookup(kind, s, corr, kappa, mu, obj); ok {
		c.emit(TierCached)
		return e.sched, TierCached, nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// Another goroutine may have resolved this state while we waited.
	if e, ok := c.lookup(kind, s, corr, kappa, mu, obj); ok {
		c.emit(TierCached)
		return e.sched, TierCached, nil
	}
	if c.misses != nil {
		c.misses.Inc()
	}

	// Solve on the quantized state, not the raw one: every state in this
	// grid cell must map to the same schedule bytes. The correlation model
	// is quantized the same way for the same reason.
	qs := c.quantizeSet(s)
	qc := c.quantizeCorr(corr)
	opts := c.cfg.Options
	if len(qc.Groups) > 0 {
		opts.Correlation = &qc
	}
	var (
		prob        lp.Problem
		assignments []core.Assignment
		err         error
	)
	switch kind {
	case programSectionIVB:
		prob, assignments, err = buildSectionIVB(qs, kappa, mu, obj, opts)
	case programMaxRate:
		prob, assignments, err = buildMaxRate(qs, kappa, mu, obj, opts)
	}
	if err != nil {
		return nil, TierCold, err
	}
	sol, tier, err := c.warmSolve(prob)
	if err != nil {
		return nil, TierCold, err
	}
	sched, err := solutionToSchedule(sol, assignments, qs.N())
	if err != nil {
		return nil, tier, err
	}

	c.insert(kind, qs, qc, kappa, mu, obj, sched, nil)
	c.emit(tier)
	return sched, tier, nil
}

// OptimizeLarge is the cached form of OptimizeLarge: the wide-assignment
// Section IV-B program for channel sets beyond the exact-enumeration cap,
// with the optimum compacted onto its support. The compacted schedule and
// its member mapping are cached together; like the mask programs, misses
// warm-start the retained solver (the wide program's constraint rows depend
// only on the generated candidate structure, so a risk drift that leaves
// the candidates unchanged re-solves from the prior vertex).
func (c *Cache) OptimizeLarge(s core.Set, kappa, mu float64, obj Objective) (core.Schedule, []int, SolveTier, error) {
	if e, ok := c.lookup(programLarge, s, core.Correlation{}, kappa, mu, obj); ok {
		c.emit(TierCached)
		return e.sched, e.members, TierCached, nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lookup(programLarge, s, core.Correlation{}, kappa, mu, obj); ok {
		c.emit(TierCached)
		return e.sched, e.members, TierCached, nil
	}
	if c.misses != nil {
		c.misses.Inc()
	}

	qs := c.quantizeSet(s)
	prob, assignments, err := buildLarge(qs, kappa, mu, obj, c.cfg.Options)
	if err != nil {
		return nil, nil, TierCold, err
	}
	sol, tier, err := c.warmSolve(prob)
	if err != nil {
		return nil, nil, TierCold, err
	}
	sched, members, err := compactWideSolution(sol.X, assignments)
	if err != nil {
		return nil, nil, tier, err
	}

	c.insert(programLarge, qs, core.Correlation{}, kappa, mu, obj, sched, members)
	c.emit(tier)
	return sched, members, tier, nil
}

// warmSolve runs one program through the retained solver and classifies the
// outcome as a warm or cold tier, advancing the warm counters. Caller holds
// c.mu.
func (c *Cache) warmSolve(prob lp.Problem) (lp.Solution, SolveTier, error) {
	sol, basis, err := c.solver.WarmSolve(c.basis, prob)
	if err != nil {
		c.basis = nil
		return lp.Solution{}, TierCold, wrapLPError(err)
	}
	c.basis = basis
	tier := TierCold
	if st := c.solver.LastStats(); st.Tier != lp.TierCold {
		tier = TierWarm
		if c.warmSolves != nil {
			c.warmSolves.Inc()
			c.warmPivots.Add(int64(st.Pivots))
		}
	}
	return sol, tier, nil
}

// lookup is the lock-free, allocation-free cache read path: hash the
// quantized state, walk the immutable table, compare field-wise.
//
//remicss:noalloc
func (c *Cache) lookup(kind programKind, s core.Set, corr core.Correlation, kappa, mu float64, obj Objective) (*cacheEntry, bool) {
	t := c.table.Load()
	if t == nil {
		return nil, false
	}
	h := c.hashState(kind, s, corr, kappa, mu, obj)
	for e := t.entries[h]; e != nil; e = e.next {
		if c.entryMatches(e, kind, s, corr, kappa, mu, obj) {
			e.lastUsed.Store(c.gen.Add(1))
			if c.hits != nil {
				c.hits.Inc()
			}
			return e, true
		}
	}
	return nil, false
}

// hashState folds the quantized channel state and program identity through
// a splitmix64-style mixer.
//
//remicss:noalloc
func (c *Cache) hashState(kind programKind, s core.Set, corr core.Correlation, kappa, mu float64, obj Objective) uint64 {
	h := mix64(uint64(kind), uint64(obj))
	h = mix64(h, uint64(len(s)))
	h = mix64(h, math.Float64bits(kappa))
	h = mix64(h, math.Float64bits(mu))
	for i := range s {
		h = mix64(h, uint64(c.quantRisk(s[i].Risk)))
		h = mix64(h, uint64(c.quantLoss(s[i].Loss)))
		h = mix64(h, uint64(c.quantDelay(s[i].Delay)))
		h = mix64(h, uint64(c.quantRate(s[i].Rate)))
	}
	// Only materially correlated groups reach the key, so an all-zero
	// model hashes identically to no model and shares its entries.
	for _, g := range corr.Groups {
		qr, ql := c.quantRho(g.RiskRho), c.quantRho(g.LossRho)
		if qr == 0 && ql == 0 {
			continue
		}
		h = mix64(h, uint64(g.Mask))
		h = mix64(h, uint64(qr))
		h = mix64(h, uint64(ql))
	}
	return h
}

// entryMatches compares an entry against a query state field-wise — hash
// collisions must never alias two distinct states.
//
//remicss:noalloc
func (c *Cache) entryMatches(e *cacheEntry, kind programKind, s core.Set, corr core.Correlation, kappa, mu float64, obj Objective) bool {
	if e.kind != kind || e.obj != obj ||
		e.kappa != math.Float64bits(kappa) || e.mu != math.Float64bits(mu) ||
		len(e.qchan) != 4*len(s) {
		return false
	}
	for i := range s {
		if e.qchan[4*i] != c.quantRisk(s[i].Risk) ||
			e.qchan[4*i+1] != c.quantLoss(s[i].Loss) ||
			e.qchan[4*i+2] != c.quantDelay(s[i].Delay) ||
			e.qchan[4*i+3] != c.quantRate(s[i].Rate) {
			return false
		}
	}
	// Compare the materially correlated groups (zero-quantized ones are
	// dropped from keys, so an all-zero model matches uncorrelated
	// entries) in order against the entry's stored triples.
	gi := 0
	for _, g := range corr.Groups {
		qr, ql := c.quantRho(g.RiskRho), c.quantRho(g.LossRho)
		if qr == 0 && ql == 0 {
			continue
		}
		if gi*3+3 > len(e.qcorr) ||
			e.qcorr[gi*3] != int64(g.Mask) ||
			e.qcorr[gi*3+1] != qr || e.qcorr[gi*3+2] != ql {
			return false
		}
		gi++
	}
	return gi*3 == len(e.qcorr)
}

//remicss:noalloc
func (c *Cache) quantRisk(z float64) int64 { return int64(math.Round(z / c.cfg.RiskStep)) }

//remicss:noalloc
func (c *Cache) quantLoss(l float64) int64 { return int64(math.Round(l / c.cfg.LossStep)) }

//remicss:noalloc
func (c *Cache) quantDelay(d time.Duration) int64 {
	return int64(math.Round(float64(d) / float64(c.cfg.DelayStep)))
}

//remicss:noalloc
func (c *Cache) quantRate(r float64) int64 { return int64(math.Round(r / c.cfg.RateStep)) }

//remicss:noalloc
func (c *Cache) quantRho(r float64) int64 { return int64(math.Round(r / c.cfg.RhoStep)) }

// mix64 is a splitmix64-style combining step.
//
//remicss:noalloc
func mix64(h, v uint64) uint64 {
	z := (h ^ v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// quantizeSet snaps every channel to the grid. Quantized risk and loss are
// clamped back into their valid ranges (a loss snapped up to 1.0 would be
// an invalid channel).
func (c *Cache) quantizeSet(s core.Set) core.Set {
	qs := make(core.Set, len(s))
	for i, ch := range s {
		qs[i] = core.Channel{
			Risk:  clampProb(float64(c.quantRisk(ch.Risk)) * c.cfg.RiskStep),
			Loss:  math.Min(clampProb(float64(c.quantLoss(ch.Loss))*c.cfg.LossStep), 1-1e-9),
			Delay: time.Duration(c.quantDelay(ch.Delay)) * c.cfg.DelayStep,
			Rate:  math.Max(float64(c.quantRate(ch.Rate))*c.cfg.RateStep, c.cfg.RateStep/2),
		}
	}
	return qs
}

func clampProb(p float64) float64 { return math.Max(0, math.Min(1, p)) }

// quantizeCorr snaps correlation factors to the rho grid, dropping groups
// whose factors both quantize to zero — those are independence, and keying
// them would split one schedule across two entries.
func (c *Cache) quantizeCorr(corr core.Correlation) core.Correlation {
	var out core.Correlation
	for _, g := range corr.Groups {
		qr, ql := c.quantRho(g.RiskRho), c.quantRho(g.LossRho)
		if qr == 0 && ql == 0 {
			continue
		}
		out.Groups = append(out.Groups, core.RiskGroup{
			Mask:    g.Mask,
			RiskRho: clampProb(float64(qr) * c.cfg.RhoStep),
			LossRho: clampProb(float64(ql) * c.cfg.RhoStep),
		})
	}
	return out
}

// insert publishes a new table containing the entry, evicting the
// least-recently-used quarter when the table is full. Caller holds c.mu.
func (c *Cache) insert(kind programKind, qs core.Set, qc core.Correlation, kappa, mu float64, obj Objective, sched core.Schedule, members []int) {
	qchan := make([]int64, 0, 4*len(qs))
	for i := range qs {
		qchan = append(qchan,
			c.quantRisk(qs[i].Risk), c.quantLoss(qs[i].Loss),
			c.quantDelay(qs[i].Delay), c.quantRate(qs[i].Rate))
	}
	var qcorr []int64
	for _, g := range qc.Groups {
		qcorr = append(qcorr, int64(g.Mask), c.quantRho(g.RiskRho), c.quantRho(g.LossRho))
	}
	e := &cacheEntry{
		kind:    kind,
		obj:     obj,
		kappa:   math.Float64bits(kappa),
		mu:      math.Float64bits(mu),
		qchan:   qchan,
		qcorr:   qcorr,
		sched:   sched,
		members: members,
	}
	e.lastUsed.Store(c.gen.Add(1))

	old := c.table.Load()
	next := &cacheTable{entries: map[uint64]*cacheEntry{}}
	if old != nil {
		var floor uint64
		if old.count >= c.cfg.MaxEntries {
			floor = c.evictionFloor(old)
		}
		for h, head := range old.entries {
			for cur := head; cur != nil; cur = cur.next {
				if cur.lastUsed.Load() < floor {
					if c.evictions != nil {
						c.evictions.Inc()
					}
					continue
				}
				kept := &cacheEntry{
					next: next.entries[h], kind: cur.kind, obj: cur.obj,
					kappa: cur.kappa, mu: cur.mu, qchan: cur.qchan,
					qcorr: cur.qcorr, sched: cur.sched, members: cur.members,
				}
				kept.lastUsed.Store(cur.lastUsed.Load())
				next.entries[h] = kept
				next.count++
			}
		}
	}
	h := c.hashState(kind, qs, qc, kappa, mu, obj)
	e.next = next.entries[h]
	next.entries[h] = e
	next.count++
	c.table.Store(next)
}

// evictionFloor returns the lastUsed generation below which entries are
// dropped: the quartile boundary of the current table's recency values.
func (c *Cache) evictionFloor(t *cacheTable) uint64 {
	used := make([]uint64, 0, t.count)
	for _, head := range t.entries {
		for cur := head; cur != nil; cur = cur.next {
			used = append(used, cur.lastUsed.Load())
		}
	}
	sort.Slice(used, func(i, j int) bool { return used[i] < used[j] })
	idx := len(used) / 4
	if idx == 0 {
		idx = 1
	}
	if idx >= len(used) {
		return 0
	}
	return used[idx] + 1
}

// Len reports the number of cached schedules.
func (c *Cache) Len() int {
	if t := c.table.Load(); t != nil {
		return t.count
	}
	return 0
}

func (c *Cache) emit(tier SolveTier) {
	if c.cfg.Trace == nil {
		return
	}
	var at time.Duration
	if c.cfg.Now != nil {
		at = c.cfg.Now()
	}
	c.cfg.Trace.Record(obs.EventScheduleResolved, -1, at, 0, int64(tier))
}

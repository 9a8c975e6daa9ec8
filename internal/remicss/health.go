package remicss

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand" //lint:allow insecure-rand health dithering places shares like the chooser; it never touches share material
	"strconv"
	"sync"
	"time"

	"remicss/internal/core"
	"remicss/internal/obs"
	"remicss/internal/schedule"
)

// HealthState is one state of the per-channel health machine.
type HealthState uint8

// The health states. Transitions: Healthy→Suspect→Down as the failure
// EWMA crosses the configured thresholds, Down→Probing when a backoff
// probe comes due, Probing→Healthy after enough consecutive successes,
// Probing→Down (with the probe interval doubled) on any failure.
const (
	// HealthHealthy: the channel carries traffic normally.
	HealthHealthy HealthState = iota
	// HealthSuspect: the failure EWMA crossed SuspectThreshold; the
	// channel still carries traffic but is one bad stretch from Down.
	HealthSuspect
	// HealthDown: the channel is excluded from the share schedule until a
	// probe comes due.
	HealthDown
	// HealthProbing: a probe is in flight — the chooser may place shares
	// on the channel, and their outcomes decide recovery or re-exclusion.
	HealthProbing
)

// String names the health state.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthDown:
		return "down"
	case HealthProbing:
		return "probing"
	}
	return "unknown"
}

// HealthConfig tunes the channel health tracker. The zero value gets
// sensible defaults from applyDefaults; fields are exposed as session
// knobs (see SessionConfig.Health).
type HealthConfig struct {
	// Alpha is the EWMA weight given to each new failure observation, in
	// (0, 1]. Defaults to 0.2.
	Alpha float64
	// SuspectThreshold is the EWMA failure rate at which a healthy
	// channel turns suspect. Defaults to 0.3.
	SuspectThreshold float64
	// DownThreshold is the EWMA failure rate at which a channel is
	// declared down and excluded from the schedule. Defaults to 0.6.
	DownThreshold float64
	// RecoverThreshold is the EWMA failure rate below which a suspect
	// channel returns to healthy. Defaults to 0.1.
	RecoverThreshold float64
	// ProbeInterval is the initial wait before probing a down channel.
	// Defaults to 200ms.
	ProbeInterval time.Duration
	// ProbeBackoff multiplies the probe interval after each failed probe.
	// Defaults to 2.
	ProbeBackoff float64
	// MaxProbeInterval caps the backed-off probe interval. Defaults to 3s.
	MaxProbeInterval time.Duration
	// ProbeSuccesses is how many consecutive successful sends a probing
	// channel needs to be declared healthy again. Defaults to 3.
	ProbeSuccesses int
}

func (c *HealthConfig) applyDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.2
	}
	if c.SuspectThreshold == 0 {
		c.SuspectThreshold = 0.3
	}
	if c.DownThreshold == 0 {
		c.DownThreshold = 0.6
	}
	if c.RecoverThreshold == 0 {
		c.RecoverThreshold = 0.1
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 200 * time.Millisecond
	}
	if c.ProbeBackoff == 0 {
		c.ProbeBackoff = 2
	}
	if c.MaxProbeInterval == 0 {
		c.MaxProbeInterval = 3 * time.Second
	}
	if c.ProbeSuccesses == 0 {
		c.ProbeSuccesses = 3
	}
}

func (c *HealthConfig) validate() error {
	if c.Alpha <= 0 || c.Alpha > 1 || math.IsNaN(c.Alpha) {
		return fmt.Errorf("remicss: health alpha %v outside (0, 1]", c.Alpha)
	}
	if c.RecoverThreshold <= 0 || c.SuspectThreshold <= c.RecoverThreshold || c.DownThreshold <= c.SuspectThreshold || c.DownThreshold >= 1 {
		return fmt.Errorf("remicss: health thresholds must satisfy 0 < recover(%v) < suspect(%v) < down(%v) < 1",
			c.RecoverThreshold, c.SuspectThreshold, c.DownThreshold)
	}
	if c.ProbeInterval <= 0 || c.MaxProbeInterval < c.ProbeInterval {
		return fmt.Errorf("remicss: probe intervals %v..%v invalid", c.ProbeInterval, c.MaxProbeInterval)
	}
	if c.ProbeBackoff < 1 {
		return fmt.Errorf("remicss: probe backoff %v below 1", c.ProbeBackoff)
	}
	if c.ProbeSuccesses < 1 {
		return fmt.Errorf("remicss: probe successes %d below 1", c.ProbeSuccesses)
	}
	return nil
}

// channelHealth is one channel's tracker state.
type channelHealth struct {
	ewma      float64
	state     HealthState
	probeIvl  time.Duration
	nextProbe time.Duration
	probeOK   int
}

// healthChannelMetrics are the per-channel obs handles.
type healthChannelMetrics struct {
	state       *obs.Gauge
	ewmaPPM     *obs.Gauge
	transitions *obs.Counter
	probes      *obs.Counter
}

// HealthTracker maintains the per-channel failure EWMA and health state
// machine the failover chooser consults. Observations come from two
// sources: the sender reports every share send outcome (ObserveSend), and
// the chooser reports link writability each schedule decision
// (ObserveReady); feedback-derived loss rates can be folded in too
// (ObserveLoss). Safe for concurrent use.
type HealthTracker struct {
	cfg   HealthConfig
	clock func() time.Duration
	trace *obs.Trace
	reg   *obs.Registry

	mu sync.Mutex
	// chans holds per-channel EWMA/state/probe data. guarded by mu.
	chans []channelHealth

	met []healthChannelMetrics
}

// NewHealthTracker builds a tracker for n channels. clock supplies the
// probe timebase (virtual time in simulation, wall time over UDP) and is
// required. reg receives the remicss_channel_* series (nil gives the
// tracker a private registry); trace, when non-nil, receives
// channel-state-changed and channel-probe events.
func NewHealthTracker(cfg HealthConfig, n int, clock func() time.Duration, reg *obs.Registry, trace *obs.Trace) (*HealthTracker, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, ErrNoLinks
	}
	if clock == nil {
		return nil, fmt.Errorf("remicss: nil clock")
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &HealthTracker{
		cfg:   cfg,
		clock: clock,
		trace: trace,
		reg:   reg,
		chans: make([]channelHealth, n),
		met:   make([]healthChannelMetrics, n),
	}
	for i := range t.met {
		label := obs.Label{Key: "channel", Value: strconv.Itoa(i)}
		t.met[i] = healthChannelMetrics{
			state:       reg.Gauge("remicss_channel_state", label),
			ewmaPPM:     reg.Gauge("remicss_channel_failure_ewma_ppm", label),
			transitions: reg.Counter("remicss_channel_transitions_total", label),
			probes:      reg.Counter("remicss_channel_probes_total", label),
		}
	}
	return t, nil
}

// Channels returns the number of channels tracked.
//
//lint:allow mutexguard chans is sized at construction and never resized; len needs no lock
func (t *HealthTracker) Channels() int { return len(t.chans) }

// State returns the current health state of one channel.
func (t *HealthTracker) State(ch int) HealthState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.chans[ch].state
}

// FailureRate returns the channel's current failure EWMA in [0, 1].
func (t *HealthTracker) FailureRate(ch int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.chans[ch].ewma
}

// transition moves a channel to a new state, mirroring it into the
// metrics and trace.
// Callers hold mu.
func (t *HealthTracker) transition(ch int, to HealthState) {
	c := &t.chans[ch]
	if c.state == to {
		return
	}
	c.state = to
	t.met[ch].state.Set(int64(to))
	t.met[ch].transitions.Inc()
	t.trace.Record(obs.EventChannelStateChanged, int32(ch), t.clock(), 0, int64(to))
}

// observe folds one failure observation (fail in [0, 1]) into the EWMA
// and runs the threshold transitions.
// Callers hold mu.
func (t *HealthTracker) observe(ch int, fail float64) {
	c := &t.chans[ch]
	c.ewma = (1-t.cfg.Alpha)*c.ewma + t.cfg.Alpha*fail
	t.met[ch].ewmaPPM.Set(int64(c.ewma * 1e6))
	switch c.state {
	case HealthHealthy:
		if c.ewma >= t.cfg.DownThreshold {
			t.down(ch)
		} else if c.ewma >= t.cfg.SuspectThreshold {
			t.transition(ch, HealthSuspect)
		}
	case HealthSuspect:
		if c.ewma >= t.cfg.DownThreshold {
			t.down(ch)
		} else if c.ewma <= t.cfg.RecoverThreshold {
			t.transition(ch, HealthHealthy)
		}
	}
}

// down excludes a channel and schedules its first (or next) probe.
// Callers hold mu.
func (t *HealthTracker) down(ch int) {
	c := &t.chans[ch]
	if c.state == HealthDown {
		return
	}
	if c.state == HealthProbing {
		// Failed probe: back off exponentially, up to the cap.
		c.probeIvl = time.Duration(float64(c.probeIvl) * t.cfg.ProbeBackoff)
		if c.probeIvl > t.cfg.MaxProbeInterval {
			c.probeIvl = t.cfg.MaxProbeInterval
		}
	} else {
		c.probeIvl = t.cfg.ProbeInterval
	}
	c.nextProbe = t.clock() + c.probeIvl
	c.probeOK = 0
	t.transition(ch, HealthDown)
}

// ObserveSend reports the outcome of one share send on a channel: ok is
// whether the link accepted the datagram. Failed sends raise the failure
// EWMA; on a probing channel, outcomes drive recovery (ProbeSuccesses
// consecutive accepts) or re-exclusion with a doubled probe interval.
// Nil-safe so senders can hold an optional tracker without branching.
func (t *HealthTracker) ObserveSend(ch int, ok bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fail := 1.0
	if ok {
		fail = 0
	}
	c := &t.chans[ch]
	if c.state == HealthProbing {
		if ok {
			c.probeOK++
			if c.probeOK >= t.cfg.ProbeSuccesses {
				c.ewma = 0
				t.met[ch].ewmaPPM.Set(0)
				t.transition(ch, HealthHealthy)
			}
			return
		}
		t.down(ch)
		return
	}
	t.observe(ch, fail)
}

// ObserveReady reports a link's writability as seen by one schedule
// decision. Unwritable observations count as failures, so a blacked-out
// channel (whose sends the chooser never attempts) still decays to Down;
// an unwritable probing channel counts as a failed probe. Nil-safe.
func (t *HealthTracker) ObserveReady(ch int, ready bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.chans[ch]
	if c.state == HealthProbing {
		if !ready {
			t.down(ch)
		}
		return
	}
	if c.state == HealthDown {
		// A down channel's readiness is sampled by probes, not by every
		// schedule decision; skip so the EWMA freezes until a probe runs.
		return
	}
	fail := 1.0
	if ready {
		fail = 0
	}
	t.observe(ch, fail)
}

// ObserveLoss folds a measured per-channel loss rate (for example from a
// receiver feedback report) into the failure EWMA, letting feedback loss
// drive the health machine the same way send failures do. Nil-safe.
func (t *HealthTracker) ObserveLoss(ch int, loss float64) {
	if t == nil {
		return
	}
	if loss < 0 {
		loss = 0
	} else if loss > 1 {
		loss = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.chans[ch].state == HealthDown || t.chans[ch].state == HealthProbing {
		return
	}
	t.observe(ch, loss)
}

// Usable reports whether the chooser may place shares on the channel.
// Healthy, suspect, and probing channels are usable. A down channel
// becomes usable exactly when its backoff probe comes due: the call then
// moves it to Probing and records a channel-probe trace event, admitting
// probe traffic whose outcomes decide recovery.
func (t *HealthTracker) Usable(ch int) bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.chans[ch]
	if c.state != HealthDown {
		return true
	}
	now := t.clock() //lint:allow lockorder clock is an injected time source; implementations are pure reads and take no locks
	if now < c.nextProbe {
		return false
	}
	c.probeOK = 0
	t.transition(ch, HealthProbing)
	t.met[ch].probes.Inc()
	t.trace.Record(obs.EventChannelProbe, int32(ch), now, 0, int64(c.probeIvl))
	return true
}

// HealthChooser is a failover-aware dynamic chooser: it dithers (k, m)
// around the (κ, μ) targets exactly like DynamicChooser, but places
// shares only on channels the health tracker deems usable, and — when the
// usable set cannot carry the full multiplicity — degrades by clamping
// the multiplicity while keeping the threshold dithered in
// {⌊κ⌋, ⌈κ⌉}. The effective threshold therefore never drops below ⌊κ⌋
// (Theorem 5's limited-schedule floor): if fewer than k usable channels
// remain, the symbol stalls rather than weakening the schedule.
//
// With Resolve, the chooser instead re-solves the Section IV-B LP over
// the surviving channel subset (Options.Limited keeps every assignment's
// threshold at or above ⌊κ⌋) whenever the usable set changes, and samples
// the re-solved schedule — the internal/schedule integration that keeps
// placement risk-optimal under failures.
//
// A HealthChooser must not be shared between senders: Choose mutates the
// rng, the pending draw, and scratch (the owning Sender serializes its
// own calls through chooserMu).
type HealthChooser struct {
	tracker   *HealthTracker
	kappa, mu float64
	rng       *rand.Rand

	// pending carries an unsatisfied (k, m) draw across stalled attempts,
	// mirroring DynamicChooser (redrawing would bias realized μ).
	pendingValid bool
	pendingK     int
	pendingM     int
	// ready and backlog are Choose scratch, reused across calls.
	ready   []int
	backlog []time.Duration

	// Re-solve mode (nil set disables): the full channel set and LP
	// objective, the sampler for the current usable subset, and the
	// subset it was solved for. cache memoizes re-solved schedules by
	// quantized survivor state, so revisiting a usable set (flapping
	// links, recovery) is a lookup instead of an LP solve.
	set           core.Set
	obj           schedule.Objective
	corr          *core.Correlation
	sampler       *schedule.Sampler
	solvedFor     uint32
	subToFull     []int
	resolveErr    error
	cache         *schedule.Cache
	resolveErrors *obs.Counter
}

// HealthOption configures a HealthChooser.
type HealthOption func(*HealthChooser)

// Resolve switches the chooser from multiplicity clamping to LP
// re-solving: whenever the usable channel set changes, the Section IV-B
// program is re-solved over the surviving subset of set (with the
// limited-schedule constraint keeping thresholds at or above ⌊κ⌋) and
// shares are placed by sampling the new optimum. set must cover the same
// channels, in the same order, as the sender's links.
func Resolve(set core.Set, obj schedule.Objective) HealthOption {
	return func(c *HealthChooser) {
		c.set = set
		c.obj = obj
	}
}

// ResolveCorrelated is Resolve under a correlated-adversary model: every
// re-solve projects the shared-risk groups onto the surviving channel
// subset and optimizes the correlated objective, so failover placement
// accounts for channels that share a conduit with the ones that just
// failed. The model must validate against set; factors are quantized by
// the chooser's schedule cache, so health-driven drift stays cache-warm.
func ResolveCorrelated(set core.Set, corr core.Correlation, obj schedule.Objective) HealthOption {
	return func(c *HealthChooser) {
		c.set = set
		c.obj = obj
		c.corr = &corr
	}
}

// NewHealthChooser builds a failover-aware chooser for targets
// 1 <= kappa <= mu over the tracker's channels. The rng must not be nil.
func NewHealthChooser(kappa, mu float64, tracker *HealthTracker, rng *rand.Rand, opts ...HealthOption) (*HealthChooser, error) {
	if math.IsNaN(kappa) || math.IsNaN(mu) || kappa < 1 || mu < kappa {
		return nil, fmt.Errorf("%w: kappa=%v, mu=%v", core.ErrInvalidParams, kappa, mu)
	}
	if tracker == nil {
		return nil, fmt.Errorf("remicss: nil health tracker")
	}
	if rng == nil {
		return nil, fmt.Errorf("remicss: nil rng")
	}
	c := &HealthChooser{kappa: kappa, mu: mu, tracker: tracker, rng: rng}
	for _, o := range opts {
		o(c)
	}
	if c.set != nil && c.set.N() != tracker.Channels() {
		return nil, fmt.Errorf("remicss: resolve set has %d channels, tracker %d", c.set.N(), tracker.Channels())
	}
	if c.corr != nil {
		if err := c.corr.Validate(c.set.N()); err != nil {
			return nil, err
		}
	}
	if c.set != nil {
		// Re-solve mode routes every solve through a schedule cache wired to
		// the tracker's registry, trace, and clock: repeat usable sets hit
		// the cache, fresh ones warm-start the retained simplex basis.
		c.cache = schedule.NewCache(schedule.CacheConfig{
			Options: schedule.Options{Limited: true},
			Metrics: tracker.reg,
			Trace:   tracker.trace,
			Now:     tracker.clock,
		})
		c.resolveErrors = tracker.reg.Counter("remicss_chooser_resolve_errors_total")
	}
	return c, nil
}

// Tracker returns the chooser's health tracker.
func (c *HealthChooser) Tracker() *HealthTracker { return c.tracker }

// SetTargets retargets the chooser's (κ, μ), for an adaptive controller
// (internal/adapt) driving failover and parameter adaptation together.
// Invalid targets are rejected. The pending draw and any re-solved
// schedule are discarded so the new targets take effect immediately.
func (c *HealthChooser) SetTargets(kappa, mu float64) error {
	if math.IsNaN(kappa) || math.IsNaN(mu) || kappa < 1 || mu < kappa {
		return fmt.Errorf("%w: kappa=%v, mu=%v", core.ErrInvalidParams, kappa, mu)
	}
	c.kappa, c.mu = kappa, mu
	c.pendingValid = false
	c.sampler = nil
	c.solvedFor = 0
	return nil
}

// ResolveErr returns the last LP re-solve error, if re-solve mode is
// active and the most recent usable-set change could not be solved (the
// chooser then falls back to multiplicity clamping).
func (c *HealthChooser) ResolveErr() error { return c.resolveErr }

// Choose implements Chooser. Each call feeds link writability into the
// health tracker, then places the next symbol on usable, writable
// channels only.
func (c *HealthChooser) Choose(links []Link) (int, uint32, bool) {
	// Observation pass: writability into the tracker, then the usable set.
	var usable uint32
	ready := c.ready[:0]
	backlog := c.backlog[:0]
	for i, l := range links {
		w := l.Writable()
		c.tracker.ObserveReady(i, w)
		if w && c.tracker.Usable(i) {
			usable |= 1 << uint(i)
			ready = append(ready, i)
			backlog = append(backlog, l.Backlog())
		}
	}
	c.ready, c.backlog = ready, backlog

	if c.set != nil {
		if k, mask, ok, handled := c.chooseResolved(usable); handled {
			return k, mask, ok
		}
		// Re-solve failed; fall through to clamping so delivery continues.
	}

	if !c.pendingValid {
		// Comonotone dither, exactly as DynamicChooser: one uniform
		// drives both roundings, so k <= m symbol by symbol and k never
		// leaves {⌊κ⌋, ⌈κ⌉}.
		u := c.rng.Float64()
		m := int(math.Floor(c.mu))
		if u < c.mu-math.Floor(c.mu) {
			m++
		}
		k := int(math.Floor(c.kappa))
		if u < c.kappa-math.Floor(c.kappa) {
			k++
		}
		c.pendingK, c.pendingM, c.pendingValid = k, m, true
	}
	k, m := c.pendingK, c.pendingM
	// Failover degradation: clamp the multiplicity to the usable set, but
	// never the threshold — below k usable channels the symbol stalls.
	if m > len(ready) {
		m = len(ready)
	}
	if m < k {
		return 0, 0, false
	}
	// Stable insertion sort by backlog (see DynamicChooser: avoids
	// sort.SliceStable's allocations on a tiny slice).
	for i := 1; i < len(ready); i++ {
		for j := i; j > 0 && backlog[j] < backlog[j-1]; j-- {
			ready[j], ready[j-1] = ready[j-1], ready[j]
			backlog[j], backlog[j-1] = backlog[j-1], backlog[j]
		}
	}
	var mask uint32
	for _, i := range ready[:m] {
		mask |= 1 << uint(i)
	}
	c.pendingValid = false
	return k, mask, true
}

// chooseResolved implements re-solve mode: solve the LP over the usable
// subset when it changes, then sample the optimum. handled is false when
// the solver failed and the caller should fall back to clamping.
func (c *HealthChooser) chooseResolved(usable uint32) (int, uint32, bool, bool) {
	n := bits.OnesCount32(usable)
	floorK := int(math.Floor(c.kappa))
	if n < floorK {
		// Too few survivors to keep the threshold floor: stall.
		return 0, 0, false, true
	}
	if usable != c.solvedFor || c.sampler == nil {
		c.resolveFor(usable)
		if c.sampler == nil {
			return 0, 0, false, false
		}
	}
	a := c.sampler.Next()
	// Remap the subset mask onto full link indices.
	var mask uint32
	sub := a.Mask
	for sub != 0 {
		i := bits.TrailingZeros32(sub)
		sub &^= 1 << uint(i)
		mask |= 1 << uint(c.subToFull[i])
	}
	return a.K, mask, true, true
}

// resolveFor re-solves the schedule for one usable subset and rebuilds
// the sampler; on failure the sampler is left nil and the error kept.
func (c *HealthChooser) resolveFor(usable uint32) {
	c.sampler = nil
	c.solvedFor = usable
	c.subToFull = c.subToFull[:0]
	sub := make(core.Set, 0, bits.OnesCount32(usable))
	for i := 0; i < c.set.N(); i++ {
		if usable&(1<<uint(i)) != 0 {
			sub = append(sub, c.set[i])
			c.subToFull = append(c.subToFull, i)
		}
	}
	s := float64(len(sub))
	kappaEff := math.Min(c.kappa, s)
	muEff := math.Max(kappaEff, math.Min(c.mu, s))
	var (
		sched core.Schedule
		err   error
	)
	if c.corr != nil {
		sched, _, err = c.cache.OptimizeCorrelated(sub, c.corr.Project(c.subToFull), kappaEff, muEff, c.obj)
	} else {
		sched, _, err = c.cache.Optimize(sub, kappaEff, muEff, c.obj)
	}
	if err != nil {
		c.resolveErr = fmt.Errorf("remicss: re-solving schedule for %d survivors: %w", len(sub), err)
		c.noteResolveError(len(sub))
		return
	}
	sampler, err := schedule.NewSampler(sched, len(sub), c.rng)
	if err != nil {
		c.resolveErr = fmt.Errorf("remicss: sampling re-solved schedule: %w", err)
		c.noteResolveError(len(sub))
		return
	}
	c.resolveErr = nil
	c.sampler = sampler
}

// noteResolveError surfaces a re-solve failure on the observability plane:
// the remicss_chooser_resolve_errors_total counter and a resolve-error
// trace event carrying the survivor count that could not be solved.
func (c *HealthChooser) noteResolveError(survivors int) {
	if c.resolveErrors != nil {
		c.resolveErrors.Inc()
	}
	c.tracker.trace.Record(obs.EventResolveError, -1, c.tracker.clock(), 0, int64(survivors))
}

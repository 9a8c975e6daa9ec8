// Package remicss models, optimizes, and implements multichannel secret
// sharing protocols, reproducing "Modeling Privacy and Tradeoffs in
// Multichannel Secret Sharing Protocols" (Pohly & McDaniel, DSN 2016).
//
// # Model
//
// A channel set describes the available network paths; each Channel carries
// the quadruple (Risk, Loss, Delay, Rate). Protocol behavior is a share
// Schedule — a distribution p(k, M) over thresholds and channel subsets —
// summarized by the average threshold κ (privacy) and multiplicity μ
// (redundancy/cost):
//
//	set := remicss.ChannelSet{
//	    {Risk: 0.2, Loss: 0.01, Delay: 3 * time.Millisecond, Rate: 1000},
//	    {Risk: 0.1, Loss: 0.02, Delay: 5 * time.Millisecond, Rate: 2000},
//	    {Risk: 0.3, Loss: 0.005, Delay: time.Millisecond, Rate: 500},
//	}
//	rc, _ := set.OptimalRate(2)                 // Theorem 4
//	sched, _ := remicss.OptimizeScheduleAtMaxRate(set, 1.5, 2,
//	    remicss.ObjectiveRisk, remicss.ScheduleOptions{})
//	fmt.Println(rc, sched.Risk(set))
//
// Closed forms and theorems from the paper are methods on ChannelSet
// (MaxPrivacyRisk, MinLoss, MinDelay, MaxRate, OptimalRate, MuForRate,
// FullUtilizationMaxMu); the Section IV-B and IV-D linear programs are
// OptimizeSchedule and OptimizeScheduleAtMaxRate.
//
// # Protocol
//
// NewSender and NewReceiver implement the ReMICSS reference protocol over
// any transport satisfying Link. Two transports ship with the library: the
// deterministic virtual-time network emulator (for experiments —
// remicss/internal is reachable only through this facade's re-exports) and
// real UDP sockets via DialUDP/ListenUDP.
//
// # Risk estimation
//
// The risk vector ẑ consumed by the model can be estimated from per-channel
// observations with the HMM filter in RiskModel (Årnes et al., the paper's
// reference technique).
package remicss

import (
	"io"
	"math/rand" //lint:allow insecure-rand facade re-exports seedable choosers for simulation; share entropy defaults to crypto/rand
	"time"

	"remicss/internal/core"
	"remicss/internal/leakage"
	"remicss/internal/lp"
	"remicss/internal/remicss"
	"remicss/internal/risk"
	"remicss/internal/schedule"
	"remicss/internal/sharing"
)

// Channel is one network path's (z, l, d, r) quadruple.
type Channel = core.Channel

// ChannelSet is an ordered set of disjoint channels; bitmask subsets index
// into it. All model results (Theorems 1–5, extremal metrics) are methods
// on this type.
type ChannelSet = core.Set

// Assignment is one (threshold, channel-subset) protocol choice.
type Assignment = core.Assignment

// Schedule is a share schedule: the distribution p(k, M) over assignments.
type Schedule = core.Schedule

// Model errors re-exported for errors.Is.
var (
	ErrInvalidChannel  = core.ErrInvalidChannel
	ErrInvalidParams   = core.ErrInvalidParams
	ErrInvalidSchedule = core.ErrInvalidSchedule
	ErrInfeasible      = schedule.ErrInfeasible
	// ErrIterationLimit marks an LP solve abandoned at the simplex
	// iteration cap; the wrapped error text carries the cap.
	ErrIterationLimit = lp.ErrIterationLimit
)

// Objective selects which property a schedule optimization minimizes.
type Objective = schedule.Objective

// Schedule objectives: Z(p), L(p), D(p).
const (
	ObjectiveRisk  = schedule.ObjectiveRisk
	ObjectiveLoss  = schedule.ObjectiveLoss
	ObjectiveDelay = schedule.ObjectiveDelay
)

// ScheduleOptions modifies schedule optimization; Limited restricts the
// choice set per Section IV-E for MICSS-style fixed-adversary threat
// models.
type ScheduleOptions = schedule.Options

// OptimizeSchedule solves the Section IV-B linear program: the share
// schedule minimizing the objective subject to average threshold kappa and
// multiplicity mu.
func OptimizeSchedule(set ChannelSet, kappa, mu float64, obj Objective, opts ScheduleOptions) (Schedule, error) {
	return schedule.Optimize(set, kappa, mu, obj, opts)
}

// OptimizeScheduleAtMaxRate solves the Section IV-D linear program: the
// same minimization constrained to schedules that achieve the optimal
// multichannel rate R_C for mu.
func OptimizeScheduleAtMaxRate(set ChannelSet, kappa, mu float64, obj Objective, opts ScheduleOptions) (Schedule, error) {
	return schedule.OptimizeAtMaxRate(set, kappa, mu, obj, opts)
}

// EnumerateAssignments lists every valid (k, M) for an n-channel set.
func EnumerateAssignments(n int) []Assignment {
	return core.EnumerateAssignments(n)
}

// ScheduleGenConfig tunes sampled/pruned candidate generation for large
// channel sets: the zero value selects documented defaults. Set it on
// ScheduleOptions.Generate to force generation below the exact-enumeration
// cap, or pass it through OptimizeScheduleLarge.
type ScheduleGenConfig = core.GenConfig

// OptimizeScheduleLarge solves the Section IV-B program for channel sets
// far beyond the exact-enumeration cap (hundreds of channels). Candidates
// come from greedy, sampled, and dominance-pruned subset generation, so the
// optimum is approximate — within the bound documented in DESIGN §11 of the
// exhaustive optimum where both are computable. The returned schedule is
// compacted onto the channels its support uses; members maps its local
// indices back to ascending indices into set. The program models
// independent channels only: opts with a Correlation that has groups, or a
// positive GroupExposureCap, is refused with an error wrapping
// ErrInvalidCorrelation.
func OptimizeScheduleLarge(set ChannelSet, kappa, mu float64, obj Objective, opts ScheduleOptions) (sched Schedule, members []int, err error) {
	return schedule.OptimizeLarge(set, kappa, mu, obj, opts)
}

// ScheduleCache memoizes optimized share schedules keyed by quantized
// channel state, backed by a warm-started incremental simplex solver — the
// cached/warm/cold solve path used by LP re-solving failover
// (ResolveSchedule) and adaptive retuning. Safe for concurrent use; the hit
// path is lock- and allocation-free.
type ScheduleCache = schedule.Cache

// ScheduleCacheConfig tunes a ScheduleCache: the quantization grid, the
// entry bound, the solve Options, and the observability sinks.
type ScheduleCacheConfig = schedule.CacheConfig

// SolveTier reports how a ScheduleCache resolved one request, cheapest
// first: cached lookup, warm-started re-solve, cold solve. Carried by the
// schedule-resolved trace event.
type SolveTier = schedule.SolveTier

// The schedule solve tiers.
const (
	SolveTierCached = schedule.TierCached
	SolveTierWarm   = schedule.TierWarm
	SolveTierCold   = schedule.TierCold
)

// NewScheduleCache builds a schedule cache.
func NewScheduleCache(cfg ScheduleCacheConfig) *ScheduleCache {
	return schedule.NewCache(cfg)
}

// ScheduleSensitivity reports the shadow prices of the κ and μ constraints
// at the Section IV-B optimum: the marginal change of the optimal objective
// per unit of each parameter. For ObjectiveRisk, dKappa is the (negative)
// price of privacy — how much risk one more unit of average threshold buys
// at this operating point.
func ScheduleSensitivity(set ChannelSet, kappa, mu float64, obj Objective, opts ScheduleOptions) (dKappa, dMu float64, err error) {
	return schedule.Sensitivity(set, kappa, mu, obj, opts)
}

// Protocol types re-exported from the reference implementation.
type (
	// Link is one unidirectional channel; implemented by the UDP transport
	// and the test emulator.
	Link = remicss.Link
	// Chooser picks (k, M) per symbol.
	Chooser = remicss.Chooser
	// Sender is the sending half of the protocol.
	Sender = remicss.Sender
	// SenderConfig configures a Sender.
	SenderConfig = remicss.SenderConfig
	// SenderStats counts sender activity.
	SenderStats = remicss.SenderStats
	// Receiver reassembles symbols from shares.
	Receiver = remicss.Receiver
	// ReceiverConfig configures a Receiver.
	ReceiverConfig = remicss.ReceiverConfig
	// ReceiverStats counts receiver activity.
	ReceiverStats = remicss.ReceiverStats
	// FixedChooser always uses one (k, M).
	FixedChooser = remicss.FixedChooser
	// HealthState is one state of the per-channel health machine
	// (healthy → suspect → down → probing).
	HealthState = remicss.HealthState
	// HealthConfig tunes the channel health tracker (EWMA weight,
	// state thresholds, probe backoff).
	HealthConfig = remicss.HealthConfig
	// HealthTracker maintains per-channel failure EWMAs and the failover
	// state machine consulted by NewHealthChooser.
	HealthTracker = remicss.HealthTracker
	// HealthOption configures a health chooser (see ResolveSchedule).
	HealthOption = remicss.HealthOption
)

// The channel health states, in escalation order.
const (
	// HealthHealthy: the channel carries traffic normally.
	HealthHealthy = remicss.HealthHealthy
	// HealthSuspect: elevated failure EWMA; still scheduled.
	HealthSuspect = remicss.HealthSuspect
	// HealthDown: excluded from the share schedule until a probe is due.
	HealthDown = remicss.HealthDown
	// HealthProbing: probe traffic admitted; outcomes decide recovery.
	HealthProbing = remicss.HealthProbing
)

// Protocol errors re-exported for errors.Is.
var (
	ErrBackpressure = remicss.ErrBackpressure
	ErrNoLinks      = remicss.ErrNoLinks
)

// NewSender builds a protocol sender over links.
func NewSender(cfg SenderConfig, links []Link) (*Sender, error) {
	return remicss.NewSender(cfg, links)
}

// NewReceiver builds a protocol receiver.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	return remicss.NewReceiver(cfg)
}

// NewDynamicChooser builds the paper's dynamic share schedule for targets
// kappa and mu: first-m-ready channel selection with dithered (k, m).
func NewDynamicChooser(kappa, mu float64, rng *rand.Rand) (Chooser, error) {
	return remicss.NewDynamicChooser(kappa, mu, rng)
}

// NewStaticChooser samples assignments i.i.d. from an explicit schedule,
// e.g. an LP optimum.
func NewStaticChooser(sched Schedule, n int, rng *rand.Rand) (Chooser, error) {
	return remicss.NewStaticChooser(sched, n, rng)
}

// NewHealthTracker builds a channel health tracker for n channels: the
// per-channel failure EWMA and healthy → suspect → down → probing state
// machine that drives failover. clock supplies the probe timebase;
// metrics (may be nil) receives the remicss_channel_* series; trace (may
// be nil) receives state-change and probe events.
func NewHealthTracker(cfg HealthConfig, n int, clock func() time.Duration, metrics *MetricsRegistry, trace *EventTrace) (*HealthTracker, error) {
	return remicss.NewHealthTracker(cfg, n, clock, metrics, trace)
}

// NewHealthChooser builds the failover-aware dynamic chooser: shares are
// dithered around (kappa, mu) like NewDynamicChooser, but placed only on
// channels the tracker deems usable, clamping the multiplicity — never
// the threshold, which stays at or above ⌊κ⌋ — when channels are down.
func NewHealthChooser(kappa, mu float64, tracker *HealthTracker, rng *rand.Rand, opts ...HealthOption) (Chooser, error) {
	return remicss.NewHealthChooser(kappa, mu, tracker, rng, opts...)
}

// ResolveSchedule switches a health chooser from multiplicity clamping to
// LP re-solving: on every usable-set change the Section IV-B program is
// re-solved over the surviving channels (with the Section IV-E limited
// constraint keeping thresholds at or above ⌊κ⌋) and shares are placed by
// sampling the new optimum. Re-solves route through a ScheduleCache wired
// to the tracker's registry, trace, and clock, so revisited usable sets
// (flapping links, recovery) hit the cache and fresh ones warm-start the
// retained simplex basis; failures surface as
// remicss_chooser_resolve_errors_total and a resolve-error trace event
// while the chooser falls back to clamping.
func ResolveSchedule(set ChannelSet, obj Objective) HealthOption {
	return remicss.Resolve(set, obj)
}

// RiskGroup is one shared-risk group of the correlated-adversary model: a
// set of channels (bitmask) that share infrastructure, with common-cause
// correlation factors for eavesdropping (RiskRho) and loss (LossRho). At
// rho = 0 the group is inert; at rho = 1 one compromise observes every
// member.
type RiskGroup = core.RiskGroup

// Correlation is a correlated-adversary model: disjoint shared-risk groups
// layered over the per-channel marginals. The zero value is the paper's
// independence assumption; ChannelSet's Correlated* methods and the
// schedule optimizers accept it to price shared conduits into risk and
// loss. Marginals are preserved exactly — only joint behavior changes.
type Correlation = core.Correlation

// ErrInvalidCorrelation marks a correlation model that fails validation
// (overlapping groups, out-of-range members, or rho outside [0, 1]).
var ErrInvalidCorrelation = core.ErrInvalidCorrelation

// ResolveScheduleCorrelated is ResolveSchedule under a correlated-adversary
// model: every re-solve prices the shared-risk groups into the LP objective
// and adds per-group exposure rows, with the model projected onto the
// surviving channels on each failover. Cache keys carry the quantized
// correlation state, so correlated and independent schedules never collide.
func ResolveScheduleCorrelated(set ChannelSet, corr Correlation, obj Objective) HealthOption {
	return remicss.ResolveCorrelated(set, corr, obj)
}

// LeakageConfig parameterizes the statistical-leakage model: the share
// field width, the per-observed-share partial leakage λ in bits, and the
// adversary-advantage budget that arms privacy alerts.
type LeakageConfig = leakage.Config

// LeakageScore is one symbol's leakage verdict: its exposure, its
// advantage bound ε, and whether the bound broke the budget.
type LeakageScore = leakage.Score

// LeakageStats aggregates a LeakageMeter's observations: symbol and alert
// counts, exposure and advantage extrema, and per-channel observed-share
// counts.
type LeakageStats = leakage.Stats

// LeakageMeter scores share-exposure events against the leakage-aware
// advantage bound, exporting the remicss_privacy_* metric series and
// privacy-alert trace events. Feed it per-symbol observation distributions
// (RecordSymbol / RecordSymbolPMF) and per-channel observed-share counts
// (RecordObserved).
type LeakageMeter = leakage.Meter

// NewLeakageMeter builds a leakage meter for n channels. metrics (may be
// nil) receives the remicss_privacy_* series; trace (may be nil) receives
// privacy-alert events. Panics if cfg fails validation, mirroring the
// metrics-registry constructors.
func NewLeakageMeter(cfg LeakageConfig, channels int, metrics *MetricsRegistry, trace *EventTrace) *LeakageMeter {
	return leakage.NewMeter(cfg, channels, metrics, trace)
}

// LeakageAdvantageBound bounds the adversary's advantage ε for one symbol
// shared k-of-len(probs), where probs are independent per-share observation
// probabilities. With λ = 0 it reduces to the plain exposure P(X ≥ k).
func LeakageAdvantageBound(probs []float64, k int, cfg LeakageConfig) float64 {
	return leakage.AdvantageBound(probs, k, cfg)
}

// CorrelatedLeakageAdvantageBound is LeakageAdvantageBound under a
// correlated-adversary model: the observation distribution over the
// channels in mask is the correlated mixture rather than the independent
// product.
func CorrelatedLeakageAdvantageBound(set ChannelSet, corr Correlation, k int, mask uint32, cfg LeakageConfig) float64 {
	return leakage.CorrelatedAdvantageBound(set, corr, k, mask, cfg)
}

// SharingScheme splits symbols into threshold shares and reconstructs them.
type SharingScheme = sharing.Scheme

// NewSharingScheme returns the production scheme: replication at k=1, XOR
// at k=m, Shamir otherwise. r may be nil to use crypto/rand.
func NewSharingScheme(r io.Reader) SharingScheme {
	return sharing.NewAuto(r)
}

// Split shares a secret with threshold k of m using the production scheme
// and crypto/rand randomness.
func Split(secret []byte, k, m int) ([]sharing.Share, error) {
	return sharing.NewAuto(nil).SplitSharesInto(secret, k, m, nil)
}

// Combine reconstructs a secret from at least k shares of a (k, m) split.
func Combine(shares []sharing.Share, k, m int) ([]byte, error) {
	return sharing.NewAuto(nil).CombineInto(nil, shares, k, m)
}

// Share is one share of a split secret.
type Share = sharing.Share

// ErrShareForged marks shares failing authentication under an
// authenticated scheme.
var ErrShareForged = sharing.ErrShareForged

// NewAuthenticatedScheme wraps a scheme with per-share HMAC-SHA256 tags
// under a pre-shared key, so corrupted or forged shares are detected before
// reconstruction instead of silently yielding garbage. Confidentiality
// remains information-theoretic; integrity is computational.
func NewAuthenticatedScheme(inner SharingScheme, key []byte) (SharingScheme, error) {
	return sharing.NewAuthenticated(inner, key)
}

// RiskModel is the two-state HMM used to estimate per-channel eavesdropping
// risk from observations (the z vector of the model).
type RiskModel = risk.Model

// DefaultRiskModel returns a reasonable channel-compromise HMM.
func DefaultRiskModel() RiskModel { return risk.DefaultModel() }

// EstimateRisks derives ẑ from one observation sequence per channel.
func EstimateRisks(m RiskModel, obsPerChannel [][]int) ([]float64, error) {
	return risk.EstimateRisks(m, obsPerChannel)
}

// Params bundles the protocol's tunable parameters with helpers for
// reasoning about the tradeoff they select.
type Params struct {
	// Kappa is the average threshold: κ-1 share interceptions are tolerated
	// without disclosure.
	Kappa float64
	// Mu is the average multiplicity: μ-κ share losses are tolerated, and
	// n-μ channels remain free for parallelism.
	Mu float64
}

// Validate checks 1 <= κ <= μ <= n against the set.
func (p Params) Validate(set ChannelSet) error {
	return set.CheckParams(p.Kappa, p.Mu)
}

// Profile evaluates the four overall network properties this parameter
// choice can achieve on the set: the optimal rate (Theorem 4) and the LP
// optima for risk, loss, and delay at that rate.
func (p Params) Profile(set ChannelSet) (Profile, error) {
	if err := p.Validate(set); err != nil {
		return Profile{}, err
	}
	rate, err := set.OptimalRate(p.Mu)
	if err != nil {
		return Profile{}, err
	}
	prof := Profile{Params: p, Rate: rate}
	for _, obj := range []Objective{ObjectiveRisk, ObjectiveLoss, ObjectiveDelay} {
		sched, err := OptimizeScheduleAtMaxRate(set, p.Kappa, p.Mu, obj, ScheduleOptions{})
		if err != nil {
			return Profile{}, err
		}
		switch obj {
		case ObjectiveRisk:
			prof.Risk = sched.Risk(set)
		case ObjectiveLoss:
			prof.Loss = sched.Loss(set)
		case ObjectiveDelay:
			prof.Delay = time.Duration(sched.Delay(set) * float64(time.Second))
		}
	}
	return prof, nil
}

// Profile is the privacy/performance envelope of a parameter choice: the
// optimal rate together with the best achievable risk, loss, and delay at
// that rate (each optimized independently).
type Profile struct {
	Params Params
	// Rate is R_C in symbols per second.
	Rate float64
	// Risk is the minimum schedule risk Z(p) at maximum rate.
	Risk float64
	// Loss is the minimum schedule loss L(p) at maximum rate.
	Loss float64
	// Delay is the minimum schedule delay D(p) at maximum rate.
	Delay time.Duration
}

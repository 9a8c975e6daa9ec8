// Package schedule constructs share schedules: the categorical
// distributions p(k, M) that drive a multichannel secret sharing protocol.
//
// It implements the two linear programs of the paper:
//
//   - Optimize (Section IV-B): minimize schedule risk, loss, or delay
//     subject to the average threshold κ and multiplicity μ.
//   - OptimizeAtMaxRate (Section IV-D): the same minimization with the
//     per-channel utilization constraints that guarantee the schedule can
//     transmit at the optimal multichannel rate R_C of Theorem 4.
//
// Both accept the Section IV-E "limited" restriction (k >= ⌊κ⌋ and
// |M| >= ⌊μ⌋), which adapts the model to the MICSS/courier threat model in
// which the adversary always controls a fixed set of channels.
//
// The package also provides a Sampler that draws i.i.d. assignments from a
// schedule, and Pack, the Figure-2 water-filling packer that converts
// per-channel share budgets into an explicit symbol-by-symbol sequence of
// channel subsets.
package schedule

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"remicss/internal/core"
	"remicss/internal/lp"
)

// Objective selects which schedule property the linear program minimizes.
type Objective int

// Objectives, matching Z(p), L(p), and D(p) from the paper.
const (
	ObjectiveRisk Objective = iota + 1
	ObjectiveLoss
	ObjectiveDelay
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case ObjectiveRisk:
		return "risk"
	case ObjectiveLoss:
		return "loss"
	case ObjectiveDelay:
		return "delay"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Options modifies schedule construction.
type Options struct {
	// Limited restricts the choice set to M' (Section IV-E): k >= ⌊κ⌋ and
	// |M| >= ⌊μ⌋, so that a threat model with a fixed set of compromised
	// channels sees at least ⌊κ⌋ shares required for every symbol.
	Limited bool
	// Generate forces sampled/pruned candidate generation (see
	// core.GenerateAssignments) with the given configuration instead of
	// exhaustive enumeration. When nil, enumeration is exhaustive up to
	// exactEnumerationLimit channels and generated beyond it.
	Generate *core.GenConfig
	// Correlation, when non-nil, builds the program under the
	// correlated-adversary model: risk and loss objective coefficients use
	// the common-cause mixture instead of the independent Poisson binomial,
	// and — when GroupExposureCap is positive — one inequality row per
	// shared-risk group bounds the schedule's group-attributable exposure
	// Σ p(k,M)·e_g(k,M) ≤ cap, expressed in equality form with one
	// zero-cost slack variable per group.
	Correlation *core.Correlation
	// GroupExposureCap is the per-group common-cause exposure bound; rows
	// are added only when it is positive and Correlation has groups.
	GroupExposureCap float64
}

// correlationRows reports whether the options call for group-exposure
// constraint rows.
func (o Options) correlationRows() bool {
	return o.Correlation != nil && o.GroupExposureCap > 0 && len(o.Correlation.Groups) > 0
}

// exactEnumerationLimit is the largest channel count for which the choice
// set is enumerated exhaustively. Beyond it the exponential enumeration is
// replaced by sampled/pruned generation with default GenConfig (the
// schedules become approximate; see DESIGN §11 for the error bound).
const exactEnumerationLimit = 12

// ErrInfeasible means no share schedule satisfies the requested parameters.
var ErrInfeasible = errors.New("schedule: no feasible share schedule")

// probabilityFloor drops LP solution entries below this mass; they are
// floating-point residue, not meaningful schedule entries.
const probabilityFloor = 1e-9

// Optimize solves the Section IV-B linear program: find the share schedule
// minimizing the chosen objective with average threshold kappa and average
// multiplicity mu over the set.
func Optimize(s core.Set, kappa, mu float64, obj Objective, opts Options) (core.Schedule, error) {
	sched, _, err := solve(programSectionIVB, s, kappa, mu, obj, opts)
	return sched, err
}

// OptimizeAtMaxRate solves the Section IV-D linear program: minimize the
// chosen objective subject to κ and to the per-channel utilization
// constraints Σ_{(k,M): i∈M} p(k,M) = min{r_i/R_C, 1}, which force the
// schedule to be capable of the optimal rate R_C for μ. The μ constraint is
// implied by the utilization constraints (their sum is μ by Theorem 3), as
// in the paper's program.
func OptimizeAtMaxRate(s core.Set, kappa, mu float64, obj Objective, opts Options) (core.Schedule, error) {
	sched, _, err := solve(programMaxRate, s, kappa, mu, obj, opts)
	return sched, err
}

// Sensitivity reports the shadow prices of the parameter constraints of the
// Section IV-B program at its optimum: the marginal change of the optimal
// objective per unit increase of κ and of μ. For the risk objective,
// dKappa is the (negative) "price of privacy" — how much schedule risk one
// more unit of average threshold buys.
func Sensitivity(s core.Set, kappa, mu float64, obj Objective, opts Options) (dKappa, dMu float64, err error) {
	p, err := build(programSectionIVB, s, kappa, mu, obj, opts)
	if err != nil {
		return 0, 0, err
	}
	sol, err := lp.Solve(p.prob)
	if err != nil {
		return 0, 0, wrapLPError(err)
	}
	// Constraint order: Σp=1, κ, μ.
	return sol.Duals[1], sol.Duals[2], nil
}

// solve builds one program, solves it with a one-shot solver, and decodes
// the optimum.
func solve(kind programKind, s core.Set, kappa, mu float64, obj Objective, opts Options) (core.Schedule, []int, error) {
	p, err := build(kind, s, kappa, mu, obj, opts)
	if err != nil {
		return nil, nil, err
	}
	sol, err := lp.Solve(p.prob)
	if err != nil {
		return nil, nil, wrapLPError(err)
	}
	return p.decode(sol)
}

// programKind names the three schedule programs. It selects the builder's
// choice set and constraint rows, and is part of the Cache key.
type programKind uint8

const (
	// programSectionIVB is the Section IV-B program over masks.
	programSectionIVB programKind = iota + 1
	// programMaxRate is the Section IV-D program: per-channel utilization
	// rows in place of the μ row.
	programMaxRate
	// programLarge is the Section IV-B program over generated wide
	// assignments, for sets beyond the mask range.
	programLarge
)

// program is one built schedule LP together with the choice set its
// columns stand for: mask assignments, or for the wide program member-list
// assignments. Any columns past the choice set are group-exposure slacks.
type program struct {
	prob  lp.Problem
	n     int
	masks []core.Assignment
	wide  []core.WideAssignment
}

// decode maps an optimal solution onto its schedule. A wide solution is
// compacted onto its support, and members lists the original channel each
// local index refers to; members is nil for the mask programs.
func (p program) decode(sol lp.Solution) (core.Schedule, []int, error) {
	if p.wide != nil {
		return compactWideSolution(sol.X, p.wide)
	}
	sched, err := solutionToSchedule(sol, p.masks, p.n)
	return sched, nil, err
}

// build constructs one schedule program: minimize the objective over the
// choice set subject to Σp = 1, Σp·k = κ, and the kind's third row family —
// Σp·|M| = μ, or for Section IV-D one utilization row per channel — followed
// by the group-exposure rows when the options call for them. The solve
// layer (one-shot, warm-started, or cached) is the caller's choice.
func build(kind programKind, s core.Set, kappa, mu float64, obj Objective, opts Options) (program, error) {
	if err := validate(kind, s, kappa, mu, opts); err != nil {
		return program{}, err
	}
	var targets []float64
	if kind == programMaxRate {
		var err error
		if targets, err = s.UtilizationTargets(mu); err != nil {
			return program{}, err
		}
	}

	// The choice set, with each column's threshold, multiplicity and cost.
	p := program{n: s.N()}
	var ks, ms, costs []float64
	if kind == programLarge {
		p.wide = core.GenerateWideAssignments(s, kappa, mu, opts.Limited, genConfig(opts))
		for _, a := range p.wide {
			ks, ms = append(ks, float64(a.K)), append(ms, float64(a.M()))
			costs = append(costs, membersCost(s, a, obj))
		}
	} else {
		p.masks = enumerate(s, kappa, mu, opts)
		for _, a := range p.masks {
			ks, ms = append(ks, float64(a.K)), append(ms, float64(a.M()))
		}
		costs = objectiveCoefficients(s, p.masks, obj, opts.Correlation)
	}
	nv := len(ks)
	if nv == 0 {
		return program{}, fmt.Errorf("%w: empty choice set", ErrInfeasible)
	}

	ones := make([]float64, nv)
	for j := range ones {
		ones[j] = 1
	}
	p.prob = lp.Problem{C: costs, A: [][]float64{ones, ks}, B: []float64{1, kappa}}
	if kind == programMaxRate {
		for i, target := range targets {
			row := make([]float64, nv)
			for j, a := range p.masks {
				if a.Mask&(1<<uint(i)) != 0 {
					row[j] = 1
				}
			}
			p.prob.A, p.prob.B = append(p.prob.A, row), append(p.prob.B, target)
		}
	} else {
		p.prob.A, p.prob.B = append(p.prob.A, ms), append(p.prob.B, mu)
	}
	if opts.correlationRows() {
		p.prob = addGroupExposureRows(p.prob, s, p.masks, *opts.Correlation, opts.GroupExposureCap)
	}
	return p, nil
}

// validate checks a program's inputs. The mask programs need a set within
// the mask range; the wide program checks each channel on its own, and
// refuses a correlation model it would otherwise ignore: its costs are
// independent and it has no group-exposure rows.
func validate(kind programKind, s core.Set, kappa, mu float64, opts Options) error {
	if kind != programLarge {
		if err := s.Validate(); err != nil {
			return err
		}
	} else {
		if len(s) == 0 {
			return fmt.Errorf("%w: empty channel set", core.ErrInvalidChannel)
		}
		for i, c := range s {
			if err := c.Validate(); err != nil {
				return fmt.Errorf("channel %d: %w", i, err)
			}
		}
	}
	if err := s.CheckParams(kappa, mu); err != nil {
		return err
	}
	if kind == programLarge && (opts.GroupExposureCap > 0 || opts.Correlation != nil && len(opts.Correlation.Groups) > 0) {
		return fmt.Errorf("%w: the wide program models no shared-risk groups", core.ErrInvalidCorrelation)
	}
	if opts.Correlation == nil {
		return nil
	}
	return opts.Correlation.Validate(s.N())
}

// addGroupExposureRows appends, per shared-risk group, the inequality
// Σ_j e_g(k_j, M_j)·p_j ≤ cap in equality form: every existing row and the
// objective are widened with one zero-cost slack column per group, and each
// new row sets its slack coefficient to 1. The group-attributable exposure
// e_g is linear in p (core.GroupExposure), which is what admits an LP row at
// all; the full correlated risk is not linear per group because shock
// patterns interact.
func addGroupExposureRows(prob lp.Problem, s core.Set, assignments []core.Assignment, corr core.Correlation, cap float64) lp.Problem {
	g := len(corr.Groups)
	nv := len(prob.C)
	wideC := make([]float64, nv+g)
	copy(wideC, prob.C)
	wideA := make([][]float64, 0, len(prob.A)+g)
	for _, row := range prob.A {
		wide := make([]float64, nv+g)
		copy(wide, row)
		wideA = append(wideA, wide)
	}
	wideB := make([]float64, len(prob.B), len(prob.B)+g)
	copy(wideB, prob.B)
	for gi := range corr.Groups {
		row := make([]float64, nv+g)
		for j, a := range assignments {
			row[j] = s.GroupExposure(corr, gi, a.K, a.Mask)
		}
		row[nv+gi] = 1
		wideA = append(wideA, row)
		wideB = append(wideB, cap)
	}
	return lp.Problem{C: wideC, A: wideA, B: wideB}
}

// wrapLPError maps solver errors onto the package's error vocabulary.
func wrapLPError(err error) error {
	if errors.Is(err, lp.ErrInfeasible) {
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return fmt.Errorf("schedule: %w", err)
}

// enumerate produces the choice set: exhaustively for small sets, by
// sampled/pruned generation for large ones or when Options.Generate forces
// it.
func enumerate(s core.Set, kappa, mu float64, opts Options) []core.Assignment {
	n := s.N()
	if opts.Generate != nil || n > exactEnumerationLimit {
		return core.GenerateAssignments(s, kappa, mu, opts.Limited, genConfig(opts))
	}
	if opts.Limited {
		return core.EnumerateLimitedAssignments(n, kappa, mu)
	}
	return core.EnumerateAssignments(n)
}

// objectiveCoefficients computes the per-assignment objective costs. A
// non-nil correlation model swaps the independent risk and loss formulas
// for their common-cause mixtures (delay is unaffected: the model couples
// observation and outage, not latency). With an all-zero model the
// correlated formulas return the independent values bit-exactly, so the
// program — and hence the schedule — is unchanged.
func objectiveCoefficients(s core.Set, assignments []core.Assignment, obj Objective, corr *core.Correlation) []float64 {
	c := make([]float64, len(assignments))
	for j, a := range assignments {
		switch obj {
		case ObjectiveRisk:
			if corr != nil {
				c[j] = s.CorrelatedSubsetRisk(*corr, a.K, a.Mask)
			} else {
				c[j] = s.SubsetRisk(a.K, a.Mask)
			}
		case ObjectiveLoss:
			if corr != nil {
				c[j] = s.CorrelatedSubsetLoss(*corr, a.K, a.Mask)
			} else {
				c[j] = s.SubsetLoss(a.K, a.Mask)
			}
		case ObjectiveDelay:
			c[j] = s.SubsetDelay(a.K, a.Mask)
		default:
			panic(fmt.Sprintf("schedule: unknown objective %d", int(obj)))
		}
	}
	return c
}

// genConfig returns the generation configuration the options force, or
// the zero value for the documented defaults.
func genConfig(opts Options) core.GenConfig {
	if opts.Generate != nil {
		return *opts.Generate
	}
	return core.GenConfig{}
}

// solutionToSchedule converts an LP solution vector into a validated
// schedule, dropping floating-point residue.
func solutionToSchedule(sol lp.Solution, assignments []core.Assignment, n int) (core.Schedule, error) {
	sched := make(core.Schedule)
	var total float64
	for j, p := range sol.X {
		if j >= len(assignments) {
			break // group-exposure slack columns carry no schedule mass
		}
		if p > probabilityFloor {
			sched[assignments[j]] += p
			total += p
		}
	}
	// Renormalize away the dropped residue so the schedule validates.
	for a := range sched {
		sched[a] /= total
	}
	if err := sched.Validate(n); err != nil {
		return nil, fmt.Errorf("schedule: solver produced invalid schedule: %w", err)
	}
	return sched, nil
}

// Sampler draws independent assignments from a share schedule via inverse
// transform sampling over the (deterministically ordered) support.
type Sampler struct {
	assignments []core.Assignment
	cumulative  []float64
	rng         *rand.Rand
}

// NewSampler builds a sampler for the schedule. The rng must not be nil and
// must not be shared across goroutines.
func NewSampler(p core.Schedule, n int, rng *rand.Rand) (*Sampler, error) {
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("schedule: nil rng")
	}
	support := p.Support()
	cum := make([]float64, len(support))
	var total float64
	for i, a := range support {
		total += p[a]
		cum[i] = total
	}
	// Guard the final boundary against rounding so Next never falls off the
	// end.
	cum[len(cum)-1] = math.Inf(1)
	return &Sampler{assignments: support, cumulative: cum, rng: rng}, nil
}

// Next draws the next assignment.
func (s *Sampler) Next() core.Assignment {
	u := s.rng.Float64()
	i := sort.SearchFloat64s(s.cumulative, u)
	return s.assignments[i]
}

// Pack is the Figure-2 construction: given each channel's share budget for
// one unit time (slots[i] shares on channel i) and a multiplicity m, it
// greedily assigns each successive source symbol to the m channels with the
// most remaining capacity. It returns one channel mask per symbol.
//
// For integral μ = m this greedy water-filling achieves the optimal symbol
// count ⌊R_C⌋ of Theorem 4 (verified against the closed form in tests).
func Pack(slots []int, m int) ([]uint32, error) {
	if m < 1 || m > len(slots) {
		return nil, fmt.Errorf("schedule: multiplicity %d outside [1, %d]", m, len(slots))
	}
	for i, s := range slots {
		if s < 0 {
			return nil, fmt.Errorf("schedule: negative slot count %d on channel %d", s, i)
		}
	}
	remaining := make([]int, len(slots))
	copy(remaining, slots)
	order := make([]int, len(slots))
	for i := range order {
		order[i] = i
	}

	var packing []uint32
	for {
		// Channels by most remaining capacity; stable on index for
		// determinism.
		sort.SliceStable(order, func(a, b int) bool {
			if remaining[order[a]] != remaining[order[b]] {
				return remaining[order[a]] > remaining[order[b]]
			}
			return order[a] < order[b]
		})
		if remaining[order[m-1]] == 0 {
			return packing, nil // fewer than m channels still have capacity
		}
		var mask uint32
		for _, i := range order[:m] {
			remaining[i]--
			mask |= 1 << uint(i)
		}
		packing = append(packing, mask)
	}
}

// PackUsage tallies how many symbols each channel carries in a packing.
func PackUsage(packing []uint32, n int) []int {
	usage := make([]int, n)
	for _, mask := range packing {
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				usage[i]++
			}
		}
	}
	return usage
}

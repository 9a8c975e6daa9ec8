package schedule

import (
	"fmt"
	"sort"

	"remicss/internal/core"
	"remicss/internal/lp"
)

// OptimizeLarge solves the Section IV-B program for channel sets beyond the
// exhaustive-enumeration cap (hundreds of channels), using sampled/pruned
// wide-assignment generation. Because an optimal vertex of the three-row
// program has at most three positive entries, the support of the solution
// touches only a handful of channels; OptimizeLarge compacts the schedule
// onto that support so it fits the bitmask Schedule representation.
//
// It returns the compacted schedule together with the ascending list of
// original channel indices its masks refer to: bit i of a schedule mask
// selects channel members[i] of s. The compacted support is guaranteed to
// stay within mask range for practical µ; in the degenerate case where the
// solution's support unions to more than 32 channels an error is returned.
//
// The wide program models independent channels only: an Options.Correlation
// with groups, or a positive GroupExposureCap, is refused with an error
// wrapping core.ErrInvalidCorrelation.
func OptimizeLarge(s core.Set, kappa, mu float64, obj Objective, opts Options) (core.Schedule, []int, error) {
	return solve(programLarge, s, kappa, mu, obj, opts)
}

// Program materializes the LP behind Optimize — or behind OptimizeLarge
// for sets beyond the exhaustive mask range — without solving it. It exists
// so the solve layer can be exercised on real schedule programs:
// cmd/remicss-bench's -schedule-json mode measures the cold two-phase
// simplex against warm-started re-solves of the program returned here.
func Program(s core.Set, kappa, mu float64, obj Objective, opts Options) (lp.Problem, error) {
	// Beyond the mask cap (or with an invalid channel, which the wide
	// program rejects with the same error) the wide-assignment program
	// applies.
	kind := programLarge
	if s.Validate() == nil {
		kind = programSectionIVB
	}
	p, err := build(kind, s, kappa, mu, obj, opts)
	return p.prob, err
}

// membersCost is the objective cost of one wide assignment, computed from
// its member list.
func membersCost(s core.Set, a core.WideAssignment, obj Objective) float64 {
	switch obj {
	case ObjectiveRisk:
		return s.MembersRisk(a.K, a.Members)
	case ObjectiveLoss:
		return s.MembersLoss(a.K, a.Members)
	case ObjectiveDelay:
		return s.MembersDelay(a.K, a.Members)
	default:
		panic(fmt.Sprintf("schedule: unknown objective %d", int(obj)))
	}
}

// compactWideSolution maps the positive entries of a wide LP solution onto
// the union of their member channels, renumbered 0..len(members)-1.
func compactWideSolution(x []float64, assignments []core.WideAssignment) (core.Schedule, []int, error) {
	inSupport := map[int]bool{}
	var support []int // indices into assignments
	for j, p := range x {
		if p > probabilityFloor {
			support = append(support, j)
			for _, i := range assignments[j].Members {
				inSupport[i] = true
			}
		}
	}
	if len(support) == 0 {
		return nil, nil, fmt.Errorf("schedule: solver produced empty support")
	}
	members := make([]int, 0, len(inSupport))
	for i := range inSupport {
		members = append(members, i)
	}
	sort.Ints(members)
	if len(members) > 32 {
		return nil, nil, fmt.Errorf("schedule: solution support spans %d channels, beyond mask range", len(members))
	}
	local := make(map[int]int, len(members))
	for li, i := range members {
		local[i] = li
	}

	sched := make(core.Schedule)
	var total float64
	for _, j := range support {
		var mask uint32
		for _, i := range assignments[j].Members {
			mask |= 1 << uint(local[i])
		}
		sched[core.Assignment{K: assignments[j].K, Mask: mask}] += x[j]
		total += x[j]
	}
	for a := range sched {
		sched[a] /= total
	}
	if err := sched.Validate(len(members)); err != nil {
		return nil, nil, fmt.Errorf("schedule: solver produced invalid schedule: %w", err)
	}
	return sched, members, nil
}

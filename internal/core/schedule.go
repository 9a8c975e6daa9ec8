package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"remicss/internal/stats"
)

// Assignment is one element of the choice set M-cal: a threshold k together
// with a channel subset M (as a bitmask over the channel set).
type Assignment struct {
	K    int
	Mask uint32
}

// M returns the multiplicity |M| of the assignment.
func (a Assignment) M() int { return bits.OnesCount32(a.Mask) }

// Valid reports whether 1 <= k <= |M| and the mask is non-empty within an
// n-channel set.
func (a Assignment) Valid(n int) bool {
	m := a.M()
	return a.Mask != 0 && a.Mask < 1<<uint(n) && a.K >= 1 && a.K <= m
}

// String renders the assignment for diagnostics, e.g. "(2, {0,2,4})".
func (a Assignment) String() string {
	return fmt.Sprintf("(%d, %v)", a.K, maskIndices(a.Mask))
}

// Schedule is a share schedule: the probability mass function p(k, M) over
// assignments. Entries absent from the map have probability zero.
type Schedule map[Assignment]float64

// scheduleProbTolerance bounds the acceptable deviation of the total
// probability mass from one; LP solutions carry floating-point noise.
const scheduleProbTolerance = 1e-6

// Validate checks that the schedule is a categorical distribution over valid
// assignments for an n-channel set.
func (p Schedule) Validate(n int) error {
	if len(p) == 0 {
		return fmt.Errorf("%w: empty schedule", ErrInvalidSchedule)
	}
	var total float64
	for a, prob := range p {
		if !a.Valid(n) {
			return fmt.Errorf("%w: invalid assignment %v for n=%d", ErrInvalidSchedule, a, n)
		}
		if prob < -scheduleProbTolerance || math.IsNaN(prob) {
			return fmt.Errorf("%w: negative probability %v for %v", ErrInvalidSchedule, prob, a)
		}
		total += prob
	}
	if math.Abs(total-1) > scheduleProbTolerance {
		return fmt.Errorf("%w: probabilities sum to %v", ErrInvalidSchedule, total)
	}
	return nil
}

// ErrInvalidSchedule marks malformed share schedules.
var ErrInvalidSchedule = fmt.Errorf("core: invalid share schedule")

// expect returns Σ p(k,M)·f(k,M) over the support. It sums in Support
// order, so the result does not depend on map iteration order: floating
// point addition is not associative, and a schedule with three or more
// entries would otherwise round differently from run to run.
func (p Schedule) expect(f func(Assignment) float64) float64 {
	var sum float64
	for _, a := range p.Support() {
		sum += p[a] * f(a)
	}
	return sum
}

// Kappa returns the average threshold κ = Σ p(k,M)·k.
func (p Schedule) Kappa() float64 {
	return p.expect(func(a Assignment) float64 { return float64(a.K) })
}

// Mu returns the average multiplicity μ = Σ p(k,M)·|M|.
func (p Schedule) Mu() float64 {
	return p.expect(func(a Assignment) float64 { return float64(a.M()) })
}

// Risk returns the schedule risk Z(p) = Σ p(k,M)·z(k,M) over the set.
func (p Schedule) Risk(s Set) float64 {
	return p.expect(func(a Assignment) float64 { return s.SubsetRisk(a.K, a.Mask) })
}

// Loss returns the schedule loss L(p) = Σ p(k,M)·l(k,M) over the set.
func (p Schedule) Loss(s Set) float64 {
	return p.expect(func(a Assignment) float64 { return s.SubsetLoss(a.K, a.Mask) })
}

// Delay returns the schedule delay D(p) = Σ p(k,M)·d(k,M) in seconds.
//
// Note this is the unconditional average of the per-assignment conditional
// delays, matching the paper's definition of D(p).
func (p Schedule) Delay(s Set) float64 {
	return p.expect(func(a Assignment) float64 { return s.SubsetDelay(a.K, a.Mask) })
}

// ChannelUsage returns, for each channel i, the proportion of symbols whose
// assignment includes channel i: Σ_{(k,M): i∈M} p(k,M). Used by the max-rate
// constraint of the Section IV-D linear program.
func (p Schedule) ChannelUsage(n int) []float64 {
	usage := make([]float64, n)
	for _, a := range p.Support() {
		for _, i := range maskIndices(a.Mask) {
			usage[i] += p[a]
		}
	}
	return usage
}

// Support returns the assignments with positive probability, sorted for
// deterministic iteration (by k, then mask).
func (p Schedule) Support() []Assignment {
	out := make([]Assignment, 0, len(p))
	for a, prob := range p {
		if prob > 0 {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].K != out[j].K {
			return out[i].K < out[j].K
		}
		return out[i].Mask < out[j].Mask
	})
	return out
}

// EnumerateAssignments lists every valid assignment for an n-channel set:
// all (k, M) with M a non-empty subset and 1 <= k <= |M|. The order is
// deterministic: ascending mask, then ascending k.
func EnumerateAssignments(n int) []Assignment {
	var out []Assignment
	stats.ForEachSubset(n, func(mask uint32) {
		if mask == 0 {
			return
		}
		m := bits.OnesCount32(mask)
		for k := 1; k <= m; k++ {
			out = append(out, Assignment{K: k, Mask: mask})
		}
	})
	return out
}

// EnumerateLimitedAssignments lists the restricted choice set M' of Section
// IV-E: assignments with k >= floor(kappa) and |M| >= floor(mu), used to
// accommodate the MICSS/courier threat model in which the adversary always
// controls a fixed set of channels.
func EnumerateLimitedAssignments(n int, kappa, mu float64) []Assignment {
	kMin := int(math.Floor(kappa))
	mMin := int(math.Floor(mu))
	var out []Assignment
	for _, a := range EnumerateAssignments(n) {
		if a.K >= kMin && a.M() >= mMin {
			out = append(out, a)
		}
	}
	return out
}

// Uniform returns the deterministic schedule that always uses assignment a.
func Uniform(a Assignment) Schedule {
	return Schedule{a: 1}
}

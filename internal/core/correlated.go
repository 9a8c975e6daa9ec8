package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"remicss/internal/stats"
)

// The paper's subset risk and loss formulas (Section IV-A) treat channels as
// independent Bernoulli trials, which is exact for physically disjoint paths
// but understates exposure whenever several "disjoint" channels ride one
// conduit — a shared fiber segment, cell tower, or transit AS. This file
// extends the model with shared-risk groups under a common-cause (one-factor)
// construction: each group g carries a latent shock event; when the shock
// fires, every channel in the group is simultaneously eavesdropped (risk
// shock) or blacked out (loss shock), and the per-channel residual
// probabilities are chosen so each channel's *marginal* risk and loss stay
// exactly the z_i and l_i of the independent model. The correlation factor
// rho in [0, 1] interpolates continuously from independence (rho = 0, where
// every formula reduces bit-exactly to the Poisson-binomial forms) to the
// maximal common-cause coupling the marginals admit (rho = 1, shock
// probability min over the group). The construction follows the
// correlated-random-variable secret-sharing line of Chou (arXiv:2110.10307):
// correlation is modeled as shared randomness between the adversary's taps,
// not as a change to any single channel's quality.

// RiskGroup is one shared-risk group: a set of channels presumed to share a
// physical conduit, with common-cause correlation factors for eavesdropping
// and for loss.
type RiskGroup struct {
	// Mask selects the member channels as a bitmask over the channel set,
	// matching the subset encoding used everywhere else in this package.
	// Must select at least one channel.
	Mask uint32
	// RiskRho is the eavesdrop correlation factor in [0, 1]: the group's
	// common-cause compromise probability is RiskRho times the smallest
	// member risk. 0 restores independent eavesdropping.
	RiskRho float64
	// LossRho is the outage correlation factor in [0, 1]: the group's
	// common-cause blackout probability is LossRho times the smallest
	// member loss. 0 restores independent loss.
	LossRho float64
}

// Members returns the group's channel indices, ascending.
func (g RiskGroup) Members() []int { return maskIndices(g.Mask) }

// Correlation is a correlated-adversary model over a channel set: a set of
// disjoint shared-risk groups. Channels in no group behave independently,
// exactly as in the paper's model.
type Correlation struct {
	// Groups are the shared-risk groups. Masks must be pairwise disjoint.
	Groups []RiskGroup
}

// ErrInvalidCorrelation marks malformed correlated-adversary models.
var ErrInvalidCorrelation = errors.New("core: invalid correlation model")

// Validate checks the correlation model against an n-channel set: every
// group mask non-empty and in range, masks pairwise disjoint, factors in
// [0, 1].
func (c Correlation) Validate(n int) error {
	var seen uint32
	for i, g := range c.Groups {
		if g.Mask == 0 {
			return fmt.Errorf("%w: group %d has empty mask", ErrInvalidCorrelation, i)
		}
		if n < 32 && g.Mask >= 1<<uint(n) {
			return fmt.Errorf("%w: group %d mask %b selects channels beyond set of %d",
				ErrInvalidCorrelation, i, g.Mask, n)
		}
		if seen&g.Mask != 0 {
			return fmt.Errorf("%w: group %d mask %b overlaps an earlier group",
				ErrInvalidCorrelation, i, g.Mask)
		}
		seen |= g.Mask
		if g.RiskRho < 0 || g.RiskRho > 1 || math.IsNaN(g.RiskRho) {
			return fmt.Errorf("%w: group %d risk rho %v outside [0, 1]",
				ErrInvalidCorrelation, i, g.RiskRho)
		}
		if g.LossRho < 0 || g.LossRho > 1 || math.IsNaN(g.LossRho) {
			return fmt.Errorf("%w: group %d loss rho %v outside [0, 1]",
				ErrInvalidCorrelation, i, g.LossRho)
		}
	}
	return nil
}

// Independent reports whether the model carries no correlation at all:
// no groups, or every factor zero. In that state every correlated formula
// reduces bit-exactly to its independent counterpart.
func (c Correlation) Independent() bool {
	for _, g := range c.Groups {
		if g.RiskRho != 0 || g.LossRho != 0 {
			return false
		}
	}
	return true
}

// Project restricts the model to the channels in members (ascending
// full-set indices), remapping each group's mask into the subset's local
// index space — the form a failover re-solve over surviving channels needs.
// Groups left with no surviving member are dropped; correlation factors are
// unchanged, because a conduit's common cause does not weaken when some of
// its channels are already down.
func (c Correlation) Project(members []int) Correlation {
	var out Correlation
	for _, g := range c.Groups {
		var mask uint32
		for j, ch := range members {
			if g.Mask&(1<<uint(ch)) != 0 {
				mask |= 1 << uint(j)
			}
		}
		if mask == 0 {
			continue
		}
		out.Groups = append(out.Groups, RiskGroup{Mask: mask, RiskRho: g.RiskRho, LossRho: g.LossRho})
	}
	return out
}

// GroupOf returns the index of the group containing channel ch, or -1 when
// the channel is in no group.
func (c Correlation) GroupOf(ch int) int {
	for i, g := range c.Groups {
		if g.Mask&(1<<uint(ch)) != 0 {
			return i
		}
	}
	return -1
}

// shockProb returns the common-cause event probability for one group under
// the marginal probabilities marg: rho times the smallest member value. The
// minimum keeps every residual probability in [0, 1], so the construction
// preserves marginals for any rho in [0, 1].
func shockProb(g RiskGroup, rho float64, marg []float64) float64 {
	if rho == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, i := range maskIndices(g.Mask) {
		if marg[i] < min {
			min = marg[i]
		}
	}
	return rho * min
}

// residualProb returns the channel probability conditioned on the group
// shock not firing: solving q + (1-q)·p' = p for p'. A shock probability at
// (or within rounding of) 1 leaves no residual mass.
func residualProb(p, q float64) float64 {
	if q >= 1-1e-12 {
		return 0
	}
	r := (p - q) / (1 - q)
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// shockMixture walks the common-cause mixture over the channels in mask:
// marg are the marginal per-channel event probabilities (risks or losses)
// and rhoOf selects each group's correlation factor. It conditions on every
// pattern of shocks among the groups that meet the mask; within a pattern
// the unshocked channels are independent trials with their residual
// probabilities. For each pattern of nonzero weight w it calls branch with
// w, the number of mask channels the shock hits surely, and the residuals
// of the others in mask order (a slice reused across calls). With every
// factor zero only the no-shock pattern carries mass, and its residuals are
// the marginals unchanged — which is what makes every fold over this walk
// reduce bit-exactly to its independent Poisson-binomial form.
func (c Correlation) shockMixture(marg []float64, mask uint32, rhoOf func(RiskGroup) float64, branch func(w float64, sure int, residual []float64)) {
	// Groups that meet the mask, with their shock probabilities.
	type liveGroup struct {
		inMask uint32 // member channels inside the mask
		q      float64
	}
	var live []liveGroup
	for _, g := range c.Groups {
		if in := g.Mask & mask; in != 0 {
			live = append(live, liveGroup{inMask: in, q: shockProb(g, rhoOf(g), marg)})
		}
	}

	// Residual probabilities for every mask channel, in mask-local order,
	// alongside each channel's live-group index (-1 for ungrouped).
	idx := maskIndices(mask)
	base := make([]float64, len(idx))
	groupOf := make([]int, len(idx))
	for j, ch := range idx {
		base[j] = marg[ch]
		groupOf[j] = -1
		for gi, lg := range live {
			if lg.inMask&(1<<uint(ch)) != 0 {
				groupOf[j] = gi
				base[j] = residualProb(marg[ch], lg.q)
				break
			}
		}
	}

	residual := make([]float64, 0, len(idx))
	for pattern := uint32(0); pattern < 1<<uint(len(live)); pattern++ {
		w := 1.0
		for gi, lg := range live {
			if pattern&(1<<uint(gi)) != 0 {
				w *= lg.q
			} else {
				w *= 1 - lg.q
			}
		}
		if w == 0 {
			continue
		}
		sure := 0
		residual = residual[:0]
		for j := range idx {
			if gi := groupOf[j]; gi >= 0 && pattern&(1<<uint(gi)) != 0 {
				sure++
				continue
			}
			residual = append(residual, base[j])
		}
		branch(w, sure, residual)
	}
}

// CorrelatedSubsetRisk computes the correlated z(k, M): the probability that
// an adversary whose taps are coupled through the model's shared-risk groups
// observes at least k of the shares sent over the channels in mask. With an
// all-zero model this is bit-identical to SubsetRisk; with positive factors
// it is never smaller, because the common cause moves probability mass onto
// the all-members-observed outcomes the threshold scheme is weakest against.
func (s Set) CorrelatedSubsetRisk(corr Correlation, k int, mask uint32) float64 {
	probs := s.maskValues(mask, s.Risks()) // validates the mask against the set
	checkSubsetParams(k, len(probs))
	// A shocked member is observed surely, so each branch needs k − sure
	// of its residual trials.
	var sum float64
	corr.shockMixture(s.Risks(), mask, func(g RiskGroup) float64 { return g.RiskRho },
		func(w float64, sure int, residual []float64) {
			sum += w * stats.TailAtLeast(residual, k-sure)
		})
	return math.Min(math.Max(sum, 0), 1) // rounding can step outside [0, 1]
}

// CorrelatedSubsetLoss computes the correlated l(k, M): the probability that
// fewer than k shares arrive when outages are coupled through the model's
// shared-risk groups (a conduit cut takes every member channel down at
// once). With an all-zero model this is bit-identical to SubsetLoss.
func (s Set) CorrelatedSubsetLoss(corr Correlation, k int, mask uint32) float64 {
	deliver := s.maskValues(mask, invertProbs(s.Losses()))
	checkSubsetParams(k, len(deliver))
	// The mixture runs over loss shocks: a shocked member delivers nothing,
	// and the rest deliver with the complement of their residual loss.
	// TailLess over deliveries is the independent form's expression, and
	// keeps the all-zero model bit-identical to SubsetLoss.
	var sum float64
	corr.shockMixture(s.Losses(), mask, func(g RiskGroup) float64 { return g.LossRho },
		func(w float64, _ int, residual []float64) {
			deliver = deliver[:0]
			for _, l := range residual {
				deliver = append(deliver, 1-l)
			}
			sum += w * stats.TailLess(deliver, k)
		})
	return math.Min(math.Max(sum, 0), 1) // rounding can step outside [0, 1]
}

// CorrelatedObservedPMF returns the probability mass function of the number
// of shares an adversary observes out of a symbol sent over the channels in
// mask, under the correlated model: out[c] is the probability that exactly c
// shares are observed. This is the mixture, over common-cause shock
// patterns, of shifted Poisson binomials; the leakage meter consumes it to
// bound adversary advantage. With an all-zero model it equals the
// independent Poisson-binomial pmf.
func (s Set) CorrelatedObservedPMF(corr Correlation, mask uint32) []float64 {
	out := make([]float64, len(s.maskValues(mask, s.Risks()))+1)
	corr.shockMixture(s.Risks(), mask, func(g RiskGroup) float64 { return g.RiskRho },
		func(w float64, sure int, residual []float64) {
			for c, p := range stats.Distribution(residual) {
				out[c+sure] += w * p
			}
		})
	return out
}

// GroupExposure returns the part of the correlated subset risk attributable
// to one group's common cause: the probability that group g's shock fires
// AND the adversary then observes at least k shares of a symbol sent over
// mask. It is linear in the schedule probabilities, which is what lets the
// schedule LP bound it with one constraint row per group (see
// internal/schedule).
func (s Set) GroupExposure(corr Correlation, g int, k int, mask uint32) float64 {
	probs := s.maskValues(mask, s.Risks())
	checkSubsetParams(k, len(probs))
	if g < 0 || g >= len(corr.Groups) {
		panic(fmt.Sprintf("core: group index %d outside [0, %d)", g, len(corr.Groups)))
	}
	grp := corr.Groups[g]
	q := shockProb(grp, grp.RiskRho, s.Risks())
	if q == 0 {
		return 0
	}
	in := grp.Mask & mask
	sure := bits.OnesCount32(in)
	// Conditioned on the shock, the group's in-mask members are observed
	// surely; every other mask channel keeps its marginal (other groups'
	// shocks are independent of this one and only increase the tail, so
	// using marginals keeps the row a lower bound on the attribution while
	// staying linear — the full mixture is bounded by the total correlated
	// risk, which tests cross-check).
	rest := make([]float64, 0, bits.OnesCount32(mask))
	for _, ch := range maskIndices(mask &^ in) {
		rest = append(rest, s.Risks()[ch])
	}
	return q * stats.TailAtLeast(rest, k-sure)
}

// GroupExposure returns the schedule's common-cause exposure attributable
// to shared-risk group g: Σ p(k,M) · e_g(k,M). This is the quantity the
// schedule LP's per-group rows bound.
func (p Schedule) GroupExposure(s Set, corr Correlation, g int) float64 {
	return p.expect(func(a Assignment) float64 { return s.GroupExposure(corr, g, a.K, a.Mask) })
}

// CorrelatedRisk returns the schedule risk Z(p) under the correlated model:
// Σ p(k,M) · z_corr(k,M). Reduces to Risk when the model is independent.
func (p Schedule) CorrelatedRisk(s Set, corr Correlation) float64 {
	return p.expect(func(a Assignment) float64 { return s.CorrelatedSubsetRisk(corr, a.K, a.Mask) })
}

// CorrelatedLoss returns the schedule loss L(p) under the correlated model:
// Σ p(k,M) · l_corr(k,M). Reduces to Loss when the model is independent.
func (p Schedule) CorrelatedLoss(s Set, corr Correlation) float64 {
	return p.expect(func(a Assignment) float64 { return s.CorrelatedSubsetLoss(corr, a.K, a.Mask) })
}

package core

import (
	"math"
	"math/bits"
	"testing"
	"time"
)

func corrTestSet() Set {
	return Set{
		{Risk: 0.10, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
		{Risk: 0.10, Loss: 0.02, Delay: 50 * time.Millisecond, Rate: 800},
		{Risk: 0.30, Loss: 0.05, Delay: 80 * time.Millisecond, Rate: 500},
	}
}

// The acceptance criterion: with every correlation factor at zero the
// correlated formulas must reproduce the paper's independent Poisson-binomial
// values bit-exactly, for every (k, mask) pair — not merely within epsilon.
func TestCorrelatedReducesToIndependentBitExact(t *testing.T) {
	set := corrTestSet()
	models := []Correlation{
		{}, // no groups at all
		{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0, LossRho: 0}}},
		{Groups: []RiskGroup{{Mask: 0b011}, {Mask: 0b100}}},
	}
	for mi, corr := range models {
		if !corr.Independent() {
			t.Fatalf("model %d: Independent() = false for all-zero factors", mi)
		}
		for mask := uint32(1); mask < 1<<uint(len(set)); mask++ {
			m := len(maskIndices(mask))
			for k := 1; k <= m; k++ {
				indRisk := set.SubsetRisk(k, mask)
				corrRisk := set.CorrelatedSubsetRisk(corr, k, mask)
				if corrRisk != indRisk {
					t.Errorf("model %d risk(k=%d, mask=%b): correlated %v != independent %v",
						mi, k, mask, corrRisk, indRisk)
				}
				indLoss := set.SubsetLoss(k, mask)
				corrLoss := set.CorrelatedSubsetLoss(corr, k, mask)
				if corrLoss != indLoss {
					t.Errorf("model %d loss(k=%d, mask=%b): correlated %v != independent %v",
						mi, k, mask, corrLoss, indLoss)
				}
			}
		}
	}
}

// The common-cause construction must leave each channel's marginal risk
// untouched: P(channel i observed) == z_i for any rho. A single-channel
// subset with k = 1 reads the marginal directly.
func TestCorrelatedPreservesMarginals(t *testing.T) {
	set := corrTestSet()
	for _, rho := range []float64{0, 0.25, 0.5, 0.8, 1} {
		corr := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: rho, LossRho: rho}}}
		for i := range set {
			mask := uint32(1) << uint(i)
			gotRisk := set.CorrelatedSubsetRisk(corr, 1, mask)
			if math.Abs(gotRisk-set[i].Risk) > 1e-12 {
				t.Errorf("rho=%v channel %d: marginal risk %v, want %v", rho, i, gotRisk, set[i].Risk)
			}
			gotLoss := set.CorrelatedSubsetLoss(corr, 1, mask)
			if math.Abs(gotLoss-set[i].Loss) > 1e-12 {
				t.Errorf("rho=%v channel %d: marginal loss %v, want %v", rho, i, gotLoss, set[i].Loss)
			}
		}
	}
}

// Exposure must be monotone in the correlation factor: coupling the taps of
// a group that a (k, M) assignment straddles can only help the adversary.
func TestCorrelatedRiskMonotoneInRho(t *testing.T) {
	set := corrTestSet()
	prev := -1.0
	for _, rho := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		corr := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: rho}}}
		z := set.CorrelatedSubsetRisk(corr, 2, 0b111)
		if z < prev-1e-15 {
			t.Fatalf("rho=%v: risk %v decreased from %v", rho, z, prev)
		}
		prev = z
	}
	// And strictly higher at the top than at independence.
	ind := set.SubsetRisk(2, 0b111)
	if prev <= ind {
		t.Fatalf("rho=1 risk %v not strictly above independent %v", prev, ind)
	}
}

// The worked 3-channel example used in DESIGN.md §15: uniform z = 0.1,
// group {0, 1} with rho = 0.8 gives shock q = 0.08 and roughly triples the
// k = 2 exposure over the full mask versus the independence assumption.
func TestCorrelatedWorkedExample(t *testing.T) {
	set := Set{
		{Risk: 0.1, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
		{Risk: 0.1, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
		{Risk: 0.1, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
	}
	corr := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0.8}}}

	// Independent: P(X >= 2) over three 0.1 trials = 3·0.1²·0.9 + 0.1³ = 0.028.
	ind := set.SubsetRisk(2, 0b111)
	if math.Abs(ind-0.028) > 1e-12 {
		t.Fatalf("independent z(2,111) = %v, want 0.028", ind)
	}

	// Correlated: q = 0.8·0.1 = 0.08, residual z' = 0.02/0.92.
	// Shock branch (w = 0.08): two sure observations, tail = 1.
	// No-shock branch (w = 0.92): P(X >= 2) over {z', z', 0.1}.
	zp := 0.02 / 0.92
	noShock := zp*zp*(1-0.1) + 2*zp*(1-zp)*0.1 + zp*zp*0.1
	want := 0.08*1 + 0.92*noShock
	got := set.CorrelatedSubsetRisk(corr, 2, 0b111)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("correlated z(2,111) = %v, want %v", got, want)
	}
	if got < 3*ind-0.005 {
		t.Fatalf("correlated %v not ≈3× independent %v", got, ind)
	}
}

// oracleCases are the correlated models the oracle tests cross-check:
// corrTestSet with both groups live, and a 5-channel set with two live
// groups and one ungrouped channel. Every factor is positive, on the risk
// and on the loss side.
func oracleCases() []struct {
	set  Set
	corr Correlation
} {
	five := Set{
		{Risk: 0.10, Loss: 0.01, Delay: 30 * time.Millisecond, Rate: 1000},
		{Risk: 0.25, Loss: 0.04, Delay: 50 * time.Millisecond, Rate: 800},
		{Risk: 0.05, Loss: 0.10, Delay: 80 * time.Millisecond, Rate: 500},
		{Risk: 0.20, Loss: 0.02, Delay: 20 * time.Millisecond, Rate: 900},
		{Risk: 0.15, Loss: 0.03, Delay: 40 * time.Millisecond, Rate: 700},
	}
	return []struct {
		set  Set
		corr Correlation
	}{
		{corrTestSet(), Correlation{Groups: []RiskGroup{
			{Mask: 0b011, RiskRho: 0.6, LossRho: 0.7},
			{Mask: 0b100, RiskRho: 0.9, LossRho: 0.5},
		}}},
		{five, Correlation{Groups: []RiskGroup{
			{Mask: 0b00011, RiskRho: 0.8, LossRho: 0.4},
			{Mask: 0b01100, RiskRho: 0.3, LossRho: 0.9},
		}}},
	}
}

// Cross-check the risk mixture against the brute-force oracle.
func TestCorrelatedRiskAgainstOracle(t *testing.T) {
	for ci, tc := range oracleCases() {
		for mask := uint32(1); mask < 1<<uint(len(tc.set)); mask++ {
			pmf := oracleEventPMF(tc.corr, tc.set.Risks(), riskRho, mask)
			for k := 1; k < len(pmf); k++ {
				var want float64
				for c := k; c < len(pmf); c++ {
					want += pmf[c]
				}
				got := tc.set.CorrelatedSubsetRisk(tc.corr, k, mask)
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("case %d risk(k=%d, mask=%b) = %v, oracle %v", ci, k, mask, got, want)
				}
			}
		}
	}
}

// Cross-check the loss mixture against the brute-force oracle: the oracle
// counts lost shares, so fewer than k deliveries out of m is more than
// m−k losses.
func TestCorrelatedLossAgainstOracle(t *testing.T) {
	for ci, tc := range oracleCases() {
		for mask := uint32(1); mask < 1<<uint(len(tc.set)); mask++ {
			pmf := oracleEventPMF(tc.corr, tc.set.Losses(), lossRho, mask)
			m := len(pmf) - 1
			for k := 1; k <= m; k++ {
				var want float64
				for lost := m - k + 1; lost <= m; lost++ {
					want += pmf[lost]
				}
				got := tc.set.CorrelatedSubsetLoss(tc.corr, k, mask)
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("case %d loss(k=%d, mask=%b) = %v, oracle %v", ci, k, mask, got, want)
				}
			}
		}
	}
}

// Cross-check the observed-count distribution against the brute-force
// oracle, count by count.
func TestCorrelatedPMFAgainstOracle(t *testing.T) {
	for ci, tc := range oracleCases() {
		for mask := uint32(1); mask < 1<<uint(len(tc.set)); mask++ {
			want := oracleEventPMF(tc.corr, tc.set.Risks(), riskRho, mask)
			got := tc.set.CorrelatedObservedPMF(tc.corr, mask)
			if len(got) != len(want) {
				t.Fatalf("case %d pmf(mask=%b) has %d entries, oracle %d", ci, mask, len(got), len(want))
			}
			for c := range want {
				if math.Abs(got[c]-want[c]) > 1e-12 {
					t.Errorf("case %d pmf(mask=%b)[%d] = %v, oracle %v", ci, mask, c, got[c], want[c])
				}
			}
		}
	}
}

func riskRho(g RiskGroup) float64 { return g.RiskRho }
func lossRho(g RiskGroup) float64 { return g.LossRho }

// oracleEventPMF is the brute-force form of the common-cause model: it
// enumerates every shock pattern of every group and, within each, every
// outcome of every mask channel, and returns the distribution of the
// number of mask channels the event (observation, or loss) hits. marg are
// the marginal event probabilities and rho picks each group's factor. A
// shocked group's members are hit surely; an unshocked member is hit with
// its residual probability.
func oracleEventPMF(corr Correlation, marg []float64, rho func(RiskGroup) float64, mask uint32) []float64 {
	idx := maskIndices(mask)
	qs := make([]float64, len(corr.Groups))
	for gi, g := range corr.Groups {
		qs[gi] = shockProb(g, rho(g), marg)
	}
	pmf := make([]float64, len(idx)+1)
	for pattern := uint32(0); pattern < 1<<uint(len(corr.Groups)); pattern++ {
		w := 1.0
		for gi := range corr.Groups {
			if pattern&(1<<uint(gi)) != 0 {
				w *= qs[gi]
			} else {
				w *= 1 - qs[gi]
			}
		}
		p := make([]float64, len(idx))
		for j, ch := range idx {
			p[j] = marg[ch]
			if gi := corr.GroupOf(ch); gi >= 0 {
				if pattern&(1<<uint(gi)) != 0 {
					p[j] = 1
				} else {
					p[j] = residualProb(marg[ch], qs[gi])
				}
			}
		}
		for outcome := uint32(0); outcome < 1<<uint(len(idx)); outcome++ {
			po := w
			for j := range idx {
				if outcome&(1<<uint(j)) != 0 {
					po *= p[j]
				} else {
					po *= 1 - p[j]
				}
			}
			pmf[bits.OnesCount32(outcome)] += po
		}
	}
	return pmf
}

// GroupExposure is the linear-in-p attribution the LP rows bound; it must
// never exceed the total correlated risk and must hit zero with the factor.
func TestGroupExposureBounds(t *testing.T) {
	set := corrTestSet()
	corr := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0.8}}}
	for mask := uint32(1); mask < 1<<uint(len(set)); mask++ {
		m := len(maskIndices(mask))
		for k := 1; k <= m; k++ {
			exp := set.GroupExposure(corr, 0, k, mask)
			total := set.CorrelatedSubsetRisk(corr, k, mask)
			if exp < 0 || exp > total+1e-12 {
				t.Errorf("group exposure(k=%d, mask=%b) = %v outside [0, %v]", k, mask, exp, total)
			}
		}
	}
	zero := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0}}}
	if e := set.GroupExposure(zero, 0, 2, 0b111); e != 0 {
		t.Fatalf("zero-rho group exposure = %v, want 0", e)
	}
}

func TestCorrelationValidate(t *testing.T) {
	cases := []struct {
		name string
		corr Correlation
		n    int
		ok   bool
	}{
		{"empty model", Correlation{}, 3, true},
		{"disjoint groups", Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0.5}, {Mask: 0b100}}}, 3, true},
		{"empty mask", Correlation{Groups: []RiskGroup{{Mask: 0}}}, 3, false},
		{"out of range mask", Correlation{Groups: []RiskGroup{{Mask: 0b1000}}}, 3, false},
		{"overlapping groups", Correlation{Groups: []RiskGroup{{Mask: 0b011}, {Mask: 0b110}}}, 3, false},
		{"rho above one", Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 1.5}}}, 3, false},
		{"negative loss rho", Correlation{Groups: []RiskGroup{{Mask: 0b011, LossRho: -0.1}}}, 3, false},
	}
	for _, tc := range cases {
		err := tc.corr.Validate(tc.n)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRiskGroupMembers(t *testing.T) {
	g := RiskGroup{Mask: 0b101}
	got := g.Members()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Members() = %v, want [0 2]", got)
	}
}

// Schedule-level aggregates must also reduce exactly and rank correlated
// above independent when a group is straddled.
func TestCorrelatedScheduleAggregates(t *testing.T) {
	set := corrTestSet()
	sched := Schedule{
		{K: 2, Mask: 0b111}: 0.6,
		{K: 2, Mask: 0b011}: 0.4,
	}
	zero := Correlation{Groups: []RiskGroup{{Mask: 0b011}}}
	if got, want := sched.CorrelatedRisk(set, zero), sched.Risk(set); got != want {
		t.Fatalf("zero-rho schedule risk %v != independent %v", got, want)
	}
	if got, want := sched.CorrelatedLoss(set, zero), sched.Loss(set); got != want {
		t.Fatalf("zero-rho schedule loss %v != independent %v", got, want)
	}
	corr := Correlation{Groups: []RiskGroup{{Mask: 0b011, RiskRho: 0.8, LossRho: 0.8}}}
	if got, ind := sched.CorrelatedRisk(set, corr), sched.Risk(set); got <= ind {
		t.Fatalf("correlated schedule risk %v not above independent %v", got, ind)
	}
	if got, ind := sched.CorrelatedLoss(set, corr), sched.Loss(set); got <= ind {
		t.Fatalf("correlated schedule loss %v not above independent %v", got, ind)
	}
}

package schedule

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"remicss/internal/core"
)

func randomSet(rng *rand.Rand, n int) core.Set {
	s := make(core.Set, n)
	for i := range s {
		s[i] = core.Channel{
			Risk:  0.05 + 0.9*rng.Float64(),
			Loss:  rng.Float64() * 0.3,
			Delay: time.Duration(1+rng.Intn(100)) * time.Millisecond,
			Rate:  10 + 90*rng.Float64(),
		}
	}
	return s
}

// TestGeneratedWithinBoundOfExhaustive is the documented error bound of
// DESIGN §11: where exhaustive enumeration is computable (n <= 10), the
// LP optimum over the generated candidate set must be within 10% (or an
// absolute 1e-6) of the exhaustive optimum, for every objective.
func TestGeneratedWithinBoundOfExhaustive(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(3)
		s := randomSet(rng, n)
		kappa, mu := 2+rng.Float64(), 3+rng.Float64()
		for _, limited := range []bool{false, true} {
			for _, obj := range []Objective{ObjectiveRisk, ObjectiveLoss, ObjectiveDelay} {
				exact, err := Optimize(s, kappa, mu, obj, Options{Limited: limited})
				if err != nil {
					t.Fatalf("seed %d: exhaustive: %v", seed, err)
				}
				gen, err := Optimize(s, kappa, mu, obj, Options{Limited: limited, Generate: &core.GenConfig{}})
				if err != nil {
					t.Fatalf("seed %d: generated: %v", seed, err)
				}
				exactVal := objectiveValue(exact, s, obj)
				genVal := objectiveValue(gen, s, obj)
				if genVal > exactVal*1.10+1e-6 {
					t.Errorf("seed %d n=%d limited=%v obj %v: generated %.6g vs exhaustive %.6g exceeds 10%% bound",
						seed, n, limited, obj, genVal, exactVal)
				}
				if genVal < exactVal-1e-9 {
					t.Errorf("seed %d obj %v: generated %.6g beat exhaustive %.6g — enumeration bug",
						seed, obj, genVal, exactVal)
				}
			}
		}
	}
}

func objectiveValue(p core.Schedule, s core.Set, obj Objective) float64 {
	switch obj {
	case ObjectiveRisk:
		return p.Risk(s)
	case ObjectiveLoss:
		return p.Loss(s)
	default:
		return p.Delay(s)
	}
}

// TestEnumerateRoutesToGeneration: sets beyond exactEnumerationLimit must
// transparently use generation inside Optimize and still produce a valid
// schedule meeting the parameter constraints.
func TestEnumerateRoutesToGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomSet(rng, exactEnumerationLimit+4)
	sched, err := Optimize(s, 2.5, 3.5, ObjectiveRisk, Options{Limited: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(s.N()); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sched.Kappa(), 2.5, 1e-6) || !almostEqual(sched.Mu(), 3.5, 1e-6) {
		t.Fatalf("kappa=%v mu=%v, want 2.5/3.5", sched.Kappa(), sched.Mu())
	}
}

// TestOptimizeLargeHundredsOfChannels is the scale acceptance criterion:
// n = 200 channels must produce a valid compacted schedule in under a
// second.
func TestOptimizeLargeHundredsOfChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSet(rng, 200)
	kappa, mu := 2.5, 3.5

	start := time.Now()
	sched, members, err := OptimizeLarge(s, kappa, mu, ObjectiveRisk, Options{Limited: true})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > time.Second {
		t.Fatalf("OptimizeLarge for n=200 took %v, budget 1s", elapsed)
	}
	if err := sched.Validate(len(members)); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sched.Kappa(), kappa, 1e-6) || !almostEqual(sched.Mu(), mu, 1e-6) {
		t.Fatalf("kappa=%v mu=%v, want %v/%v", sched.Kappa(), sched.Mu(), kappa, mu)
	}
	// The compacted members must be valid, ascending original indices.
	prev := -1
	for _, i := range members {
		if i <= prev || i >= 200 {
			t.Fatalf("bad member list %v", members)
		}
		prev = i
	}
	// The compacted schedule's metrics over the sub-set must be coherent:
	// risk evaluated on the compacted set equals the risk of the same
	// assignments on the full set.
	sub := make(core.Set, len(members))
	for li, i := range members {
		sub[li] = s[i]
	}
	if r := sched.Risk(sub); r < 0 || r > 1 {
		t.Fatalf("compacted schedule risk %v outside [0,1]", r)
	}
}

// TestOptimizeLargeMatchesOptimizeOnSmallSets: on sets small enough for the
// mask path, OptimizeLarge must agree with the generated Optimize (same
// candidates, same LP) modulo index compaction.
func TestOptimizeLargeMatchesOptimizeOnSmallSets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randomSet(rng, 9)
	kappa, mu := 2.2, 3.4

	large, members, err := OptimizeLarge(s, kappa, mu, ObjectiveLoss, Options{Limited: true})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Optimize(s, kappa, mu, ObjectiveLoss, Options{Limited: true, Generate: &core.GenConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	sub := make(core.Set, len(members))
	for li, i := range members {
		sub[li] = s[i]
	}
	if !almostEqual(large.Loss(sub), gen.Loss(s), 1e-9) {
		t.Fatalf("OptimizeLarge loss %v != generated Optimize loss %v", large.Loss(sub), gen.Loss(s))
	}
}

// The wide program has neither correlated costs nor group-exposure rows,
// so it must refuse a model with shared-risk groups, or a positive cap,
// instead of returning a schedule that ignores them. The set is one where
// the capped Section IV-B program is infeasible: the schedule the wide
// program returned without the check, {(2, {0, 1, 3}): 1}, carries a
// group exposure of 0.09, nine times the cap.
func TestOptimizeLargeRefusesCorrelation(t *testing.T) {
	s := core.Set{
		{Risk: 0.1, Loss: 0.01, Delay: 10 * time.Millisecond, Rate: 100},
		{Risk: 0.1, Loss: 0.01, Delay: 10 * time.Millisecond, Rate: 100},
		{Risk: 0.3, Loss: 0.01, Delay: 10 * time.Millisecond, Rate: 100},
		{Risk: 0.2, Loss: 0.01, Delay: 10 * time.Millisecond, Rate: 100},
	}
	corr := core.Correlation{Groups: []core.RiskGroup{{Mask: 0b0011, RiskRho: 0.9}}}
	capped := Options{Correlation: &corr, GroupExposureCap: 0.01}
	if _, err := Optimize(s, 2, 3, ObjectiveRisk, capped); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Optimize under the cap: err %v, want ErrInfeasible", err)
	}
	for name, opts := range map[string]Options{
		"groups and cap": capped,
		"groups only":    {Correlation: &corr},
		"cap only":       {GroupExposureCap: 0.01},
	} {
		if sched, members, err := OptimizeLarge(s, 2, 3, ObjectiveRisk, opts); !errors.Is(err, core.ErrInvalidCorrelation) {
			t.Errorf("%s: OptimizeLarge = %v over %v, err %v; want core.ErrInvalidCorrelation", name, sched, members, err)
		}
		c := NewCache(CacheConfig{Options: opts})
		if _, _, _, err := c.OptimizeLarge(s, 2, 3, ObjectiveRisk); !errors.Is(err, core.ErrInvalidCorrelation) {
			t.Errorf("%s: Cache.OptimizeLarge err %v, want core.ErrInvalidCorrelation", name, err)
		}
	}
	// A model without groups is the independent model, and stays accepted.
	if _, _, err := OptimizeLarge(s, 2, 3, ObjectiveRisk, Options{Correlation: &core.Correlation{}}); err != nil {
		t.Fatalf("empty model: %v", err)
	}
}

func BenchmarkOptimizeLarge200(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	s := randomSet(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimizeLarge(s, 2.5, 3.5, ObjectiveRisk, Options{Limited: true}); err != nil {
			b.Fatal(err)
		}
	}
}

package risk

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Model)
	}{
		{"initial not summing", func(m *Model) { m.Initial = [2]float64{0.5, 0.4} }},
		{"negative transition", func(m *Model) { m.Transition[0] = [2]float64{1.2, -0.2} }},
		{"emission size mismatch", func(m *Model) { m.Emission[1] = []float64{1} }},
		{"empty emissions", func(m *Model) { m.Emission[0], m.Emission[1] = nil, nil }},
		{"emission not summing", func(m *Model) { m.Emission[0] = []float64{0.5, 0.1, 0.1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := DefaultModel()
			tc.mod(&m)
			if err := m.Validate(); !errors.Is(err, ErrBadModel) {
				t.Errorf("got %v, want ErrBadModel", err)
			}
		})
	}
}

// TestFilterHandComputed checks one forward step against a hand calculation.
func TestFilterHandComputed(t *testing.T) {
	m := Model{
		Initial:    [2]float64{0.8, 0.2},
		Transition: [2][2]float64{{0.9, 0.1}, {0.3, 0.7}},
		Emission: [2][]float64{
			{0.7, 0.3},
			{0.2, 0.8},
		},
	}
	// One observation of symbol 1:
	// predict: safe = .8*.9 + .2*.3 = .78 ; comp = .8*.1 + .2*.7 = .22
	// weight:  safe = .78*.3 = .234 ; comp = .22*.8 = .176
	// posterior comp = .176 / (.234+.176) = .4292682927
	post, err := m.Filter([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(post[0], 0.176/0.410, 1e-9) {
		t.Errorf("posterior = %v, want %v", post[0], 0.176/0.410)
	}
}

func TestAlertsRaiseRiskQuietLowersIt(t *testing.T) {
	m := DefaultModel()
	base, err := m.Risk(nil)
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := m.Risk([]int{2, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := m.Risk([]int{0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if alerts <= base {
		t.Errorf("alerts did not raise risk: %v <= %v", alerts, base)
	}
	if quiet >= base {
		t.Errorf("quiet did not lower risk: %v >= %v", quiet, base)
	}
}

func TestPosteriorsAreProbabilities(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		_, obs, err := m.Simulate(200, rng)
		if err != nil {
			t.Fatal(err)
		}
		post, err := m.Filter(obs)
		if err != nil {
			t.Fatal(err)
		}
		for tt, p := range post {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("posterior[%d] = %v", tt, p)
			}
		}
	}
}

// TestFilterTracksSimulatedCompromise verifies the filter discriminates:
// average posterior while truly compromised should exceed the average while
// safe.
func TestFilterTracksSimulatedCompromise(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(4))
	var safeSum, compSum float64
	var safeN, compN int
	for trial := 0; trial < 50; trial++ {
		states, obs, err := m.Simulate(300, rng)
		if err != nil {
			t.Fatal(err)
		}
		post, err := m.Filter(obs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range states {
			if states[i] == StateCompromised {
				compSum += post[i]
				compN++
			} else {
				safeSum += post[i]
				safeN++
			}
		}
	}
	if compN == 0 || safeN == 0 {
		t.Skip("simulation produced only one state")
	}
	safeAvg := safeSum / float64(safeN)
	compAvg := compSum / float64(compN)
	if compAvg <= safeAvg+0.1 {
		t.Errorf("filter does not discriminate: safe avg %v, compromised avg %v", safeAvg, compAvg)
	}
}

func TestUniformEmissionsGiveNoInformation(t *testing.T) {
	// With identical emissions in both states, the posterior equals the
	// Markov-chain predictive distribution regardless of observations.
	m := Model{
		Initial:    [2]float64{1, 0},
		Transition: [2][2]float64{{0.9, 0.1}, {0, 1}},
		Emission: [2][]float64{
			{0.5, 0.5},
			{0.5, 0.5},
		},
	}
	post, err := m.Filter([]int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Predictive compromised mass after t steps: 1 - 0.9^t.
	for i, want := range []float64{0.1, 0.19, 0.271} {
		if !almostEqual(post[i], want, 1e-9) {
			t.Errorf("post[%d] = %v, want %v", i, post[i], want)
		}
	}
}

func TestImpossibleObservationFallsBack(t *testing.T) {
	// Symbol 1 has zero probability in both states; the filter must not
	// divide by zero and should keep the predictive distribution.
	m := Model{
		Initial:    [2]float64{0.5, 0.5},
		Transition: [2][2]float64{{1, 0}, {0, 1}},
		Emission: [2][]float64{
			{1, 0},
			{1, 0},
		},
	}
	post, err := m.Filter([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(post[0], 0.5, 1e-9) {
		t.Errorf("posterior = %v, want 0.5", post[0])
	}
}

func TestFilterRejectsOutOfAlphabet(t *testing.T) {
	m := DefaultModel()
	if _, err := m.Filter([]int{5}); !errors.Is(err, ErrBadObservation) {
		t.Errorf("got %v, want ErrBadObservation", err)
	}
	if _, err := m.Filter([]int{-1}); !errors.Is(err, ErrBadObservation) {
		t.Errorf("got %v, want ErrBadObservation", err)
	}
}

func TestEstimateRisks(t *testing.T) {
	m := DefaultModel()
	obs := [][]int{
		{0, 0, 0, 0},
		{2, 2, 2, 2},
		nil,
	}
	zs, err := EstimateRisks(m, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(zs) != 3 {
		t.Fatalf("got %d risks", len(zs))
	}
	if zs[0] >= zs[1] {
		t.Errorf("quiet channel risk %v >= alerting channel risk %v", zs[0], zs[1])
	}
	if !almostEqual(zs[2], m.Initial[StateCompromised], 1e-12) {
		t.Errorf("no-observation risk = %v, want prior %v", zs[2], m.Initial[StateCompromised])
	}
}

func TestSimulateValidation(t *testing.T) {
	m := DefaultModel()
	if _, _, err := m.Simulate(10, nil); err == nil {
		t.Error("nil rng accepted")
	}
	bad := m
	bad.Initial = [2]float64{2, -1}
	if _, _, err := bad.Simulate(10, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadModel) {
		t.Errorf("got %v, want ErrBadModel", err)
	}
	// A negative length is an error, not a makeslice panic, on both the
	// single and the per-channel route.
	if _, _, err := m.Simulate(-1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("Simulate accepted length -1")
	}
	if _, err := m.SimulateSet(2, -3, 1); err == nil {
		t.Error("SimulateSet accepted length -3")
	}
}

func TestRiskEmptyObservationUsesValidatedPrior(t *testing.T) {
	bad := DefaultModel()
	bad.Initial = [2]float64{0.2, 0.2}
	if _, err := bad.Risk(nil); !errors.Is(err, ErrBadModel) {
		t.Errorf("got %v, want ErrBadModel", err)
	}
}

func BenchmarkFilter1000(b *testing.B) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(1))
	_, obs, err := m.Simulate(1000, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Filter(obs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSimulateSetSeededAndDistinct(t *testing.T) {
	m := DefaultModel()
	a, err := m.SimulateSet(3, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.SimulateSet(3, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 {
		t.Fatalf("%d channels, want 3", len(a))
	}
	for i := range a {
		if len(a[i]) != 200 {
			t.Fatalf("channel %d: %d observations, want 200", i, len(a[i]))
		}
		for tt := range a[i] {
			if a[i][tt] != b[i][tt] {
				t.Fatalf("channel %d differs between same-seed runs at t=%d", i, tt)
			}
		}
	}
	// One rng threads through all channels: their sequences must differ.
	same := true
	for tt := range a[0] {
		if a[0][tt] != a[1][tt] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("channels 0 and 1 drew identical sequences")
	}
	// The sequences feed the estimator directly.
	if _, err := EstimateRisks(m, a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SimulateSet(0, 10, 1); err == nil {
		t.Fatal("zero channels accepted")
	}
}

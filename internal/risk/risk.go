// Package risk estimates per-channel eavesdropping risk — the z vector the
// protocol model consumes — from observable network evidence.
//
// The paper treats ẑ as an input "estimated using network risk assessment
// techniques", citing the hidden-Markov-model approach of Årnes et al.
// (2006). This package implements that technique: each channel is a
// two-state HMM (Safe, Compromised) emitting discrete observation symbols
// (e.g. IDS alert levels), and the forward algorithm yields the posterior
// probability that the channel is currently compromised, which is used
// directly as the channel's risk metric z.
package risk

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Channel states.
const (
	// StateSafe means the adversary cannot observe shares on the channel.
	StateSafe = 0
	// StateCompromised means the adversary observes every share.
	StateCompromised = 1
	numStates        = 2
)

// Model is a two-state discrete HMM describing one channel's compromise
// process.
type Model struct {
	// Initial is the prior distribution over {Safe, Compromised}.
	Initial [numStates]float64
	// Transition[i][j] is the per-step probability of moving from state i
	// to state j.
	Transition [numStates][numStates]float64
	// Emission[i] is the distribution over observation symbols in state i.
	// Both rows must have equal length (the observation alphabet size).
	Emission [numStates][]float64
}

// Validation errors.
var (
	ErrBadModel       = errors.New("risk: invalid model")
	ErrBadObservation = errors.New("risk: observation outside alphabet")
)

const probTolerance = 1e-9

// Validate checks that all distributions are well-formed.
func (m Model) Validate() error {
	if err := checkDist(m.Initial[:]); err != nil {
		return fmt.Errorf("%w: initial: %v", ErrBadModel, err)
	}
	for i := 0; i < numStates; i++ {
		if err := checkDist(m.Transition[i][:]); err != nil {
			return fmt.Errorf("%w: transition[%d]: %v", ErrBadModel, i, err)
		}
	}
	if len(m.Emission[0]) == 0 || len(m.Emission[0]) != len(m.Emission[1]) {
		return fmt.Errorf("%w: emission alphabet sizes %d and %d",
			ErrBadModel, len(m.Emission[0]), len(m.Emission[1]))
	}
	for i := 0; i < numStates; i++ {
		if err := checkDist(m.Emission[i]); err != nil {
			return fmt.Errorf("%w: emission[%d]: %v", ErrBadModel, i, err)
		}
	}
	return nil
}

func checkDist(p []float64) error {
	var sum float64
	for _, v := range p {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("negative or NaN probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > probTolerance {
		return fmt.Errorf("probabilities sum to %v", sum)
	}
	return nil
}

// DefaultModel returns a reasonable channel-compromise model: channels are
// rarely compromised, compromise persists, and the alphabet is
// {quiet, suspicious, alert} with alerts far likelier when compromised.
func DefaultModel() Model {
	return Model{
		Initial:    [numStates]float64{0.95, 0.05},
		Transition: [numStates][numStates]float64{{0.99, 0.01}, {0.05, 0.95}},
		Emission: [numStates][]float64{
			{0.90, 0.08, 0.02}, // safe: mostly quiet
			{0.40, 0.35, 0.25}, // compromised: noisy
		},
	}
}

// Filter runs the forward algorithm over the observation sequence and
// returns the posterior probability of StateCompromised after each
// observation. An empty sequence returns the prior's compromised mass.
func (m Model) Filter(obs []int) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	alphabet := len(m.Emission[0])
	cur := m.Initial
	out := make([]float64, 0, len(obs))
	for t, o := range obs {
		if o < 0 || o >= alphabet {
			return nil, fmt.Errorf("%w: obs[%d] = %d, alphabet %d", ErrBadObservation, t, o, alphabet)
		}
		var next [numStates]float64
		for j := 0; j < numStates; j++ {
			var pred float64
			for i := 0; i < numStates; i++ {
				pred += cur[i] * m.Transition[i][j]
			}
			next[j] = pred * m.Emission[j][o]
		}
		norm := next[0] + next[1]
		if norm <= 0 {
			// The observation is impossible under both states; fall back to
			// the predictive distribution without conditioning.
			for j := 0; j < numStates; j++ {
				var pred float64
				for i := 0; i < numStates; i++ {
					pred += cur[i] * m.Transition[i][j]
				}
				next[j] = pred
			}
			norm = next[0] + next[1]
		}
		next[0] /= norm
		next[1] /= norm
		cur = next
		out = append(out, cur[StateCompromised])
	}
	return out, nil
}

// Risk returns the channel's current risk metric z: the posterior
// compromise probability after the full observation sequence.
func (m Model) Risk(obs []int) (float64, error) {
	if len(obs) == 0 {
		if err := m.Validate(); err != nil {
			return 0, err
		}
		return m.Initial[StateCompromised], nil
	}
	post, err := m.Filter(obs)
	if err != nil {
		return 0, err
	}
	return post[len(post)-1], nil
}

// EstimateRisks derives the risk vector ẑ for a channel set from one
// observation sequence per channel, all under the same model.
func EstimateRisks(m Model, obsPerChannel [][]int) ([]float64, error) {
	out := make([]float64, len(obsPerChannel))
	for i, obs := range obsPerChannel {
		z, err := m.Risk(obs)
		if err != nil {
			return nil, fmt.Errorf("channel %d: %w", i, err)
		}
		out[i] = z
	}
	return out, nil
}

// Simulate generates a state trajectory and observation sequence of the
// given length from the model, for examples and tests. It returns the
// hidden states and the observations.
func (m Model) Simulate(length int, rng *rand.Rand) (states, obs []int, err error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	if rng == nil {
		return nil, nil, errors.New("risk: nil rng")
	}
	if length < 0 {
		return nil, nil, errors.New("risk: length must be non-negative")
	}
	states = make([]int, length)
	obs = make([]int, length)
	state := sample(m.Initial[:], rng)
	for t := 0; t < length; t++ {
		if t > 0 {
			state = sample(m.Transition[state][:], rng)
		}
		states[t] = state
		obs[t] = sample(m.Emission[state], rng)
	}
	return states, obs, nil
}

// SimulateSet generates one observation sequence per channel from a single
// seed, threading one seeded rng through every channel's trajectory so a
// multi-channel experiment replays exactly from its seed instead of
// depending on ambient randomness. The sequences feed EstimateRisks.
func (m Model) SimulateSet(channels, length int, seed int64) (obsPerChannel [][]int, err error) {
	if channels <= 0 {
		return nil, errors.New("risk: channels must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, channels)
	for i := range out {
		if _, out[i], err = m.Simulate(length, rng); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sample(dist []float64, rng *rand.Rand) int {
	u := rng.Float64()
	var cum float64
	for i, p := range dist {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(dist) - 1
}

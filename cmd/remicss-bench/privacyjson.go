package main

import (
	"fmt"

	"remicss/internal/bench"
	"remicss/internal/chaos"
	"remicss/internal/leakage"
)

// privacyPartialBits is the per-observed-share partial leakage λ assumed by
// the -privacy-json sweep: one bit of each GF(2^8) share leaks to the
// correlated adversary, so the leakage-bound column strictly dominates the
// plain exposure column instead of collapsing onto it (λ = 0 makes the two
// bit-identical by construction).
const privacyPartialBits = 1

// privacyScenarioEntry is one catalog scenario's privacy verdict in
// BENCH_privacy.json: the delivery context plus the full privacy report —
// independent vs correlated exposure and the leakage-aware advantage bound.
type privacyScenarioEntry struct {
	Scenario      string  `json:"scenario"`
	Seed          int64   `json:"seed"`
	Delivered     int64   `json:"delivered"`
	Offered       int64   `json:"offered"`
	DeliveryRatio float64 `json:"delivery_ratio"`
	Pass          bool    `json:"pass"`

	bench.PrivacyReport
}

// privacyBenchReport is the BENCH_privacy.json schema.
type privacyBenchReport struct {
	envelope
	PartialBits int                    `json:"partial_bits"`
	Scenarios   []privacyScenarioEntry `json:"scenarios"`
}

// runPrivacyJSON replays every builtin chaos scenario with privacy scoring
// armed and writes the per-scenario verdicts to path. Scenarios without
// overlapping blackouts derive no shared-risk groups and serve as baseline
// rows where the correlated and independent columns coincide; the
// correlated-blackout scenarios are the rows the model exists for.
func runPrivacyJSON(path string) error {
	report := privacyBenchReport{
		envelope:    newEnvelope("remicss-bench-privacy/v2"),
		PartialBits: privacyPartialBits,
	}
	for _, name := range chaos.Names() {
		sc, _ := chaos.Builtin(name)
		res, err := bench.RunChaos(bench.ChaosConfig{
			Scenario: sc,
			Privacy: &bench.PrivacyConfig{
				Leakage: leakage.Config{PartialBits: privacyPartialBits},
			},
		})
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		report.Scenarios = append(report.Scenarios, privacyScenarioEntry{
			Scenario:      res.Scenario,
			Seed:          res.Seed,
			Delivered:     res.Delivered,
			Offered:       res.Offered,
			DeliveryRatio: res.DeliveryRatio,
			Pass:          res.Pass(),
			PrivacyReport: *res.Privacy,
		})
	}

	if err := writeReport(path, report); err != nil {
		return err
	}
	fmt.Printf("Privacy verdicts over the chaos catalog (λ = %d bit/share, ρ defaults to %.1f for derived groups)\n",
		privacyPartialBits, bench.DefaultPrivacyRho)
	fmt.Printf("%-14s %-8s %9s %9s %9s %9s %7s %5s\n",
		"scenario", "groups", "mean ind", "mean corr", "max corr", "leak ε", "alerts", "pass")
	for _, e := range report.Scenarios {
		groups := "-"
		if len(e.Groups) > 0 {
			groups = ""
			for i, g := range e.Groups {
				if i > 0 {
					groups += ","
				}
				groups += fmt.Sprintf("%#b", g)
			}
		}
		fmt.Printf("%-14s %-8s %9.5f %9.5f %9.5f %9.5f %7d %5v\n",
			e.Scenario, groups, e.MeanIndependentExposure, e.MeanCorrelatedExposure,
			e.MaxCorrelatedExposure, e.LeakageBound, e.Alerts, e.Pass)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"remicss/internal/chaos"
)

// TestPrivacyJSONReport exercises the -privacy-json wiring end to end over
// the real catalog: every scenario gets a row, the correlated-blackout row
// carries the model's headline (correlated exposure strictly above the
// independence assumption, leakage bound strictly above both under λ = 1),
// and the ungrouped rows stay controlled baselines.
func TestPrivacyJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_privacy.json")
	if err := runPrivacyJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report privacyBenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != "remicss-bench-privacy/v2" {
		t.Errorf("schema %q", report.Schema)
	}
	if report.PartialBits != privacyPartialBits {
		t.Errorf("partial_bits %d, want %d", report.PartialBits, privacyPartialBits)
	}
	if len(report.Scenarios) != len(chaos.Names()) {
		t.Fatalf("%d rows, want one per catalog scenario (%d)",
			len(report.Scenarios), len(chaos.Names()))
	}
	var corrRow *privacyScenarioEntry
	for i := range report.Scenarios {
		e := &report.Scenarios[i]
		if e.SymbolsScored <= 0 {
			t.Errorf("%s: no symbols scored", e.Scenario)
		}
		if !e.Pass {
			t.Errorf("%s: catalog scenario fails its gates", e.Scenario)
		}
		// λ = 1: the advantage bound strictly dominates plain exposure.
		if e.LeakageBound <= e.MaxCorrelatedExposure {
			t.Errorf("%s: leakage bound %v not above max correlated exposure %v",
				e.Scenario, e.LeakageBound, e.MaxCorrelatedExposure)
		}
		if e.Scenario == "corrblackout" {
			corrRow = e
			continue
		}
		if len(e.Groups) != 0 {
			t.Errorf("%s: unexpected shared-risk groups %b", e.Scenario, e.Groups)
		}
		if e.MeanCorrelatedExposure != e.MeanIndependentExposure {
			t.Errorf("%s: baseline row diverged: correlated %v vs independent %v",
				e.Scenario, e.MeanCorrelatedExposure, e.MeanIndependentExposure)
		}
	}
	if corrRow == nil {
		t.Fatal("corrblackout row missing")
	}
	if len(corrRow.Groups) != 1 || corrRow.Groups[0] != 0b011 {
		t.Errorf("corrblackout groups %b, want [0b011]", corrRow.Groups)
	}
	if corrRow.MeanCorrelatedExposure <= corrRow.MeanIndependentExposure {
		t.Errorf("corrblackout correlated exposure %v not strictly above independent %v",
			corrRow.MeanCorrelatedExposure, corrRow.MeanIndependentExposure)
	}
}

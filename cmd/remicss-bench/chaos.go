package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"remicss/internal/bench"
	"remicss/internal/chaos"
)

// loadScenario resolves the -chaos argument: a builtin catalog name, or a
// path to a scenario script in the chaos DSL.
func loadScenario(arg string) (*chaos.Scenario, error) {
	if sc, ok := chaos.Builtin(arg); ok {
		return sc, nil
	}
	src, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a builtin scenario (%s) nor a readable script: %w",
			arg, strings.Join(chaos.Names(), ", "), err)
	}
	return chaos.Parse(string(src))
}

// runChaos replays one fault scenario and prints the degradation report;
// with jsonPath it also writes the report as JSON (the CI artifact).
func runChaos(arg, jsonPath string, seed int64) error {
	if arg == "list" {
		for _, name := range chaos.Names() {
			sc, _ := chaos.Builtin(name)
			fmt.Printf("%-12s %2d fault(s), %5s window, floor %.2f\n",
				name, len(sc.Faults), sc.Duration, sc.Floor)
		}
		return nil
	}
	sc, err := loadScenario(arg)
	if err != nil {
		return err
	}
	if seed != 0 {
		sc.Seed = seed
	}
	res, err := bench.RunChaos(bench.ChaosConfig{Scenario: sc})
	if err != nil {
		return err
	}
	printChaosReport(res, sc)
	if jsonPath != "" {
		if err := writeReport(jsonPath, res); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", jsonPath)
	}
	if !res.Pass() {
		return fmt.Errorf("scenario %s failed its gates", sc.Name)
	}
	return nil
}

func printChaosReport(res bench.ChaosResult, sc *chaos.Scenario) {
	gate := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	fmt.Printf("Chaos degradation report: %s (seed %d, %s window)\n", res.Scenario, res.Seed, sc.Duration)
	fmt.Printf("  delivery   %6d / %6d symbols  ratio %.4f  floor %.2f  [%s]\n",
		res.Delivered, res.Offered, res.DeliveryRatio, res.Floor, gate(res.FloorOK))
	fmt.Printf("  threshold  min k = %d, ⌊κ⌋ = %d                          [%s]\n",
		res.MinThreshold, res.KappaFloor, gate(res.ThresholdOK))
	fmt.Printf("  faults %d  failovers %d  recoveries %d  probes %d  mean delay %s\n",
		res.FaultsInjected, res.Failovers, res.Recoveries, res.Probes,
		res.MeanDelay.Round(10*time.Microsecond))
	for i, l := range res.Links {
		fmt.Printf("  ch %d [%-7s] sent %6d dropped %5d lost %5d dup %4d corrupt %4d delivered %6d\n",
			i, res.FinalStates[i], l.Sent, l.Dropped, l.Lost, l.Duplicated, l.Corrupted, l.Delivered)
	}
}

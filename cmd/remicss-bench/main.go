// Command remicss-bench regenerates the paper's evaluation figures over the
// network emulator and prints each as a table (or CSV).
//
// Usage:
//
//	remicss-bench -fig all
//	remicss-bench -fig 3-diverse -duration 2s -mustep 0.1 -csv
//	remicss-bench -fig compare
//	remicss-bench -chaos blackout -chaos-json chaos_blackout.json
//	remicss-bench -chaos list
//	remicss-bench -schedule-json BENCH_schedule.json
//	remicss-bench -privacy-json BENCH_privacy.json
//
// Figures: 2, 3-identical, 3-diverse, 4, 5, 6, 7, compare, all.
// Chaos mode (-chaos) replays a scripted fault scenario over the emulator
// and prints a degradation report; it exits non-zero if the run misses its
// delivery floor or violates the ⌊κ⌋ threshold floor.
// The two JSON modes time the solve path's tiers and score the chaos
// catalog under the correlated-adversary model; neither is on the per-symbol
// path, which benchmark/ at the repository root measures.
// The paper's full sweep density is -mustep 0.1; the default here is 0.25
// to keep "all" interactive.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"remicss/internal/bench"
	"remicss/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "remicss-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 2, 3-identical, 3-diverse, 4, 5, 6, 7, compare, ablations, adaptive, limited, all")
		duration  = flag.Duration("duration", 2*time.Second, "virtual measurement window per point")
		muStep    = flag.Float64("mustep", 0.25, "μ sweep step (paper: 0.1)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		metrics   = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /trace, and pprof on this address while the sweep runs (e.g. 127.0.0.1:9090)")
		schedJSON = flag.String("schedule-json", "", "run the schedule solve-path benchmarks (cold/warm/cached tiers at n=5,50,200) instead of figures and write the JSON report to this path (e.g. BENCH_schedule.json)")
		privJSON  = flag.String("privacy-json", "", "replay the builtin chaos catalog with correlated-adversary privacy scoring and write the per-scenario verdicts to this path (e.g. BENCH_privacy.json)")
		chaosArg  = flag.String("chaos", "", "replay a chaos scenario instead of figures: a builtin name, a scenario-script path, or 'list'")
		chaosJSON = flag.String("chaos-json", "", "with -chaos, also write the degradation report as JSON to this path")
	)
	flag.Parse()

	if *schedJSON != "" {
		return runScheduleJSON(*schedJSON)
	}
	if *privJSON != "" {
		return runPrivacyJSON(*privJSON)
	}
	if *chaosArg != "" {
		chaosSeed := *seed
		if chaosSeed == 1 {
			chaosSeed = 0 // flag default: keep the scenario's own seed
		}
		return runChaos(*chaosArg, *chaosJSON, chaosSeed)
	}

	fc := bench.FigureConfig{
		Duration: *duration,
		MuStep:   *muStep,
		Seed:     *seed,
	}
	if *metrics != "" {
		fc.Obs = obs.NewRegistry()
		fc.Trace = obs.NewTrace(0)
		srv, err := obs.StartServer(*metrics, fc.Obs, fc.Trace)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", srv.Addr())
	}

	runners := map[string]func(bench.FigureConfig, bool) error{
		"2":           fig2,
		"3-identical": func(fc bench.FigureConfig, csv bool) error { return fig3(bench.Identical(100), fc, csv) },
		"3-diverse":   func(fc bench.FigureConfig, csv bool) error { return fig3(bench.Diverse(), fc, csv) },
		"4":           fig4,
		"5":           fig5,
		"6":           fig6,
		"7":           fig7,
		"compare":     compare,
		"ablations":   ablations,
		"adaptive":    adaptive,
		"limited":     limited,
	}
	if *fig == "all" {
		for _, name := range []string{"2", "3-identical", "3-diverse", "4", "5", "6", "7", "compare", "ablations", "adaptive", "limited"} {
			fmt.Printf("==== figure %s ====\n", name)
			if err := runners[name](fc, *csv); err != nil {
				return fmt.Errorf("figure %s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	runner, ok := runners[*fig]
	if !ok {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	return runner(fc, *csv)
}

func fig2(bench.FigureConfig, bool) error {
	packings, err := bench.Fig2Packing()
	if err != nil {
		return err
	}
	fmt.Println("Figure 2: choosing M over one unit time to maximize rate, r = (3, 4, 8)")
	for m := 1; m <= 3; m++ {
		fmt.Printf("μ = %d:\n%s\n", m, bench.RenderFig2([]int{3, 4, 8}, packings[m]))
	}
	return nil
}

func fig3(setup bench.Setup, fc bench.FigureConfig, csv bool) error {
	points, err := bench.Fig3(setup, fc)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("setup,kappa,mu,optimal_mbps,actual_mbps")
		for _, p := range points {
			fmt.Printf("%s,%g,%g,%.4f,%.4f\n", setup.Name, p.Kappa, p.Mu, p.OptimalMbps, p.ActualMbps)
		}
		return nil
	}
	fmt.Printf("Figure 3 (%s): optimal and actual rate over κ and μ\n", setup.Name)
	fmt.Printf("%5s %5s %12s %12s %7s\n", "κ", "μ", "optimal", "actual", "gap")
	for _, p := range points {
		gap := (p.OptimalMbps - p.ActualMbps) / p.OptimalMbps * 100
		fmt.Printf("%5.0f %5.2f %9.2f Mb %9.2f Mb %6.2f%%\n", p.Kappa, p.Mu, p.OptimalMbps, p.ActualMbps, gap)
	}
	return nil
}

func fig4(fc bench.FigureConfig, csv bool) error {
	points, err := bench.Fig4(fc)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("kappa,mu,optimal_ms,actual_ms")
		for _, p := range points {
			fmt.Printf("%g,%g,%.4f,%.4f\n", p.Kappa, p.Mu, p.OptimalMs, p.ActualMs)
		}
		return nil
	}
	fmt.Println("Figure 4: optimal and actual delay at maximum rate (Delayed setup)")
	fmt.Printf("%5s %5s %12s %12s\n", "κ", "μ", "optimal", "actual")
	for _, p := range points {
		fmt.Printf("%5.0f %5.2f %9.3f ms %9.3f ms\n", p.Kappa, p.Mu, p.OptimalMs, p.ActualMs)
	}
	return nil
}

func fig5(fc bench.FigureConfig, csv bool) error {
	points, err := bench.Fig5(fc)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("kappa,mu,optimal_loss,actual_loss")
		for _, p := range points {
			fmt.Printf("%g,%g,%.6f,%.6f\n", p.Kappa, p.Mu, p.OptimalLoss, p.ActualLoss)
		}
		return nil
	}
	fmt.Println("Figure 5: loss at maximum rate (Lossy setup)")
	fmt.Printf("%5s %5s %10s %10s\n", "κ", "μ", "optimal", "actual")
	for _, p := range points {
		fmt.Printf("%5.0f %5.2f %9.4f%% %9.4f%%\n", p.Kappa, p.Mu, p.OptimalLoss*100, p.ActualLoss*100)
	}
	return nil
}

func scaling(points []bench.ScalingPoint, title string, csv bool) {
	if csv {
		fmt.Println("kappa,channel_mbps,optimal_mbps,actual_mbps")
		for _, p := range points {
			fmt.Printf("%g,%g,%.4f,%.4f\n", p.Kappa, p.ChannelMbps, p.OptimalMbps, p.ActualMbps)
		}
		return
	}
	fmt.Println(title)
	fmt.Printf("%5s %10s %12s %12s\n", "κ", "chan rate", "optimal", "actual")
	for _, p := range points {
		fmt.Printf("%5.0f %7.0f Mb %9.1f Mb %9.1f Mb\n", p.Kappa, p.ChannelMbps, p.OptimalMbps, p.ActualMbps)
	}
}

func fig6(fc bench.FigureConfig, csv bool) error {
	points, err := bench.Fig6(fc)
	if err != nil {
		return err
	}
	scaling(points, "Figure 6: rate with increasing channel rate, μ = 1 (Identical setup, host-limited)", csv)
	return nil
}

func fig7(fc bench.FigureConfig, csv bool) error {
	points, err := bench.Fig7(fc)
	if err != nil {
		return err
	}
	scaling(points, "Figure 7: rate with increasing channel rate, μ = 5 (Identical setup, host-limited)", csv)
	return nil
}

func compare(fc bench.FigureConfig, csv bool) error {
	rows, err := bench.CompareProtocols(fc)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("loss_pct,micss_mbps,micss_delay_ms,micss_retx,remicss_mbps,remicss_loss_pct,striping_mbps,striping_loss_pct")
		for _, r := range rows {
			fmt.Printf("%g,%.4f,%.4f,%d,%.4f,%.4f,%.4f,%.4f\n",
				r.LossPct, r.MICSSMbps, r.MICSSDelayMs, r.MICSSRetx,
				r.ReMICSSMbps, r.ReMICSSLossPct, r.StripingMbps, r.StripingLossPct)
		}
		return nil
	}
	fmt.Println("Protocol comparison on 5 identical 50 Mbps channels (not a paper figure)")
	fmt.Printf("%6s | %22s | %20s | %18s\n", "loss", "MICSS (κ=μ=5, reliable)", "ReMICSS (κ=3, μ=5)", "striping (κ=μ=1)")
	for _, r := range rows {
		fmt.Printf("%5.1f%% | %7.2f Mb %6.2fms %4d rtx | %7.2f Mb %5.2f%% lost | %6.1f Mb %5.2f%% lost\n",
			r.LossPct, r.MICSSMbps, r.MICSSDelayMs, r.MICSSRetx,
			r.ReMICSSMbps, r.ReMICSSLossPct, r.StripingMbps, r.StripingLossPct)
	}
	return nil
}

func ablations(fc bench.FigureConfig, csv bool) error {
	type row struct {
		name         string
		achievedMbps float64
		lossPct      float64
		// showLoss distinguishes measurements at the design operating point
		// (loss meaningful) from saturation probes (loss is just
		// offered-minus-capacity).
		showLoss bool
	}
	var rows []row

	// Chooser ordering on the Identical setup (κ=1, μ=3).
	for _, idx := range []bool{false, true} {
		name := "chooser=least-backlog"
		if idx {
			name = "chooser=index-order"
		}
		res, err := bench.Run(bench.RunConfig{
			Setup:             bench.Identical(100),
			Kappa:             1,
			Mu:                3,
			OfferedMbps:       1000,
			Duration:          fc.Duration,
			Seed:              fc.Seed,
			IndexOrderChooser: idx,
		})
		if err != nil {
			return err
		}
		rows = append(rows, row{name: name, achievedMbps: res.AchievedMbps})
	}
	// Dynamic vs static LP schedule on the Lossy setup at R_C.
	for _, kind := range []bench.ChooserKind{bench.ChooserDynamic, bench.ChooserStaticMaxRate} {
		name := "schedule=dynamic"
		if kind == bench.ChooserStaticMaxRate {
			name = "schedule=static-lp"
		}
		res, err := bench.Run(bench.RunConfig{
			Setup:       bench.Lossy(),
			Kappa:       2,
			Mu:          3,
			Chooser:     kind,
			OfferedMbps: 75,
			Duration:    fc.Duration,
			Seed:        fc.Seed,
		})
		if err != nil {
			return err
		}
		rows = append(rows, row{name: name, achievedMbps: res.AchievedMbps,
			lossPct: res.LossFraction * 100, showLoss: true})
	}

	if csv {
		fmt.Println("ablation,achieved_mbps,loss_pct")
		for _, r := range rows {
			fmt.Printf("%s,%.4f,%.4f\n", r.name, r.achievedMbps, r.lossPct)
		}
		return nil
	}
	fmt.Println("Ablations (see DESIGN.md section 5)")
	fmt.Printf("%-28s %12s %9s\n", "variant", "achieved", "loss")
	for _, r := range rows {
		loss := "        -"
		if r.showLoss {
			loss = fmt.Sprintf("%8.3f%%", r.lossPct)
		}
		fmt.Printf("%-28s %9.2f Mb %s\n", r.name, r.achievedMbps, loss)
	}
	return nil
}

func adaptive(fc bench.FigureConfig, csv bool) error {
	epochs, err := bench.RunAdaptive(bench.AdaptiveConfig{Seed: fc.Seed})
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("t_seconds,loss,mu,goodput_mbps")
		for _, e := range epochs {
			fmt.Printf("%.2f,%.4f,%g,%.3f\n", e.At.Seconds(), e.Loss, e.Mu, e.GoodputMbps)
		}
		return nil
	}
	fmt.Println("Adaptive recovery: 25% loss burst at t=4s, controller target 2% (extension)")
	fmt.Printf("%8s %8s %5s %12s\n", "t", "loss", "μ", "goodput")
	for _, e := range epochs {
		fmt.Printf("%7.1fs %7.2f%% %5g %9.2f Mb\n", e.At.Seconds(), e.Loss*100, e.Mu, e.GoodputMbps)
	}
	return nil
}

func limited(fc bench.FigureConfig, csv bool) error {
	rows, err := bench.CompareLimited(fc)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("kappa,mu,unlimited_risk,limited_risk,unlimited_delay_ms,limited_delay_ms")
		for _, r := range rows {
			fmt.Printf("%g,%g,%.6f,%.6f,%.4f,%.4f\n",
				r.Kappa, r.Mu, r.UnlimitedRisk, r.LimitedRisk, r.UnlimitedDelayMs, r.LimitedDelayMs)
		}
		return nil
	}
	fmt.Println("Section IV-E: limited vs unlimited schedule optima (penalties from restricting to M')")
	fmt.Printf("%5s %5s | %10s %10s | %11s %11s\n",
		"κ", "μ", "risk", "risk(ltd)", "delay", "delay(ltd)")
	for _, r := range rows {
		fmt.Printf("%5.0f %5.2f | %10.5f %10.5f | %9.3fms %9.3fms\n",
			r.Kappa, r.Mu, r.UnlimitedRisk, r.LimitedRisk, r.UnlimitedDelayMs, r.LimitedDelayMs)
	}
	return nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"remicss/internal/bench"
	"remicss/internal/gf256"
	"remicss/internal/udptrans"
)

// tinyCfg keeps the smoke runs in the milliseconds range.
func tinyCfg() bench.FigureConfig {
	return bench.FigureConfig{Duration: 50 * time.Millisecond, MuStep: 2, Seed: 1}
}

// TestFigureRunnersSmoke exercises every runner in both output modes so a
// broken format string or sweep cannot ship unnoticed.
func TestFigureRunnersSmoke(t *testing.T) {
	runners := map[string]func(bench.FigureConfig, bool) error{
		"fig2":      fig2,
		"fig4":      fig4,
		"fig5":      fig5,
		"ablations": ablations,
		"adaptive":  adaptive,
		"compare":   compare,
	}
	for name, fn := range runners {
		for _, csv := range []bool{false, true} {
			if err := fn(tinyCfg(), csv); err != nil {
				t.Errorf("%s (csv=%v): %v", name, csv, err)
			}
		}
	}
	if err := fig3(bench.Identical(100), tinyCfg(), true); err != nil {
		t.Errorf("fig3: %v", err)
	}
}

// TestScheduleJSONReport exercises the -schedule-json wiring end to end
// with the benchmark runner stubbed, covering all three solve tiers across
// the size sweep without a seconds-long measurement.
func TestScheduleJSONReport(t *testing.T) {
	saved := benchRunner
	benchRunner = func(f func(b *testing.B)) testing.BenchmarkResult {
		res := testing.Benchmark(func(b *testing.B) {
			if b.N > 4 {
				b.Skip("stubbed runner stops after the first rounds")
			}
			f(b)
		})
		if res.N == 0 {
			res = testing.BenchmarkResult{N: 4, T: 4 * time.Microsecond}
		}
		return res
	}
	defer func() { benchRunner = saved }()

	path := filepath.Join(t.TempDir(), "BENCH_schedule.json")
	if err := runScheduleJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report scheduleBenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != "remicss-bench-schedule/v2" {
		t.Errorf("schema %q", report.Schema)
	}
	if report.GOMAXPROCS != runtime.GOMAXPROCS(0) || report.NumCPU != runtime.NumCPU() ||
		report.GoVersion != runtime.Version() || report.GitRev == "" ||
		report.GFKernel != gf256.KernelName() || report.NetBatch != udptrans.BatchMode() {
		t.Errorf("envelope not filled: %+v", report.envelope)
	}
	if len(report.Benchmarks) != len(scheduleBenchSizes) {
		t.Fatalf("%d entries, want %d", len(report.Benchmarks), len(scheduleBenchSizes))
	}
	for i, e := range report.Benchmarks {
		if e.N != scheduleBenchSizes[i] {
			t.Errorf("entry %d: n=%d, want %d", i, e.N, scheduleBenchSizes[i])
		}
		wantProgram := "section-ivb"
		if e.N > 22 {
			wantProgram = "wide"
		}
		if e.Program != wantProgram {
			t.Errorf("n=%d: program %q, want %q", e.N, e.Program, wantProgram)
		}
		if e.BuildNsPerOp <= 0 || e.ColdNsPerSolve <= 0 || e.WarmNsPerSolve <= 0 || e.CachedNsPerSolve <= 0 {
			t.Errorf("n=%d: degenerate tier latencies %+v", e.N, e)
		}
		if e.WarmSolves <= 0 {
			t.Errorf("n=%d: no warm solves recorded", e.N)
		}
		if e.CachedAllocsPerOp != 0 {
			t.Errorf("n=%d: cache hit allocates %d per op, want 0", e.N, e.CachedAllocsPerOp)
		}
		if e.HitRate <= 0 || e.HitRate > 1 {
			t.Errorf("n=%d: hit rate %v outside (0, 1]", e.N, e.HitRate)
		}
	}
}

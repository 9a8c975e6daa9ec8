package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"remicss/internal/gf256"
	"remicss/internal/udptrans"
)

// report is the one envelope every full run is written in.
type report struct {
	Schema     int    `json:"schema"`
	Seed       uint64 `json:"seed"`
	RunSeconds int    `json:"run_seconds"`
	Runs       int    `json:"runs"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	GFKernel   string `json:"gf_kernel"`
	NetBatch   string `json:"net_batch"`
	Network    string `json:"network"`

	Workloads []workloadReport `json:"workloads"`
}

// workloadReport is one workload's part of a report: its frozen load and the
// median over the report's runs of every metric.
type workloadReport struct {
	Name      string  `json:"name"`
	Loop      string  `json:"loop"`
	Window    int     `json:"window"`
	PacedRate float64 `json:"paced_rate_per_s"`
	Burst     int     `json:"burst"`
	// DeadlineSec is what a lost symbol's latency reads as.
	DeadlineSec float64 `json:"lost_symbol_latency_s"`

	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Correct   bool  `json:"correct"`

	EndToEnd map[string]reportValue `json:"end_to_end"`
	PerLayer map[string]reportValue `json:"per_layer"`
	// Table is the last run's traced table.
	Table []spanRow `json:"trace_table"`
}

// reportValue is a metric as a report states it. Samples is how many samples
// a median or percentile was taken over within one run (0 for plain ratios).
type reportValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int64     `json:"samples,omitempty"`
	Runs    []float64 `json:"runs,omitempty"`
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func newReport(seed uint64, seconds, runs int) *report {
	return &report{
		Schema: 1, Seed: seed, RunSeconds: seconds, Runs: runs,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: gitRev(), GFKernel: gf256.KernelName(), NetBatch: udptrans.BatchMode(),
		Network: "loopback",
	}
}

// collect folds several runs' values of the catalog's metrics into medians.
func collect(defs []metricDef, runs []*result) map[string]reportValue {
	out := make(map[string]reportValue, len(defs))
	for _, d := range defs {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.Metrics[d.Name])
		}
		v := reportValue{Value: median(vals), Unit: d.Unit, Samples: runs[len(runs)-1].Samples[d.Name]}
		if len(vals) > 1 {
			v.Runs = vals
		}
		out[d.Name] = v
	}
	return out
}

// fullRun measures every workload in both modes, runs times each (run i uses
// seed+i), and returns the report.
func fullRun(seed uint64, seconds, runs int, log io.Writer) (*report, error) {
	rep := newReport(seed, seconds, runs)
	for i := range workloads {
		w := &workloads[i]
		wr := workloadReport{Name: w.Name, Loop: "saturate: closed; paced: open", Window: w.Window, PacedRate: w.PacedRate, Burst: w.Burst, DeadlineSec: w.deadline().Seconds(), Correct: true}
		var e2e, layers []*result
		for run := 0; run < runs; run++ {
			fmt.Fprintf(log, "%s: run %d of %d\n", w.Name, run+1, runs)
			a, err := measureEndToEnd(w, seed+uint64(run), planFor(seconds))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			b, err := measureLayers(w, seed+uint64(run), planFor(seconds), traceDir)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			e2e, layers = append(e2e, a), append(layers, b)
			wr.Attempted += a.Attempted + b.Attempted
			wr.Failed += a.Failed + b.Failed
			wr.Correct = wr.Correct && a.Correct && b.Correct
			wr.Table = b.Table
		}
		wr.EndToEnd, wr.PerLayer = collect(endToEnd, e2e), collect(perLayer, layers)
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// print writes every metric of the report by name, with its unit.
func (rep *report) print(out io.Writer) {
	fmt.Fprintf(out, "seed %d, %d s × %d run(s), nproc %d, GOMAXPROCS %d, %s, git %s, gf256 %s, netbatch %s, %s\n",
		rep.Seed, rep.RunSeconds, rep.Runs, rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.GitRev, rep.GFKernel, rep.NetBatch, rep.Network)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(out, "\n%s  (W=%d, paced %.0f/s, burst %d; attempted %d, failed %d, correct %v)\n",
			wr.Name, wr.Window, wr.PacedRate, wr.Burst, wr.Attempted, wr.Failed, wr.Correct)
		printMetrics(out, endToEnd, wr.EndToEnd)
		printMetrics(out, perLayer, wr.PerLayer)
		printTable(out, wr.Table)
	}
}

func printMetrics(out io.Writer, defs []metricDef, vals map[string]reportValue) {
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(out, "  %-42s %14.4f %-7s", d.Name, v.Value, d.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(out, " n=%d", v.Samples)
		}
		fmt.Fprintln(out)
	}
}

func printTable(out io.Writer, rows []spanRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(out, "  %-10s %12s %14s %10s %14s\n", "span", "count", "sum_ns", "p50_ns", "self_ns")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-10s %12d %14d %10d %14d\n", r.Name, r.Count, r.SumNs, r.P50Ns, r.SelfNs)
	}
}

func (rep *report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// readSide reads one side of a comparison: one report, or several separated
// by commas — taken alternately with the other side's, so that the host's
// drift falls on both — folded into one.
func readSide(paths string) (*report, error) {
	var reps []*report
	for _, path := range strings.Split(paths, ",") {
		rep, err := readReport(path)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return fold(reps), nil
}

// fold merges reports of the same code into the first: each end-to-end
// metric becomes the median of the reports' values, attempts and failures
// add up. (Per-layer values and the trace table stay the first report's;
// compare does not read them.)
func fold(reps []*report) *report {
	out := reps[0]
	for i := range out.Workloads {
		wr := &out.Workloads[i]
		vals := map[string][]float64{}
		for name, v := range wr.EndToEnd {
			vals[name] = []float64{v.Value}
		}
		for _, rep := range reps[1:] {
			for _, other := range rep.Workloads {
				if other.Name != wr.Name {
					continue
				}
				wr.Attempted += other.Attempted
				wr.Failed += other.Failed
				wr.Correct = wr.Correct && other.Correct
				for name, v := range other.EndToEnd {
					vals[name] = append(vals[name], v.Value)
				}
			}
		}
		for name, v := range wr.EndToEnd {
			v.Value, v.Runs = median(vals[name]), vals[name]
			wr.EndToEnd[name] = v
		}
	}
	return out
}

// compare prints one row per (workload, end-to-end metric) of two reports —
// both values and b÷a — and reports whether b regressed: a metric worse than
// a's by more than its bound — the bound BENCHMARK.json states, nothing
// added — or a higher failed share.
func compare(a, b *report, out io.Writer) (regressed bool) {
	byName := make(map[string]workloadReport, len(b.Workloads))
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(out, "%-26s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(out, "%-26s missing from b\n", wa.Name)
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			allowed := d.Bound * va
			worse := vb - va
			if d.Better == "higher" {
				worse = va - vb
			}
			verdict := "ok"
			if worse > allowed {
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(out, "%-26s %-20s %14.4f %14.4f %9.4f %6.0f%%  %s\n", wa.Name, d.Name, va, vb, ratio(vb, va), d.Bound*100, verdict)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		verdict := "ok"
		if fb > fa+0.001 || (wa.Correct && !wb.Correct) {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(out, "%-26s %-20s %14.6f %14.6f %9s %7s  %s\n", wa.Name, "failed_share", fa, fb, "-", "+0.001", verdict)
	}
	return regressed
}

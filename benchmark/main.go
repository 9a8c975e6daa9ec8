// Command benchmark is the repository's end-to-end benchmark: it carries
// verified payload bytes from a sender's Send to a receiver's OnSymbol over
// real loopback UDP sockets in one process, with one producer goroutine, and
// attributes the cost to layers by timing calls into public functions and
// interposing on the interfaces the program already accepts. README.md
// describes the workloads, metrics and run shape; BENCHMARK.json at the
// repository root is the contract the driver holds it to.
//
// Driver mode (one workload, one mode, one JSON line last on stdout):
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// Full report (every workload, both modes, every metric printed by name):
//
//	benchmark -report out.json [-runs N] [--seed N] [--seconds S]
//
// Regression gate over two reports:
//
//	benchmark -compare a.json b.json
//	benchmark -compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// driverLine is the last line of stdout in driver mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run (driver mode)")
		seed     = fs.Uint64("seed", 1, "seed for the payload pool, fault script and chooser dither")
		seconds  = fs.Int("seconds", 26, "measured seconds per run")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run and probes")
		reportTo = fs.String("report", "", "run every workload in both modes and write the report here")
		runs     = fs.Int("runs", 1, "with -report: runs per workload, medians reported")
		cmp      = fs.Bool("compare", false, "compare two reports, or two comma-separated sets of them folded into medians: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files or comma-separated lists of them")
		}
		a, err := readSide(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := readSide(fs.Arg(1))
		if err != nil {
			return err
		}
		if compare(a, b, os.Stdout) {
			return fmt.Errorf("regression: %s is worse than %s", fs.Arg(1), fs.Arg(0))
		}
		return nil
	case *reportTo != "":
		if *seconds < 1 || *runs < 1 {
			return fmt.Errorf("-seconds and -runs must be at least 1")
		}
		rep, err := fullRun(*seed, *seconds, *runs, os.Stderr)
		if err != nil {
			return err
		}
		rep.print(os.Stdout)
		return rep.write(*reportTo)
	}

	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var (
		res  *result
		defs []metricDef
		err  error
	)
	if *trace == 0 {
		res, err = measureEndToEnd(w, *seed, planFor(*seconds))
		defs = endToEnd
	} else {
		res, err = measureLayers(w, *seed, planFor(*seconds), traceDir)
		defs = perLayer
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	vals := collect(defs, []*result{res})
	printMetrics(os.Stdout, defs, vals)
	printTable(os.Stdout, res.Table)
	fmt.Println(res.Verdict)
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// result is one run of one workload in one mode.
type result struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Metrics maps a catalog name to its value, in the catalog's unit.
	Metrics map[string]float64 `json:"metrics"`
	// Samples gives, for every median or percentile in Metrics, how many
	// samples it was taken over.
	Samples map[string]int64 `json:"samples"`
	// Table is the traced run's per-span summary (layer runs only).
	Table []spanRow `json:"trace_table,omitempty"`
	// Verdict breaks Failed down, for the human reading the run.
	Verdict string `json:"verdict"`
}

// plan is how one run divides its time. Warm-ups and set-up are not part of
// the -seconds budget; the measured phases are.
type plan struct {
	// Set-up is repeated at least setupReps times and until setupFor has
	// passed (201 times at most).
	setupReps int
	setupFor  time.Duration

	// End-to-end run.
	warm, saturate, paced time.Duration

	// Layer run: a short untraced run, the traced run, the probes.
	layerWarm, layerSaturate, layerPaced time.Duration
	tracedWarm, traced                   time.Duration
	probes                               time.Duration
}

// planFor divides a -seconds budget: 60/40 between the saturate and paced
// phases of an end-to-end run; 20/20/40/20 between untraced saturate,
// untraced paced, traced saturate and probes of a layer run.
func planFor(seconds int) plan {
	s := time.Duration(seconds) * time.Second
	return plan{
		setupReps: 9, setupFor: 2 * time.Second,
		warm: 3 * time.Second, saturate: s * 6 / 10, paced: s * 4 / 10,
		layerWarm: 2 * time.Second, layerSaturate: s * 2 / 10, layerPaced: s * 2 / 10,
		tracedWarm: time.Second, traced: s * 4 / 10,
		probes: s * 2 / 10,
	}
}

// flightBuffer is how many flight samples a traced run keeps.
const flightBuffer = 1 << 20

// maxSetupReps caps the set-up repetitions of one run.
const maxSetupReps = 201

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// finish fills in the verdict every run reports: the symbols attempted, the
// ones that went wrong, and whether every delivered byte was right.
func (res *result) finish(ts ...*tracker) {
	res.Correct = true
	for _, t := range ts {
		res.Attempted += t.attempted
		res.Failed += t.failed()
		if t.wrong.Load() != 0 || t.dup.Load() != 0 {
			res.Correct = false
		}
		res.Verdict += fmt.Sprintf("attempted %d, expected %d, delivered %d, overdue in closed loop %d, lost in open loop %d, wrong bytes %d, delivered twice %d, stragglers %d; ",
			t.attempted, t.expected, t.delivered.Load(), t.expired, t.lost, t.wrong.Load(), t.dup.Load(), t.stray.Load())
	}
}

// measureEndToEnd is the untraced run: set-up (timed), warm-up, saturate
// phase, paced phase. It yields every end-to-end metric.
func measureEndToEnd(w *workload, seed uint64, pl plan) (*result, error) {
	var (
		t      *tracker
		p      *plant
		setups []float64
	)
	// Set-up is bind, build the payload pool, register sessions, dial. It is
	// done many times and the median reported; the last plant is kept. A
	// collection is forced before each timed repetition: the garbage of the
	// one before (its 1 MiB pool, for a start) otherwise puts a concurrent GC
	// cycle inside one repetition in three, which then takes twice as long.
	begin := time.Now()
	for i := 0; i < pl.setupReps || (time.Since(begin) < pl.setupFor && i < maxSetupReps); i++ {
		if p != nil {
			p.close()
		}
		runtime.GC()
		t0 := time.Now()
		t = newTracker(seed, w)
		var err error
		if p, err = build(w, seed, t, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.close()

	r := newRunner(w, t, p, nil)
	defer r.tick.Stop()
	if err := r.warmUp(pl.warm); err != nil {
		return nil, err
	}
	sat, err := r.saturate(pl.saturate)
	if err != nil {
		return nil, err
	}
	pr, err := r.paced(pl.paced)
	if err != nil {
		return nil, err
	}
	if len(pr.lat) == 0 {
		return nil, fmt.Errorf("paced phase delivered nothing")
	}

	res := &result{Workload: w.Name, Seed: seed}
	n := float64(sat.delivered)
	res.Metrics = map[string]float64{
		"goodput_MBps":      sat.goodputMBps,
		"latency_p50_us":    median(pr.p50s) / 1e3,
		"cpu_us_per_symbol": sat.cpuNsPerSym / 1e3,
		"allocs_per_symbol": float64(sat.allocs) / n,
		"heap_B_per_symbol": float64(sat.heapBytes) / n,
		"live_heap_MB":      sat.liveHeap / 1e6,
		"setup_s":           median(setups),
	}
	res.Samples = map[string]int64{
		"goodput_MBps":      int64(sat.windows),
		"latency_p50_us":    int64(len(pr.p50s)),
		"cpu_us_per_symbol": int64(sat.windows),
		"live_heap_MB":      int64(sat.windows),
		"setup_s":           int64(len(setups)),
	}
	res.finish(t)
	return res, nil
}

// measureLayers is the diagnostic run: a short untraced run (its goodput is
// the base of trace.overhead_share, its paced phase gives the tail latency
// and the generator's own lateness), the traced run over the same parts with
// every public boundary wrapped in a span, and the isolated probes. It
// yields every per-layer metric and writes the trace file.
func measureLayers(w *workload, seed uint64, pl plan, outDir string) (*result, error) {
	res := &result{Workload: w.Name, Seed: seed, Metrics: map[string]float64{}, Samples: map[string]int64{}}
	m := res.Metrics

	// Untraced.
	t := newTracker(seed, w)
	p, err := build(w, seed, t, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := newRunner(w, t, p, nil)
	defer r.tick.Stop()
	var sat satResult
	var pr pacedResult
	err = r.warmUp(pl.layerWarm)
	if err == nil {
		sat, err = r.saturate(pl.layerSaturate)
	}
	if err == nil {
		pr, err = r.paced(pl.layerPaced)
	}
	p.close()
	if err != nil {
		return nil, err
	}
	m["path.latency_p99_us"] = float64(pr.percentile(0.99)) / 1e3
	m["loadgen.late_p99_us"] = float64(quantileOf(pr.late, 0, 0.99, 0)) / 1e3
	m["loadgen.paced_lost_share"] = pr.lostShare()
	m["runtime.gc_cycles"] = float64(sat.gcCycles)
	res.Samples["path.latency_p99_us"] = pr.expected
	res.Samples["loadgen.late_p99_us"] = int64(len(pr.late))

	// Traced.
	t2 := newTracker(seed, w)
	tr := newTracer(t2, w)
	p2, err := build(w, seed, t2, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	r2 := newRunner(w, t2, p2, tr)
	defer r2.tick.Stop()
	var sat2 satResult
	if err = r2.warmUp(pl.tracedWarm); err == nil {
		tr.reset()
		t2.flight.reset(flightBuffer)
		t2.sampling.Store(true)
		sat2, err = r2.saturate(pl.traced)
		t2.sampling.Store(false)
	}
	if err != nil {
		p2.close()
		return nil, err
	}
	flight := sortedNs(t2.flight.take())
	ss, rs := p2.senderStats(), p2.receiverStats()
	sentDgrams := sumSeries(p2.sendReg, "udp_sent_datagrams_total")
	batchWrites := sumSeries(p2.sendReg, "udp_batch_writes_total")
	recvDgrams := sumSeries(p2.recvReg, "udp_recv_datagrams_total")
	batchReads := sumSeries(p2.recvReg, "udp_batch_reads_total")
	unknown := sumSeries(p2.gwReg, "remicss_gateway_unknown_session_total")
	p2.close()

	res.Table = tr.table()
	row := func(k spanKind) spanRow { return res.Table[k] }
	mean := func(k spanKind) float64 { return ratio(float64(row(k).SumNs), float64(row(k).Count)) }
	perSymbol := func(ns int64) float64 { return ratio(float64(ns), float64(sat2.attempted)) }

	m["sharing.split_ns"] = mean(spSplit)
	m["sharing.combine_ns"] = mean(spCombine)
	m["remicss.chooser.choose_ns"] = mean(spChoose)
	m["remicss.sender.send_ns"] = perSymbol(row(spSend).SumNs)
	m["remicss.sender.self_ns"] = perSymbol(row(spSend).SelfNs)
	m["udptrans.link_send_ns"] = mean(spLinkSend)
	m["gateway.pool.flush_ns"] = mean(spFlush)
	m["gateway.dispatch.self_ns"] = perSymbol(row(spDispatch).SelfNs)
	m["remicss.receiver.handle_ns"] = perSymbol(row(spHandle).SumNs)
	m["remicss.receiver.self_ns"] = perSymbol(row(spHandle).SelfNs)
	m["harness.deliver_ns"] = mean(spDeliver)
	m["path.flight_p50_us"] = float64(quantileOf(flight, 0, 0.5, 0)) / 1e3
	res.Samples["path.flight_p50_us"] = int64(len(flight))

	// Counts taken at the same boundaries, over the traced plant's lifetime
	// (warm-up included: they are ratios).
	handled := float64(rs.SharesReceived + rs.SharesInvalid + rs.SharesDuplicate + rs.SharesLate)
	m["remicss.receiver.useful_share_ratio"] = ratio(float64(w.k())*float64(rs.SymbolsDelivered), handled)
	m["remicss.receiver.late_share"] = ratio(float64(rs.SharesLate), handled)
	m["remicss.receiver.duplicate_share"] = ratio(float64(rs.SharesDuplicate), handled)
	m["remicss.receiver.invalid_share"] = ratio(float64(rs.SharesInvalid), handled)
	m["remicss.receiver.evicted_per_symbol"] = ratio(float64(rs.SymbolsEvicted), float64(ss.SymbolsSent))
	m["remicss.receiver.combine_failures"] = float64(rs.CombineFailures)
	m["remicss.sender.stalled_share"] = ratio(float64(ss.SymbolsStalled), float64(ss.SymbolsSent+ss.SymbolsStalled))
	m["udptrans.dgrams_per_symbol"] = ratio(float64(sentDgrams), float64(ss.SymbolsSent))
	// Link.Send and ServeConcurrent enter the kernel once per datagram; only
	// the batched paths count their kernel entries separately.
	sendCalls, recvCalls := sentDgrams, recvDgrams
	if batchWrites > 0 {
		sendCalls = batchWrites
	}
	if batchReads > 0 {
		recvCalls = batchReads
	}
	m["udptrans.send_calls_per_dgram"] = ratio(float64(sendCalls), float64(sentDgrams))
	m["udptrans.recv_calls_per_dgram"] = ratio(float64(recvCalls), float64(recvDgrams))
	m["gateway.unknown_share"] = ratio(float64(unknown), float64(row(spDispatch).Count))

	// Validity of the trace itself.
	roots := row(spSend).SumNs + row(spFlush).SumNs + row(spHandle).SumNs
	if row(spDispatch).Count > 0 {
		roots += row(spDispatch).SumNs - row(spHandle).SumNs
	}
	m["trace.attributed_share"] = ratio(float64(roots), float64(sat2.cpuNs))
	m["trace.overhead_share"] = 1 - ratio(sat2.goodputMBps, sat.goodputMBps)

	if err := runProbes(w, seed, pl.probes, m); err != nil {
		return nil, err
	}
	res.finish(t, t2)
	m["harness.failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	m["harness.overdue_share"] = ratio(float64(t.expired+t2.expired), float64(t.closedExpected+t2.closedExpected))

	if err := writeTrace(outDir, w, res, tr.linkRaw()); err != nil {
		return nil, err
	}
	return res, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not touch).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceDir is where a layer run writes trace-<workload>.json, relative to the
// checkout root the benchmark runs from.
const traceDir = "benchmark/out"

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	RawEvery int       `json:"raw_spans_one_symbol_in"`
	Table    []spanRow `json:"table"`
	Spans    []rawSpan `json:"spans"`
}

func writeTrace(dir string, w *workload, res *result, spans []rawSpan) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	data, err := json.Marshal(traceFile{Workload: w.Name, Seed: res.Seed, RawEvery: rawEvery, Table: res.Table, Spans: spans})
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-"+w.Name+".json"), data, 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

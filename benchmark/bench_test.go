package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"remicss"
	"remicss/internal/wire"
)

// shortPlan runs every phase for a fraction of a second.
func shortPlan() plan {
	const d = 150 * time.Millisecond
	return plan{
		setupReps: 1,
		warm:      50 * time.Millisecond, saturate: d, paced: d,
		layerWarm: 50 * time.Millisecond, layerSaturate: d, layerPaced: d,
		tracedWarm: 50 * time.Millisecond, traced: d,
		probes: 100 * time.Millisecond,
	}
}

func fates(seed uint64) []fate {
	var out []fate
	for ch := 0; ch < 5; ch++ {
		for n := uint64(0); n < 2000; n++ {
			f, _ := fateOf(seed, ch, n)
			out = append(out, f)
		}
	}
	return out
}

func TestSeedFixesInputs(t *testing.T) {
	if !reflect.DeepEqual(buildPool(7, 1400), buildPool(7, 1400)) {
		t.Error("same seed gave different payload pools")
	}
	if reflect.DeepEqual(buildPool(7, 1400), buildPool(8, 1400)) {
		t.Error("different seeds gave the same payload pool")
	}
	if !reflect.DeepEqual(fates(7), fates(7)) {
		t.Error("same seed gave different fault scripts")
	}
	if reflect.DeepEqual(fates(7), fates(8)) {
		t.Error("different seeds gave the same fault script")
	}
}

func TestFaultScriptRates(t *testing.T) {
	counts := map[fate]int{}
	all := fates(3)
	for _, f := range all {
		counts[f]++
	}
	for f, want := range map[fate]float64{fateDrop: faultDrop, fateDup: faultDup, fateCorrupt: faultCorrupt, fateHold: faultHold} {
		got := float64(counts[f]) / float64(len(all))
		if math.Abs(got-want) > 0.015 {
			t.Errorf("fate %d: share %.3f, want about %.3f", f, got, want)
		}
	}
}

func TestLostSymbolsEnterPercentiles(t *testing.T) {
	sorted := []int64{10, 20, 30, 40}
	if got := quantileOf(sorted, 4, 0.5, 1000); got != 20 {
		t.Errorf("p50 of 4 delivered = %d, want 20", got)
	}
	// Six more attempted but never delivered: the median is a lost symbol.
	if got := quantileOf(sorted, 10, 0.5, 1000); got != 1000 {
		t.Errorf("p50 with 6 of 10 lost = %d, want the deadline 1000", got)
	}
}

// TestRepeatedDeliveryIsCaught replays delivered and reclaimed symbols after
// their slot has moved on: the first late arrival of a reclaimed symbol is a
// straggler, every other repeat a duplicate, and a duplicate fails the run.
func TestRepeatedDeliveryIsCaught(t *testing.T) {
	w := *findWorkload("tiny64-xor3of3")
	tk := newTracker(1, &w)
	tk.openWindow(1)
	send := func() (copyOf []byte, id uint64) {
		p, id := tk.stamp(<-tk.free, tk.now())
		return append([]byte(nil), p...), id
	}
	first, _ := send()
	tk.onSymbol(0, first, 0)
	second, _ := send() // reuses the slot
	tk.onSymbol(0, second, 0)
	if tk.delivered.Load() != 2 || tk.dup.Load() != 0 || tk.stray.Load() != 0 {
		t.Fatalf("two clean deliveries: delivered %d, dup %d, stray %d", tk.delivered.Load(), tk.dup.Load(), tk.stray.Load())
	}
	tk.onSymbol(0, first, 0)
	if tk.dup.Load() != 1 || tk.stray.Load() != 0 {
		t.Errorf("repeat of a symbol two slot uses old: dup %d, stray %d, want 1, 0", tk.dup.Load(), tk.stray.Load())
	}
	doomed, id := send()
	tk.abandon(0, id)
	third, _ := send()
	tk.onSymbol(0, third, 0)
	tk.onSymbol(0, doomed, 0)
	if tk.dup.Load() != 1 || tk.stray.Load() != 1 {
		t.Errorf("late arrival of an abandoned symbol: dup %d, stray %d, want 1, 1", tk.dup.Load(), tk.stray.Load())
	}
	tk.onSymbol(0, doomed, 0)
	if tk.dup.Load() != 2 || tk.stray.Load() != 1 {
		t.Errorf("its second arrival: dup %d, stray %d, want 2, 1", tk.dup.Load(), tk.stray.Load())
	}
	var res result
	res.finish(tk)
	if res.Correct || res.Failed != 2 {
		t.Errorf("correct %v, failed %d, want false, 2", res.Correct, res.Failed)
	}
}

// checkMetrics requires exactly the catalog's names, all finite.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, catalog has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s: value %v, reported %v", d.Name, v, ok)
		}
	}
}

func TestEveryWorkloadRunsClean(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := measureEndToEnd(w, 1, shortPlan())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, res.Metrics[d.Name])
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %v, failed %d of %d: %s", res.Correct, res.Failed, res.Attempted, res.Verdict)
			}
		})
	}
}

// flipLink re-marshals every fourth share with one payload byte flipped, so
// the datagram passes the wire checksum and only the end-to-end comparison
// can notice.
type flipLink struct {
	remicss.Link
	n int
}

func (l *flipLink) Send(datagram []byte) bool {
	if l.n++; l.n%4 != 0 {
		return l.Link.Send(datagram)
	}
	pkt, err := wire.Unmarshal(datagram)
	if err != nil {
		return false
	}
	payload := append([]byte(nil), pkt.Payload...)
	payload[len(payload)-1] ^= 0x40
	pkt.Payload = payload
	out, err := wire.AppendMarshal(nil, pkt)
	if err != nil {
		return false
	}
	return l.Link.Send(out)
}

func TestFlippedByteFailsTheRun(t *testing.T) {
	w := *findWorkload("tiny64-xor3of3")
	tk := newTracker(1, &w)
	srv, err := remicss.Serve(listenAddrs(w.Channels), w.sessionConfig(1), tk.onSymbol)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	links, err := remicss.DialUDP(srv.Addrs(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range links {
		defer l.(*remicss.UDPLink).Close()
	}
	links[1] = &flipLink{Link: links[1]}
	scheme, err := w.scheme(nil)
	if err != nil {
		t.Fatal(err)
	}
	chooser, err := w.chooser(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := remicss.NewSender(remicss.SenderConfig{Scheme: scheme, Chooser: chooser, Clock: remicss.WallClock}, links)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(&w, tk, &plant{w: &w, send: sender.Send}, nil)
	if _, err := r.saturate(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var res result
	res.finish(tk)
	if res.Correct || res.Failed == 0 || tk.wrong.Load() == 0 {
		t.Errorf("flipped bytes went unnoticed: correct %v, failed %d, wrong %d", res.Correct, res.Failed, tk.wrong.Load())
	}
}

func TestSpansNestAndSelfTimesAreNonNegative(t *testing.T) {
	for _, name := range []string{"tiny64-xor3of3", "tenants1k-mtu-shamir2of3", "lossy-mtu-auth3of5"} {
		w := findWorkload(name)
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := measureLayers(w, 1, shortPlan(), dir)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct %v, failed %d: %s", res.Correct, res.Failed, res.Verdict)
			}
			for _, row := range res.Table {
				if row.SelfNs < 0 || row.SelfNs > row.SumNs {
					t.Errorf("span %s: self %d ns of %d ns", row.Name, row.SelfNs, row.SumNs)
				}
			}
			if res.Table[spSend].Count == 0 || res.Table[spHandle].Count == 0 || res.Table[spDeliver].Count == 0 {
				t.Errorf("empty trace table: %+v", res.Table)
			}
			if gw := res.Table[spDispatch].Count > 0; gw != (w.Sessions > 1) {
				t.Errorf("dispatch spans present = %v on a workload with %d sessions", gw, w.Sessions)
			}

			data, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("no raw spans kept")
			}
			kindOf := map[string]spanKind{}
			for k, n := range spanNames {
				kindOf[n] = spanKind(k)
			}
			linked := 0
			for i, sp := range tf.Spans {
				if sp.End < sp.Start {
					t.Fatalf("span %d (%s) ends before it starts", i, sp.Name)
				}
				if sp.Parent < 0 {
					continue
				}
				linked++
				par := tf.Spans[sp.Parent]
				if kindOf[par.Name] != spanParent[kindOf[sp.Name]] {
					t.Fatalf("span %d (%s) has a %s parent", i, sp.Name, par.Name)
				}
				if par.Start > sp.Start || par.End < sp.End {
					t.Fatalf("span %d (%s %d–%d) is not inside its parent (%s %d–%d)", i, sp.Name, sp.Start, sp.End, par.Name, par.Start, par.End)
				}
			}
			if linked == 0 {
				t.Error("no raw span found its parent")
			}
		})
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	mk := func(goodput, allocs float64, failed int64) *report {
		vals := map[string]reportValue{}
		for _, d := range endToEnd {
			vals[d.Name] = reportValue{Value: 1, Unit: d.Unit}
		}
		vals["goodput_MBps"] = reportValue{Value: goodput}
		vals["allocs_per_symbol"] = reportValue{Value: allocs}
		return &report{Workloads: []workloadReport{{Name: "w", Attempted: 1000, Failed: failed, Correct: true, EndToEnd: vals}}}
	}
	base := mk(100, 5, 0)
	for _, c := range []struct {
		name      string
		b         *report
		regressed bool
	}{
		{"same", mk(100, 5, 0), false},
		{"goodput within bound", mk(76, 5, 0), false},
		{"goodput beyond bound", mk(74, 5, 0), true},
		{"goodput better", mk(150, 5, 0), false},
		{"allocs within bound", mk(100, 5.24, 0), false},
		{"allocs beyond bound", mk(100, 5.26, 0), true},
		{"more failures", mk(100, 5, 5), true},
		{"median of a set within bound", fold([]*report{mk(100, 5, 0), mk(60, 5, 0), mk(80, 5, 0)}), false},
		{"median of a set beyond bound", fold([]*report{mk(100, 5, 0), mk(60, 5, 0), mk(70, 5, 0)}), true},
		{"failures anywhere in a set", fold([]*report{mk(100, 5, 0), mk(100, 5, 0), mk(100, 5, 9)}), true},
	} {
		if got := compare(base, c.b, io.Discard); got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v", c.name, got, c.regressed)
		}
	}
	var out bytes.Buffer
	compare(base, mk(74, 5, 0), &out)
	if !bytes.Contains(out.Bytes(), []byte("REGRESSION")) || !bytes.Contains(out.Bytes(), []byte("0.7400")) {
		t.Errorf("compare output lacks the verdict or the ratio:\n%s", out.String())
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the contract file and the program's
// catalog in step: same workloads with the same reasons, same metrics with
// the same units, directions and bounds.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalog", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), catalog %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, catalog %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, catalog %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, catalog %+v", i, m, d)
		}
	}
}

package main

import "time"

// metricDef is one row of the metric catalog: the single place a metric's
// name, unit and direction are written down. BENCHMARK.json repeats the
// name/unit/better/bound columns; TestCatalogMatchesBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before -compare and the driver call it a regression; zero for
	// per-layer metrics, which have no bound.
	Bound float64
}

// endToEnd lists the metrics a user of the transport would see. Each is
// measured with tracing off. results/spread.txt has the run-to-run spread
// (interquartile range over the median of ten runs with ten seeds) of each on
// the 2-vCPU VM the benchmark was written on; every spread is inside its
// bound. The timings do not repeat: the VM's speed moves by 10–20 % over
// minutes, whole runs long, so goodput, CPU and latency spread 3–21 % between
// runs of the longest phases the driver's time allows, and their bound is the
// 25 % the driver caps a bound at, not the 10 % the issue hoped for. The two
// counts repeat to a hundredth of a percent on the single-session workloads
// but spread up to 1.6 % over the gateway's 1024 sessions, and a bound holds
// for every workload; 5 % is also what the issue's absolute allowance of 0.1
// allocations is on tiny64's 2.03.
var endToEnd = []metricDef{
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_symbol", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_symbol", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "heap_B_per_symbol", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "live_heap_MB", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the diagnostics, prefixed by the module they time or
// count. README.md says how each is obtained and which end-to-end metric it
// should move on which workload.
var perLayer = []metricDef{
	{Name: "sharing.split_ns", Unit: "ns", Better: "lower"},
	{Name: "sharing.combine_ns", Unit: "ns", Better: "lower"},
	{Name: "sharing.split_iso_ns", Unit: "ns", Better: "lower"},
	{Name: "sharing.split_iso_allocs", Unit: "count", Better: "lower"},
	{Name: "sharing.split_iso_B", Unit: "B", Better: "lower"},
	{Name: "sharing.combine_iso_ns", Unit: "ns", Better: "lower"},
	{Name: "sharing.combine_iso_allocs", Unit: "count", Better: "lower"},
	{Name: "drbg.read_ns_per_KiB", Unit: "ns/KiB", Better: "lower"},
	{Name: "drbg.read_allocs", Unit: "count", Better: "lower"},
	{Name: "gf256.addmul_GBps", Unit: "GB/s", Better: "higher"},
	{Name: "remicss.chooser.choose_ns", Unit: "ns", Better: "lower"},
	{Name: "remicss.sender.send_ns", Unit: "ns", Better: "lower"},
	{Name: "remicss.sender.self_ns", Unit: "ns", Better: "lower"},
	{Name: "remicss.sender.iso_ns", Unit: "ns", Better: "lower"},
	{Name: "remicss.sender.iso_allocs", Unit: "count", Better: "lower"},
	{Name: "remicss.sender.stalled_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "udptrans.link_send_ns", Unit: "ns", Better: "lower"},
	{Name: "udptrans.send_calls_per_dgram", Unit: "ratio", Better: "lower"},
	{Name: "udptrans.recv_calls_per_dgram", Unit: "ratio", Better: "lower"},
	{Name: "udptrans.dgrams_per_symbol", Unit: "ratio", Better: "lower"},
	{Name: "gateway.dispatch.self_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.dispatch_iso_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.pool.flush_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.unknown_share", Unit: "ratio", Better: "lower"},
	{Name: "remicss.receiver.handle_ns", Unit: "ns", Better: "lower"},
	{Name: "remicss.receiver.self_ns", Unit: "ns", Better: "lower"},
	{Name: "remicss.receiver.iso_ns_per_symbol", Unit: "ns", Better: "lower"},
	{Name: "remicss.receiver.iso_allocs_per_symbol", Unit: "count", Better: "lower"},
	{Name: "remicss.receiver.useful_share_ratio", Unit: "ratio", Better: "higher"},
	{Name: "remicss.receiver.late_share", Unit: "ratio", Better: "lower"},
	{Name: "remicss.receiver.duplicate_share", Unit: "ratio", Better: "lower"},
	{Name: "remicss.receiver.invalid_share", Unit: "ratio", Better: "lower"},
	{Name: "remicss.receiver.evicted_per_symbol", Unit: "ratio", Better: "lower"},
	{Name: "remicss.receiver.combine_failures", Unit: "count", Better: "lower"},
	{Name: "path.flight_p50_us", Unit: "us", Better: "lower"},
	{Name: "path.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "harness.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.overdue_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.paced_lost_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "trace.attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// workload is one frozen set of inputs. Window and PacedRate were calibrated
// once on the seed tree (README.md records the saturate rates they derive
// from) and must not follow the program's speed afterwards: a faster program
// shows as lower paced latency and higher saturate goodput, not as a
// different offered load.
type workload struct {
	Name string
	Why  string

	Channels  int
	Kappa, Mu float64
	Size      int // payload bytes per symbol

	// Sessions > 1 selects the gateway composition: that many sessions
	// multiplexed over Channels shared sockets.
	Sessions int
	// Burst is how many symbols one SendBatch call carries in the saturate
	// phase (gateway composition only; 1 means plain Send).
	Burst int

	// Window is the closed-loop in-flight limit W of the saturate phase.
	Window int
	// PacedRate is the open-loop offered rate of the paced phase, symbols/s.
	PacedRate float64

	// Auth sets SessionConfig.Key (HMAC per share). Lossy interposes the
	// seeded fault script between the sender and its sockets.
	Auth, Lossy bool
	// Timeout and MaxPending override the receiver's reassembly defaults
	// when nonzero.
	Timeout    time.Duration
	MaxPending int
}

// k and m are the integer threshold and multiplicity every symbol gets: all
// four workloads use integral κ and μ = Channels, so there is no dither and
// every symbol puts one share on every channel.
func (w *workload) k() int { return int(w.Kappa) }
func (w *workload) m() int { return int(w.Mu) }

// deadline is how long a symbol may stay in flight before its slot is
// reclaimed; a symbol that never arrives enters latency percentiles at this
// value. It is a second, or ten reassembly timeouts where the workload sets
// one shorter: by then the receiver has long dropped the partial symbol.
func (w *workload) deadline() time.Duration {
	if d := 10 * w.Timeout; d > 0 && d < time.Second {
		return d
	}
	return time.Second
}

// The benchmark's seeded fault script (lossy workload), per share.
const (
	faultDrop    = 0.25
	faultDup     = 0.05
	faultCorrupt = 0.02
	faultHold    = 0.05
	// faultHoldFor is how long a held-back share waits before release; it
	// exceeds the lossy workload's reassembly timeout, so a held share
	// always arrives late.
	faultHoldFor = 20 * time.Millisecond
)

var workloads = []workload{
	{
		Name:     "bulk16k-shamir3of5",
		Why:      "16 KiB symbols, Shamir 3-of-5 over 5 sockets: split, combine, DRBG and GF(256) kernels plus receive-side allocation do most of the work",
		Channels: 5, Kappa: 3, Mu: 5, Size: 16 << 10, Sessions: 1, Burst: 1,
		Window: 8, PacedRate: 5000,
	},
	{
		Name:     "tiny64-xor3of3",
		Why:      "64 B symbols, XOR 3-of-3 over 3 sockets: smallest packet, so per-datagram syscall and bookkeeping cost dominates and sharing is negligible",
		Channels: 3, Kappa: 3, Mu: 3, Size: 64, Sessions: 1, Burst: 1,
		Window: 64, PacedRate: 34000,
	},
	{
		Name:     "tenants1k-mtu-shamir2of3",
		Why:      "1024 sessions over 3 shared sockets, 1400 B symbols: the only path through gateway dispatch, pool coalescing and sendmmsg/recvmmsg, with a session working set far beyond cache",
		Channels: 3, Kappa: 2, Mu: 3, Size: 1400, Sessions: 1024, Burst: 4,
		Window: 32, PacedRate: 30000,
		// With the default 2 s reassembly timeout each session's receiver
		// keeps ≈ 4.4 KB per delivered symbol for 2 s — half a gigabyte at
		// this workload's rate — and the run then measures how much of that
		// memory the hypervisor had already backed (goodput 20–90 MB/s over
		// ten identical runs). 100 ms is still 2000 flights.
		Timeout: 100 * time.Millisecond,
	},
	{
		Name:     "lossy-mtu-auth3of5",
		Why:      "1400 B authenticated 3-of-5 under seeded drop/duplicate/corrupt/late faults with a 5 ms reassembly timeout: pending, evict, tombstone, late and CRC-reject paths run beside the fast path",
		Channels: 5, Kappa: 3, Mu: 5, Size: 1400, Sessions: 1, Burst: 1,
		Window: 32, PacedRate: 10000,
		Auth: true, Lossy: true, Timeout: 5 * time.Millisecond, MaxPending: 256,
	},
}

// findWorkload returns the workload with the given name, or nil.
func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

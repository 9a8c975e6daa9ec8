package bench

import (
	"fmt"
	"testing"
	"time"

	"remicss/internal/obs"
)

// gatherIndex splits a registry snapshot into label-summed counter totals,
// per-channel and per-shard counter values, and named histograms, for
// reconciliation.
type gatherIndex struct {
	totals  map[string]int64            // counters and gauges, summed over labels
	byChan  map[string]map[string]int64 // name -> channel label -> value
	byShard map[string]map[string]int64 // name -> shard label -> value
	hists   map[string]*obs.HistogramSnapshot
	pending int64
}

func indexRegistry(reg *obs.Registry) gatherIndex {
	idx := gatherIndex{
		totals:  make(map[string]int64),
		byChan:  make(map[string]map[string]int64),
		byShard: make(map[string]map[string]int64),
		hists:   make(map[string]*obs.HistogramSnapshot),
	}
	for _, s := range reg.Gather() {
		if s.Hist != nil {
			idx.hists[s.Name] = s.Hist
			continue
		}
		idx.totals[s.Name] += s.Value
		if s.Name == "remicss_receiver_pending" {
			idx.pending = s.Value
		}
		for _, l := range s.Labels {
			var m map[string]map[string]int64
			switch l.Key {
			case "channel":
				m = idx.byChan
			case "shard":
				m = idx.byShard
			default:
				continue
			}
			inner := m[s.Name]
			if inner == nil {
				inner = make(map[string]int64)
				m[s.Name] = inner
			}
			inner[l.Value] = s.Value
		}
	}
	return idx
}

// TestObsCrossValidation runs the full protocol over the emulator with
// observability enabled and reconciles three independent views of the same
// run: the obs registry, the legacy Stats() snapshots, and the netem
// emulator's ground-truth link counters. Every datagram must be accounted
// for exactly — the emulator is single-threaded virtual time, so there is
// no tolerance anywhere.
func TestObsCrossValidation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		setup    Setup
		wantLoss bool
	}{
		{"identical", Identical(20), false},
		{"lossy", Lossy(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			trace := obs.NewTrace(1 << 15)
			const shards = 8 // pinned: per-shard accounting must reconcile on any host
			res, err := Run(RunConfig{
				Setup:       tc.setup,
				Kappa:       1,
				Mu:          2,
				OfferedMbps: 20,
				Duration:    150 * time.Millisecond,
				Seed:        42,
				Shards:      shards,
				Obs:         reg,
				Trace:       trace,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Receiver.SymbolsDelivered == 0 {
				t.Fatal("run delivered nothing; cross-validation is vacuous")
			}
			idx := indexRegistry(reg)

			// View 1 vs view 2: every obs counter must equal the legacy
			// Stats() field it shadows.
			for _, c := range []struct {
				metric string
				want   int64
			}{
				{"remicss_sender_symbols_sent_total", res.Sender.SymbolsSent},
				{"remicss_sender_symbols_stalled_total", res.Sender.SymbolsStalled},
				{"remicss_sender_shares_sent_total", res.Sender.SharesSent},
				{"remicss_sender_shares_dropped_total", res.Sender.SharesDropped},
				{"remicss_receiver_shares_received_total", res.Receiver.SharesReceived},
				{"remicss_receiver_shares_invalid_total", res.Receiver.SharesInvalid},
				{"remicss_receiver_shares_duplicate_total", res.Receiver.SharesDuplicate},
				{"remicss_receiver_shares_late_total", res.Receiver.SharesLate},
				{"remicss_receiver_symbols_delivered_total", res.Receiver.SymbolsDelivered},
				{"remicss_receiver_symbols_evicted_total", res.Receiver.SymbolsEvicted},
				{"remicss_receiver_combine_failures_total", res.Receiver.CombineFailures},
			} {
				if got := idx.totals[c.metric]; got != c.want {
					t.Errorf("%s = %d, legacy stats say %d", c.metric, got, c.want)
				}
			}

			// View 1 vs view 3: per-channel netem obs counters must equal the
			// emulator's own LinkStats, channel by channel.
			var sent, dropped, lost, deliveredDg int64
			for i, ls := range res.Links {
				ch := fmt.Sprint(i)
				for _, c := range []struct {
					metric string
					want   int64
				}{
					{"netem_link_sent_total", ls.Sent},
					{"netem_link_dropped_total", ls.Dropped},
					{"netem_link_lost_total", ls.Lost},
					{"netem_link_delivered_total", ls.Delivered},
				} {
					if got := idx.byChan[c.metric][ch]; got != c.want {
						t.Errorf("channel %d: %s = %d, emulator says %d", i, c.metric, got, c.want)
					}
				}
				// Conservation per link: the run drains in-flight traffic, so
				// everything accepted was either delivered or lost.
				if ls.Sent != ls.Delivered+ls.Lost {
					t.Errorf("channel %d: sent %d != delivered %d + lost %d", i, ls.Sent, ls.Delivered, ls.Lost)
				}
				sent += ls.Sent
				dropped += ls.Dropped
				lost += ls.Lost
				deliveredDg += ls.Delivered
			}

			// Cross-layer conservation: shares the sender counted as accepted
			// are exactly the packets the links accepted, and every datagram
			// the emulator delivered was classified by the receiver.
			if sent != res.Sender.SharesSent {
				t.Errorf("links accepted %d packets, sender counted %d shares sent", sent, res.Sender.SharesSent)
			}
			if dropped != res.Sender.SharesDropped {
				t.Errorf("links rejected %d packets, sender counted %d drops", dropped, res.Sender.SharesDropped)
			}
			datagrams := idx.totals["remicss_receiver_datagrams_total"]
			if deliveredDg != datagrams {
				t.Errorf("links delivered %d datagrams, receiver saw %d", deliveredDg, datagrams)
			}
			classified := res.Receiver.SharesReceived + res.Receiver.SharesInvalid +
				res.Receiver.SharesDuplicate + res.Receiver.SharesLate
			if classified != datagrams {
				t.Errorf("receiver classified %d shares out of %d datagrams", classified, datagrams)
			}
			if res.Sender.SharesSent-lost != datagrams {
				t.Errorf("sent %d - lost %d != received %d", res.Sender.SharesSent, lost, datagrams)
			}
			if tc.wantLoss && lost == 0 {
				t.Error("lossy setup lost nothing; ground truth is not exercising the loss path")
			}
			if !tc.wantLoss && lost != 0 {
				t.Errorf("loss-free setup lost %d packets", lost)
			}

			// Delay histogram: one observation per delivery, and its total
			// mass must match the trace's per-delivery delay values exactly.
			hist := idx.hists["remicss_receiver_symbol_delay_ns"]
			if hist == nil {
				t.Fatal("remicss_receiver_symbol_delay_ns not registered")
			}
			if hist.Count != res.Receiver.SymbolsDelivered {
				t.Errorf("delay histogram holds %d observations, %d symbols delivered", hist.Count, res.Receiver.SymbolsDelivered)
			}

			// Trace vs counters: the ring is sized to never wrap at this
			// load, so per-kind event counts equal the counters and the sum
			// of traced delivery delays equals the histogram's sum.
			if trace.Recorded() > uint64(trace.Cap()) {
				t.Fatalf("trace wrapped (%d events, capacity %d); enlarge it", trace.Recorded(), trace.Cap())
			}
			if got := trace.CountKind(obs.EventShareSent); int64(got) != res.Sender.SharesSent {
				t.Errorf("traced %d share-sent events, counters say %d", got, res.Sender.SharesSent)
			}
			if got := trace.CountKind(obs.EventDatagramLost); int64(got) != lost {
				t.Errorf("traced %d datagram losses, emulator says %d", got, lost)
			}
			var deliveries int
			var delaySum int64
			for _, ev := range trace.Snapshot(nil) {
				if ev.Kind == obs.EventSymbolDelivered {
					deliveries++
					delaySum += ev.Value
					if ev.Value < 0 {
						t.Errorf("negative traced delivery delay %d", ev.Value)
					}
				}
			}
			if int64(deliveries) != res.Receiver.SymbolsDelivered {
				t.Errorf("traced %d deliveries, stats say %d", deliveries, res.Receiver.SymbolsDelivered)
			}
			if delaySum != hist.Sum {
				t.Errorf("traced delay sum %d != histogram sum %d", delaySum, hist.Sum)
			}

			// Pending gauge: at κ=1 the first share of a symbol delivers it,
			// nothing is ever incomplete, and a delivered symbol leaves the
			// reassembly buffer at once — so the gauge must read zero.
			if idx.pending != 0 {
				t.Errorf("pending gauge %d after %d deliveries at κ=1, want 0", idx.pending, res.Receiver.SymbolsDelivered)
			}

			// Per-shard series vs aggregates: the sharded receiver maintains
			// the unlabeled series by the exact same admissions and drops
			// that move the shard series, so the shard sums must reconcile
			// with no tolerance.
			shardPending := idx.byShard["remicss_receiver_shard_pending"]
			if len(shardPending) != shards {
				t.Fatalf("%d shard pending series, want %d", len(shardPending), shards)
			}
			var pendingSum int64
			for _, v := range shardPending {
				pendingSum += v
			}
			if pendingSum != idx.pending {
				t.Errorf("shard pending sum %d != aggregate pending gauge %d", pendingSum, idx.pending)
			}
			shardEvictions := idx.byShard["remicss_receiver_shard_evictions_total"]
			if len(shardEvictions) != shards {
				t.Fatalf("%d shard eviction series, want %d", len(shardEvictions), shards)
			}
			var evictionSum int64
			for _, v := range shardEvictions {
				evictionSum += v
			}
			if evictionSum != res.Receiver.SymbolsEvicted {
				t.Errorf("shard eviction sum %d != symbols evicted %d", evictionSum, res.Receiver.SymbolsEvicted)
			}
		})
	}
}

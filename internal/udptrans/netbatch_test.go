package udptrans

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"remicss/internal/obs"
)

// collectN receives datagrams via serve until n arrive or the deadline
// passes, returning copies in arrival order.
func collectN(t *testing.T, serve func(func([]byte)), n int, timeout time.Duration) [][]byte {
	t.Helper()
	var mu sync.Mutex
	got := make([][]byte, 0, n)
	done := make(chan struct{})
	serve(func(d []byte) {
		mu.Lock()
		defer mu.Unlock()
		if len(got) == n {
			return
		}
		got = append(got, append([]byte(nil), d...))
		if len(got) == n {
			close(done)
		}
	})
	select {
	case <-done:
	case <-time.After(timeout):
	}
	mu.Lock()
	defer mu.Unlock()
	return got
}

// mixedBurst is a burst that crosses every boundary rule of the run
// planner, each datagram's bytes a function of its position so that a cut
// in the wrong place, a swap or a repeat cannot go unseen: a long equal
// run, a run closed by a shorter datagram, a longer datagram directly
// after, an empty one, 65 equal ones (one more than a message may carry),
// equal ones totalling more than one UDP payload, and one far larger than
// any of them.
func mixedBurst() [][]byte {
	var lens []int
	add := func(n, size int) {
		for i := 0; i < n; i++ {
			lens = append(lens, size)
		}
	}
	add(20, 1200)
	add(5, 900)
	add(1, 300)
	add(1, 1300)
	add(1, 0)
	add(65, 100)
	add(50, 1400) // 70 000 B > 65 507
	add(1, 40<<10)
	burst := make([][]byte, len(lens))
	for i, n := range lens {
		d := make([]byte, n)
		for j := range d {
			d[j] = byte(i*131 + j*7 + j>>8)
		}
		burst[i] = d
	}
	return burst
}

// logBatchModes records which tier this machine selected and which it
// offers, so a CI runner whose kernel lacks one shows it in the log instead
// of quietly testing fewer tiers.
func logBatchModes(t *testing.T) {
	t.Helper()
	t.Logf("batch mode %q, available %v", BatchMode(), BatchModes())
}

// checkArrival fails unless got is sent, datagram for datagram, in order.
func checkArrival(t *testing.T, got, sent [][]byte) {
	t.Helper()
	if len(got) != len(sent) {
		t.Fatalf("received %d of %d datagrams", len(got), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(got[i], sent[i]) {
			t.Fatalf("datagram %d arrived as %d bytes, want the %d sent, in sending order", i, len(got[i]), len(sent[i]))
		}
	}
}

// counter reads one channel-0 series of reg.
func counter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name, obs.Label{Key: "channel", Value: "0"}).Value()
}

// TestBatchModesDifferential pins the acceptance property of the batched
// transport: whatever tier sends and whatever tier (or ServeConcurrent)
// receives, the receiver sees the sent datagrams — same bytes, same
// boundaries, same order. It covers every sending mode of BatchModes()
// against every receiving one, so a segmenting sender into a socket
// without UDP_GRO (the kernel cuts the runs itself) and a plain sender into
// a UDP_GRO socket (no control message: the buffer is one datagram) are
// each held to the sent sequence, along with the datagram and kernel-entry
// counters on both sides.
func TestBatchModesDifferential(t *testing.T) {
	logBatchModes(t)
	burst := mixedBurst()
	modes := BatchModes()
	if len(modes) == 0 {
		t.Fatal("no batch modes available")
	}
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) {
			for _, recvMode := range append([]string{"concurrent"}, modes...) {
				t.Run("to-"+recvMode, func(t *testing.T) {
					differentialRun(t, burst, mode, recvMode)
				})
			}
		})
	}
}

// differentialRun sends burst under sendMode into a listener serving under
// recvMode ("concurrent" for ServeConcurrent) and checks what arrived.
func differentialRun(t *testing.T, burst [][]byte, sendMode, recvMode string) {
	force := func(mode string) func() {
		t.Helper()
		restore, err := ForceBatchMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		if BatchMode() != mode {
			t.Fatalf("BatchMode() = %q after forcing %q", BatchMode(), mode)
		}
		return restore
	}
	lis, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	reg := obs.NewRegistry()
	lis.Instrument(reg)

	link, err := Dial(lis.Addrs()[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	link.Instrument(reg, 0)

	// A serving loop keeps the tier it started under, so the receiving mode
	// only has to be in force while it starts. ServeConcurrent runs in
	// whichever mode is active, which is what readTier records.
	serve := lis.ServeConcurrent
	if recvMode != "concurrent" {
		serve = lis.ServeBatch
		defer force(recvMode)()
	}
	readTier := BatchMode()
	gotCh := make(chan [][]byte, 1)
	served := make(chan struct{})
	go func() {
		gotCh <- collectN(t, func(h func([]byte)) { serve(h); close(served) }, len(burst), 5*time.Second)
	}()
	<-served
	defer force(sendMode)()
	if n := link.SendBatch(burst); n != len(burst) {
		t.Fatalf("SendBatch accepted %d of %d", n, len(burst))
	}
	checkArrival(t, <-gotCh, burst)
	if err := link.LastSendError(); err != nil {
		t.Fatalf("LastSendError = %v after a clean burst", err)
	}

	// Both ends count datagrams, whatever carried them.
	n := int64(len(burst))
	if sent := counter(reg, "udp_sent_datagrams_total"); sent != n {
		t.Fatalf("udp_sent_datagrams_total = %d, want %d", sent, n)
	}
	if recv := counter(reg, "udp_recv_datagrams_total"); recv != n {
		t.Fatalf("udp_recv_datagrams_total = %d, want %d", recv, n)
	}
	// Kernel entries: the fast paths must spend strictly fewer than one per
	// datagram (that is their point), portable exactly one.
	writes := counter(reg, "udp_batch_writes_total")
	switch {
	case writes <= 0:
		t.Fatalf("udp_batch_writes_total = %d, want > 0", writes)
	case sendMode == "portable" && writes != n:
		t.Fatalf("portable mode spent %d kernel entries on %d datagrams", writes, n)
	case sendMode != "portable" && writes >= n:
		t.Fatalf("%s mode spent %d kernel entries on %d datagrams", sendMode, writes, n)
	}
	// ServeConcurrent delivered the sent burst like every other receiving
	// mode (checkArrival), so the modes deliver identical datagrams; at depth
	// one it never spends more than an entry per datagram, and under gso it
	// spends fewer on a segmented burst, since its one slot takes a whole run.
	reads := counter(reg, "udp_batch_reads_total")
	switch {
	case reads <= 0:
		t.Fatalf("udp_batch_reads_total = %d, want > 0", reads)
	case recvMode == "concurrent" && reads > n:
		t.Fatalf("ServeConcurrent (%s) spent %d kernel entries receiving %d datagrams, want at most one each", readTier, reads, n)
	case recvMode == "concurrent" && readTier == "gso" && sendMode == "gso" && reads >= n:
		t.Fatalf("ServeConcurrent (gso) spent %d kernel entries receiving %d segmented datagrams, want fewer", reads, n)
	case recvMode == "portable" && reads != n:
		t.Fatalf("portable mode spent %d kernel entries receiving %d datagrams", reads, n)
	case recvMode == "gso" && sendMode == "gso" && reads >= n:
		// Between segmenting and coalescing ends even a reader that keeps
		// pace with the sender gets whole runs per entry.
		t.Fatalf("gso mode spent %d kernel entries receiving %d datagrams", reads, n)
	}
}

// linkOutcome is what offering a list of datagrams to a Link comes to.
type linkOutcome struct {
	accepted          int
	sent, paced, lost int64
}

// TestLinkAdmission runs each way a link can dispose of a datagram — closed,
// paced, lost or delayed by the impairment, written — through both entry
// points, on a fresh link with the same seed: Send once per datagram and one
// SendBatch must accept the same count, leave the same udp_sent / udp_paced
// / udp_lost counters (they share admit, divert and wrote), and every
// datagram counted as sent must arrive, a delayed one not before its delay.
func TestLinkAdmission(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rate   float64
		burst  int
		impair Impairment
		closed bool
		offer  int
		check  func(t *testing.T, o linkOutcome)
	}{
		{name: "paced", rate: 1, burst: 4, offer: 10, check: func(t *testing.T, o linkOutcome) {
			if o != (linkOutcome{accepted: 4, sent: 4, paced: 6}) {
				t.Fatalf("%+v, want the 4-token burst sent and 6 paced drops", o)
			}
		}},
		{name: "closed", closed: true, offer: 2, check: func(t *testing.T, o linkOutcome) {
			if o != (linkOutcome{paced: 2}) {
				t.Fatalf("%+v, want a closed link to refuse both", o)
			}
		}},
		{name: "lossy", impair: Impairment{Loss: 0.5, Seed: 7}, offer: 100, check: func(t *testing.T, o linkOutcome) {
			// Lost datagrams still count as accepted: accepted, then lost on
			// the wire.
			if o.accepted != 100 || o.lost == 0 || o.sent == 0 || o.lost+o.sent != 100 || o.paced != 0 {
				t.Fatalf("%+v, want all 100 accepted, split between lost and sent", o)
			}
		}},
		{name: "delayed", impair: Impairment{Delay: 100 * time.Millisecond}, offer: 3, check: func(t *testing.T, o linkOutcome) {
			if o != (linkOutcome{accepted: 3, sent: 3}) {
				t.Fatalf("%+v, want all 3 accepted and counted as sent", o)
			}
		}},
		{name: "paced-lossy-delayed", rate: 1, burst: 8, impair: Impairment{Loss: 0.3, Delay: 20 * time.Millisecond, Seed: 11}, offer: 12, check: func(t *testing.T, o linkOutcome) {
			if o.accepted != 8 || o.paced != 4 || o.lost == 0 || o.lost+o.sent != 8 {
				t.Fatalf("%+v, want 8 admitted, split between lost and sent, and 4 paced drops", o)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(t *testing.T, offer func(l *Link, datagrams [][]byte) int) linkOutcome {
				lis, err := Listen([]string{"127.0.0.1:0"})
				if err != nil {
					t.Fatal(err)
				}
				defer lis.Close()
				arrivals := make(chan time.Time, tc.offer)
				lis.ServeConcurrent(func([]byte) { arrivals <- time.Now() })
				link, err := DialImpaired(lis.Addrs()[0], tc.rate, tc.burst, tc.impair)
				if err != nil {
					t.Fatal(err)
				}
				defer link.Close()
				reg := obs.NewRegistry()
				link.Instrument(reg, 0)
				if tc.closed {
					link.Close()
				}
				datagrams := make([][]byte, tc.offer)
				for i := range datagrams {
					datagrams[i] = []byte{byte(i)}
				}
				start := time.Now()
				o := linkOutcome{
					accepted: offer(link, datagrams),
					sent:     counter(reg, "udp_sent_datagrams_total"),
					paced:    counter(reg, "udp_paced_drops_total"),
					lost:     counter(reg, "udp_impairment_lost_total"),
				}
				tc.check(t, o)
				for i := int64(0); i < o.sent; i++ {
					select {
					case at := <-arrivals:
						if early := tc.impair.Delay*8/10 - at.Sub(start); early > 0 {
							t.Fatalf("a datagram arrived %v before its %v delay", early, tc.impair.Delay)
						}
					case <-time.After(2 * time.Second):
						t.Fatalf("%d of the %d datagrams counted as sent arrived", i, o.sent)
					}
				}
				return o
			}
			var single, batch linkOutcome
			t.Run("Send", func(t *testing.T) {
				single = run(t, func(l *Link, datagrams [][]byte) (accepted int) {
					for _, d := range datagrams {
						if l.Send(d) {
							accepted++
						}
					}
					return accepted
				})
			})
			t.Run("SendBatch", func(t *testing.T) {
				batch = run(t, (*Link).SendBatch)
			})
			if single != batch {
				t.Fatalf("Send came to %+v, SendBatch to %+v", single, batch)
			}
		})
	}
}

// TestForceBatchModeUnknown checks a typo'd mode is a hard error listing
// what is compiled in, never a silent fallback.
func TestForceBatchModeUnknown(t *testing.T) {
	if _, err := ForceBatchMode("no-such-mode"); err == nil {
		t.Fatal("unknown batch mode was accepted")
	}
}

// forEachBatchMode runs f as a subtest under every mode of BatchModes().
func forEachBatchMode(t *testing.T, f func(t *testing.T)) {
	logBatchModes(t)
	for _, mode := range BatchModes() {
		t.Run(mode, func(t *testing.T) {
			restore, err := ForceBatchMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			f(t)
		})
	}
}

// allocBurst is a small burst with every shape of message in it: an equal
// run, a run with a short tail, and single datagrams, one of them empty.
func allocBurst() [][]byte {
	var burst [][]byte
	for _, n := range []int{400, 400, 400, 400, 250, 250, 100, 700, 0, 30} {
		burst = append(burst, bytes.Repeat([]byte{byte(n)}, n))
	}
	return burst
}

// TestSendBatchSteadyStateAllocs pins the batched send path under every
// mode: after warmup, a SendBatch burst on an unpaced, unimpaired link
// performs no per-call heap allocations, control messages included.
func TestSendBatchSteadyStateAllocs(t *testing.T) {
	forEachBatchMode(t, func(t *testing.T) {
		lis, err := Listen([]string{"127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		link, err := Dial(lis.Addrs()[0], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()
		link.Instrument(obs.NewRegistry(), 0)

		burst := allocBurst()
		link.SendBatch(burst) // warm the scratch pools
		if allocs := testing.AllocsPerRun(200, func() {
			link.SendBatch(burst)
		}); allocs > 0.5 {
			t.Fatalf("SendBatch allocates %v per burst after warmup, want ~0", allocs)
		}
	})
}

// TestServeBatchSteadyStateAllocs pins the batched receive path under
// every mode: once the reader goroutine has its buffers, receiving a burst
// and handing each datagram to the handler allocates nothing. The burst
// comes from SendBatch under the same mode (itself pinned above), and
// AllocsPerRun counts the whole process, so the reader's side is in it.
func TestServeBatchSteadyStateAllocs(t *testing.T) {
	forEachBatchMode(t, func(t *testing.T) {
		lis, err := Listen([]string{"127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		lis.Instrument(obs.NewRegistry())
		link, err := Dial(lis.Addrs()[0], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()

		burst := allocBurst()
		var seen int
		arrived := make(chan struct{}, 1)
		lis.ServeBatch(func(d []byte) {
			if seen++; seen == len(burst) { // one reader goroutine: no lock needed
				seen = 0
				arrived <- struct{}{}
			}
		})
		overdue := time.NewTimer(time.Hour) // one timer, re-armed: time.After would be the only allocation
		defer overdue.Stop()
		roundTrip := func() {
			overdue.Reset(5 * time.Second)
			link.SendBatch(burst)
			select {
			case <-arrived:
			case <-overdue.C:
				panic("burst did not arrive")
			}
		}
		roundTrip() // warm the scratch pools and the reader
		if allocs := testing.AllocsPerRun(200, roundTrip); allocs > 0.5 {
			t.Fatalf("ServeBatch allocates %v per received burst after warmup, want ~0", allocs)
		}
	})
}

// checkRuns holds a plan to planRuns' contract, stated independently of
// how planRuns is written: the runs cover every datagram exactly once in
// order; a multi-datagram run has equal-length segments of at least one
// byte except possibly a shorter (never empty) last, at most
// maxRunSegments of them and maxRunBytes in all; and no run stops while
// the next datagram could still have joined it.
func checkRuns(t *testing.T, lens, runs []int) {
	t.Helper()
	i := 0
	for _, n := range runs {
		if n < 1 || n > maxRunSegments || i+n > len(lens) {
			t.Fatalf("run of %d at datagram %d of %d (lens %v, runs %v)", n, i, len(lens), lens, runs)
		}
		run := lens[i : i+n]
		seg, total := run[0], 0
		for j, l := range run {
			total += l
			if n > 1 && (l < 1 || l > seg || (l < seg && j != n-1)) {
				t.Fatalf("run at %d has segment %d of length %d after a first of %d (lens %v, runs %v)", i, j, l, seg, lens, runs)
			}
		}
		if n > 1 && total > maxRunBytes {
			t.Fatalf("run at %d carries %d bytes (lens %v, runs %v)", i, total, lens, runs)
		}
		if i+n < len(lens) {
			next := lens[i+n]
			open := seg >= 1 && run[n-1] == seg && n < maxRunSegments
			if open && next >= 1 && next <= seg && total+next <= maxRunBytes {
				t.Fatalf("run at %d stops at %d datagrams though the next (%d bytes) fits (lens %v, runs %v)", i, n, next, lens, runs)
			}
		}
		i += n
	}
	if i != len(lens) {
		t.Fatalf("runs cover %d of %d datagrams (lens %v, runs %v)", i, len(lens), lens, runs)
	}
}

// TestPlanRuns spells out the planner's decisions on the shapes the
// differential burst is built from.
func TestPlanRuns(t *testing.T) {
	repeat := func(n, size int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = size
		}
		return out
	}
	cat := func(parts ...[]int) []int {
		var out []int
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		lens []int
		want []int
	}{
		{"empty burst", nil, nil},
		{"single", []int{1400}, []int{1}},
		{"equal run", repeat(32, 1430), []int{32}},
		{"short one closes the run", []int{900, 900, 900, 300, 300}, []int{4, 1}},
		{"longer one starts anew", []int{300, 300, 1300, 1300}, []int{2, 2}},
		{"empty datagrams stay plain", []int{100, 0, 0, 100, 100}, []int{1, 1, 1, 2}},
		{"segment limit", repeat(65, 100), []int{64, 1}},
		{"payload limit", repeat(50, 1400), []int{46, 4}},
		{"oversize stays plain", []int{70000, 70000, 10}, []int{1, 1, 1}},
		{"largest payload alone", []int{maxRunBytes, 1}, []int{1, 1}},
		{"mixed", cat(repeat(3, 500), []int{20}, repeat(2, 40<<10)), []int{4, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := planRuns(tc.lens, nil)
			checkRuns(t, tc.lens, got)
			if len(got) != len(tc.want) {
				t.Fatalf("planRuns(%v) = %v, want %v", tc.lens, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("planRuns(%v) = %v, want %v", tc.lens, got, tc.want)
				}
			}
		})
	}
}

// FuzzBatchRuns holds planRuns to checkRuns on arbitrary bursts. Each
// input byte picks a length from a short table, so equal neighbours,
// shorter tails, empties and the limits all come up within a few bytes.
func FuzzBatchRuns(f *testing.F) {
	sizes := [...]int{0, 1, 100, 100, 1023, 1400, 1400, 1430, 16 << 10, 40 << 10, maxRunBytes, maxRunBytes + 1}
	f.Add([]byte{})
	f.Add([]byte{5, 5, 5, 5, 2, 7, 0, 5})
	f.Add(bytes.Repeat([]byte{2}, 130))
	f.Add(bytes.Repeat([]byte{5}, 100))
	f.Add([]byte{10, 1, 11, 11, 9, 9, 8, 8, 8, 8, 8, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		lens := make([]int, len(in))
		for i, b := range in {
			lens[i] = sizes[int(b)%len(sizes)]
		}
		checkRuns(t, lens, planRuns(lens, nil))
	})
}

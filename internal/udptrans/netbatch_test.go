package udptrans

import (
	"fmt"
	"sort"
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

// TestBatchModesDifferential pins the acceptance property of the batched
// transport: every compiled batch mode delivers byte-identical datagrams.
// It sends the same burst under each mode listed by BatchModes() — both
// directions batched (SendBatch into ServeBatch) — and compares the
// delivered multiset against the sent one.
func TestBatchModesDifferential(t *testing.T) {
	burst := make([][]byte, 40)
	for i := range burst {
		burst[i] = []byte(fmt.Sprintf("datagram-%03d-%s", i, string(rune('a'+i%26))))
	}
	want := make([]string, len(burst))
	for i, d := range burst {
		want[i] = string(d)
	}
	sort.Strings(want)

	modes := BatchModes()
	if len(modes) == 0 {
		t.Fatal("no batch modes available")
	}
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) {
			restore, err := ForceBatchMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			if BatchMode() != mode {
				t.Fatalf("BatchMode() = %q after forcing %q", BatchMode(), mode)
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

			gotCh := make(chan [][]byte, 1)
			go func() {
				gotCh <- collectN(t, lis.ServeBatch, len(burst), 5*time.Second)
			}()
			// Give the reader goroutine a moment to park in recv.
			time.Sleep(20 * time.Millisecond)
			if n := link.SendBatch(burst); n != len(burst) {
				t.Fatalf("SendBatch accepted %d of %d", n, len(burst))
			}
			got := <-gotCh
			if len(got) != len(burst) {
				t.Fatalf("received %d of %d datagrams", len(got), len(burst))
			}
			gotS := make([]string, len(got))
			for i, d := range got {
				gotS[i] = string(d)
			}
			sort.Strings(gotS)
			for i := range want {
				if gotS[i] != want[i] {
					t.Fatalf("mode %s: delivered datagram %d = %q, want %q", mode, i, gotS[i], want[i])
				}
			}

			// The batch counters must have advanced, and under the mmsg mode
			// the whole burst must cost strictly fewer kernel entries than
			// datagrams (that is the point of the fast path).
			writes := reg.Counter("udp_batch_writes_total", obs.Label{Key: "channel", Value: "0"}).Value()
			if writes <= 0 {
				t.Fatalf("udp_batch_writes_total = %d, want > 0", writes)
			}
			if mode == "mmsg" && writes >= int64(len(burst)) {
				t.Fatalf("mmsg mode spent %d kernel entries on %d datagrams", writes, len(burst))
			}
			if mode == "portable" && writes != int64(len(burst)) {
				t.Fatalf("portable mode spent %d kernel entries on %d datagrams", writes, len(burst))
			}
		})
	}
}

// TestSendBatchPacing checks the token bucket applies to a burst exactly as
// it would to per-datagram Sends: the admitted prefix is sent, the rest are
// counted as paced drops.
func TestSendBatchPacing(t *testing.T) {
	lis, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	link, err := Dial(lis.Addrs()[0], 1, 4) // 4-token bucket, 1 pps refill
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	reg := obs.NewRegistry()
	link.Instrument(reg, 0)

	burst := make([][]byte, 10)
	for i := range burst {
		burst[i] = []byte{byte(i)}
	}
	if n := link.SendBatch(burst); n != 4 {
		t.Fatalf("SendBatch accepted %d, want the 4-token burst", n)
	}
	paced := reg.Counter("udp_paced_drops_total", obs.Label{Key: "channel", Value: "0"}).Value()
	if paced != 6 {
		t.Fatalf("udp_paced_drops_total = %d, want 6", paced)
	}
	sent := reg.Counter("udp_sent_datagrams_total", obs.Label{Key: "channel", Value: "0"}).Value()
	if sent != 4 {
		t.Fatalf("udp_sent_datagrams_total = %d, want 4", sent)
	}
}

// TestSendBatchClosed checks a closed link refuses the whole burst.
func TestSendBatchClosed(t *testing.T) {
	lis, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	link, err := Dial(lis.Addrs()[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	link.Close()
	if n := link.SendBatch([][]byte{{1}, {2}}); n != 0 {
		t.Fatalf("closed link accepted %d datagrams", n)
	}
}

// TestSendBatchImpairedLoss checks impairment loss applies per datagram
// inside a burst and the lost ones still count as accepted (Send semantics:
// accepted, then lost on the wire).
func TestSendBatchImpairedLoss(t *testing.T) {
	lis, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	link, err := DialImpaired(lis.Addrs()[0], 0, 0, Impairment{Loss: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	reg := obs.NewRegistry()
	link.Instrument(reg, 0)

	burst := make([][]byte, 100)
	for i := range burst {
		burst[i] = []byte{byte(i)}
	}
	if n := link.SendBatch(burst); n != len(burst) {
		t.Fatalf("impaired burst accepted %d of %d", n, len(burst))
	}
	lost := reg.Counter("udp_impairment_lost_total", obs.Label{Key: "channel", Value: "0"}).Value()
	sent := reg.Counter("udp_sent_datagrams_total", obs.Label{Key: "channel", Value: "0"}).Value()
	if lost == 0 || sent == 0 || lost+sent != int64(len(burst)) {
		t.Fatalf("lost %d + sent %d != %d", lost, sent, len(burst))
	}
}

// TestForceBatchModeUnknown checks a typo'd mode is a hard error listing
// what is compiled in, never a silent fallback.
func TestForceBatchModeUnknown(t *testing.T) {
	if _, err := ForceBatchMode("no-such-mode"); err == nil {
		t.Fatal("unknown batch mode was accepted")
	}
}

// TestSendBatchSteadyStateAllocs pins the batched send path: after warmup,
// a SendBatch burst on an unpaced, unimpaired link performs no per-call
// heap allocations beyond what the kernel interface itself needs.
func TestSendBatchSteadyStateAllocs(t *testing.T) {
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

	burst := make([][]byte, 8)
	for i := range burst {
		burst[i] = []byte{byte(i), 1, 2, 3}
	}
	link.SendBatch(burst) // warm the scratch pools
	if allocs := testing.AllocsPerRun(200, func() {
		link.SendBatch(burst)
	}); allocs > 0.5 {
		t.Fatalf("SendBatch allocates %v per burst after warmup, want ~0", allocs)
	}
}

package remicss_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"remicss"
	"remicss/internal/udptrans"
	"remicss/internal/wire"
)

func startSession(t *testing.T, cfg remicss.SessionConfig, onMessage func(uint64, []byte, time.Duration)) (*remicss.Server, *remicss.Client) {
	t.Helper()
	srv, err := remicss.Serve([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}, cfg, onMessage)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := remicss.Connect(srv.Addrs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSessionRoundtrip(t *testing.T) {
	var mu sync.Mutex
	got := map[uint64][]byte{}
	cfg := remicss.SessionConfig{Seed: 1}
	_, cli := startSession(t, cfg, func(seq uint64, payload []byte, _ time.Duration) {
		mu.Lock()
		got[seq] = append([]byte(nil), payload...)
		mu.Unlock()
	})

	messages := [][]byte{
		[]byte("first"),
		[]byte("second"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	for _, m := range messages {
		if err := cli.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == len(messages)
	})
	mu.Lock()
	defer mu.Unlock()
	for i, want := range messages {
		if !bytes.Equal(got[uint64(i)], want) {
			t.Errorf("message %d corrupted", i)
		}
	}
}

func TestSessionAuthenticatedEndToEnd(t *testing.T) {
	var mu sync.Mutex
	count := 0
	cfg := remicss.SessionConfig{Key: []byte("shared secret"), Seed: 2}
	_, cli := startSession(t, cfg, func(uint64, []byte, time.Duration) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err := cli.Send([]byte("tamper-evident")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == 1
	})
}

func TestSessionKeyMismatchDropsEverything(t *testing.T) {
	var mu sync.Mutex
	count := 0
	srv, err := remicss.Serve([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"},
		remicss.SessionConfig{Key: []byte("server key"), Seed: 3},
		func(uint64, []byte, time.Duration) {
			mu.Lock()
			count++
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := remicss.Connect(srv.Addrs(), remicss.SessionConfig{Key: []byte("client key"), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 5; i++ {
		if err := cli.Send([]byte("forged")); err != nil {
			t.Fatal(err)
		}
	}
	// Give delivery a moment, then confirm nothing was accepted.
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Errorf("%d messages accepted across mismatched keys", count)
	}
	if srv.Stats().CombineFailures == 0 {
		t.Error("no combine failures recorded")
	}
}

// TestServeEvictsWhenQuiet sends one share of a 2-of-3 symbol and nothing
// else: the server must evict the incomplete symbol after its timeout on
// its own, with no further datagram to trigger ingest-time eviction.
func TestServeEvictsWhenQuiet(t *testing.T) {
	reg := remicss.NewMetricsRegistry()
	srv, err := remicss.Serve([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"},
		remicss.SessionConfig{Timeout: 20 * time.Millisecond, Metrics: reg},
		func(uint64, []byte, time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	share, err := wire.AppendMarshal(nil, wire.SharePacket{Seq: 1, K: 2, M: 3, Index: 0, Payload: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", srv.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Loopback may drop a datagram under load; resend until one is held.
	waitFor(t, 5*time.Second, func() bool {
		if srv.Stats().SharesReceived == 0 {
			conn.Write(share)
			time.Sleep(time.Millisecond)
		}
		return srv.Stats().SharesReceived > 0
	})
	waitFor(t, 2*time.Second, func() bool {
		return srv.Stats().SymbolsEvicted == 1 && sumSeries(reg, "remicss_receiver_pending") == 0
	})
}

func TestSessionDefaultParams(t *testing.T) {
	// Default params on 3 channels must be valid (κ=2, μ=3).
	var mu sync.Mutex
	count := 0
	_, cli := startSession(t, remicss.SessionConfig{Seed: 4}, func(uint64, []byte, time.Duration) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err := cli.Send([]byte("defaults")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == 1
	})
	st := cli.Stats()
	if st.SymbolsSent != 1 || st.SharesSent != 3 {
		t.Errorf("stats = %+v, want 3 shares for μ=3", st)
	}
}

func TestSessionClosedClient(t *testing.T) {
	_, cli := startSession(t, remicss.SessionConfig{Seed: 5}, func(uint64, []byte, time.Duration) {})
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := cli.Send([]byte("after close")); !errors.Is(err, remicss.ErrClosed) {
		t.Errorf("got %v, want ErrClosed", err)
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := remicss.Connect(nil, remicss.SessionConfig{}); err == nil {
		t.Error("no addresses accepted")
	}
	if _, err := remicss.Serve([]string{"127.0.0.1:0"}, remicss.SessionConfig{}, nil); err == nil {
		t.Error("nil callback accepted")
	}
	if _, err := remicss.Connect([]string{"127.0.0.1:9"}, remicss.SessionConfig{
		Params: remicss.Params{Kappa: 5, Mu: 2},
	}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSessionConcurrentSenders(t *testing.T) {
	var mu sync.Mutex
	count := 0
	_, cli := startSession(t, remicss.SessionConfig{Seed: 6}, func(uint64, []byte, time.Duration) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	const goroutines, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := cli.Send([]byte{byte(g), byte(i)}); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == goroutines*each
	})
}

// sumSeries adds up every series of the given name in reg.
func sumSeries(reg *remicss.MetricsRegistry, name string) int64 {
	var total int64
	for _, s := range reg.Gather() {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// settledGoroutines is the goroutine count once goroutines that earlier
// tests left exiting are gone: two readings 5 ms apart that agree.
func settledGoroutines() int {
	for n := runtime.NumGoroutine(); ; {
		time.Sleep(5 * time.Millisecond)
		next := runtime.NumGoroutine()
		if next == n {
			return n
		}
		n = next
	}
}

// checkNoGoroutineLeft fails if the goroutine count does not come back to
// before within two seconds.
func checkNoGoroutineLeft(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after %s, %d before: one was left behind", n, what, before)
	}
}

// TestClientCoalescesBusySends sends 512 small messages back to back, a
// caller that is busy by every rule of Client.Send, and checks that each
// arrives exactly once and intact; under the gso batch mode the shares must
// also have left in runs, at most one kernel entry per four datagrams.
func TestClientCoalescesBusySends(t *testing.T) {
	t.Logf("batch mode %q", udptrans.BatchMode())
	const n = 512
	reg := remicss.NewMetricsRegistry()
	var mu sync.Mutex
	got := make(map[uint64][]byte, n)
	twice := 0
	_, cli := startSession(t, remicss.SessionConfig{Params: remicss.Params{Kappa: 3, Mu: 3}, Seed: 7, Metrics: reg},
		func(seq uint64, payload []byte, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[seq]; dup {
				twice++
			}
			got[seq] = append([]byte(nil), payload...)
		})
	message := func(i int) []byte {
		m := bytes.Repeat([]byte{byte(i)}, 64)
		binary.BigEndian.PutUint32(m, uint32(i))
		return m
	}
	for i := 0; i < n; i++ {
		if err := cli.Send(message(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	if twice != 0 {
		t.Fatalf("%d messages delivered twice", twice)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[uint64(i)], message(i)) {
			t.Fatalf("message %d arrived as %x", i, got[uint64(i)])
		}
	}
	sent, writes := sumSeries(reg, "udp_sent_datagrams_total"), sumSeries(reg, "udp_batch_writes_total")
	t.Logf("%d datagrams in %d kernel entries", sent, writes)
	if sent != 3*n {
		t.Fatalf("udp_sent_datagrams_total = %d, want %d", sent, 3*n)
	}
	// The race detector slows the sender far more than the drain's system
	// calls, so the drain keeps pace and writes runs of one or two.
	if udptrans.BatchMode() == "gso" && !raceEnabled && 4*writes > sent {
		t.Fatalf("%d kernel entries for %d datagrams, want at most one per four", writes, sent)
	}
}

// TestClientIdleSendWritesInline checks the latency path: a Send after a
// pause has put every share on its socket by the time it returns.
func TestClientIdleSendWritesInline(t *testing.T) {
	reg := remicss.NewMetricsRegistry()
	_, cli := startSession(t, remicss.SessionConfig{Seed: 8, Metrics: reg}, func(uint64, []byte, time.Duration) {})
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		before := sumSeries(reg, "udp_sent_datagrams_total")
		if err := cli.Send([]byte("idle")); err != nil {
			t.Fatal(err)
		}
		if after := sumSeries(reg, "udp_sent_datagrams_total"); after-before != 3 {
			t.Fatalf("send %d: %d of its 3 shares written when Send returned", i, after-before)
		}
	}
	t.Logf("batch mode %q: %d datagrams in %d kernel entries", udptrans.BatchMode(),
		sumSeries(reg, "udp_sent_datagrams_total"), sumSeries(reg, "udp_batch_writes_total"))
}

// TestClientCloseStopsDrain checks Close leaves no goroutine of the client
// behind, after traffic on both of its paths.
func TestClientCloseStopsDrain(t *testing.T) {
	before := settledGoroutines()
	srv, err := remicss.Serve([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}, remicss.SessionConfig{}, func(uint64, []byte, time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := remicss.Connect(srv.Addrs(), remicss.SessionConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
		if err := cli.Send([]byte("close")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeft(t, before, "Client.Close and Server.Close")
}

// TestClientSendRacesClose closes a client under concurrent senders: every
// Send returns nil or ErrClosed, and every share a link accepted was
// written by the time Close returned, none stranded in a queue.
func TestClientSendRacesClose(t *testing.T) {
	reg := remicss.NewMetricsRegistry()
	_, cli := startSession(t, remicss.SessionConfig{Seed: 10, Metrics: reg}, func(uint64, []byte, time.Duration) {})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := cli.Send(bytes.Repeat([]byte{1}, 200))
				if errors.Is(err, remicss.ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st := cli.Stats()
	sent, paced := sumSeries(reg, "udp_sent_datagrams_total"), sumSeries(reg, "udp_paced_drops_total")
	if st.SharesSent == 0 || sent != st.SharesSent || paced != st.SharesDropped {
		t.Fatalf("links accepted %d shares and refused %d; sockets took %d, pacing or closing refused %d",
			st.SharesSent, st.SharesDropped, sent, paced)
	}
	if errs := sumSeries(reg, "udp_socket_errors_total"); errs != 0 {
		t.Fatalf("%d socket errors", errs)
	}
}

// TestClientPacingRefusesInsideSend paces every channel below what
// concurrent senders offer. A share the chooser scheduled can find its
// bucket emptied by another sender in between: the token bucket refuses it
// inside Send, where the sender counts it as dropped. Every share a link
// admitted — written inline or queued — reaches its socket, so admission
// happens once. (Refusal on each path is pinned deterministically by
// udptrans.TestCoalescerAdmitsOnce; here it takes a race between senders.)
func TestClientPacingRefusesInsideSend(t *testing.T) {
	reg := remicss.NewMetricsRegistry()
	_, cli := startSession(t, remicss.SessionConfig{Seed: 11, Metrics: reg, Rates: []float64{2000, 2000, 2000}, Burst: 4},
		func(uint64, []byte, time.Duration) {})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g == 0 {
					time.Sleep(100 * time.Microsecond) // idle between its sends
				}
				if err := cli.Send([]byte("paced")); err != nil && !errors.Is(err, remicss.ErrBackpressure) {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(g)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cli.Stats().SharesDropped == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	st := cli.Stats()
	sent, paced := sumSeries(reg, "udp_sent_datagrams_total"), sumSeries(reg, "udp_paced_drops_total")
	if st.SharesDropped == 0 || paced != st.SharesDropped || sent != st.SharesSent {
		t.Fatalf("sender: %d shares sent, %d dropped; links: %d written, %d refused by pacing",
			st.SharesSent, st.SharesDropped, sent, paced)
	}
}

// TestClientQueuedFailuresReachHealth points channel 0 at a port nothing
// listens on: under back-to-back sends the socket errors of its queued
// shares must reach the health tracker and take the channel out of healthy.
func TestClientQueuedFailuresReachHealth(t *testing.T) {
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	dead := probe.LocalAddr().String()
	probe.Close()
	srv, err := remicss.Serve([]string{"127.0.0.1:0", "127.0.0.1:0"}, remicss.SessionConfig{}, func(uint64, []byte, time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := remicss.NewMetricsRegistry()
	cli, err := remicss.Connect(append([]string{dead}, srv.Addrs()...), remicss.SessionConfig{Seed: 12, Metrics: reg, Health: &remicss.HealthConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	deadline := time.Now().Add(5 * time.Second)
	for cli.Health().State(0) == remicss.HealthHealthy {
		if time.Now().After(deadline) {
			errs := sumSeries(reg, "udp_socket_errors_total")
			if errs == 0 {
				t.Skip("no ICMP-driven write error on this host; nothing to assert")
			}
			t.Fatalf("channel 0 still healthy after %d socket errors", errs)
		}
		for i := 0; i < 64; i++ {
			if err := cli.Send([]byte("refused")); err != nil && !errors.Is(err, remicss.ErrBackpressure) {
				t.Fatal(err)
			}
		}
	}
	t.Logf("channel 0 %v after %d socket errors", cli.Health().State(0), sumSeries(reg, "udp_socket_errors_total"))
}

// TestConnectErrorsStopDrain fails Connect at each step, including after the
// sockets and the client's drain goroutine exist (more channels than a
// sender takes): none may leave a goroutine behind.
func TestConnectErrorsStopDrain(t *testing.T) {
	before := settledGoroutines()
	many := make([]string, 33)
	for i := range many {
		many[i] = "127.0.0.1:9"
	}
	for _, tc := range []struct {
		name  string
		addrs []string
		cfg   remicss.SessionConfig
	}{
		{"no addresses", nil, remicss.SessionConfig{}},
		{"bad params", []string{"127.0.0.1:9"}, remicss.SessionConfig{Params: remicss.Params{Kappa: 5, Mu: 2}}},
		{"bad health", []string{"127.0.0.1:9"}, remicss.SessionConfig{Health: &remicss.HealthConfig{Alpha: 2}}},
		{"bad address", []string{"127.0.0.1:9", "127.0.0.1:no-port"}, remicss.SessionConfig{}},
		{"too many channels", many, remicss.SessionConfig{}},
	} {
		if _, err := remicss.Connect(tc.addrs, tc.cfg); err == nil {
			t.Fatalf("%s: Connect succeeded", tc.name)
		}
	}
	checkNoGoroutineLeft(t, before, "failed Connects")
}

// TestConnectRejectsMuAboveChannels pins that Connect refuses, before it
// dials, a multiplicity its channels cannot carry: μ = 4 over three
// addresses would leave the dynamic chooser waiting for a fourth channel on
// every Send, and the health chooser clamping m without a word.
func TestConnectRejectsMuAboveChannels(t *testing.T) {
	addrs := []string{"127.0.0.1:9", "127.0.0.1:10", "127.0.0.1:11"}
	for _, tc := range []struct {
		name string
		cfg  remicss.SessionConfig
	}{
		{"dynamic", remicss.SessionConfig{Params: remicss.Params{Kappa: 2, Mu: 4}}},
		{"health", remicss.SessionConfig{Params: remicss.Params{Kappa: 2, Mu: 4}, Health: &remicss.HealthConfig{}}},
	} {
		c, err := remicss.Connect(addrs, tc.cfg)
		if err == nil {
			c.Close()
			t.Fatalf("%s: Connect accepted μ=4 over 3 channels", tc.name)
		}
		if !errors.Is(err, remicss.ErrInvalidParams) {
			t.Fatalf("%s: Connect error %v, want ErrInvalidParams", tc.name, err)
		}
	}
}

// TestClientSendSteadyStateAllocs pins Client.Send at zero allocations per
// call once warm, on the inline path (a pause before each Send) and the
// queued one (back to back), for tiny and 16 KiB messages. Nothing reads the
// sockets, so the count is the client's alone.
func TestClientSendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and reorders the drain against the sender")
	}
	lis, err := remicss.ListenUDP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	reg := remicss.NewMetricsRegistry()
	cli, err := remicss.Connect(lis.Addrs(), remicss.SessionConfig{Params: remicss.Params{Kappa: 3, Mu: 3}, Seed: 13, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	pause := func() {
		for start := time.Now(); time.Since(start) < 50*time.Microsecond; {
		}
	}
	for _, size := range []int{64, 16 << 10} {
		payload := bytes.Repeat([]byte{0x3c}, size)
		send := func() {
			if err := cli.Send(payload); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(fmt.Sprintf("busy-%dB", size), func(t *testing.T) {
			// AllocsPerRun runs on one P, where the drain gets the CPU only
			// when Send yields it, so a queue fills to its bound and the
			// send that finds it full writes it: warm up past that, until
			// every buffer a queue can hold exists.
			for i := 0; i < 2000; i++ {
				send()
			}
			if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
				t.Fatalf("a back-to-back Send allocates %v times", allocs)
			}
		})
		t.Run(fmt.Sprintf("idle-%dB", size), func(t *testing.T) {
			idle := func() { pause(); send() }
			time.Sleep(10 * time.Millisecond) // let the drain empty the queues
			idle()
			sent, writes := sumSeries(reg, "udp_sent_datagrams_total"), sumSeries(reg, "udp_batch_writes_total")
			if allocs := testing.AllocsPerRun(200, idle); allocs != 0 {
				t.Fatalf("a Send after a pause allocates %v times", allocs)
			}
			if ds, dw := sumSeries(reg, "udp_sent_datagrams_total")-sent, sumSeries(reg, "udp_batch_writes_total")-writes; ds != dw {
				t.Fatalf("%d datagrams in %d kernel entries: paused Sends did not write inline", ds, dw)
			}
		})
	}
}

// TestClientQueueFootprint sends 10 000 16 KiB messages back to back and
// bounds every channel queue's memory at one segmented message held and one
// kept free, however far the drain falls behind.
func TestClientQueueFootprint(t *testing.T) {
	lis, err := remicss.ListenUDP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	cli, err := remicss.Connect(lis.Addrs(), remicss.SessionConfig{Params: remicss.Params{Kappa: 3, Mu: 3}, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const maxRun = 65507
	payload := bytes.Repeat([]byte{0x77}, 16<<10)
	check := func(when string) {
		for ch := 0; ch < 3; ch++ {
			if held, free := remicss.ClientQueueFootprint(cli, ch); held > maxRun || free > maxRun {
				t.Fatalf("%s: channel %d queue holds %d B and keeps %d B free, want at most %d each", when, ch, held, free, maxRun)
			}
		}
	}
	for i := 0; i < 10000; i++ {
		if err := cli.Send(payload); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			check(fmt.Sprintf("after %d sends", i+1))
		}
	}
	check("after 10000 sends")
}

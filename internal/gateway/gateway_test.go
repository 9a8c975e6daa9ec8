package gateway

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"remicss/internal/obs"
	"remicss/internal/remicss"
	"remicss/internal/sharing"
	"remicss/internal/udptrans"
	"remicss/internal/wire"
)

// marshalSession builds one valid v2 datagram for tests.
func marshalSession(t testing.TB, session uint64, payload []byte) []byte {
	t.Helper()
	d, err := wire.AppendMarshalSession(nil, wire.SharePacket{
		Seq: 1, Session: session, K: 2, M: 3, Index: 1, SentAt: 1, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSessionTable(t *testing.T) {
	s := NewServer(ServerConfig{Shards: 4})
	if _, err := s.Register(0, "a", func([]byte) {}); err == nil {
		t.Fatal("session 0 was accepted")
	}
	if _, err := s.Register(7, "a", nil); err == nil {
		t.Fatal("nil handler was accepted")
	}
	sess, err := s.Register(7, "a", func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(7, "b", func([]byte) {}); err == nil {
		t.Fatal("duplicate session ID was accepted")
	}
	if got := s.Lookup(7); got != sess {
		t.Fatalf("Lookup(7) = %v, want the registered session", got)
	}
	if got := s.Sessions(); got != 1 {
		t.Fatalf("Sessions() = %d, want 1", got)
	}
	if sess.ID() != 7 || sess.Tenant() != "a" {
		t.Fatalf("session identity = (%d, %q)", sess.ID(), sess.Tenant())
	}
	sess.Close()
	sess.Close() // idempotent
	if got := s.Lookup(7); got != nil {
		t.Fatalf("Lookup(7) after close = %v, want nil", got)
	}
	if got := s.Sessions(); got != 0 {
		t.Fatalf("Sessions() after close = %d, want 0", got)
	}
	// Closing a stale handle after the ID was re-registered must not evict
	// the new session.
	again, err := s.Register(7, "a", func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if got := s.Lookup(7); got != again {
		t.Fatal("stale Close evicted the re-registered session")
	}
}

func TestDispatchRouting(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(ServerConfig{Shards: 8, Metrics: reg})
	var got7, got9 [][]byte
	if _, err := s.Register(7, "a", func(d []byte) { got7 = append(got7, append([]byte(nil), d...)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(9, "b", func(d []byte) { got9 = append(got9, append([]byte(nil), d...)) }); err != nil {
		t.Fatal(err)
	}

	d7 := marshalSession(t, 7, []byte("seven"))
	d9 := marshalSession(t, 9, []byte("nine"))
	s.Dispatch(d7)
	s.Dispatch(d9)
	s.Dispatch(d7)
	if len(got7) != 2 || len(got9) != 1 {
		t.Fatalf("routing: session 7 got %d, session 9 got %d", len(got7), len(got9))
	}

	// Unknown session, malformed header, and sessionless (v1) datagrams
	// are counted, not delivered.
	s.Dispatch(marshalSession(t, 12345, []byte("nobody")))
	s.Dispatch([]byte("not a remicss datagram"))
	v1, err := wire.Marshal(wire.SharePacket{Seq: 1, K: 2, M: 3, Index: 1, SentAt: 1, Payload: []byte("v1")})
	if err != nil {
		t.Fatal(err)
	}
	s.Dispatch(v1)
	if got := reg.Counter("remicss_gateway_unknown_session_total").Value(); got != 2 {
		t.Fatalf("unknown_session_total = %d, want 2 (unknown ID + sessionless)", got)
	}
	if got := reg.Counter("remicss_gateway_malformed_total").Value(); got != 1 {
		t.Fatalf("malformed_total = %d, want 1", got)
	}
	if got := reg.Counter("remicss_gateway_datagrams_total", obs.Label{Key: "tenant", Value: "a"}).Value(); got != 2 {
		t.Fatalf("tenant a datagrams = %d, want 2", got)
	}
}

func TestDispatchSessionless(t *testing.T) {
	var legacy int
	s := NewServer(ServerConfig{Shards: 4, Sessionless: func([]byte) { legacy++ }})
	v1, err := wire.Marshal(wire.SharePacket{Seq: 1, K: 2, M: 3, Index: 1, SentAt: 1, Payload: []byte("v1")})
	if err != nil {
		t.Fatal(err)
	}
	s.Dispatch(v1)
	if legacy != 1 {
		t.Fatalf("sessionless handler ran %d times, want 1", legacy)
	}
	if got := s.Metrics().Counter("remicss_gateway_unknown_session_total").Value(); got != 0 {
		t.Fatalf("sessionless datagram counted as unknown (%d)", got)
	}
}

// TestDispatchNoAlloc pins the routing hot path at zero heap allocations
// per datagram, instrumentation on.
func TestDispatchNoAlloc(t *testing.T) {
	s := NewServer(ServerConfig{Shards: 8, Metrics: obs.NewRegistry()})
	var n int
	if _, err := s.Register(42, "a", func(d []byte) { n += len(d) }); err != nil {
		t.Fatal(err)
	}
	d := marshalSession(t, 42, []byte("payload"))
	if allocs := testing.AllocsPerRun(500, func() { s.Dispatch(d) }); allocs != 0 {
		t.Fatalf("Dispatch allocates %v per datagram, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("handler never ran")
	}
}

// TestDispatchConcurrentRegistration races dispatch against registration
// and unregistration; run under -race this pins the lock-free read path.
func TestDispatchConcurrentRegistration(t *testing.T) {
	s := NewServer(ServerConfig{Shards: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := marshalSession(t, uint64(100+g), []byte("x"))
			for {
				select {
				case <-stop:
					return
				default:
					s.Dispatch(d)
				}
			}
		}(g)
	}
	for i := 0; i < 500; i++ {
		id := uint64(100 + i%3)
		if sess, err := s.Register(id, "t", func([]byte) {}); err == nil {
			sess.Close()
		}
	}
	close(stop)
	wg.Wait()
}

// gatewaySession is one end-to-end session: a sender over the shared pool
// and a receiver registered at the server.
type gatewaySession struct {
	id        uint64
	snd       *remicss.Sender
	delivered map[string]bool
	mu        sync.Mutex
}

// TestGatewayEndToEnd runs several complete sessions over one shared
// socket pool and one listener, under every compiled batch mode, and
// checks each session's receiver reconstructs exactly its own payloads —
// the byte-identical, no-crosstalk property the whole design hangs on.
func TestGatewayEndToEnd(t *testing.T) {
	// A runner whose kernel lacks a tier shows it here rather than quietly
	// testing fewer of them.
	t.Logf("batch mode %q, available %v", udptrans.BatchMode(), udptrans.BatchModes())
	for _, mode := range udptrans.BatchModes() {
		t.Run(mode, func(t *testing.T) {
			restore, err := udptrans.ForceBatchMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()

			const channels = 3
			addrs := make([]string, channels)
			for i := range addrs {
				addrs[i] = "127.0.0.1:0"
			}
			lis, err := udptrans.Listen(addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()

			reg := obs.NewRegistry()
			lis.Instrument(reg)
			srv := NewServer(ServerConfig{Shards: 16, Metrics: reg})

			const sessions = 4
			const perSession = 20
			sess := make([]*gatewaySession, sessions)
			for i := range sess {
				gs := &gatewaySession{id: uint64(i + 1), delivered: make(map[string]bool)}
				recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
					Scheme: sharing.NewAuto(nil),
					Clock:  udptrans.WallClock,
					OnSymbol: func(_ uint64, payload []byte, _ time.Duration) {
						gs.mu.Lock()
						gs.delivered[string(payload)] = true
						gs.mu.Unlock()
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := srv.Register(gs.id, fmt.Sprintf("tenant-%d", i%2), recv.HandleDatagram); err != nil {
					t.Fatal(err)
				}
				sess[i] = gs
			}
			srv.Attach(lis)

			pool, err := DialPool(lis.Addrs(), PoolConfig{Batch: 8, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			for _, gs := range sess {
				snd, err := pool.NewSender(remicss.SenderConfig{
					Scheme:  sharing.NewAuto(nil),
					Chooser: remicss.FixedChooser{K: 2, Mask: 1<<channels - 1},
					Clock:   udptrans.WallClock,
				}, gs.id)
				if err != nil {
					t.Fatal(err)
				}
				gs.snd = snd
			}

			for _, gs := range sess {
				payloads := make([][]byte, perSession)
				for j := range payloads {
					payloads[j] = []byte(fmt.Sprintf("session-%d-payload-%d", gs.id, j))
				}
				if _, err := gs.snd.SendBatch(payloads); err != nil {
					t.Fatal(err)
				}
			}
			pool.Flush()

			deadline := time.Now().Add(5 * time.Second)
			for _, gs := range sess {
				for {
					gs.mu.Lock()
					n := len(gs.delivered)
					gs.mu.Unlock()
					if n == perSession {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("session %d delivered %d of %d symbols under mode %s", gs.id, n, perSession, mode)
					}
					time.Sleep(5 * time.Millisecond)
				}
				gs.mu.Lock()
				for j := 0; j < perSession; j++ {
					want := fmt.Sprintf("session-%d-payload-%d", gs.id, j)
					if !gs.delivered[want] {
						t.Fatalf("session %d missing payload %q", gs.id, want)
					}
				}
				gs.mu.Unlock()
			}
			if got := reg.Counter("remicss_gateway_unknown_session_total").Value(); got != 0 {
				t.Fatalf("cross-session leakage: %d datagrams hit no session", got)
			}
			// Both socket layers count datagrams, however many a kernel
			// message carried: every share sent is one on each side (a
			// symbol is delivered at its second share, so the third may
			// still be on its way).
			total := func(name string) (n int64) {
				for ch := 0; ch < channels; ch++ {
					n += reg.Counter(name, obs.Label{Key: "channel", Value: strconv.Itoa(ch)}).Value()
				}
				return n
			}
			want := int64(sessions * perSession * channels)
			for total("udp_recv_datagrams_total") < want && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if sent, recv := total("udp_sent_datagrams_total"), total("udp_recv_datagrams_total"); sent != want || recv != want {
				t.Fatalf("udp_sent_datagrams_total %d, udp_recv_datagrams_total %d, want %d shares on each side", sent, recv, want)
			}
		})
	}
}

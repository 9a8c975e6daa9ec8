package gateway

import (
	"fmt"
	"runtime"
	"testing"

	"remicss/internal/obs"
)

// liveHeap is HeapAlloc after collections have settled: the second cycle
// frees what the first one's finalizers and sweep released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSessionTableFootprint bounds what one registered session costs the
// gateway: the Session value, its slot in the shard's copy-on-write map and
// nothing that grows with the table (16 tenants stay far below TenantCap, so
// the per-tenant series are a constant). The no-op handler keeps receiver
// state, which the caller owns, out of the figure.
func TestSessionTableFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 100k sessions")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory and slowdown make the heap delta meaningless")
	}
	const (
		sessions    = 100_000
		maxPerEntry = 128 // bytes
	)
	tenants := make([]string, 16)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}
	handle := func([]byte) {}

	srv := NewServer(ServerConfig{Metrics: obs.NewRegistry()})
	base := liveHeap()
	for i := 1; i <= sessions; i++ {
		if _, err := srv.Register(uint64(i), tenants[i%len(tenants)], handle); err != nil {
			t.Fatal(err)
		}
	}
	full := liveHeap()
	if got := srv.Sessions(); got != sessions {
		t.Fatalf("Sessions() = %d, want %d", got, sessions)
	}
	per := (float64(full) - float64(base)) / sessions
	t.Logf("%.1f B/session over %d sessions", per, sessions)
	if per <= 0 || per > maxPerEntry {
		t.Errorf("%.1f B/session, want in (0, %d]", per, maxPerEntry)
	}
	runtime.KeepAlive(srv)
}

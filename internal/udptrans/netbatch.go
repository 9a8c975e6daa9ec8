package udptrans

import (
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
)

// A netBatcher is one implementation of grouped datagram I/O on a UDP
// socket: moving a burst of datagrams between user space and the kernel in
// as few system calls — and as few trips through the kernel's UDP/IP stack
// — as the platform allows. Three are compiled in:
//
//   - "gso" (Linux, where the kernel's sockets accept UDP_GRO): sendmmsg(2)
//     in which each run of equal-length datagrams is one message carrying a
//     UDP_SEGMENT control message, so the kernel walks its stack once per
//     run and splits it at the far end; recvmmsg(2) on a UDP_GRO socket,
//     where one slot may hold a whole coalesced run. See netbatch_mmsg.go.
//   - "mmsg" (Linux): sendmmsg(2)/recvmmsg(2), one message per datagram:
//     one kernel entry per burst, one stack traversal per datagram.
//   - "portable": one Write/Read per datagram, semantically identical,
//     available everywhere. The delivered datagrams are byte-for-byte and
//     boundary-for-boundary the same as the fast paths' — only the kernel
//     work differs — which the differential transport test pins for every
//     sending mode against every receiving mode.
//
// The calls return value counts kernel entries, so callers can expose a
// syscalls-per-datagram ratio (the gateway bench's headline metric).
type netBatcher struct {
	name string
	// send writes bufs to the connected socket, returning how many
	// datagrams (not messages: one message may carry a run) were written
	// and how many kernel entries that took. rc is the socket's cached raw
	// connection; the portable path ignores it. plain is the socket's
	// sticky "offload declined" flag: the gso tier sets it when the kernel
	// refuses a segmented message and forms no runs on that socket
	// afterwards; the other tiers ignore it.
	send func(conn *net.UDPConn, rc syscall.RawConn, plain *atomic.Bool, bufs [][]byte) (written, calls int, err error)
	// newRecv binds one served socket and the buffers its reader owns,
	// setting whatever socket option the tier receives with (gso: UDP_GRO),
	// and returns that reader's receive function.
	newRecv func(conn *net.UDPConn, rc syscall.RawConn, bufs [][]byte) recvFunc
	// slots is how many receive buffers a reader holds under this tier,
	// i.e. how many messages one kernel entry may return.
	slots int
}

// A recvFunc fills its socket's buffers with up to that many messages,
// blocking until at least one arrives, and records each message's length in
// sizes and its segment size in segs: 0 when the buffer is one datagram,
// otherwise the buffer holds a coalesced run of datagrams of that size, the
// last possibly shorter. It returns the message count and the kernel
// entries spent.
type recvFunc func(sizes, segs []int) (n, calls int, err error)

var portableBatcher = netBatcher{
	name:    "portable",
	send:    portableSend,
	newRecv: portableRecv,
	slots:   1, // one datagram per Read
}

// portableSend is the per-datagram fallback write path.
func portableSend(conn *net.UDPConn, _ syscall.RawConn, _ *atomic.Bool, bufs [][]byte) (written, calls int, err error) {
	for _, b := range bufs {
		calls++
		if _, werr := conn.Write(b); werr != nil {
			return written, calls, werr
		}
		written++
	}
	return written, calls, nil
}

// portableRecv reads exactly one datagram per kernel entry.
func portableRecv(conn *net.UDPConn, _ syscall.RawConn, bufs [][]byte) recvFunc {
	return func(sizes, segs []int) (n, calls int, err error) {
		rn, rerr := conn.Read(bufs[0])
		if rerr != nil {
			return 0, 1, rerr
		}
		sizes[0], segs[0] = rn, 0
		return 1, 1, nil
	}
}

// Limits on one segmented message, from the kernel's UDP_SEGMENT
// handling: at most UDP_MAX_SEGMENTS (64) segments, and the whole message
// is still one UDP payload, so at most 65 507 bytes over IPv4.
const (
	maxRunSegments = 64
	maxRunBytes    = 65507
)

// planRuns groups a burst into the messages the gso tier sends: given the
// datagram lengths in burst order it appends to runs how many consecutive
// datagrams each message carries, and returns it. A run is a maximal
// stretch of equal-length datagrams, which a single shorter (but not
// empty) one may close — exactly what the kernel recreates when it cuts a
// message every gso_size bytes — within maxRunSegments and maxRunBytes. A
// datagram that cannot start a run (empty, or oversize) is a run of one,
// i.e. the plain message it always was. Pure, so FuzzBatchRuns can hold it
// to those rules on any platform.
func planRuns(lens, runs []int) []int {
	for i := 0; i < len(lens); {
		seg, n, total := lens[i], 1, lens[i]
		for seg > 0 && n < maxRunSegments && i+n < len(lens) {
			next := lens[i+n]
			if next < 1 || next > seg || total+next > maxRunBytes {
				break
			}
			n++
			total += next
			if next < seg {
				break // a short segment is always the message's last
			}
		}
		runs = append(runs, n)
		i += n
	}
	return runs
}

// batcherTable enumerates every batcher compiled into this binary, fastest
// first; selection walks it in order and takes the first available one,
// exactly like the gf256 kernel table.
var batcherTable = []struct {
	b         *netBatcher
	available func() bool
}{
	{gsoBatcher, gsoAvailable},
	{mmsgBatcher, mmsgAvailable},
	{&portableBatcher, func() bool { return true }},
}

// activeBatcher is the selected implementation, installed once by
// selectBatcher on first use and swapped only by ForceBatchMode (tests and
// benchmarks). Atomic so a test-time swap is safe under -race.
var activeBatcher atomic.Pointer[netBatcher]

var batcherOnce sync.Once

// batchEnv is the override knob, read once at first use: REMICSS_NETBATCH
// names the batching mode to use ("gso", "mmsg" or "portable"), mirroring
// REMICSS_GFKERNEL. CI runs a forced leg per fallback tier so each stays
// tested on runners where selection would never pick it; naming an
// unavailable or unknown mode is a hard failure, not a silent fallback,
// because a typo here would otherwise un-test the path it meant to pin.
const batchEnv = "REMICSS_NETBATCH"

// batcher returns the active batching implementation, selecting it on
// first use.
func batcher() *netBatcher {
	batcherOnce.Do(selectBatcher)
	return activeBatcher.Load()
}

// selectBatcher installs the fastest available batcher, honoring batchEnv.
func selectBatcher() {
	if want := os.Getenv(batchEnv); want != "" {
		if err := forceBatchMode(want); err != nil {
			panic("udptrans: " + batchEnv + ": " + err.Error())
		}
		return
	}
	for _, e := range batcherTable {
		if e.b != nil && e.available() {
			activeBatcher.Store(e.b)
			return
		}
	}
	activeBatcher.Store(&portableBatcher) // unreachable: portable is always available
}

// BatchMode reports the name of the active batched-I/O mode ("gso", "mmsg"
// or "portable"), for logs and bench reports. It is what selection found
// the machine's sockets to support, not a guarantee about every path: a
// link whose route refuses segmentation offload sends plain messages under
// "gso" too (see Link.SendBatch).
func BatchMode() string { return batcher().name }

// BatchModes lists the modes available on this machine, sorted by name.
// Every listed mode can be activated with ForceBatchMode; the differential
// transport test iterates this list so each compiled path is pinned
// against the portable reference no matter which one selection picked.
func BatchModes() []string {
	var names []string
	for _, e := range batcherTable {
		if e.b != nil && e.available() {
			names = append(names, e.b.name)
		}
	}
	sort.Strings(names)
	return names
}

// ForceBatchMode activates the named batching mode and returns a function
// restoring the previous one. It exists for tests and benchmarks that must
// pin or compare specific paths; production code selects once at first
// use. Concurrent batched I/O during a swap is safe (the pointer is
// atomic) but which mode a racing call gets is unspecified.
func ForceBatchMode(name string) (restore func(), err error) {
	prev := batcher()
	if err := forceBatchMode(name); err != nil {
		return nil, err
	}
	return func() { activeBatcher.Store(prev) }, nil
}

// forceBatchMode installs the named mode if it is compiled in and
// available.
func forceBatchMode(name string) error {
	for _, e := range batcherTable {
		if e.b == nil || e.b.name != name {
			continue
		}
		if !e.available() {
			return fmt.Errorf("batch mode %q is not available on this machine", name)
		}
		activeBatcher.Store(e.b)
		return nil
	}
	return fmt.Errorf("unknown batch mode %q (compiled in: %v)", name, compiledBatchModes())
}

// compiledBatchModes lists every mode in the table, available or not.
func compiledBatchModes() []string {
	var names []string
	for _, e := range batcherTable {
		if e.b != nil {
			names = append(names, e.b.name)
		}
	}
	return names
}

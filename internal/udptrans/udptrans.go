// Package udptrans carries ReMICSS shares over real UDP sockets, one socket
// per channel. It is the "real network" counterpart of internal/netem: the
// same remicss.Sender/Receiver run unchanged over either.
//
// Because distinct loopback or LAN sockets do not themselves have distinct
// capacities, each Link includes an optional token-bucket pacer so examples
// can reproduce the paper's shaped-channel setups (htb-style rate limiting)
// on a single machine. A Link without a rate limit is always writable.
//
// Clock discipline: senders stamp shares with WallClock (nanoseconds since
// the Unix epoch), so one-way delay measurements are meaningful whenever
// sender and receiver share a clock — same process or same host, exactly
// the paper's loopback-echo arrangement.
package udptrans

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"remicss/internal/obs"
)

// MaxDatagram is the receive buffer size; larger datagrams are truncated
// and will fail wire validation.
const MaxDatagram = 65535

// WallClock returns wall time as a Duration since the Unix epoch, the clock
// both ends of a UDP session must use for delay measurement.
func WallClock() time.Duration {
	return time.Duration(time.Now().UnixNano())
}

// Impairment adds userspace netem-style degradation to a UDP link, so the
// paper's Lossy and Delayed setups can be reproduced over real sockets on a
// machine without traffic-control privileges. Loss drops datagrams before
// the socket write; Delay defers the write on a timer (which can reorder,
// as real jitter does).
type Impairment struct {
	// Loss is the probability a datagram is silently dropped. In [0, 1).
	Loss float64
	// Delay defers each datagram's transmission.
	Delay time.Duration
	// Seed fixes the loss process; 0 derives one from the clock.
	Seed int64
}

func (im Impairment) validate() error {
	if im.Loss < 0 || im.Loss >= 1 {
		return fmt.Errorf("udptrans: impairment loss %v outside [0, 1)", im.Loss)
	}
	if im.Delay < 0 {
		return fmt.Errorf("udptrans: negative impairment delay %v", im.Delay)
	}
	return nil
}

func (im Impairment) enabled() bool { return im.Loss > 0 || im.Delay > 0 }

// Link is one UDP channel to the receiver. It satisfies remicss.Link.
type Link struct {
	conn *net.UDPConn
	// rc is the socket's raw connection, resolved once at Dial so the
	// batched send path does not allocate one per burst; nil when the
	// socket refused it, which forces the portable path for this link.
	rc syscall.RawConn

	mu     sync.Mutex
	rate   float64 // packets per second; 0 means unlimited
	burst  float64
	tokens float64   // guarded by mu
	last   time.Time // guarded by mu

	impair Impairment
	rng    *rand.Rand // guarded by mu

	closed bool // guarded by mu

	lastErr error // guarded by mu

	// plain is set once this socket's kernel has refused a segmented
	// message (see netBatcher.send): SendBatch then stops forming runs on
	// this link, whatever the active batch mode.
	plain atomic.Bool

	// Optional observability, attached via Instrument; all nil when
	// uninstrumented, all set together. Handles are atomic, so the send
	// paths update them outside mu.
	metSent       *obs.Counter
	metPaced      *obs.Counter
	metLost       *obs.Counter
	metSockErr    *obs.Counter
	metBatchWrite *obs.Counter
}

// LastSendError returns the most recent socket-level write error, or nil
// if no write has failed. Send itself only reports a boolean (UDP is
// best-effort and the protocol treats socket errors as drops); this
// surfaces the underlying cause for health tracking and diagnostics —
// e.g. distinguishing a paced drop from ENETUNREACH on a dead interface.
func (l *Link) LastSendError() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}

// Instrument registers per-channel series on reg and mirrors Send and
// SendBatch outcomes into them: udp_sent_datagrams_total (datagrams the
// socket took, or will take when their impairment delay ends),
// udp_paced_drops_total (sends refused by pacing or a closed link),
// udp_impairment_lost_total (datagrams the userspace impairment dropped),
// udp_socket_errors_total (socket writes that failed) and
// udp_batch_writes_total (kernel entries spent writing: one per datagram
// through Send, as few as the batch mode allows through SendBatch), all
// labeled {channel="i"}. Call before traffic starts.
func (l *Link) Instrument(reg *obs.Registry, channel int) {
	label := obs.Label{Key: "channel", Value: strconv.Itoa(channel)}
	l.metSent = reg.Counter("udp_sent_datagrams_total", label)
	l.metPaced = reg.Counter("udp_paced_drops_total", label)
	l.metLost = reg.Counter("udp_impairment_lost_total", label)
	l.metSockErr = reg.Counter("udp_socket_errors_total", label)
	l.metBatchWrite = reg.Counter("udp_batch_writes_total", label)
}

// Dial opens a channel to the receiver address ("host:port"). rate > 0
// enables token-bucket pacing at that many packets per second with the
// given burst (defaults to 8, the emulator's default queue depth, when
// burst <= 0).
func Dial(raddr string, rate float64, burst int) (*Link, error) {
	addr, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, fmt.Errorf("udptrans: resolving %q: %w", raddr, err)
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, fmt.Errorf("udptrans: dialing %q: %w", raddr, err)
	}
	if rate < 0 {
		conn.Close()
		return nil, fmt.Errorf("udptrans: negative rate %v", rate)
	}
	b := float64(burst)
	if b <= 0 {
		b = 8
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		rc = nil // portable batching only for this link
	}
	return &Link{
		conn:   conn,
		rc:     rc,
		rate:   rate,
		burst:  b,
		tokens: b,
		last:   time.Now(),
	}, nil
}

// DialImpaired is Dial plus userspace loss/delay emulation.
func DialImpaired(raddr string, rate float64, burst int, im Impairment) (*Link, error) {
	if err := im.validate(); err != nil {
		return nil, err
	}
	l, err := Dial(raddr, rate, burst)
	if err != nil {
		return nil, err
	}
	seed := im.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	l.impair = im
	l.rng = rand.New(rand.NewSource(seed)) //lint:allow mutexguard construction: the link is not shared until DialImpaired returns
	return l, nil
}

// refill tops up the token bucket.
// Callers hold mu.
func (l *Link) refill(now time.Time) {
	if l.rate == 0 {
		return
	}
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
}

// Writable implements remicss.Link: true when pacing permits a send.
func (l *Link) Writable() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	if l.rate == 0 {
		return true
	}
	l.refill(time.Now())
	return l.tokens >= 1
}

// Backlog implements remicss.Link: the time until the next token.
func (l *Link) Backlog() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate == 0 || l.closed {
		return 0
	}
	l.refill(time.Now())
	if l.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - l.tokens) / l.rate * float64(time.Second))
}

// admit is where the link decides how many of n datagrams offered now it
// takes: none when closed, at most the bucket's whole tokens when paced. The
// refused rest are counted as paced drops.
func (l *Link) admit(n int) int {
	l.mu.Lock()
	admit := n
	switch {
	case l.closed:
		admit = 0
	case l.rate > 0:
		l.refill(time.Now())
		if t := int(l.tokens); t < admit {
			admit = t
		}
		l.tokens -= float64(admit)
	}
	l.mu.Unlock()
	if admit < n && l.metPaced != nil {
		l.metPaced.Add(int64(n - admit))
	}
	return admit
}

// divert applies the userspace impairment to one admitted datagram and
// reports whether that consumed it: dropped as lost, or copied and left to a
// timer, counted as sent either way it goes. On false the caller writes the
// datagram now.
func (l *Link) divert(datagram []byte) bool {
	if l.impair.Loss > 0 {
		l.mu.Lock()
		lost := l.rng.Float64() < l.impair.Loss
		l.mu.Unlock()
		if lost {
			if l.metLost != nil {
				l.metLost.Inc()
			}
			return true // accepted, then "lost on the wire"
		}
	}
	if l.impair.Delay == 0 {
		return false
	}
	// The datagram leaves later; copied because the caller may reuse the
	// buffer.
	buf := append([]byte(nil), datagram...)
	if l.metSent != nil {
		l.metSent.Inc()
	}
	time.AfterFunc(l.impair.Delay, func() {
		l.mu.Lock()
		closed := l.closed
		l.mu.Unlock()
		if !closed {
			_, err := l.conn.Write(buf)
			l.wrote(0, 1, err) // counted as sent when it was accepted
		}
	})
	return true
}

// wrote accounts for socket work: datagrams the kernel took, kernel entries
// spent, and the error that stopped it, if any, which LastSendError retains.
func (l *Link) wrote(written, calls int, err error) {
	if l.metSent != nil {
		l.metSent.Add(int64(written))
		l.metBatchWrite.Add(int64(calls))
	}
	if err == nil {
		return
	}
	if l.metSockErr != nil {
		l.metSockErr.Inc()
	}
	l.mu.Lock()
	l.lastErr = err
	l.mu.Unlock()
}

// Send implements remicss.Link. It returns false when pacing forbids the
// send or the link is closed; socket-level errors also report false (UDP is
// best-effort, so the protocol treats them as drops). Pacing, impairment and
// accounting are SendBatch's (admit, divert, wrote); only the write differs,
// one datagram straight to the socket with no burst built around it.
func (l *Link) Send(datagram []byte) bool {
	return l.admit(1) != 0 && l.sendOne(datagram)
}

// sendOne is Send past admission, for a datagram the token bucket has
// already taken.
func (l *Link) sendOne(datagram []byte) bool {
	if l.impair.enabled() && l.divert(datagram) {
		return true
	}
	_, err := l.conn.Write(datagram)
	if err != nil {
		l.wrote(0, 1, err)
		return false
	}
	l.wrote(1, 1, nil)
	return true
}

// SendBatch sends a burst of datagrams through the link, spending as few
// kernel entries — and under the "gso" mode as few traversals of the
// kernel's network stack — as the active batch mode allows (see BatchMode).
// The observable behavior matches calling Send once per datagram — pacing,
// impairment, and error accounting are the same code, and the receiver sees
// the same datagrams with the same boundaries in the same order — except
// that the token bucket is consulted once for the whole burst and the
// datagrams enter the kernel together: an unimpaired link hands the admitted
// prefix of the caller's slice to the socket layer as it is. Under "gso"
// each run of equal-length datagrams enters the kernel as one message that
// the kernel (or the NIC) cuts back into datagrams; if this link's route
// refuses such a message the run is re-sent as plain messages within the
// same call and the link forms no runs afterwards, which is not an error:
// nothing is lost, LastSendError stays nil and udp_socket_errors_total does
// not move. udp_sent_datagrams_total counts datagrams and
// udp_batch_writes_total kernel entries under every mode. It returns how
// many datagrams were accepted, i.e. the count for which Send would have
// returned true: pacing-refused datagrams past the admitted prefix and
// datagrams failing at the socket are excluded, impairment-lost ones
// (accepted, then "lost on the wire") are included. Like Send, the datagram
// buffers are not retained after return.
func (l *Link) SendBatch(datagrams [][]byte) int {
	return l.sendAdmitted(datagrams[:l.admit(len(datagrams))])
}

// sendAdmitted is SendBatch past admission: the impairment, then the batched
// write, for datagrams the token bucket has already taken (by SendBatch, or
// one by one as a Coalescer queued them). It returns the accepted count.
func (l *Link) sendAdmitted(direct [][]byte) int {
	accepted := 0
	if l.impair.enabled() {
		// Emulation only, and a delayed datagram allocates its copy anyway:
		// what the impairment leaves is gathered into a list of its own.
		admitted := direct
		direct = nil
		for _, d := range admitted {
			if l.divert(d) {
				accepted++
			} else {
				direct = append(direct, d)
			}
		}
	}
	if len(direct) == 0 {
		return accepted
	}
	nb := batcher()
	if l.rc == nil {
		nb = &portableBatcher
	}
	written, calls, err := nb.send(l.conn, l.rc, &l.plain, direct)
	l.wrote(written, calls, err)
	return accepted + written
}

// LocalAddr returns the local socket address.
func (l *Link) LocalAddr() net.Addr { return l.conn.LocalAddr() }

// Close releases the socket. Only the first call does; later ones return
// nil.
func (l *Link) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	return l.conn.Close()
}

// Listener receives share datagrams across several UDP sockets (one per
// channel) and feeds them into a handler directly from the per-socket
// goroutines: one message per kernel entry via ServeConcurrent, or in
// kernel batches via ServeBatch.
type Listener struct {
	conns []*net.UDPConn
	// rcs caches each socket's raw connection for the batched receive path,
	// indexed like conns; a nil entry means the socket refused it and that
	// socket reads via the portable path.
	rcs []syscall.RawConn

	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool // guarded by mu

	// Optional per-socket receive counters, attached via Instrument; nil
	// slices when uninstrumented. Indexed like conns.
	metRecv      []*obs.Counter
	metRecvBytes []*obs.Counter
	metBatchRead []*obs.Counter
}

// Instrument registers per-socket receive series on reg —
// udp_recv_datagrams_total{channel="i"}, udp_recv_bytes_total{channel="i"},
// and udp_batch_reads_total{channel="i"} (kernel entries spent receiving: at
// most one per datagram, and fewer wherever one entry returns several — a
// coalesced run under the "gso" mode through either serving entry point, or
// up to a batch of messages through ServeBatch), indexed in Addrs order —
// and updates them from the reader goroutines. Call before serving starts.
func (l *Listener) Instrument(reg *obs.Registry) {
	l.metRecv = make([]*obs.Counter, len(l.conns))
	l.metRecvBytes = make([]*obs.Counter, len(l.conns))
	l.metBatchRead = make([]*obs.Counter, len(l.conns))
	for i := range l.conns {
		label := obs.Label{Key: "channel", Value: strconv.Itoa(i)}
		l.metRecv[i] = reg.Counter("udp_recv_datagrams_total", label)
		l.metRecvBytes[i] = reg.Counter("udp_recv_bytes_total", label)
		l.metBatchRead[i] = reg.Counter("udp_batch_reads_total", label)
	}
}

// countRecv updates the receive counters for socket i, if instrumented.
func (l *Listener) countRecv(i, n int) {
	if l.metRecv == nil {
		return
	}
	l.metRecv[i].Inc()
	l.metRecvBytes[i].Add(int64(n))
}

// recvBufBytes is the socket receive buffer Listen asks for. The kernel's
// default (208 KiB on linux) holds a dozen 16 KiB share datagrams or some
// ninety MTU-sized ones, less than one sender window plus the surplus shares
// of symbols already delivered, so a reader goroutine that loses the CPU for
// a moment loses shares with it. The kernel clamps the request to
// net.core.rmem_max.
const recvBufBytes = 4 << 20

// Listen binds one UDP socket per address. Addresses may use port 0 to let
// the kernel pick; Addrs reports the bound addresses for the sender to
// dial.
func Listen(addrs []string) (*Listener, error) {
	if len(addrs) == 0 {
		return nil, errors.New("udptrans: no listen addresses")
	}
	l := &Listener{}
	for _, a := range addrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("udptrans: resolving %q: %w", a, err)
		}
		conn, err := net.ListenUDP("udp", ua)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("udptrans: listening on %q: %w", a, err)
		}
		_ = conn.SetReadBuffer(recvBufBytes) // best effort: a refusal leaves the default, which works
		rc, rerr := conn.SyscallConn()
		if rerr != nil {
			rc = nil // portable batched reads only for this socket
		}
		l.conns = append(l.conns, conn)
		l.rcs = append(l.rcs, rc)
	}
	return l, nil
}

// Addrs returns the bound address of every channel socket, in order.
func (l *Listener) Addrs() []string {
	out := make([]string, len(l.conns))
	for i, c := range l.conns {
		out[i] = c.LocalAddr().String()
	}
	return out
}

// ServeConcurrent starts one reader goroutine per socket, invoking handle
// for each datagram directly from that socket's goroutine with no internal
// serialization or copying: the slice is reused for the next read, so the
// handler must not retain it after returning. Intended for handlers that
// are themselves safe for concurrent use and copy what they keep, such as
// remicss.Receiver.HandleDatagram, whose sharded reassembly state lets
// the per-socket goroutines proceed in parallel (they contend only when
// datagrams hash to the same shard) — one slow channel then cannot stall
// ingest from the others. It is ServeBatch's loop at depth one, in the
// active batch mode: one 64 KiB buffer per socket, one message per kernel
// entry. Under the "gso" mode the sockets ask for UDP_GRO, so that message
// may be a whole run of datagrams a segmenting sender kept together (see
// Coalescer), handed to handle one datagram at a time as ServeBatch does;
// from a sender that does not segment it is one datagram. Delivered
// datagrams are identical to ServeBatch's. Returns immediately; Close stops
// the readers and waits for them.
func (l *Listener) ServeConcurrent(handle func(datagram []byte)) {
	l.serve(batcher(), 1, handle)
}

// recvBatch is how many messages one ServeBatch kernel entry may return
// under the mmsg tier, where a message is a datagram; each reader goroutine
// holds that many full-size buffers (1 MiB per socket). The gso tier takes
// recvBatch/2: per-socket receive memory must not grow with the tier, and a
// 65 535-byte slot that mmsg fills with one datagram holds a coalesced run
// of up to 64 there (45 MTU-sized ones), so 8 slots return up to 512
// datagrams per entry from a segmenting sender where 16 returned 16, in
// 512 KiB per socket. Not fewer than 8, because a sender that does not
// segment (mmsg, portable, or another host behind a NIC without receive
// offload) fills one slot per datagram, and the amortisation it gets from
// this receiver is then the slot count. The portable tier reads one
// datagram per entry and holds one buffer. ServeConcurrent holds one buffer
// under every tier; under gso that one slot still returns a whole run per
// entry, which is the amortisation a segmenting facade client gets.
const recvBatch = 16

// ServeBatch starts one reader goroutine per socket, pulling datagrams in
// kernel batches (recvmmsg where available — see BatchMode) and invoking
// handle for each, directly from that socket's goroutine with no internal
// serialization or copying, like ServeConcurrent: the buffers are reused
// for the next batch, so the handler must not retain its argument after
// returning. Under bursty ingest this divides the syscalls-per-datagram
// cost by up to the tier's slot count (see recvBatch). Under the "gso" mode
// ServeBatch also enables UDP_GRO on its sockets, so a run of equal-length
// datagrams that the sender's kernel or the NIC kept together arrives as
// one buffer with its segment size; the handler is still called once per
// datagram, on each segment-sized slice of that buffer in order, and
// udp_recv_datagrams_total / udp_recv_bytes_total still count datagrams
// (udp_batch_reads_total counts kernel entries, so it can fall far below
// them). Delivered datagrams are identical to ServeConcurrent's. Returns
// immediately; Close stops the readers and waits for them.
func (l *Listener) ServeBatch(handle func(datagram []byte)) {
	nb := batcher()
	l.serve(nb, nb.slots, handle)
}

// serve is the listener's one read loop, run by a goroutine per socket over
// tier's receive function with the given slot count; a socket without a raw
// connection reads through the portable tier, one slot. The tier's socket
// option is set before serve returns, so a datagram sent after that meets
// the socket as the tier reads it (a run that reaches a socket before
// UDP_GRO is set arrives cut up); the readers' buffers are allocated in
// their own goroutines.
func (l *Listener) serve(tier *netBatcher, slots int, handle func(datagram []byte)) {
	for i, conn := range l.conns {
		i, conn, rc, nb, slots := i, conn, l.rcs[i], tier, slots
		if rc == nil {
			nb, slots = &portableBatcher, 1
		}
		if nb.listen != nil {
			nb.listen(rc)
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			bufs := make([][]byte, slots)
			for j := range bufs {
				bufs[j] = make([]byte, MaxDatagram)
			}
			recv := nb.newRecv(conn, rc, bufs)
			sizes := make([]int, slots)
			segs := make([]int, slots)
			for {
				n, calls, err := recv(sizes, segs)
				if err != nil {
					return // closed
				}
				if l.metBatchRead != nil {
					l.metBatchRead[i].Add(int64(calls))
				}
				for j := 0; j < n; j++ {
					buf, seg := bufs[j][:sizes[j]], segs[j]
					for seg > 0 && len(buf) > seg {
						l.countRecv(i, seg)
						handle(buf[:seg])
						buf = buf[seg:]
					}
					l.countRecv(i, len(buf))
					handle(buf)
				}
			}
		}()
	}
}

// Close shuts every socket and waits for reader goroutines to exit.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	var firstErr error
	for _, c := range l.conns {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	l.wg.Wait()
	return firstErr
}

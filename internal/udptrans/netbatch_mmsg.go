//go:build linux && (amd64 || arm64)

// The sendmmsg(2)/recvmmsg(2) fast paths: one kernel entry moves a whole
// burst of datagrams ("mmsg"), and with UDP segmentation offload one
// message moves a whole run of them ("gso"). Built from the stdlib syscall
// package only — the syscall numbers exist on every linux port, but the
// mmsghdr layout below hardcodes the 64-bit msghdr (8-byte pointers, uint64
// iovlen, 4 bytes of tail padding), so the build tag admits exactly the
// 64-bit targets whose generated syscall.Msghdr matches it. Other platforms
// compile the portable per-datagram path (netbatch_nommsg.go).
package udptrans

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"remicss/internal/slotpool"
)

// mmsghdr mirrors struct mmsghdr: a msghdr plus the per-message byte count
// the kernel fills in on receive, padded to 8 bytes.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// UDP-level socket options of the segmentation-offload tier, absent from
// the frozen stdlib syscall package. UDP_SEGMENT as a control message gives
// the size at which the kernel cuts one sent message into datagrams;
// UDP_GRO as a socket option lets the kernel hand a coalesced run up in one
// buffer, with the segment size in a control message of the same name.
const (
	solUDP     = syscall.IPPROTO_UDP
	udpSegment = 103
	udpGRO     = 104
)

// segCmsg is one control message with room for the tier's two payloads,
// UDP_SEGMENT's __u16 and UDP_GRO's int: CMSG_SPACE of either is 24 bytes
// on the 64-bit targets. A struct rather than bytes so it is aligned for
// the cmsghdr it starts with.
type segCmsg struct {
	hdr  syscall.Cmsghdr
	data [8]byte
}

const (
	segCmsgSpace = int(unsafe.Sizeof(segCmsg{}))
	cmsgHdrLen   = int(unsafe.Sizeof(syscall.Cmsghdr{}))
)

// mmsgScratch is the per-call header and iovec working set, recycled so
// steady-state batched I/O does not allocate. The syscall loop state lives
// in fields rather than locals, and the RawConn callbacks are bound once
// per scratch (sendFn/recvFn), because a closure capturing per-call
// variables would heap-allocate on every burst. The iovec base pointers are
// dropped after each call (see release): retaining them would pin caller
// buffers, the same no-retention contract Links obey.
type mmsgScratch struct {
	hdrs []mmsghdr       // one per message
	iovs []syscall.Iovec // one per datagram (send) or per slot (recv)
	ctrl []segCmsg       // one per message: UDP_SEGMENT out, UDP_GRO in
	lens []int           // the burst's datagram lengths, planRuns' input (segmenting send)
	runs []int           // datagrams carried by each message (send)

	total   int // messages loaded for this call
	written int // messages the kernel accepted so far (send)
	n       int // messages the kernel returned (recv)
	calls   int // kernel entries spent
	err     error
	plain   *atomic.Bool // the sending socket's offload-declined flag

	sendFn func(fd uintptr) bool // bound sendLoop, allocated once
	recvFn func(fd uintptr) bool // bound recvLoop, allocated once
}

// mmsgPool holds the send path's working sets between bursts.
var mmsgPool slotpool.Pool[mmsgScratch]

func newMmsgScratch() *mmsgScratch {
	sc := new(mmsgScratch)
	sc.sendFn = sc.sendLoop
	sc.recvFn = sc.recvLoop
	return sc
}

// getMmsgScratch claims a private working set for one batched send.
func getMmsgScratch() *mmsgScratch {
	if sc := mmsgPool.Get(); sc != nil {
		return sc
	}
	return newMmsgScratch()
}

// grow sizes the scratch for n datagrams or slots — at most as many
// messages — and resets the loop state.
func (sc *mmsgScratch) grow(n int) {
	if cap(sc.hdrs) < n {
		sc.hdrs = make([]mmsghdr, n)
		sc.iovs = make([]syscall.Iovec, n)
		sc.ctrl = make([]segCmsg, n)
	}
	sc.hdrs = sc.hdrs[:n]
	sc.iovs = sc.iovs[:n]
	sc.ctrl = sc.ctrl[:n]
	sc.total = n
	sc.written = 0
	sc.n = 0
	sc.calls = 0
	sc.err = nil
}

// load points iovec i at buf.
func (sc *mmsgScratch) load(i int, buf []byte) {
	iov := &sc.iovs[i]
	if len(buf) > 0 {
		iov.Base = &buf[0]
	} else {
		iov.Base = nil
	}
	iov.SetLen(len(buf))
}

// release drops every buffer pointer before the scratch returns to the
// pool.
func (sc *mmsgScratch) release() {
	for i := range sc.iovs {
		sc.iovs[i].Base = nil
	}
	sc.plain = nil
	mmsgPool.Put(sc)
}

// frame writes the headers of messages m onward, the first of which starts
// at datagram d, from sc.runs: a run's message gathers the run's iovecs —
// the callers' own buffers, nothing is copied together — and, when it
// carries more than one datagram, a UDP_SEGMENT control message giving the
// first one's length as the size to cut at.
func (sc *mmsgScratch) frame(m, d int) {
	for ; m < len(sc.runs); m++ {
		run := sc.runs[m]
		h := &sc.hdrs[m]
		h.hdr = syscall.Msghdr{Iov: &sc.iovs[d], Iovlen: uint64(run)}
		h.n = 0
		if run > 1 {
			c := &sc.ctrl[m]
			c.hdr = syscall.Cmsghdr{Level: solUDP, Type: udpSegment}
			c.hdr.SetLen(cmsgHdrLen + 2)
			binary.NativeEndian.PutUint16(c.data[:], uint16(sc.iovs[d].Len))
			h.hdr.Control = (*byte)(unsafe.Pointer(c))
			h.hdr.SetControllen(segCmsgSpace)
		}
		d += run
	}
	sc.total = len(sc.runs)
}

// datagrams converts a count of leading messages to the datagrams they
// carry.
func (sc *mmsgScratch) datagrams(messages int) int {
	d := 0
	for _, run := range sc.runs[:messages] {
		d += run
	}
	return d
}

// sendmmsg is the kernel entry of the send path, a variable so the refusal
// tests can stand in for a kernel that declines segmented messages (on
// loopback, all the sandbox has, the real one never does).
var sendmmsg = func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)),
		syscall.MSG_DONTWAIT, 0, 0)
	return int(n), errno
}

// refusesSegments reports whether errno, returned for a message carrying
// UDP_SEGMENT, is the kernel declining the offload rather than the send:
// EIO where the route cannot checksum-offload (or runs over IPsec), EINVAL
// or EMSGSIZE where a segment plus headers exceeds the path MTU. The same
// datagrams may still go as plain messages — IP fragments them — so the
// run is re-sent that way instead of being reported lost.
func refusesSegments(errno syscall.Errno) bool {
	return errno == syscall.EIO || errno == syscall.EINVAL || errno == syscall.EMSGSIZE
}

// sendLoop is the RawConn write callback: it drains the loaded burst with
// as few sendmmsg calls as the socket buffer allows, returning false on
// EAGAIN so the runtime poller parks until the socket is writable again.
// The kernel reports an error only for the first message of a call, so a
// refused run surfaces with sc.written pointing at it, everything before
// it sent and nothing after.
func (sc *mmsgScratch) sendLoop(fd uintptr) bool {
	for sc.written < sc.total {
		n, errno := sendmmsg(fd, sc.hdrs[sc.written:sc.total])
		sc.calls++
		if errno == syscall.EAGAIN {
			return false // wait for writability, then resume the burst
		}
		if errno != 0 {
			if sc.hdrs[sc.written].hdr.Control != nil && refusesSegments(errno) {
				sc.declineOffload()
				continue
			}
			sc.err = errno
			return true
		}
		sc.written += n
	}
	return true
}

// declineOffload reacts to a refused run: the socket forms no more runs
// (sticky, through its plain flag), and the rest of this burst, the refused
// run first, is re-framed as one plain message per datagram, in order, for
// sendLoop to carry on with.
func (sc *mmsgScratch) declineOffload() {
	sc.plain.Store(true)
	d := sc.datagrams(sc.written)
	sc.runs = sc.runs[:sc.written]
	for range sc.iovs[d:] {
		sc.runs = append(sc.runs, 1)
	}
	sc.frame(sc.written, d)
}

// recvLoop is the RawConn read callback: one recvmmsg pulls up to total
// messages, returning false on EAGAIN so the poller parks until at least
// one arrives.
func (sc *mmsgScratch) recvLoop(fd uintptr) bool {
	r, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&sc.hdrs[0])), uintptr(sc.total),
		syscall.MSG_DONTWAIT, 0, 0)
	sc.calls++
	if errno == syscall.EAGAIN {
		return false // wait for readability
	}
	if errno != 0 {
		sc.err = errno
		return true
	}
	sc.n = int(r)
	return true
}

// mmsgTier builds one of the two tiers over sendmmsg/recvmmsg: with
// offload, sends segment and receives coalesce.
func mmsgTier(name string, offload bool, slots int) *netBatcher {
	return &netBatcher{
		name: name,
		send: func(_ *net.UDPConn, rc syscall.RawConn, plain *atomic.Bool, bufs [][]byte) (int, int, error) {
			return burstSend(rc, plain, bufs, offload)
		},
		newRecv: func(_ *net.UDPConn, rc syscall.RawConn, bufs [][]byte) recvFunc {
			return burstRecv(rc, bufs, offload)
		},
		slots: slots,
	}
}

// Slot counts: see recvBatch.
var (
	gsoBatcher  = mmsgTier("gso", true, recvBatch/2)
	mmsgBatcher = mmsgTier("mmsg", false, recvBatch)
)

func mmsgAvailable() bool { return true }

// gsoAvailable asks a probe socket whether this kernel knows UDP_GRO
// (Linux 5.0; UDP_SEGMENT is older, 4.18, so one answer covers both). What
// a particular route then does with a segmented message is found out per
// link, at its first run (see declineOffload).
var gsoAvailable = sync.OnceValue(func() bool {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return false
	}
	defer syscall.Close(fd)
	return syscall.SetsockoptInt(fd, solUDP, udpGRO, 1) == nil
})

// burstSend writes the burst with as few sendmmsg calls as the socket
// buffer allows, integrating with the runtime poller on EAGAIN. With
// segment set, and until the socket's kernel has declined it, runs of
// equal-length datagrams travel as one message each.
func burstSend(rc syscall.RawConn, plain *atomic.Bool, bufs [][]byte, segment bool) (written, calls int, err error) {
	sc := getMmsgScratch()
	defer sc.release()
	sc.grow(len(bufs))
	for i, b := range bufs {
		sc.load(i, b)
	}
	sc.runs = sc.runs[:0]
	if segment && !plain.Load() {
		sc.lens = sc.lens[:0]
		for _, b := range bufs {
			sc.lens = append(sc.lens, len(b))
		}
		sc.runs = planRuns(sc.lens, sc.runs)
	} else {
		for range bufs {
			sc.runs = append(sc.runs, 1)
		}
	}
	sc.plain = plain
	sc.frame(0, 0)
	werr := rc.Write(sc.sendFn)
	written, calls, err = sc.datagrams(sc.written), sc.calls, sc.err
	if err == nil {
		err = werr
	}
	return written, calls, err
}

// burstRecv returns the receive function of one socket: each call pulls up
// to len(bufs) messages in one kernel entry, blocking via the runtime
// poller until at least one arrives. The headers belong to that socket's
// reader for good — loaded once, outside the send path's scratch pool —
// since a reader spends its life parked in this call. With gro set the
// socket is asked for UDP_GRO and each slot carries a control buffer, in
// which the kernel then reports the segment size of a coalesced run. The
// request is best effort: a socket that refuses it keeps receiving whole
// datagrams, reported with segs 0 like any message without that control
// message.
func burstRecv(rc syscall.RawConn, bufs [][]byte, gro bool) recvFunc {
	if gro {
		_ = rc.Control(func(fd uintptr) {
			_ = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
		})
	}
	sc := newMmsgScratch()
	sc.grow(len(bufs))
	for i, b := range bufs {
		sc.load(i, b)
		sc.hdrs[i].hdr = syscall.Msghdr{Iov: &sc.iovs[i], Iovlen: 1}
		if gro {
			sc.hdrs[i].hdr.Control = (*byte)(unsafe.Pointer(&sc.ctrl[i]))
		}
	}
	return func(sizes, segs []int) (n, calls int, err error) {
		sc.n, sc.calls, sc.err = 0, 0, nil
		if gro {
			for i := range sc.hdrs {
				sc.hdrs[i].hdr.SetControllen(segCmsgSpace) // the kernel wrote what it used
			}
		}
		rerr := rc.Read(sc.recvFn)
		n, calls, err = sc.n, sc.calls, sc.err
		if err == nil {
			err = rerr
		}
		for i := 0; i < n; i++ {
			h, c := &sc.hdrs[i], &sc.ctrl[i]
			sizes[i], segs[i] = int(h.n), 0
			if gro && int(h.hdr.Controllen) >= cmsgHdrLen+4 && c.hdr.Level == solUDP && c.hdr.Type == udpGRO {
				segs[i] = int(binary.NativeEndian.Uint32(c.data[:]))
			}
		}
		return n, calls, err
	}
}

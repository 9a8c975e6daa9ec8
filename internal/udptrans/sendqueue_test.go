package udptrans

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"remicss/internal/obs"
)

// TestSendQueueBounds holds the queue to its accounting: Put refuses past
// maxBytes and hands back what is pending, the count threshold swaps the
// pending list out with the datagram that reached it, a buffer is held from
// Put until Recycle, and the free list keeps at most maxRunBytes.
func TestSendQueueBounds(t *testing.T) {
	var q SendQueue
	d := bytes.Repeat([]byte{7}, 16<<10)
	for i := 0; i < 3; i++ {
		if burst, queued := q.Put(d, math.MaxInt, maxRunBytes); !queued || burst != nil {
			t.Fatalf("put %d: queued %v, burst of %d", i, queued, len(burst))
		}
	}
	burst, queued := q.Put(d, math.MaxInt, maxRunBytes)
	if queued || len(burst) != 3 {
		t.Fatalf("a fourth 16 KiB datagram: queued %v, burst of %d; want refused with the 3 pending", queued, len(burst))
	}
	if q.held != 3*len(d) {
		t.Fatalf("held %d B while the burst is out, want %d", q.held, 3*len(d))
	}
	if burst, queued := q.Put(d, math.MaxInt, maxRunBytes); queued || burst != nil {
		t.Fatalf("with everything out being written: queued %v, burst of %d; want refused with nothing", queued, len(burst))
	}
	q.Recycle(burst)
	if q.held != 0 || q.freeBytes != 3*len(d) || len(q.free) != 3 {
		t.Fatalf("after Recycle: held %d, free %d B in %d buffers", q.held, q.freeBytes, len(q.free))
	}
	for i := range burst {
		if burst[i] != nil {
			t.Fatal("Recycle left a buffer in the burst")
		}
	}

	// The count threshold swaps the pending list out with the datagram that
	// reached it.
	var p SendQueue
	for i := 1; i <= 4; i++ {
		burst, queued := p.Put([]byte{byte(i)}, 4, math.MaxInt)
		if !queued || (i < 4) != (burst == nil) || (i == 4 && len(burst) != 4) {
			t.Fatalf("put %d under a count threshold of 4: queued %v, burst of %d", i, queued, len(burst))
		}
	}
	// The free list keeps at most maxRunBytes however much comes back.
	over := make([][]byte, 100)
	for i := range over {
		over[i] = make([]byte, 1000)
	}
	p.held += 100 * 1000 // as Put would have counted them
	p.Recycle(over)
	if p.freeBytes > maxRunBytes || p.held != 4 {
		t.Fatalf("free list keeps %d B (want at most %d), %d B held (want the 4 of the burst still out)", p.freeBytes, maxRunBytes, p.held)
	}
}

// coalescerLink dials a listener that never reads, instrumented on a
// registry of its own.
func coalescerLink(t *testing.T, addr string, rate float64, burst int) (*Link, *obs.Registry) {
	t.Helper()
	l, err := Dial(addr, rate, burst)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.Instrument(reg, 0)
	return l, reg
}

// TestCoalescerAdmitsOnce paces a link below what is offered, on the inline
// path and between Hold and Release: the token bucket refuses inside Send,
// and every datagram Send accepted is written, so the drain does not consult
// the bucket a second time.
func TestCoalescerAdmitsOnce(t *testing.T) {
	for _, held := range []bool{false, true} {
		lis, err := Listen([]string{"127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		l, reg := coalescerLink(t, lis.Addrs()[0], 1, 4)
		c := NewCoalescer([]*Link{l}, nil)
		if held {
			c.Hold()
		}
		accepted := 0
		for i := 0; i < 10; i++ {
			if c.Send(0, []byte{byte(i)}) {
				accepted++
			}
		}
		if held {
			c.Release()
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		sent, paced := counter(reg, "udp_sent_datagrams_total"), counter(reg, "udp_paced_drops_total")
		if accepted != 4 || sent != 4 || paced != 6 {
			t.Fatalf("held %v: Send accepted %d, the socket took %d, pacing refused %d; want 4, 4, 6", held, accepted, sent, paced)
		}
	}
}

// TestCoalescerQueuedSocketError drives a queued datagram into ECONNREFUSED
// (see TestLastSendErrorSurfacesSocketError): the drain's failure must reach
// udp_socket_errors_total, LastSendError and onFail.
func TestCoalescerQueuedSocketError(t *testing.T) {
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr().String()
	probe.Close()
	l, reg := coalescerLink(t, addr, 0, 0)
	failed := make(chan int, 64)
	c := NewCoalescer([]*Link{l}, func(link, n int) { failed <- n })
	defer c.Close()
	for i := 0; i < 50; i++ {
		c.Send(0, []byte{1}) // inline: provokes the ICMP the next write reports
		time.Sleep(10 * time.Millisecond)
		c.Hold()
		c.Send(0, []byte{2})
		c.Send(0, []byte{3})
		c.Release()
		select {
		case n := <-failed:
			if n < 1 || n > 2 {
				t.Fatalf("onFail reported %d failed datagrams of a queue of 2", n)
			}
			if counter(reg, "udp_socket_errors_total") == 0 || l.LastSendError() == nil {
				t.Fatal("a queued write failed but udp_socket_errors_total and LastSendError did not see it")
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Skip("no ICMP-driven write error on this host; nothing to assert")
}

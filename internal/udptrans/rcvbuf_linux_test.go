//go:build linux

package udptrans

import (
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// rcvBuf reads SO_RCVBUF from a UDP socket.
func rcvBuf(t *testing.T, conn *net.UDPConn) int {
	t.Helper()
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var size int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		size, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return size
}

// TestListenAsksForReceiveBuffer checks that every Listen socket's receive
// buffer is at least a plain socket's default, and larger where
// net.core.rmem_max is readable and leaves room (the kernel reports twice
// what it granted, min(request, rmem_max)).
func TestListenAsksForReceiveBuffer(t *testing.T) {
	plain, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	def := rcvBuf(t, plain)
	room := false
	if raw, err := os.ReadFile("/proc/sys/net/core/rmem_max"); err == nil {
		if max, err := strconv.Atoi(strings.TrimSpace(string(raw))); err == nil {
			room = 2*max > def
		}
	}

	l, err := Listen([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, conn := range l.conns {
		got := rcvBuf(t, conn)
		t.Logf("socket %d: SO_RCVBUF %d (default %d)", i, got, def)
		if got < def || room && got == def {
			t.Errorf("socket %d: SO_RCVBUF %d, default %d, room to grow %v", i, got, def, room)
		}
	}
}

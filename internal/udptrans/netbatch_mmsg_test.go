//go:build linux && (amd64 || arm64)

package udptrans

import (
	"bytes"
	"errors"
	"syscall"
	"testing"
	"time"

	"remicss/internal/obs"
)

// fakeKernel replaces the sendmmsg entry for one test with a kernel that
// answers every call whose first message is segmented through onSegmented,
// and passes the leading plain messages of any other call to the real
// socket — stopping before the first segmented one, as the real kernel
// stops at a message it will fail. It reports how many segmented messages
// it was shown.
func fakeKernel(t *testing.T, onSegmented func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno)) (segmentedSeen *int) {
	t.Helper()
	real := sendmmsg
	t.Cleanup(func() { sendmmsg = real })
	segmentedSeen = new(int)
	sendmmsg = func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
		if hdrs[0].hdr.Control != nil {
			*segmentedSeen++
			return onSegmented(fd, hdrs)
		}
		plain := 1
		for plain < len(hdrs) && hdrs[plain].hdr.Control == nil {
			plain++
		}
		return real(fd, hdrs[:plain])
	}
	return segmentedSeen
}

// gsoPair forces the gso tier (skipping where the kernel lacks it) and
// returns an instrumented link into a listener serving batches, with the
// function that collects the next n datagrams in arrival order.
func gsoPair(t *testing.T) (link *Link, reg *obs.Registry, collect func(n int) [][]byte) {
	t.Helper()
	restore, err := ForceBatchMode("gso")
	if err != nil {
		t.Skipf("gso tier not available here: %v", err)
	}
	t.Cleanup(restore)
	lis, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	link, err = Dial(lis.Addrs()[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { link.Close() })
	reg = obs.NewRegistry()
	link.Instrument(reg, 0)
	arrivals := make(chan []byte, 1024) // above any burst these tests send, so the reader never blocks
	lis.ServeBatch(func(d []byte) { arrivals <- append([]byte(nil), d...) })
	collect = func(n int) [][]byte {
		t.Helper()
		got := make([][]byte, 0, n)
		for len(got) < n {
			select {
			case d := <-arrivals:
				got = append(got, d)
			case <-time.After(5 * time.Second):
				t.Fatalf("received %d of %d datagrams", len(got), n)
			}
		}
		select {
		case d := <-arrivals:
			t.Fatalf("a datagram beyond the %d sent arrived (%d bytes)", n, len(d))
		case <-time.After(20 * time.Millisecond):
		}
		return got
	}
	return link, reg, collect
}

// TestSegmentationRefusedFallsBackToPlain puts a link on a kernel that
// declines segmentation offload, once for each errno a real one uses: the
// refused run and everything after it must leave as plain messages within
// the same SendBatch call — nothing lost, repeated or reordered, no error
// recorded — and the link must form no runs afterwards.
func TestSegmentationRefusedFallsBackToPlain(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.EIO, syscall.EINVAL, syscall.EMSGSIZE} {
		t.Run(errno.Error(), func(t *testing.T) {
			link, reg, collect := gsoPair(t)
			refused := fakeKernel(t, func(uintptr, []mmsghdr) (int, syscall.Errno) { return 0, errno })
			burst := mixedBurst()
			for round := 1; round <= 2; round++ {
				if n := link.SendBatch(burst); n != len(burst) {
					t.Fatalf("round %d: SendBatch accepted %d of %d", round, n, len(burst))
				}
				checkArrival(t, collect(len(burst)), burst)
			}
			if *refused != 1 {
				t.Fatalf("the kernel was offered %d segmented messages, want 1: the link keeps forming runs after a refusal", *refused)
			}
			if err := link.LastSendError(); err != nil {
				t.Fatalf("LastSendError = %v after a successful plain re-send", err)
			}
			if n := counter(reg, "udp_socket_errors_total"); n != 0 {
				t.Fatalf("udp_socket_errors_total = %d after a successful plain re-send", n)
			}
			if n := counter(reg, "udp_sent_datagrams_total"); n != int64(2*len(burst)) {
				t.Fatalf("udp_sent_datagrams_total = %d, want %d", n, 2*len(burst))
			}
		})
	}
}

// TestSegmentedSendErrorIsNotARefusal checks the other side of the rule: an
// errno that does not mean "offload declined" fails the burst where it
// stands, as it does for a plain message, and the link keeps segmenting.
func TestSegmentedSendErrorIsNotARefusal(t *testing.T) {
	link, reg, collect := gsoPair(t)
	fakeKernel(t, func(uintptr, []mmsghdr) (int, syscall.Errno) { return 0, syscall.EPERM })
	burst := [][]byte{{1}, bytes.Repeat([]byte{2}, 100), bytes.Repeat([]byte{3}, 100), bytes.Repeat([]byte{4}, 100)}
	if n := link.SendBatch(burst); n != 1 {
		t.Fatalf("SendBatch accepted %d datagrams, want the 1 ahead of the failed run", n)
	}
	checkArrival(t, collect(1), burst[:1])
	if err := link.LastSendError(); !errors.Is(err, syscall.EPERM) {
		t.Fatalf("LastSendError = %v, want EPERM", err)
	}
	if n := counter(reg, "udp_socket_errors_total"); n != 1 {
		t.Fatalf("udp_socket_errors_total = %d, want 1", n)
	}
	if link.plain.Load() {
		t.Fatal("an unrelated send error turned segmentation off")
	}
}

// TestPartialAcceptCountsDatagrams has the kernel take one message per
// entry, the way a full socket buffer makes it: the accepted count and
// udp_sent_datagrams_total are in datagrams, udp_batch_writes_total in
// kernel entries, and the two differ once a message carries a run.
func TestPartialAcceptCountsDatagrams(t *testing.T) {
	link, reg, collect := gsoPair(t)
	real := sendmmsg
	fakeKernel(t, func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) { return real(fd, hdrs[:1]) })
	burst := allocBurst() // 400×4+250 | 250+100 | 700 | 0 | 30: two runs, then three plain messages
	if n := link.SendBatch(burst); n != len(burst) {
		t.Fatalf("SendBatch accepted %d of %d", n, len(burst))
	}
	checkArrival(t, collect(len(burst)), burst)
	if n := counter(reg, "udp_sent_datagrams_total"); n != int64(len(burst)) {
		t.Fatalf("udp_sent_datagrams_total = %d, want %d", n, len(burst))
	}
	// One entry per run, one for the plain messages behind them.
	if n := counter(reg, "udp_batch_writes_total"); n != 3 {
		t.Fatalf("udp_batch_writes_total = %d, want 3 kernel entries", n)
	}
}

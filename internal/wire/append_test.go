package wire

import (
	"bytes"
	"testing"
)

// TestAppendMarshalReusesBuffer checks steady-state reuse: marshaling into
// a recycled zero-length slice of sufficient capacity allocates nothing and
// produces the same bytes as marshaling onto nil.
func TestAppendMarshalReusesBuffer(t *testing.T) {
	pkt := SharePacket{Seq: 7, K: 2, M: 3, Index: 2, SentAt: 99, Payload: bytes.Repeat([]byte{0xab}, 1400)}
	want, err := AppendMarshal(nil, pkt)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(want))
	first := &buf[:1][0]
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendMarshal(buf[:0], pkt)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendMarshal into a sized buffer allocates %v times per op, want 0", allocs)
	}
	if &buf[0] != first {
		t.Error("AppendMarshal did not reuse the provided buffer")
	}
	if !bytes.Equal(buf, want) {
		t.Error("AppendMarshal into a recycled buffer differs from onto nil")
	}
}

// TestAppendMarshalStaleChecksumField checks that a recycled buffer with
// garbage where the CRC field lands still marshals correctly.
func TestAppendMarshalStaleChecksumField(t *testing.T) {
	pkt := SharePacket{Seq: 1, K: 1, M: 1, Index: 0, SentAt: 5, Payload: []byte("x")}
	want, err := AppendMarshal(nil, pkt)
	if err != nil {
		t.Fatal(err)
	}
	stale := bytes.Repeat([]byte{0xee}, HeaderSize+8)
	got, err := AppendMarshal(stale[:0], pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("stale buffer contents leaked into the marshaled datagram")
	}
	if _, err := Unmarshal(got); err != nil {
		t.Errorf("marshaled datagram fails verification: %v", err)
	}
}

// TestUnmarshalDoesNotMutateInput pins the read-only contract: checksum
// verification must not patch bytes 24:28, valid or not.
func TestUnmarshalDoesNotMutateInput(t *testing.T) {
	good, err := AppendMarshal(nil, SharePacket{Seq: 2, K: 2, M: 2, Index: 1, SentAt: 1, Payload: []byte("ro")})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), good...)
	corrupt[HeaderSize] ^= 0xff
	for name, datagram := range map[string][]byte{"valid": good, "corrupt": corrupt} {
		orig := append([]byte(nil), datagram...)
		_, _ = Unmarshal(datagram)
		if !bytes.Equal(datagram, orig) {
			t.Errorf("%s: Unmarshal mutated its input", name)
		}
	}
	report := MarshalReport(ReportPacket{Epoch: 1, Delivered: 2})
	orig := append([]byte(nil), report...)
	if _, err := UnmarshalReport(report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report, orig) {
		t.Error("UnmarshalReport mutated its input")
	}
}

// TestUnmarshalZeroAlloc pins parsing at zero allocations on the happy
// path (the payload aliases the input).
func TestUnmarshalZeroAlloc(t *testing.T) {
	buf, err := AppendMarshal(nil, SharePacket{Seq: 3, K: 2, M: 3, Index: 0, SentAt: 1, Payload: bytes.Repeat([]byte{1}, 512)})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Unmarshal allocates %v times per op, want 0", allocs)
	}
}

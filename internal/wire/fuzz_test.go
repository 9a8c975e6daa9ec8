package wire

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal checks that arbitrary datagrams never panic the parser,
// that anything it accepts re-marshals to the identical datagram (in the
// header version the datagram declared), and that parsing never writes to
// its input — the property concurrent receivers sharing one receive buffer
// depend on.
func FuzzUnmarshal(f *testing.F) {
	good, err := AppendMarshal(nil, SharePacket{
		Seq: 1, K: 2, M: 3, Index: 1, SentAt: 42, Payload: []byte("seed"),
	})
	if err != nil {
		f.Fatal(err)
	}
	goodV2, err := AppendMarshalSession(nil, SharePacket{
		Seq: 1, Session: 0x1122334455667788, K: 2, M: 3, Index: 1, SentAt: 42,
		Payload: []byte("seed"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(goodV2)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize))
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSizeV2))
	// Truncation and corruption mutants of the valid seeds; for the v2
	// seed, every truncation boundary and corruption offset inside the
	// session-ID field [24, 32).
	f.Add(good[:HeaderSize])
	f.Add(good[:HeaderSize/2])
	f.Add(good[:len(good)-1])
	for _, i := range []int{0, 2, 3, 6, 24, HeaderSize} {
		mutant := append([]byte(nil), good...)
		mutant[i] ^= 0x80
		f.Add(mutant)
	}
	f.Add(goodV2[:HeaderSizeV2])
	f.Add(goodV2[:HeaderSizeV2-1])
	f.Add(goodV2[:HeaderSize])
	f.Add(goodV2[:len(goodV2)-1])
	for _, i := range []int{0, 2, 3, 6, 24, 25, 28, 31, 32, HeaderSizeV2} {
		mutant := append([]byte(nil), goodV2...)
		mutant[i] ^= 0x80
		f.Add(mutant)
	}
	// A v1 datagram relabeled v2 and vice versa: version-field confusion
	// must be rejected by the length or checksum gates, not read OOB.
	relabel := append([]byte(nil), good...)
	relabel[2] = VersionSession
	f.Add(relabel)
	relabel = append([]byte(nil), goodV2...)
	relabel[2] = Version
	f.Add(relabel)

	f.Fuzz(func(t *testing.T, data []byte) {
		orig := append([]byte(nil), data...)
		pkt, err := Unmarshal(data)
		if !bytes.Equal(data, orig) {
			t.Fatal("Unmarshal mutated its input")
		}
		if err != nil {
			return
		}
		// Re-marshal in the version the datagram declared. A v1 datagram
		// must have parsed with Session 0 (AppendMarshal would refuse it
		// otherwise, failing the test as intended).
		remarshal := func(dst []byte) ([]byte, error) {
			if data[2] == VersionSession {
				return AppendMarshalSession(dst, pkt)
			}
			return AppendMarshal(dst, pkt)
		}
		out, err := remarshal(nil)
		if err != nil {
			t.Fatalf("accepted packet fails to re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("re-marshal differs from accepted datagram")
		}
		// Appending onto a prefix must reproduce the same bytes after it.
		prefixed, err := remarshal([]byte{0xde, 0xad})
		if err != nil {
			t.Fatalf("append re-marshal: %v", err)
		}
		if !bytes.Equal(prefixed[2:], data) {
			t.Fatalf("append re-marshal differs from a fresh one")
		}
		// The dispatch fast path must agree with the full parser on every
		// accepted datagram.
		if s, ok := PeekSession(data); !ok || s != pkt.Session {
			t.Fatalf("PeekSession = (%d, %v), Unmarshal says session %d", s, ok, pkt.Session)
		}
	})
}

// FuzzUnmarshalReport checks the report parser never panics, never mutates
// its input, and round-trips whatever it accepts.
func FuzzUnmarshalReport(f *testing.F) {
	f.Add(MarshalReport(ReportPacket{Epoch: 3, Delivered: 10, Evicted: 1, Pending: 4}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, ReportSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := append([]byte(nil), data...)
		rep, err := UnmarshalReport(data)
		if !bytes.Equal(data, orig) {
			t.Fatal("UnmarshalReport mutated its input")
		}
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalReport(rep), data) {
			t.Fatal("re-marshal differs from accepted report")
		}
	})
}

package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzUnmarshal checks that arbitrary datagrams never panic the parser,
// that anything it accepts re-marshals to the identical datagram (in the
// header version the datagram declared), and that parsing never writes to
// its input — the property concurrent receivers sharing one receive buffer
// depend on. UnmarshalHeader must accept whatever Unmarshal accepts, with
// the identical packet, and where only it accepts, Unmarshal's error must
// be the checksum's. Every header it accepts must marshal, in both
// versions, to the same bytes from a payload already in place in the
// destination as from a fresh one.
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
		hpkt, herr := UnmarshalHeader(data)
		pkt, err := Unmarshal(data)
		if !bytes.Equal(data, orig) {
			t.Fatal("Unmarshal or UnmarshalHeader mutated its input")
		}
		switch {
		case err == nil && herr != nil:
			t.Fatalf("UnmarshalHeader rejects (%v) a datagram Unmarshal accepts", herr)
		case err == nil && !samePacket(hpkt, pkt):
			t.Fatalf("UnmarshalHeader parses %+v, Unmarshal %+v", hpkt, pkt)
		case err != nil && herr == nil && !errors.Is(err, ErrBadChecksum):
			t.Fatalf("UnmarshalHeader accepts a datagram Unmarshal rejects with %v, not ErrBadChecksum", err)
		}
		if herr == nil {
			checkMarshalInPlace(t, hpkt)
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

// samePacket reports whether a and b are the identical packet, payload
// aliasing the same bytes.
func samePacket(a, b SharePacket) bool {
	pa, pb := a.Payload, b.Payload
	return a.Seq == b.Seq && a.Session == b.Session && a.K == b.K && a.M == b.M &&
		a.Index == b.Index && a.SentAt == b.SentAt &&
		len(pa) == len(pb) && (len(pa) == 0 || &pa[0] == &pb[0])
}

// checkMarshalInPlace marshals p in both header versions twice, once from a
// copy of its payload and once with the payload already at dst[off+hdr:]
// behind stale header bytes, and fails unless the two datagrams agree and
// the second was written into dst.
func checkMarshalInPlace(t *testing.T, p SharePacket) {
	t.Helper()
	for _, version := range []byte{Version, VersionSession} {
		marshal, hdr := AppendMarshal, HeaderSize
		q := p
		if version == VersionSession {
			marshal, hdr = AppendMarshalSession, HeaderSizeV2
		} else {
			q.Session = 0
		}
		q.Payload = bytes.Clone(p.Payload)
		fresh, err := marshal(nil, q)
		if err != nil {
			t.Fatalf("v%d: accepted header fails to marshal: %v", version, err)
		}
		for _, off := range []int{0, 2} {
			dst := bytes.Repeat([]byte{0xA5}, off+hdr+len(p.Payload))
			copy(dst[off+hdr:], p.Payload)
			q.Payload = dst[off+hdr:]
			out, err := marshal(dst[:off], q)
			if err != nil {
				t.Fatalf("v%d: in-place marshal: %v", version, err)
			}
			if &out[0] != &dst[0] || !bytes.Equal(out[off:], fresh) {
				t.Fatalf("v%d, offset %d: in-place marshal differs from a fresh one", version, off)
			}
		}
	}
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

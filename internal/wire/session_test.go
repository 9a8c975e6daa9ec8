package wire

import (
	"bytes"
	"errors"
	"testing"
)

func validSessionPacket() SharePacket {
	p := validPacket()
	p.Session = 0xfeed_beef_cafe_f00d
	return p
}

// TestSessionRoundtrip pins the v2 format: a session-addressed packet
// round-trips through AppendMarshalSession/Unmarshal with every field
// intact, including the session ID.
func TestSessionRoundtrip(t *testing.T) {
	p := validSessionPacket()
	buf, err := AppendMarshalSession(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderSizeV2+len(p.Payload) {
		t.Fatalf("v2 datagram length %d, want %d", len(buf), HeaderSizeV2+len(p.Payload))
	}
	if buf[2] != VersionSession {
		t.Fatalf("version byte %d, want %d", buf[2], VersionSession)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != p.Session || got.Seq != p.Seq || got.K != p.K || got.M != p.M ||
		got.Index != p.Index || got.SentAt != p.SentAt || !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("roundtrip mismatch: got %+v, want %+v", got, p)
	}
}

// TestSessionZeroIsLegalInV2 checks the header version, not the ID value,
// selects the format: session 0 marshals to v2 when asked and parses back
// as session 0.
func TestSessionZeroIsLegalInV2(t *testing.T) {
	p := validPacket() // Session 0
	buf, err := AppendMarshalSession(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != 0 {
		t.Errorf("Session = %d, want 0", got.Session)
	}
}

// TestV1RefusesSessionID: the v1 marshaler must not silently drop a
// session ID — that would misroute the share on a gateway socket.
func TestV1RefusesSessionID(t *testing.T) {
	p := validSessionPacket()
	if _, err := AppendMarshal(nil, p); !errors.Is(err, ErrBadParams) {
		t.Errorf("AppendMarshal: got %v, want ErrBadParams", err)
	}
}

// TestV1StillParsesWithSessionZero: version gating — the pre-gateway
// format is unchanged on the wire and parses with Session 0.
func TestV1StillParsesWithSessionZero(t *testing.T) {
	buf, err := AppendMarshal(nil, validPacket())
	if err != nil {
		t.Fatal(err)
	}
	if buf[2] != Version {
		t.Fatalf("version byte %d, want %d", buf[2], Version)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != 0 {
		t.Errorf("Session = %d, want 0", got.Session)
	}
}

// TestSessionUnmarshalErrors covers the v2-specific reject paths:
// truncated or corrupted session-ID fields must fail cleanly, never
// panic, and never parse as a different session.
func TestSessionUnmarshalErrors(t *testing.T) {
	good, err := AppendMarshalSession(nil, validSessionPacket())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("truncated inside session field", func(t *testing.T) {
		for cut := HeaderSize; cut < HeaderSizeV2; cut++ {
			if _, err := Unmarshal(good[:cut]); err == nil {
				t.Errorf("accepted a v2 header truncated to %d bytes", cut)
			}
		}
	})
	t.Run("corrupted session field", func(t *testing.T) {
		for off := 24; off < 32; off++ {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x01
			if _, err := Unmarshal(bad); !errors.Is(err, ErrBadChecksum) {
				t.Errorf("byte %d flipped: got %v, want ErrBadChecksum", off, err)
			}
		}
	})
	t.Run("v2 header with v1 length", func(t *testing.T) {
		// A v1-sized datagram relabeled v2: the payload-length check must
		// reject it before any out-of-range read.
		v1, err := AppendMarshal(nil, validPacket())
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), v1...)
		bad[2] = VersionSession
		if _, err := Unmarshal(bad); err == nil {
			t.Error("accepted a v1-sized datagram with a v2 version byte")
		}
	})
}

// TestPeekSession pins the gateway dispatch fast path against the full
// parser on both versions and on garbage.
func TestPeekSession(t *testing.T) {
	v2, err := AppendMarshalSession(nil, validSessionPacket())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := AppendMarshal(nil, validPacket())
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := PeekSession(v2); !ok || s != validSessionPacket().Session {
		t.Errorf("PeekSession(v2) = (%d, %v)", s, ok)
	}
	if s, ok := PeekSession(v1); !ok || s != 0 {
		t.Errorf("PeekSession(v1) = (%d, %v), want (0, true)", s, ok)
	}
	if _, ok := PeekSession(nil); ok {
		t.Error("PeekSession accepted nil")
	}
	if _, ok := PeekSession(v2[:HeaderSizeV2-1]); ok {
		t.Error("PeekSession accepted a truncated v2 header")
	}
	bad := append([]byte(nil), v2...)
	bad[0] = 'X'
	if _, ok := PeekSession(bad); ok {
		t.Error("PeekSession accepted bad magic")
	}
	bad = append(bad[:0], v2...)
	bad[2] = 99
	if _, ok := PeekSession(bad); ok {
		t.Error("PeekSession accepted an unknown version")
	}
}

// TestAppendMarshalSessionRecycles checks the v2 marshaler keeps the
// append-style zero-steady-state-allocation discipline.
func TestAppendMarshalSessionRecycles(t *testing.T) {
	p := validSessionPacket()
	buf, err := AppendMarshalSession(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendMarshalSession(buf[:0], p)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendMarshalSession allocates %v times on a recycled buffer, want 0", allocs)
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"testing/quick"
)

func validPacket() SharePacket {
	return SharePacket{
		Seq:     12345,
		K:       2,
		M:       3,
		Index:   1,
		SentAt:  987654321,
		Payload: []byte("share data"),
	}
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	p := validPacket()
	buf, err := AppendMarshal(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != p.Seq || got.K != p.K || got.M != p.M || got.Index != p.Index ||
		got.SentAt != p.SentAt || !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("roundtrip mismatch: got %+v, want %+v", got, p)
	}
}

func TestRoundtripQuick(t *testing.T) {
	f := func(seq uint64, kSeed, mSeed, idxSeed uint8, sentAt int64, payload []byte) bool {
		m := mSeed%8 + 1
		k := kSeed%m + 1
		idx := idxSeed % m
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		p := SharePacket{Seq: seq, K: k, M: m, Index: idx, SentAt: sentAt, Payload: payload}
		buf, err := AppendMarshal(nil, p)
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return got.Seq == p.Seq && got.K == p.K && got.M == p.M &&
			got.Index == p.Index && got.SentAt == p.SentAt &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNegativeTimestamp(t *testing.T) {
	p := validPacket()
	p.SentAt = -42
	buf, err := AppendMarshal(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SentAt != -42 {
		t.Errorf("SentAt = %d, want -42", got.SentAt)
	}
}

func TestMarshalValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*SharePacket)
	}{
		{"k zero", func(p *SharePacket) { p.K = 0 }},
		{"k above m", func(p *SharePacket) { p.K = 4 }},
		{"index at m", func(p *SharePacket) { p.Index = 3 }},
		{"oversized payload", func(p *SharePacket) { p.Payload = make([]byte, MaxPayload+1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validPacket()
			tc.mod(&p)
			if _, err := AppendMarshal(nil, p); !errors.Is(err, ErrBadParams) {
				t.Errorf("got %v, want ErrBadParams", err)
			}
		})
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good, err := AppendMarshal(nil, validPacket())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("too short", func(t *testing.T) {
		if _, err := Unmarshal(good[:HeaderSize-1]); !errors.Is(err, ErrTooShort) {
			t.Errorf("got %v, want ErrTooShort", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[2] = 99
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadVersion) {
			t.Errorf("got %v, want ErrBadVersion", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := Unmarshal(good[:len(good)-1]); !errors.Is(err, ErrBadLength) {
			t.Errorf("got %v, want ErrBadLength", err)
		}
	})
	t.Run("extra bytes", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0)
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadLength) {
			t.Errorf("got %v, want ErrBadLength", err)
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0x01
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadChecksum) {
			t.Errorf("got %v, want ErrBadChecksum", err)
		}
	})
	t.Run("flipped header bit", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[9] ^= 0x80 // inside seq
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadChecksum) {
			t.Errorf("got %v, want ErrBadChecksum", err)
		}
	})
	t.Run("inconsistent params with fixed checksum", func(t *testing.T) {
		p := validPacket()
		p.K = 3
		p.M = 3
		p.Index = 2
		buf, err := AppendMarshal(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt m to be less than k, then re-checksum so only the
		// semantic validation can catch it.
		buf[4] = 2
		rechecksum(buf)
		if _, err := Unmarshal(buf); !errors.Is(err, ErrBadParams) {
			t.Errorf("got %v, want ErrBadParams", err)
		}
	})
}

// rechecksum recomputes the CRC field after test mutations, exactly as
// AppendMarshal does.
func rechecksum(buf []byte) {
	buf[24], buf[25], buf[26], buf[27] = 0, 0, 0, 0
	s := crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli))
	binary.BigEndian.PutUint32(buf[24:28], s)
}

func TestUnmarshalDoesNotCopyPayload(t *testing.T) {
	buf, err := AppendMarshal(nil, validPacket())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &p.Payload[0] != &buf[HeaderSize] {
		t.Error("payload was copied; documented as aliasing")
	}
}

func TestHeaderSizeStable(t *testing.T) {
	buf, err := AppendMarshal(nil, SharePacket{K: 1, M: 1, Index: 0, Payload: []byte{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderSize+1 {
		t.Errorf("datagram length %d, want %d", len(buf), HeaderSize+1)
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := validPacket()
	p.Payload = make([]byte, 1400)
	b.SetBytes(int64(len(p.Payload)))
	for i := 0; i < b.N; i++ {
		if _, err := AppendMarshal(nil, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	p := validPacket()
	p.Payload = make([]byte, 1400)
	buf, err := AppendMarshal(nil, p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(p.Payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

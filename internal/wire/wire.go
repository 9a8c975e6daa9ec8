// Package wire defines the share packet format used by the ReMICSS
// reference protocol.
//
// Each share of a source symbol travels as one datagram. Version 1, the
// single-session format:
//
//	offset  size  field
//	0       2     magic "RS"
//	2       1     version (1)
//	3       1     threshold k
//	4       1     multiplicity m
//	5       1     share index (0-based, < m)
//	6       2     payload length (big endian)
//	8       8     symbol sequence number (big endian)
//	16      8     send timestamp, nanoseconds (big endian, signed)
//	24      4     CRC-32C over header (zeroed checksum field) and payload
//	28      n     share payload
//
// Version 2 is the multi-tenant gateway format: identical through offset
// 24, then a session identifier before the checksum, so a gateway can
// route a datagram to its session with one fixed-offset read
// (PeekSession) without parsing or checksumming the whole packet:
//
//	offset  size  field
//	24      8     session ID (big endian)
//	32      4     CRC-32C over header (zeroed checksum field) and payload
//	36      n     share payload
//
// Unmarshal accepts both versions (a v1 datagram parses with Session 0),
// so a gateway socket can carry v2 traffic alongside pre-gateway v1
// senders. AppendMarshal emits v1 and refuses packets with a session ID —
// silently dropping the ID would misroute the share — and
// AppendMarshalSession emits v2.
//
// The timestamp lets the receiver measure one-way delay against the same
// clock in simulation, and is the mechanism the paper's delay experiment
// uses (timestamps embedded in echoed packets). The checksum guards the
// reassembly buffer against corrupted or truncated datagrams. Unmarshal is
// UnmarshalHeader followed by VerifyChecksum; a receiver calls the two
// apart, so a share it would drop on its header costs no checksum.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// HeaderSize is the fixed number of bytes before the payload in a version
// 1 datagram.
const HeaderSize = 28

// HeaderSizeV2 is the fixed number of bytes before the payload in a
// version 2 (session-addressed) datagram: HeaderSize plus the 8-byte
// session ID.
const HeaderSizeV2 = 36

// MaxPayload is the largest payload length the 16-bit length field allows.
const MaxPayload = 1<<16 - 1

// Version is the protocol version emitted by AppendMarshal.
const Version = 1

// VersionSession is the protocol version emitted by AppendMarshalSession:
// the v2 header carrying a session ID for gateway routing.
const VersionSession = 2

var magic = [2]byte{'R', 'S'}

// castagnoli is the CRC-32C table (the polynomial used by iSCSI and ext4).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors.
var (
	ErrTooShort    = errors.New("wire: datagram shorter than header")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadLength   = errors.New("wire: payload length mismatch")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrBadParams   = errors.New("wire: invalid share parameters")
)

// SharePacket is the parsed form of one share datagram.
type SharePacket struct {
	// Seq is the source symbol sequence number the share belongs to.
	Seq uint64
	// Session identifies the secret-sharing session the share belongs to
	// on a multiplexed (gateway) socket. Zero means single-session
	// traffic: v1 datagrams always parse with Session 0, and a packet
	// with Session 0 marshals to the v1 format via AppendMarshal
	// or to v2 via AppendMarshalSession.
	Session uint64
	// K is the reconstruction threshold for the symbol.
	K uint8
	// M is the number of shares generated for the symbol.
	M uint8
	// Index is this share's index within the split, in [0, M).
	Index uint8
	// SentAt is the sender's clock, in nanoseconds, when the share was
	// transmitted.
	SentAt int64
	// Payload is the share data.
	Payload []byte //remicss:secret
}

// Validate checks internal consistency of the parameters.
//
//remicss:noalloc
func (p SharePacket) Validate() error {
	if p.K < 1 || p.M < p.K || p.Index >= p.M {
		return fmt.Errorf("%w: k=%d, m=%d, index=%d", ErrBadParams, p.K, p.M, p.Index)
	}
	if len(p.Payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d bytes", ErrBadParams, len(p.Payload))
	}
	return nil
}

// AppendMarshal serializes the packet in the v1 format onto dst (which may
// be nil or a recycled buffer sliced to zero length) and returns the
// extended slice — the append-style codec discipline that lets a
// steady-state sender reuse one datagram buffer per send instead of
// allocating per share. A packet carrying a session ID is refused: the v1
// header has nowhere to put it, and dropping it silently would misroute
// the share on a multiplexed socket (use AppendMarshalSession).
//
//remicss:noalloc
func AppendMarshal(dst []byte, p SharePacket) ([]byte, error) {
	if p.Session != 0 {
		return nil, fmt.Errorf("%w: session %d needs the v2 format", ErrBadParams, p.Session)
	}
	return appendMarshal(dst, p, Version)
}

// AppendMarshalSession serializes the packet in the v2 (session-addressed)
// format onto dst; otherwise identical to AppendMarshal. Session 0 is
// legal — the header is what declares the format, not the ID value.
//
//remicss:noalloc
func AppendMarshalSession(dst []byte, p SharePacket) ([]byte, error) {
	return appendMarshal(dst, p, VersionSession)
}

// appendMarshal emits one datagram in the given header version. When the
// payload already sits where the datagram carries it, at dst[off+hdr] with
// dst's capacity covering it (a sender that split the share straight into
// its datagram buffer), only the header and checksum are written; any other
// payload is copied in.
//
//remicss:noalloc
func appendMarshal(dst []byte, p SharePacket, version byte) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	hdr := HeaderSize
	if version == VersionSession {
		hdr = HeaderSizeV2
	}
	off := len(dst)
	n := hdr + len(p.Payload)
	if cap(dst)-off >= n {
		dst = dst[:off+n]
	} else {
		dst = append(dst, make([]byte, n)...) //lint:allow noalloc amortized growth; steady-state senders recycle dst at full capacity
	}
	buf := dst[off:]
	buf[0], buf[1] = magic[0], magic[1]
	buf[2] = version
	buf[3] = p.K
	buf[4] = p.M
	buf[5] = p.Index
	binary.BigEndian.PutUint16(buf[6:8], uint16(len(p.Payload)))
	binary.BigEndian.PutUint64(buf[8:16], p.Seq)
	binary.BigEndian.PutUint64(buf[16:24], uint64(p.SentAt))
	crcOff := 24
	if version == VersionSession {
		binary.BigEndian.PutUint64(buf[24:32], p.Session)
		crcOff = 32
	}
	if len(p.Payload) > 0 && &buf[hdr] != &p.Payload[0] {
		copy(buf[hdr:], p.Payload)
	}
	// Checksum over the whole datagram with the checksum field zeroed; a
	// recycled dst may carry stale bytes there.
	binary.BigEndian.PutUint32(buf[crcOff:crcOff+4], 0)
	sum := crc32.Checksum(buf, castagnoli)
	binary.BigEndian.PutUint32(buf[crcOff:crcOff+4], sum)
	return dst, nil
}

// zeroCRC substitutes for the checksum field when computing a datagram CRC
// without writing to the buffer. Package-level because a stack array passed
// to crc32's assembly kernels is forced to the heap.
var zeroCRC [4]byte

// checksum computes the datagram CRC as if the 4 bytes at crcOff were
// zero, without writing to buf — Unmarshal must not mutate its input,
// which may be shared with concurrent readers.
//
//remicss:noalloc
func checksum(buf []byte, crcOff int) uint32 {
	sum := crc32.Update(0, castagnoli, buf[:crcOff])
	sum = crc32.Update(sum, castagnoli, zeroCRC[:])
	return crc32.Update(sum, castagnoli, buf[crcOff+4:])
}

// Unmarshal parses and verifies a datagram of either header version:
// UnmarshalHeader, then VerifyChecksum. The input is strictly read-only
// (checksum verification reconstructs the zeroed-field CRC incrementally
// rather than patching the buffer), so concurrent receivers may parse
// buffers they do not own. The returned packet's payload aliases the input;
// callers that retain it must copy.
//
//remicss:noalloc
func Unmarshal(buf []byte) (SharePacket, error) {
	p, err := UnmarshalHeader(buf)
	if err != nil {
		return SharePacket{}, err
	}
	if err := VerifyChecksum(buf); err != nil {
		return SharePacket{}, err
	}
	return p, nil
}

// UnmarshalHeader parses a datagram of either header version without
// verifying its checksum: it checks the structure (long enough, magic,
// known version, a length field matching what the datagram carries) and the
// parameters. A receiver reads from the header alone whether a share can
// still help — its symbol delivered or its index held — and pays for
// VerifyChecksum only when it can; nothing read this way may be trusted
// beyond dropping the datagram. The input is read-only, and the payload
// aliases it.
//
//remicss:noalloc
func UnmarshalHeader(buf []byte) (SharePacket, error) {
	if len(buf) < HeaderSize {
		return SharePacket{}, fmt.Errorf("%w: %d bytes", ErrTooShort, len(buf))
	}
	if buf[0] != magic[0] || buf[1] != magic[1] {
		return SharePacket{}, ErrBadMagic
	}
	hdr := HeaderSize
	var session uint64
	switch buf[2] {
	case Version:
	case VersionSession:
		if len(buf) < HeaderSizeV2 {
			return SharePacket{}, fmt.Errorf("%w: %d bytes for a v2 header", ErrTooShort, len(buf))
		}
		hdr = HeaderSizeV2
		session = binary.BigEndian.Uint64(buf[24:32])
	default:
		return SharePacket{}, fmt.Errorf("%w: %d", ErrBadVersion, buf[2])
	}
	payloadLen := int(binary.BigEndian.Uint16(buf[6:8]))
	if len(buf) != hdr+payloadLen {
		return SharePacket{}, fmt.Errorf("%w: header says %d, datagram carries %d",
			ErrBadLength, payloadLen, len(buf)-hdr)
	}
	p := SharePacket{
		Seq:     binary.BigEndian.Uint64(buf[8:16]),
		Session: session,
		K:       buf[3],
		M:       buf[4],
		Index:   buf[5],
		SentAt:  int64(binary.BigEndian.Uint64(buf[16:24])),
		Payload: buf[hdr:],
	}
	if err := p.Validate(); err != nil {
		return SharePacket{}, err
	}
	return p, nil
}

// VerifyChecksum returns ErrBadChecksum unless buf's CRC-32C matches its
// contents. buf must be a datagram UnmarshalHeader accepted; it is only
// read.
//
//remicss:noalloc
//remicss:readonly
func VerifyChecksum(buf []byte) error {
	crcOff := 24
	if buf[2] == VersionSession {
		crcOff = 32
	}
	if binary.BigEndian.Uint32(buf[crcOff:crcOff+4]) != checksum(buf, crcOff) {
		return ErrBadChecksum
	}
	return nil
}

// PeekSession extracts the session ID from a datagram without parsing or
// checksumming it: the gateway's per-socket ingest goroutines route every
// datagram by session before the owning session's receiver parses and
// checksums it, so the dispatch cost must stay at a few
// fixed-offset reads. A v1 datagram reports session 0 (the legacy,
// unaddressed session); ok is false when the buffer cannot be a share
// datagram of either version (too short, wrong magic, unknown version) —
// corruption beyond that is caught downstream by the checksum.
//
//remicss:noalloc
func PeekSession(buf []byte) (session uint64, ok bool) {
	if len(buf) < HeaderSize || buf[0] != magic[0] || buf[1] != magic[1] {
		return 0, false
	}
	switch buf[2] {
	case Version:
		return 0, true
	case VersionSession:
		if len(buf) < HeaderSizeV2 {
			return 0, false
		}
		return binary.BigEndian.Uint64(buf[24:32]), true
	}
	return 0, false
}

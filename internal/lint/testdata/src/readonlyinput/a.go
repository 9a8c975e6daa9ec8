// Package readonlyinput exercises the readonly-input analyzer: element
// writes, copy/append with the input as destination, ByteOrder Put* calls,
// alias tracking through subslices, the marker annotation, the suppression
// directive, and a clean decoder.
package readonlyinput

import "encoding/binary"

// Unmarshal writes through its input every way the analyzer tracks.
func Unmarshal(data []byte) int {
	data[0] = 0 // want `Unmarshal writes to its input slice`
	view := data[4:8]
	view[1] = 2              // want `Unmarshal writes to its input slice`
	copy(data[2:], view)     // want `passes its input slice to copy as the destination`
	grown := append(data, 1) // want `passes its input slice to append as the destination`
	_ = grown
	binary.BigEndian.PutUint16(data[0:2], 7) // want `writes to its input slice via PutUint16`
	return len(data)
}

// parseFrame is checked via the marker annotation.
//
//remicss:readonly
func parseFrame(frame []byte) byte {
	frame[0] = 1 // want `parseFrame writes to its input slice`
	return frame[0]
}

// UnmarshalScrub mutates in place deliberately, with the justification
// written down.
func UnmarshalScrub(data []byte) {
	//lint:allow readonly-input fixture documents an in-place decoder that owns its buffer
	data[0] = 0
}

// UnmarshalGrown writes through an append of its input, which may share
// the input's backing array.
func UnmarshalGrown(data []byte) {
	grown := append(data[:2], 0) // want `passes its input slice to append as the destination`
	grown[0] = 1                 // want `UnmarshalGrown writes to its input slice`
}

// UnmarshalFresh rebinds its parameter to a buffer it owns before writing:
// the input is no longer reachable through the name.
func UnmarshalFresh(data []byte) byte {
	data = make([]byte, 4)
	data[0] = 1
	return data[0]
}

// UnmarshalClean decodes without writing, as the contract requires.
func UnmarshalClean(data []byte) uint16 {
	scratch := make([]byte, 2)
	copy(scratch, data[:2])
	return binary.BigEndian.Uint16(scratch)
}

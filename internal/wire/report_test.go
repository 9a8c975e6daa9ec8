package wire

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestReportMarshalUnmarshal(t *testing.T) {
	rep := ReportPacket{Epoch: 9, Delivered: 1234, Evicted: 56, Pending: 78}
	got, err := UnmarshalReport(MarshalReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	if got != rep {
		t.Errorf("roundtrip = %+v, want %+v", got, rep)
	}
}

func TestReportRoundtripQuick(t *testing.T) {
	f := func(epoch, delivered, evicted uint64, pending uint32) bool {
		rep := ReportPacket{Epoch: epoch, Delivered: delivered, Evicted: evicted, Pending: pending}
		got, err := UnmarshalReport(MarshalReport(rep))
		return err == nil && got == rep
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReportUnmarshalErrors(t *testing.T) {
	good := MarshalReport(ReportPacket{Epoch: 1})
	if _, err := UnmarshalReport(good[:ReportSize-1]); !errors.Is(err, ErrNotReport) {
		t.Errorf("short: got %v", err)
	}
	long := append(append([]byte(nil), good...), 0)
	if _, err := UnmarshalReport(long); !errors.Is(err, ErrNotReport) {
		t.Errorf("long: got %v", err)
	}
	magic := append([]byte(nil), good...)
	magic[0] = 'X'
	if _, err := UnmarshalReport(magic); !errors.Is(err, ErrNotReport) {
		t.Errorf("magic: got %v", err)
	}
	ver := append([]byte(nil), good...)
	ver[2] = 9
	if _, err := UnmarshalReport(ver); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: got %v", err)
	}
	crc := append([]byte(nil), good...)
	crc[5] ^= 0xFF
	if _, err := UnmarshalReport(crc); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("checksum: got %v", err)
	}
}

// TestReportNotConfusableWithShare: the two datagram types must reject each
// other, since both arrive on UDP sockets.
func TestReportNotConfusableWithShare(t *testing.T) {
	share, err := AppendMarshal(nil, SharePacket{Seq: 1, K: 1, M: 1, Index: 0, Payload: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalReport(share); err == nil {
		t.Error("share datagram parsed as report")
	}
	report := MarshalReport(ReportPacket{Epoch: 1})
	if _, err := Unmarshal(report); err == nil {
		t.Error("report datagram parsed as share")
	}
}

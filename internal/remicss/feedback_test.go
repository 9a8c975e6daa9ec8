package remicss

import (
	"math/rand"
	"testing"
	"time"

	"remicss/internal/netem"
	"remicss/internal/sharing"
	"remicss/internal/wire"
)

func TestReportRoundtrip(t *testing.T) {
	rep := wire.ReportPacket{Epoch: 3, Delivered: 100, Evicted: 2, Pending: 7}
	buf := wire.MarshalReport(rep)
	got, err := wire.UnmarshalReport(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != rep {
		t.Errorf("roundtrip = %+v, want %+v", got, rep)
	}
}

func TestReportRejectsCorruption(t *testing.T) {
	buf := wire.MarshalReport(wire.ReportPacket{Epoch: 1, Delivered: 5})
	buf[10] ^= 0xFF
	if _, err := wire.UnmarshalReport(buf); err == nil {
		t.Error("corrupted report accepted")
	}
	if _, err := wire.UnmarshalReport(buf[:10]); err == nil {
		t.Error("short report accepted")
	}
	junk := append([]byte(nil), buf...)
	junk[0] = 'X'
	if _, err := wire.UnmarshalReport(junk); err == nil {
		t.Error("wrong magic accepted")
	}
}

func TestReceiverMakeReportDeltas(t *testing.T) {
	scheme := sharing.NewAuto(rand.New(rand.NewSource(1)))
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   scheme,
		Clock:    func() time.Duration { return 0 },
		OnSymbol: func(uint64, []byte, time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(seq uint64) {
		shares, err := scheme.SplitSharesInto([]byte{byte(seq)}, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := wire.AppendMarshal(nil, wire.SharePacket{
			Seq: seq, K: 1, M: 1, Index: 0, Payload: shares[0].Data,
		})
		if err != nil {
			t.Fatal(err)
		}
		recv.HandleDatagram(buf)
	}
	deliver(0)
	deliver(1)
	rep1, err := wire.UnmarshalReport(recv.MakeReport())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Epoch != 0 || rep1.Delivered != 2 {
		t.Errorf("first report = %+v", rep1)
	}
	deliver(2)
	rep2, err := wire.UnmarshalReport(recv.MakeReport())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Epoch != 1 || rep2.Delivered != 1 {
		t.Errorf("second report = %+v (deltas expected)", rep2)
	}
}

func TestFeedbackStateIngest(t *testing.T) {
	var f FeedbackState
	r0 := wire.MarshalReport(wire.ReportPacket{Epoch: 0, Delivered: 10})
	r1 := wire.MarshalReport(wire.ReportPacket{Epoch: 1, Delivered: 5, Evicted: 1})
	if !f.Ingest(r0) {
		t.Error("valid report rejected")
	}
	if f.Ingest(r0) {
		t.Error("duplicate epoch accepted")
	}
	if !f.Ingest(r1) {
		t.Error("next epoch rejected")
	}
	if f.Ingest([]byte("junk")) {
		t.Error("junk accepted")
	}
	if got := f.Reports(); got != 2 {
		t.Errorf("reports = %d", got)
	}
	// 20 sent, 15 delivered -> 25% loss.
	if got := f.LossSince(20); got != 0.25 {
		t.Errorf("loss = %v, want 0.25", got)
	}
	// Counters consumed.
	if got := f.LossSince(10); got != 1 {
		t.Errorf("loss after consume = %v, want 1 (nothing delivered)", got)
	}
	if got := f.LossSince(0); got != 0 {
		t.Errorf("loss with nothing sent = %v", got)
	}
}

// TestFeedbackOverReverseChannel runs the full loop in simulation: shares
// forward over lossy channels, reports back over a reverse channel, and the
// sender's loss estimate matches the receiver's ground truth.
func TestFeedbackOverReverseChannel(t *testing.T) {
	eng := netem.NewEngine()
	scheme := sharing.NewAuto(rand.New(rand.NewSource(1)))
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   scheme,
		Clock:    eng.Now,
		Timeout:  100 * time.Millisecond,
		OnSymbol: func(uint64, []byte, time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, 3)
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{Rate: 2000, Loss: 0.3},
			rand.New(rand.NewSource(int64(i)+2)),
			func(p []byte, _ time.Duration) { recv.HandleDatagram(p) })
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l
	}
	var feedback FeedbackState
	reverse, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1000, Delay: 5 * time.Millisecond},
		rand.New(rand.NewSource(99)),
		func(p []byte, _ time.Duration) { feedback.Ingest(p) })
	if err != nil {
		t.Fatal(err)
	}

	snd, err := NewSender(SenderConfig{
		Scheme:  scheme,
		Chooser: FixedChooser{K: 2, Mask: 0b111}, // k=2 of 3 at 30% loss: real symbol loss
		Clock:   eng.Now,
	}, links)
	if err != nil {
		t.Fatal(err)
	}

	sent := 0
	var offer func()
	offer = func() {
		if err := snd.Send([]byte{byte(sent)}); err == nil {
			sent++
		}
		if eng.Now() < 4*time.Second {
			eng.Schedule(2*time.Millisecond, offer)
		}
	}
	var report func()
	report = func() {
		recv.Tick()
		reverse.Send(recv.MakeReport())
		if eng.Now() < 5*time.Second {
			eng.Schedule(250*time.Millisecond, report)
		}
	}
	eng.Schedule(0, offer)
	eng.Schedule(250*time.Millisecond, report)
	eng.Run(5 * time.Second)
	eng.RunUntilIdle()

	if feedback.Reports() < 10 {
		t.Fatalf("only %d reports arrived", feedback.Reports())
	}
	senderLoss := feedback.LossSince(int64(sent))
	truth := 1 - float64(recv.Stats().SymbolsDelivered)/float64(sent)
	if diff := senderLoss - truth; diff > 0.02 || diff < -0.02 {
		t.Errorf("sender loss estimate %v vs ground truth %v", senderLoss, truth)
	}
	// Sanity: with k=2, m=3, loss .3/channel: symbol loss = P(>=2 of 3 lost)
	// = 3(.3²)(.7)+.3³ = .216.
	if truth < 0.15 || truth > 0.28 {
		t.Errorf("ground truth loss %v outside expected band around 0.216", truth)
	}
}

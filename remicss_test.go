package remicss_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"remicss"
)

func testSet() remicss.ChannelSet {
	return remicss.ChannelSet{
		{Risk: 0.30, Loss: 0.01, Delay: 2500 * time.Microsecond, Rate: 446},
		{Risk: 0.10, Loss: 0.005, Delay: 250 * time.Microsecond, Rate: 1786},
		{Risk: 0.20, Loss: 0.01, Delay: 12500 * time.Microsecond, Rate: 5357},
		{Risk: 0.25, Loss: 0.02, Delay: 5 * time.Millisecond, Rate: 5804},
		{Risk: 0.15, Loss: 0.03, Delay: 500 * time.Microsecond, Rate: 8929},
	}
}

func TestFacadeModelMethods(t *testing.T) {
	set := testSet()
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := set.MaxPrivacyRisk(); got <= 0 || got >= 1 {
		t.Errorf("MaxPrivacyRisk = %v", got)
	}
	rc, err := set.OptimalRate(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if rc <= 0 {
		t.Errorf("OptimalRate = %v", rc)
	}
	mu, err := set.MuForRate(rc)
	if err != nil {
		t.Fatal(err)
	}
	if mu < 2.49 || mu > 2.51 {
		t.Errorf("MuForRate roundtrip = %v", mu)
	}
}

func TestFacadeScheduleOptimization(t *testing.T) {
	set := testSet()
	sched, err := remicss.OptimizeSchedule(set, 2, 3, remicss.ObjectiveRisk, remicss.ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Kappa(); got < 1.99 || got > 2.01 {
		t.Errorf("kappa = %v", got)
	}
	atRate, err := remicss.OptimizeScheduleAtMaxRate(set, 2, 3, remicss.ObjectiveLoss, remicss.ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The max-rate schedule is more constrained, so its loss optimum is no
	// better than the unconstrained loss optimum for the same parameters.
	free, err := remicss.OptimizeSchedule(set, 2, 3, remicss.ObjectiveLoss, remicss.ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if atRate.Loss(set) < free.Loss(set)-1e-9 {
		t.Errorf("constrained loss %v better than unconstrained %v", atRate.Loss(set), free.Loss(set))
	}
	// Invalid parameters surface the model's error.
	if _, err := remicss.OptimizeSchedule(set, 0.2, 3, remicss.ObjectiveRisk, remicss.ScheduleOptions{}); !errors.Is(err, remicss.ErrInvalidParams) {
		t.Errorf("got %v, want ErrInvalidParams", err)
	}
}

func TestFacadeSplitCombine(t *testing.T) {
	secret := []byte("facade roundtrip")
	shares, err := remicss.Split(secret, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remicss.Combine(shares[1:3], 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("Combine = %q", got)
	}
}

func TestFacadeRiskEstimation(t *testing.T) {
	m := remicss.DefaultRiskModel()
	zs, err := remicss.EstimateRisks(m, [][]int{{0, 0, 0}, {2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if zs[0] >= zs[1] {
		t.Errorf("risk ordering wrong: %v", zs)
	}
}

func TestParamsProfile(t *testing.T) {
	set := testSet()
	prof, err := remicss.Params{Kappa: 2, Mu: 3}.Profile(set)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Rate <= 0 {
		t.Errorf("profile rate = %v", prof.Rate)
	}
	if prof.Risk <= 0 || prof.Risk >= 1 {
		t.Errorf("profile risk = %v", prof.Risk)
	}
	if prof.Loss < 0 || prof.Loss >= 1 {
		t.Errorf("profile loss = %v", prof.Loss)
	}
	if prof.Delay <= 0 {
		t.Errorf("profile delay = %v", prof.Delay)
	}
	// Raising kappa at fixed mu must not improve (lower) risk is false —
	// it improves privacy: risk decreases.
	prof2, err := remicss.Params{Kappa: 3, Mu: 3}.Profile(set)
	if err != nil {
		t.Fatal(err)
	}
	if prof2.Risk >= prof.Risk {
		t.Errorf("higher kappa did not reduce risk: %v >= %v", prof2.Risk, prof.Risk)
	}
	if _, err := (remicss.Params{Kappa: 0, Mu: 3}).Profile(set); !errors.Is(err, remicss.ErrInvalidParams) {
		t.Errorf("invalid params accepted: %v", err)
	}
}

func TestFacadeUDPSession(t *testing.T) {
	listener, err := remicss.ListenUDP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	scheme := remicss.NewSharingScheme(rand.New(rand.NewSource(1)))
	var mu sync.Mutex
	received := make(map[uint64][]byte)
	recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme: scheme,
		Clock:  remicss.WallClock,
		OnSymbol: func(seq uint64, payload []byte, _ time.Duration) {
			mu.Lock()
			received[seq] = bytes.Clone(payload)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	listener.ServeConcurrent(recv.HandleDatagram)

	links, err := remicss.DialUDP(listener.Addrs(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, l := range links {
			l.(*remicss.UDPLink).Close()
		}
	}()
	chooser, err := remicss.NewDynamicChooser(2, 3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := remicss.NewSender(remicss.SenderConfig{
		Scheme:  scheme,
		Chooser: chooser,
		Clock:   remicss.WallClock,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	const symbols = 20
	for i := 0; i < symbols; i++ {
		if err := snd.Send([]byte{byte(i), 0x55}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(received)
		mu.Unlock()
		if n == symbols {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("received %d of %d", n, symbols)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestDialUDPValidation(t *testing.T) {
	if _, err := remicss.DialUDP([]string{"127.0.0.1:9", "127.0.0.1:10"}, []float64{1}, 0); err == nil {
		t.Error("mismatched rates accepted")
	}
	if _, err := remicss.DialUDP([]string{"bad"}, nil, 0); err == nil {
		t.Error("bad address accepted")
	}
}

func TestScheduleSensitivityFacade(t *testing.T) {
	set := testSet()
	dK, dM, err := remicss.ScheduleSensitivity(set, 2, 3, remicss.ObjectiveRisk, remicss.ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Raising the threshold cannot worsen risk; raising multiplicity at
	// fixed threshold exposes more shares and cannot improve it.
	if dK > 1e-9 {
		t.Errorf("dRisk/dκ = %v, want <= 0", dK)
	}
	if dM < -1e-9 {
		t.Errorf("dRisk/dμ = %v, want >= 0", dM)
	}
}

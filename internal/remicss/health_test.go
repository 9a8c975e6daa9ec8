package remicss

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"remicss/internal/core"
	"remicss/internal/netem"
	"remicss/internal/obs"
	"remicss/internal/schedule"
	"remicss/internal/sharing"
)

// fakeClock is a settable test timebase.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

// healthLink is a scriptable in-memory link for chooser tests.
type healthLink struct {
	writable bool
	accept   bool
	backlog  time.Duration
	sends    int
}

func (l *healthLink) Send([]byte) bool {
	l.sends++
	return l.accept
}
func (l *healthLink) Writable() bool         { return l.writable }
func (l *healthLink) Backlog() time.Duration { return l.backlog }

func newTracker(t *testing.T, cfg HealthConfig, n int, clock *fakeClock) *HealthTracker {
	t.Helper()
	tr, err := NewHealthTracker(cfg, n, clock.Now, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestHealthConfigValidation(t *testing.T) {
	clock := &fakeClock{}
	for name, cfg := range map[string]HealthConfig{
		"alpha>1":          {Alpha: 1.5},
		"recover>=suspect": {RecoverThreshold: 0.4, SuspectThreshold: 0.3},
		"suspect>=down":    {SuspectThreshold: 0.7, DownThreshold: 0.6},
		"down>=1":          {DownThreshold: 1.0},
		"backoff<1":        {ProbeBackoff: 0.5},
		"max<initial":      {ProbeInterval: time.Second, MaxProbeInterval: time.Millisecond},
	} {
		if _, err := NewHealthTracker(cfg, 3, clock.Now, nil, nil); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	if _, err := NewHealthTracker(HealthConfig{}, 0, clock.Now, nil, nil); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := NewHealthTracker(HealthConfig{}, 3, nil, nil, nil); err == nil {
		t.Error("nil clock accepted")
	}
	tr := newTracker(t, HealthConfig{}, 4, clock)
	if tr.Channels() != 4 {
		t.Errorf("Channels() = %d, want 4", tr.Channels())
	}
}

func TestHealthStateMachineTransitions(t *testing.T) {
	clock := &fakeClock{}
	tr := newTracker(t, HealthConfig{}, 2, clock)
	if got := tr.State(0); got != HealthHealthy {
		t.Fatalf("initial state %v", got)
	}
	// Repeated failures: healthy → suspect → down.
	sawSuspect := false
	for i := 0; i < 20 && tr.State(0) != HealthDown; i++ {
		tr.ObserveSend(0, false)
		if tr.State(0) == HealthSuspect {
			sawSuspect = true
		}
	}
	if !sawSuspect {
		t.Error("never passed through suspect")
	}
	if got := tr.State(0); got != HealthDown {
		t.Fatalf("state %v after sustained failures, want down", got)
	}
	if tr.Usable(0) {
		t.Error("down channel usable before probe due")
	}
	// Probe comes due: Usable admits and transitions to probing.
	clock.now += time.Second
	if !tr.Usable(0) {
		t.Fatal("probe due but channel not usable")
	}
	if got := tr.State(0); got != HealthProbing {
		t.Fatalf("state %v after probe admission, want probing", got)
	}
	// Enough successes recover the channel.
	for i := 0; i < 3; i++ {
		tr.ObserveSend(0, true)
	}
	if got := tr.State(0); got != HealthHealthy {
		t.Fatalf("state %v after probe successes, want healthy", got)
	}
	if rate := tr.FailureRate(0); rate != 0 {
		t.Errorf("EWMA %v after recovery, want 0", rate)
	}
	// The untouched channel stayed healthy throughout.
	if got := tr.State(1); got != HealthHealthy {
		t.Errorf("bystander channel state %v", got)
	}
}

func TestProbeBackoffExponentialAndCapped(t *testing.T) {
	clock := &fakeClock{}
	cfg := HealthConfig{ProbeInterval: 100 * time.Millisecond, ProbeBackoff: 2, MaxProbeInterval: 500 * time.Millisecond}
	tr := newTracker(t, cfg, 1, clock)
	for tr.State(0) != HealthDown {
		tr.ObserveSend(0, false)
	}
	// Each failed probe doubles the wait: 100ms, 200ms, 400ms, 500ms (cap).
	wants := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond}
	for i, want := range wants {
		if tr.Usable(0) {
			t.Fatalf("round %d: usable before %v elapsed", i, want)
		}
		clock.now += want - time.Millisecond
		if tr.Usable(0) {
			t.Fatalf("round %d: usable %v early", i, time.Millisecond)
		}
		clock.now += time.Millisecond
		if !tr.Usable(0) {
			t.Fatalf("round %d: not usable after %v", i, want)
		}
		// Probe fails again.
		tr.ObserveSend(0, false)
		if got := tr.State(0); got != HealthDown {
			t.Fatalf("round %d: state %v after failed probe", i, got)
		}
	}
}

func TestObserveReadyDrivesBlackout(t *testing.T) {
	clock := &fakeClock{}
	tr := newTracker(t, HealthConfig{}, 1, clock)
	// Sustained unwritability (netem blackout) downs the channel even
	// though no sends are attempted.
	for i := 0; i < 30 && tr.State(0) != HealthDown; i++ {
		tr.ObserveReady(0, false)
	}
	if got := tr.State(0); got != HealthDown {
		t.Fatalf("state %v after sustained unwritability, want down", got)
	}
	// While down, readiness observations are not folded in (the EWMA
	// freezes until a probe).
	before := tr.FailureRate(0)
	tr.ObserveReady(0, true)
	if got := tr.FailureRate(0); got != before {
		t.Errorf("EWMA moved while down: %v -> %v", before, got)
	}
	// Probe due, link still unwritable: probing fails, back to down.
	clock.now += time.Second
	if !tr.Usable(0) {
		t.Fatal("probe not admitted")
	}
	tr.ObserveReady(0, false)
	if got := tr.State(0); got != HealthDown {
		t.Fatalf("state %v after unwritable probe, want down", got)
	}
}

func TestObserveLossFoldsIntoEWMA(t *testing.T) {
	clock := &fakeClock{}
	tr := newTracker(t, HealthConfig{}, 1, clock)
	for i := 0; i < 30 && tr.State(0) != HealthDown; i++ {
		tr.ObserveLoss(0, 0.9)
	}
	if got := tr.State(0); got != HealthDown {
		t.Errorf("state %v after sustained feedback loss, want down", got)
	}
}

func TestNilTrackerIsSafe(t *testing.T) {
	var tr *HealthTracker
	tr.ObserveSend(0, false)
	tr.ObserveReady(0, false)
	tr.ObserveLoss(0, 1)
	if !tr.Usable(0) {
		t.Error("nil tracker must treat every channel as usable")
	}
}

func TestHealthChooserClampsMultiplicityKeepsThreshold(t *testing.T) {
	clock := &fakeClock{}
	tr := newTracker(t, HealthConfig{}, 5, clock)
	rng := rand.New(rand.NewSource(1))
	ch, err := NewHealthChooser(2, 5, tr, rng)
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, 5)
	fakes := make([]*healthLink, 5)
	for i := range links {
		fakes[i] = &healthLink{writable: true, accept: true}
		links[i] = fakes[i]
	}
	// All up: m = 5 every time (mu integral), k = 2.
	k, mask, ok := ch.Choose(links)
	if !ok || k != 2 || bits.OnesCount32(mask) != 5 {
		t.Fatalf("full set: k=%d mask=%b ok=%v", k, mask, ok)
	}
	// Two channels unwritable: multiplicity clamps to 3, threshold holds.
	fakes[1].writable = false
	fakes[4].writable = false
	k, mask, ok = ch.Choose(links)
	if !ok {
		t.Fatal("chooser stalled with 3 usable channels for k=2")
	}
	if k != 2 {
		t.Errorf("threshold %d, want 2", k)
	}
	if bits.OnesCount32(mask) != 3 {
		t.Errorf("multiplicity %d, want clamp to 3", bits.OnesCount32(mask))
	}
	if mask&(1<<1) != 0 || mask&(1<<4) != 0 {
		t.Errorf("mask %b includes unwritable channels", mask)
	}
}

// TestHealthChooserMatchesDynamicWhenHealthy pins the dither the two dynamic
// choosers share: with every channel healthy and writable, and the same
// seed, HealthChooser must yield DynamicChooser's (k, mask) sequence symbol
// for symbol — the same comonotone draws, placed on the same least-backlog
// channels. Backlogs are redrawn per symbol from a few values, so ties
// exercise the stable sort.
func TestHealthChooserMatchesDynamicWhenHealthy(t *testing.T) {
	for _, tc := range []struct {
		kappa, mu float64
		n         int
	}{
		{1.7, 2.6, 5},
		{2, 3, 3},
		{1.2, 4.5, 6},
	} {
		links := make([]Link, tc.n)
		hl := make([]*healthLink, tc.n)
		for i := range links {
			hl[i] = &healthLink{writable: true, accept: true}
			links[i] = hl[i]
		}
		dyn, err := NewDynamicChooser(tc.kappa, tc.mu, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		hc, err := NewHealthChooser(tc.kappa, tc.mu, newTracker(t, HealthConfig{}, tc.n, &fakeClock{}), rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		backlogs := rand.New(rand.NewSource(22))
		for sym := 0; sym < 10000; sym++ {
			for _, l := range hl {
				l.backlog = time.Duration(backlogs.Intn(4)) * time.Millisecond
			}
			dk, dmask, dok := dyn.Choose(links)
			hk, hmask, hok := hc.Choose(links)
			if dk != hk || dmask != hmask || dok != hok {
				t.Fatalf("κ=%v μ=%v n=%d symbol %d: dynamic (%d, %05b, %v), health (%d, %05b, %v)",
					tc.kappa, tc.mu, tc.n, sym, dk, dmask, dok, hk, hmask, hok)
			}
		}
	}
}

func TestHealthChooserStallsBelowThresholdFloor(t *testing.T) {
	clock := &fakeClock{}
	tr := newTracker(t, HealthConfig{}, 3, clock)
	ch, err := NewHealthChooser(2, 3, tr, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, 3)
	fakes := make([]*healthLink, 3)
	for i := range links {
		fakes[i] = &healthLink{writable: true, accept: true}
		links[i] = fakes[i]
	}
	fakes[0].writable = false
	fakes[1].writable = false
	// One usable channel < k=2: must stall, never weaken the threshold.
	for i := 0; i < 10; i++ {
		if _, _, ok := ch.Choose(links); ok {
			t.Fatal("chose a schedule with fewer usable channels than k")
		}
	}
}

// TestHealthChooserThresholdFloorProperty is the invariant property test:
// under arbitrary writability churn, every accepted choice satisfies
// ⌊κ⌋ <= k <= |mask| and the mask avoids unusable channels.
func TestHealthChooserThresholdFloorProperty(t *testing.T) {
	clock := &fakeClock{}
	tr := newTracker(t, HealthConfig{}, 6, clock)
	const kappa, mu = 2.5, 4.5
	ch, err := NewHealthChooser(kappa, mu, tr, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, 6)
	fakes := make([]*healthLink, 6)
	for i := range links {
		fakes[i] = &healthLink{writable: true, accept: true}
		links[i] = fakes[i]
	}
	churn := rand.New(rand.NewSource(4))
	accepted := 0
	for i := 0; i < 5000; i++ {
		for _, f := range fakes {
			f.writable = churn.Float64() < 0.8
		}
		clock.now += time.Millisecond
		k, mask, ok := ch.Choose(links)
		if !ok {
			continue
		}
		accepted++
		if k < 2 {
			t.Fatalf("iteration %d: threshold %d below floor 2", i, k)
		}
		if k > bits.OnesCount32(mask) {
			t.Fatalf("iteration %d: k=%d exceeds multiplicity %d", i, k, bits.OnesCount32(mask))
		}
		for b := 0; b < 6; b++ {
			if mask&(1<<uint(b)) != 0 && !fakes[b].writable {
				t.Fatalf("iteration %d: mask %b uses unwritable channel %d", i, mask, b)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no choice ever accepted")
	}
}

func TestHealthChooserResolveMode(t *testing.T) {
	set := core.Set{
		{Risk: 0.1, Loss: 0.01, Delay: 10 * time.Millisecond, Rate: 1000},
		{Risk: 0.2, Loss: 0.02, Delay: 20 * time.Millisecond, Rate: 800},
		{Risk: 0.3, Loss: 0.05, Delay: 30 * time.Millisecond, Rate: 600},
		{Risk: 0.15, Loss: 0.03, Delay: 15 * time.Millisecond, Rate: 900},
	}
	clock := &fakeClock{}
	reg := obs.NewRegistry()
	tr, err := NewHealthTracker(HealthConfig{}, 4, clock.Now, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const kappa, mu = 2, 3
	ch, err := NewHealthChooser(kappa, mu, tr, rand.New(rand.NewSource(5)),
		Resolve(set, schedule.ObjectiveRisk))
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, 4)
	fakes := make([]*healthLink, 4)
	for i := range links {
		fakes[i] = &healthLink{writable: true, accept: true}
		links[i] = fakes[i]
	}
	check := func(label string, excluded ...int) {
		t.Helper()
		for i := 0; i < 200; i++ {
			k, mask, ok := ch.Choose(links)
			if !ok {
				t.Fatalf("%s: stalled", label)
			}
			if k < 2 {
				t.Fatalf("%s: threshold %d below floor 2", label, k)
			}
			if k > bits.OnesCount32(mask) {
				t.Fatalf("%s: k=%d > |M|=%d", label, k, bits.OnesCount32(mask))
			}
			for _, e := range excluded {
				if mask&(1<<uint(e)) != 0 {
					t.Fatalf("%s: mask %b uses excluded channel %d", label, mask, e)
				}
			}
		}
		if err := ch.ResolveErr(); err != nil {
			t.Fatalf("%s: resolve error: %v", label, err)
		}
	}
	check("full set")
	// Channel 2 goes away: the LP re-solves over the 3 survivors.
	fakes[2].writable = false
	check("one down", 2)
	// A second failure leaves exactly ⌊κ⌋ survivors: still solvable.
	fakes[0].writable = false
	check("two down", 0, 2)
	// Below the floor: stall.
	fakes[3].writable = false
	if _, _, ok := ch.Choose(links); ok {
		t.Fatal("resolve mode scheduled below the threshold floor")
	}
	// Recovery: all channels restored. Advance past the probe backoff so
	// the downed channels re-admit and the usable set returns to the full
	// set the chooser first solved for.
	clock.now = 10 * time.Second
	for _, f := range fakes {
		f.writable = true
	}
	check("restored")

	// The solve path must route through the schedule cache: restoring the
	// full usable set revisits the state solved at "full set", so the
	// restored resolve is a cache hit, not a fresh LP solve.
	if hits := counterOn(t, reg, "remicss_schedule_cache_hits_total"); hits == 0 {
		t.Error("remicss_schedule_cache_hits_total never advanced; re-solve bypassed the cache")
	}
	if errs := counterOn(t, reg, "remicss_chooser_resolve_errors_total"); errs != 0 {
		t.Errorf("remicss_chooser_resolve_errors_total = %d on an error-free run", errs)
	}
}

// counterOn reads one registered counter series by name.
func counterOn(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, s := range reg.Gather() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("series %s not registered", name)
	return 0
}

// TestHealthChooserResolveErrorSurfaced: when the re-solve fails (here: the
// set exceeds the exact-schedule channel cap), the chooser must fall back to
// clamping AND surface the failure as remicss_chooser_resolve_errors_total
// plus a resolve-error trace event carrying the survivor count.
func TestHealthChooserResolveErrorSurfaced(t *testing.T) {
	const n = 23 // above core.Set.Validate's channel cap: Optimize fails
	set := make(core.Set, n)
	for i := range set {
		set[i] = core.Channel{Risk: 0.1, Loss: 0.01, Delay: 10 * time.Millisecond, Rate: 1000}
	}
	clock := &fakeClock{now: 7 * time.Millisecond}
	reg := obs.NewRegistry()
	trace := obs.NewTrace(64)
	tr, err := NewHealthTracker(HealthConfig{}, n, clock.Now, reg, trace)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewHealthChooser(2, 3, tr, rand.New(rand.NewSource(11)),
		Resolve(set, schedule.ObjectiveRisk))
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, n)
	for i := range links {
		links[i] = &healthLink{writable: true, accept: true}
	}
	k, mask, ok := ch.Choose(links)
	if !ok || k < 2 || k > bits.OnesCount32(mask) {
		t.Fatalf("clamping fallback failed: k=%d |M|=%d ok=%v", k, bits.OnesCount32(mask), ok)
	}
	if ch.ResolveErr() == nil {
		t.Fatal("ResolveErr() nil after an unsolvable re-solve")
	}
	if errs := counterOn(t, reg, "remicss_chooser_resolve_errors_total"); errs != 1 {
		t.Errorf("remicss_chooser_resolve_errors_total = %d, want 1", errs)
	}
	var found bool
	for _, ev := range trace.Snapshot(nil) {
		if ev.Kind == obs.EventResolveError {
			found = true
			if ev.Value != n {
				t.Errorf("resolve-error event value = %d, want survivor count %d", ev.Value, n)
			}
			if ev.At != 7*time.Millisecond {
				t.Errorf("resolve-error event at %v, want the tracker clock", ev.At)
			}
		}
	}
	if !found {
		t.Error("no resolve-error trace event recorded")
	}
}

func TestHealthChooserSetTargets(t *testing.T) {
	clock := &fakeClock{}
	tr := newTracker(t, HealthConfig{}, 4, clock)
	ch, err := NewHealthChooser(1, 2, tr, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, 4)
	for i := range links {
		links[i] = &healthLink{writable: true, accept: true}
	}
	if err := ch.SetTargets(3, 0.5); err == nil {
		t.Error("mu < kappa accepted")
	}
	if err := ch.SetTargets(3, 4); err != nil {
		t.Fatal(err)
	}
	k, mask, ok := ch.Choose(links)
	if !ok || k != 3 || bits.OnesCount32(mask) != 4 {
		t.Errorf("after SetTargets(3,4): k=%d |M|=%d ok=%v", k, bits.OnesCount32(mask), ok)
	}
}

// TestBlackoutMidStreamPreFailover pins today's behavior WITHOUT failover:
// with μ = n, a single blacked-out channel stalls the plain dynamic
// chooser for the whole outage — no symbol is scheduled below μ channels.
func TestBlackoutMidStreamPreFailover(t *testing.T) {
	eng := netem.NewEngine()
	scheme := sharing.NewAuto(rand.New(rand.NewSource(1)))
	delivered := 0
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   scheme,
		Clock:    eng.Now,
		OnSymbol: func(uint64, []byte, time.Duration) { delivered++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var netLinks []*netem.Link
	links := make([]Link, 5)
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1000},
			rand.New(rand.NewSource(int64(i)+2)),
			func(p []byte, _ time.Duration) { recv.HandleDatagram(p) })
		if err != nil {
			t.Fatal(err)
		}
		netLinks = append(netLinks, l)
		links[i] = l
	}
	chooser, err := NewDynamicChooser(2, 5, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(SenderConfig{Scheme: scheme, Chooser: chooser, Clock: eng.Now}, links)
	if err != nil {
		t.Fatal(err)
	}
	sentBefore, sentDuring := 0, 0
	var offer func()
	offer = func() {
		if err := snd.Send([]byte{1}); err == nil {
			if eng.Now() >= time.Second {
				sentDuring++
			} else {
				sentBefore++
			}
		}
		if eng.Now() < 3*time.Second {
			eng.Schedule(2*time.Millisecond, offer)
		}
	}
	eng.Schedule(0, offer)
	eng.Schedule(time.Second, func() { netLinks[1].SetDown(true) })
	eng.Run(3 * time.Second)
	eng.RunUntilIdle()

	if sentBefore == 0 {
		t.Fatal("nothing sent before the blackout")
	}
	// Pinned pre-failover behavior: μ = 5 of 5 channels means the outage
	// stalls every subsequent symbol.
	if sentDuring != 0 {
		t.Errorf("plain chooser sent %d symbols during a blackout with mu = n", sentDuring)
	}
}

// TestBlackoutMidStreamFailover is the recovery counterpart: the same
// blackout with a HealthChooser keeps delivering (clamped multiplicity,
// threshold floor intact) and restores the channel after it heals.
func TestBlackoutMidStreamFailover(t *testing.T) {
	eng := netem.NewEngine()
	scheme := sharing.NewAuto(rand.New(rand.NewSource(1)))
	delivered := 0
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   scheme,
		Clock:    eng.Now,
		OnSymbol: func(uint64, []byte, time.Duration) { delivered++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace(1 << 15)
	var netLinks []*netem.Link
	links := make([]Link, 5)
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1000},
			rand.New(rand.NewSource(int64(i)+2)),
			func(p []byte, _ time.Duration) { recv.HandleDatagram(p) })
		if err != nil {
			t.Fatal(err)
		}
		netLinks = append(netLinks, l)
		links[i] = l
	}
	tracker, err := NewHealthTracker(HealthConfig{}, 5, eng.Now, nil, trace)
	if err != nil {
		t.Fatal(err)
	}
	chooser, err := NewHealthChooser(2, 5, tracker, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(SenderConfig{
		Scheme: scheme, Chooser: chooser, Clock: eng.Now,
		Trace: trace, Health: tracker,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	sentDuring, sentAfter := 0, 0
	var offer func()
	offer = func() {
		if err := snd.Send([]byte{1}); err == nil {
			switch {
			case eng.Now() >= 2*time.Second:
				sentAfter++
			case eng.Now() >= time.Second:
				sentDuring++
			}
		}
		if eng.Now() < 4*time.Second {
			eng.Schedule(2*time.Millisecond, offer)
		}
	}
	eng.Schedule(0, offer)
	eng.Schedule(time.Second, func() { netLinks[1].SetDown(true) })
	eng.Schedule(2*time.Second, func() { netLinks[1].SetDown(false) })
	eng.Run(4 * time.Second)
	eng.RunUntilIdle()

	// Failover: delivery continues through the blackout.
	if sentDuring < 100 {
		t.Errorf("only %d symbols sent during blackout; failover did not engage", sentDuring)
	}
	if sentAfter < 100 {
		t.Errorf("only %d symbols sent after restoration", sentAfter)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// The channel must have cycled down and back: state-changed events
	// for channel 1 include Down and a later Healthy.
	var sawDown, sawRecovered bool
	for _, ev := range trace.Snapshot(nil) {
		if ev.Kind == obs.EventChannelStateChanged && ev.Channel == 1 {
			if HealthState(ev.Value) == HealthDown {
				sawDown = true
			}
			if sawDown && HealthState(ev.Value) == HealthHealthy {
				sawRecovered = true
			}
		}
	}
	if !sawDown {
		t.Error("channel 1 never declared down")
	}
	if !sawRecovered {
		t.Error("channel 1 never recovered after the blackout ended")
	}
	// Threshold-floor invariant against obs ground truth: every scheduled
	// symbol carries k >= ⌊κ⌋ = 2.
	scheduled := 0
	for _, ev := range trace.Snapshot(nil) {
		if ev.Kind != obs.EventSymbolScheduled {
			continue
		}
		scheduled++
		k := int(ev.Value >> 8)
		m := int(ev.Value & 0xFF)
		if k < 2 {
			t.Fatalf("scheduled symbol %d with threshold %d below floor 2", ev.Seq, k)
		}
		if k > m {
			t.Fatalf("scheduled symbol %d with k=%d > m=%d", ev.Seq, k, m)
		}
	}
	if scheduled == 0 {
		t.Fatal("no symbol-scheduled events recorded")
	}
}

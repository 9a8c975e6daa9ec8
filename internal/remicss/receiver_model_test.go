package remicss

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"remicss/internal/shardix"
	"remicss/internal/sharing"
	"remicss/internal/wire"
)

// modelReceiver is the reassembly specification the real Receiver is held
// to: plain maps and slices, no pooling, no rings, no bitmaps. The first
// share of a seq fixes (k, m); each seq keeps the set of indices it holds; a
// seq that reaches k shares leaves at once, delivered or — when the shares do
// not combine — forgotten; incomplete seqs leave oldest-first, by timeout on
// their first share's arrival or under the per-shard cap, and are forgotten
// too. What is remembered is every seq ever delivered, exactly and for good,
// and per shard the highest of them, top: a share is late when its seq was
// delivered or lies span or more behind top. Timeout eviction is per shard
// and lazy (on ingest to that shard, or on Tick), as in the receiver, so
// every counter can be compared after every datagram rather than only at
// quiescence.
type modelReceiver struct {
	scheme   sharing.Scheme
	timeout  time.Duration
	perShard int
	span     uint64 // closedMemoryFactor × MaxPending
	shards   []modelShard
	stats    ReceiverStats
	deliver  func(seq uint64, secret []byte)
}

type modelShard struct {
	entries   map[uint64]*modelEntry
	order     []uint64 // admission order, oldest first
	delivered map[uint64]bool
	top       uint64 // highest delivered seq, 0 before the first
}

type modelEntry struct {
	k, m    int
	arrived time.Duration
	have    map[int]bool
	shares  []sharing.Share // arrival order
}

func newModelReceiver(scheme sharing.Scheme, timeout time.Duration, maxPending, shards int, deliver func(uint64, []byte)) *modelReceiver {
	m := &modelReceiver{
		scheme:   scheme,
		timeout:  timeout,
		perShard: (maxPending + shards - 1) / shards,
		span:     uint64(closedMemoryFactor * maxPending),
		shards:   make([]modelShard, shards),
		deliver:  deliver,
	}
	for i := range m.shards {
		m.shards[i].entries = make(map[uint64]*modelEntry)
		m.shards[i].delivered = make(map[uint64]bool)
	}
	return m
}

func (m *modelReceiver) pending() int {
	n := 0
	for i := range m.shards {
		n += len(m.shards[i].order)
	}
	return n
}

// forget removes seq from the shard's incomplete symbols.
func (sh *modelShard) forget(seq uint64) {
	delete(sh.entries, seq)
	for i, s := range sh.order {
		if s == seq {
			sh.order = slices.Delete(sh.order, i, i+1)
			return
		}
	}
}

// evictOldest gives up on the shard's oldest incomplete symbol.
func (m *modelReceiver) evictOldest(sh *modelShard) {
	sh.forget(sh.order[0])
	m.stats.SymbolsEvicted++
}

func (m *modelReceiver) expire(sh *modelShard, now time.Duration) {
	for len(sh.order) > 0 && now-sh.entries[sh.order[0]].arrived >= m.timeout {
		m.evictOldest(sh)
	}
}

func (m *modelReceiver) tick(now time.Duration) {
	for i := range m.shards {
		m.expire(&m.shards[i], now)
	}
}

func (m *modelReceiver) handle(buf []byte, now time.Duration) {
	pkt, err := wire.Unmarshal(buf)
	if err != nil || pkt.M > maxLinks {
		m.stats.SharesInvalid++
		return
	}
	sh := &m.shards[shardix.Index(pkt.Seq, uint64(len(m.shards)-1))]
	m.expire(sh, now)
	if sh.delivered[pkt.Seq] || (pkt.Seq <= sh.top && sh.top-pkt.Seq >= m.span) {
		m.stats.SharesLate++
		return
	}
	e := sh.entries[pkt.Seq]
	if e == nil {
		for len(sh.order) >= m.perShard {
			m.evictOldest(sh)
		}
		e = &modelEntry{k: int(pkt.K), m: int(pkt.M), arrived: now, have: make(map[int]bool)}
		sh.entries[pkt.Seq] = e
		sh.order = append(sh.order, pkt.Seq)
	}
	switch {
	case int(pkt.K) != e.k || int(pkt.M) != e.m:
		m.stats.SharesInvalid++
	case e.have[int(pkt.Index)]:
		m.stats.SharesDuplicate++
	default:
		m.stats.SharesReceived++
		e.have[int(pkt.Index)] = true
		e.shares = append(e.shares, sharing.Share{Index: int(pkt.Index), Data: bytes.Clone(pkt.Payload)})
		if len(e.shares) < e.k {
			return
		}
		sh.forget(pkt.Seq)
		secret, err := m.scheme.Combine(e.shares, e.k, e.m)
		if err != nil {
			m.stats.CombineFailures++
			return
		}
		sh.delivered[pkt.Seq] = true
		sh.top = max(sh.top, pkt.Seq)
		m.stats.SymbolsDelivered++
		m.deliver(pkt.Seq, secret)
	}
}

// Script opcodes. A script is one configuration byte followed by 3-byte
// operations {op, sel, arg}: sel picks a share datagram (the symbol sel>>3
// back from the sender's newest, share index sel&7 mod m), arg parameterises
// the damage.
const (
	opShare    = iota // the datagram as sent (a repeat is a duplicate or late share)
	opNext            // the sender moves on to the next symbol, seq + 1 (wrapping past MaxUint64)
	opJump            // the sender moves on and skips seqs: see jumpSeq
	opClock           // the clock advances (sel+1) × 100 µs
	opTick            // Receiver.Tick
	opTruncate        // the datagram cut to arg mod its length
	opFlip            // one bit flipped on the wire
	opWide            // re-marshalled with M = 33 + arg mod 200
	opParams          // re-marshalled with K−1 (arg even) or M−1 (arg odd)
	opForge           // re-marshalled with payload byte arg>>4 XOR arg&15|1: CRC-valid, content wrong
	numOps
)

const (
	scriptTimeout = 5 * time.Millisecond
	scriptTick    = 100 * time.Microsecond
)

// jumpSeq is the seq opJump moves the sender to from seq, against a replay
// window of span seqs: one short of the span ahead (the old seq stays on the
// window's lower edge), exactly the span, several spans, or the last two
// seqs there are.
func jumpSeq(seq, span uint64, sel, arg byte) uint64 {
	switch sel % 4 {
	case 0:
		return seq + span - 1
	case 1:
		return seq + span
	case 2:
		return seq + 3*span + uint64(arg)
	default:
		return math.MaxUint64 - uint64(arg%2)
	}
}

type delivery struct {
	seq    uint64
	secret []byte
}

// scriptSymbol is one sent symbol and its m share datagrams.
type scriptSymbol struct {
	payload []byte
	shares  []wire.SharePacket
	dgrams  [][]byte
	// tainted is set once a CRC-valid datagram that the sender never made
	// (opParams, opForge) has been offered for this seq: its delivered bytes
	// are then whatever the scheme makes of them, and only agreement with
	// the model is asserted.
	tainted bool
}

// scriptConfig decodes the configuration byte: scheme, shard count and
// MaxPending, twelve combinations.
func scriptConfig(b byte) (name string, scheme sharing.Scheme, k, m, shards, maxPending int) {
	rnd := rand.New(rand.NewSource(21))
	switch b % 3 {
	case 0:
		name, scheme, k, m = "xor-3of3", sharing.NewXOR(rnd), 3, 3
	case 1:
		name, scheme, k, m = "shamir-3of5", sharing.NewShamir(rnd), 3, 5
	default:
		auth, err := sharing.NewAuthenticated(sharing.NewShamir(rnd), []byte("receiver-model-key"))
		if err != nil {
			panic(err)
		}
		name, scheme, k, m = "auth-3of5", auth, 3, 5
	}
	shards = 1 + int(b/3)%2
	maxPending = 4
	if (b/6)%2 == 1 {
		maxPending = 256
	}
	return name, scheme, k, m, shards, maxPending
}

// runReceiverScript drives a Receiver and the model with the same datagrams
// on the same fake clock and compares them after every operation. It returns
// the final counters.
func runReceiverScript(t *testing.T, prog []byte) ReceiverStats {
	t.Helper()
	if len(prog) == 0 {
		return ReceiverStats{}
	}
	name, scheme, k, m, shards, maxPending := scriptConfig(prog[0])

	var now time.Duration
	var got, want []delivery
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:     scheme,
		Clock:      func() time.Duration { return now },
		Timeout:    scriptTimeout,
		MaxPending: maxPending,
		Shards:     shards,
		OnSymbol: func(seq uint64, payload []byte, _ time.Duration) {
			got = append(got, delivery{seq, bytes.Clone(payload)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	model := newModelReceiver(scheme, scriptTimeout, maxPending, shards, func(seq uint64, secret []byte) {
		want = append(want, delivery{seq, secret})
	})

	symbols := make(map[uint64]*scriptSymbol)
	symbol := func(seq uint64) *scriptSymbol {
		if s := symbols[seq]; s != nil {
			return s
		}
		s := &scriptSymbol{payload: make([]byte, 5+seq%12)}
		for j := range s.payload {
			s.payload[j] = byte(seq*31 + uint64(j)*7 + 1)
		}
		shares, err := scheme.Split(s.payload, k, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shares {
			pkt := wire.SharePacket{Seq: seq, K: uint8(k), M: uint8(m), Index: uint8(sh.Index), Payload: sh.Data}
			d, err := wire.Marshal(pkt)
			if err != nil {
				t.Fatal(err)
			}
			s.shares = append(s.shares, pkt)
			s.dgrams = append(s.dgrams, d)
		}
		symbols[seq] = s
		return s
	}

	delivered := make(map[uint64]bool)
	sent := []uint64{0} // the seqs the sender has reached, in order
	checked := 0
	for pc := 1; pc+2 < len(prog); pc += 3 {
		op, sel, arg := prog[pc]%numOps, prog[pc+1], prog[pc+2]
		sym := symbol(sent[max(0, len(sent)-1-int(sel>>3))])
		idx := int(sel&7) % m

		var dgram []byte
		switch op {
		case opNext:
			sent = append(sent, sent[len(sent)-1]+1)
			continue
		case opJump:
			sent = append(sent, jumpSeq(sent[len(sent)-1], model.span, sel, arg))
			continue
		case opClock:
			now += time.Duration(sel+1) * scriptTick
			continue
		case opTick:
			recv.Tick()
			model.tick(now)
		case opShare:
			dgram = sym.dgrams[idx]
		case opTruncate:
			dgram = sym.dgrams[idx][:int(arg)%len(sym.dgrams[idx])]
		case opFlip:
			dgram = bytes.Clone(sym.dgrams[idx])
			bit := (int(arg) * 37) % (8 * len(dgram))
			dgram[bit/8] ^= 1 << (bit % 8)
		case opWide, opParams, opForge:
			pkt := sym.shares[idx]
			switch {
			case op == opWide:
				pkt.M = uint8(33 + int(arg)%200)
			case op == opForge:
				pkt.Payload = bytes.Clone(pkt.Payload)
				pkt.Payload[int(arg>>4)%len(pkt.Payload)] ^= arg&15 | 1
			case arg%2 == 0:
				pkt.K--
			default:
				pkt.M--
			}
			dgram, err = wire.Marshal(pkt)
			if err != nil {
				continue // the damaged header is not even marshalable (k = 0, index ≥ m)
			}
			if op != opWide {
				sym.tainted = true
			}
		}
		if op != opTick {
			recv.HandleDatagram(dgram)
			model.handle(dgram, now)
		}

		if g, w := recv.Stats(), model.stats; g != w {
			t.Fatalf("%s shards=%d cap=%d, op %d (%d sel=%#x arg=%#x): stats %+v, model %+v", name, shards, maxPending, pc/3, op, sel, arg, g, w)
		}
		if g, w := recv.Pending(), model.pending(); g != w || g > model.perShard*shards {
			t.Fatalf("%s shards=%d cap=%d, op %d: pending %d, model %d, cap %d", name, shards, maxPending, pc/3, g, w, model.perShard*shards)
		}
		if len(got) != len(want) {
			t.Fatalf("%s shards=%d cap=%d, op %d: %d deliveries, model %d", name, shards, maxPending, pc/3, len(got), len(want))
		}
		for ; checked < len(got); checked++ {
			g, w := got[checked], want[checked]
			if g.seq != w.seq || !bytes.Equal(g.secret, w.secret) {
				t.Fatalf("%s: delivery %d is seq %d %x, model seq %d %x", name, checked, g.seq, g.secret, w.seq, w.secret)
			}
			if s := symbols[g.seq]; !s.tainted && !bytes.Equal(g.secret, s.payload) {
				t.Fatalf("%s: seq %d delivered %x, sent %x", name, g.seq, g.secret, s.payload)
			}
			if delivered[g.seq] {
				t.Fatalf("%s: seq %d delivered twice", name, g.seq)
			}
			delivered[g.seq] = true
		}
	}
	return model.stats
}

// script assembles operations behind a configuration byte.
func script(config byte, ops ...[3]byte) []byte {
	out := []byte{config}
	for _, o := range ops {
		out = append(out, o[:]...)
	}
	return out
}

func share(back, idx int) [3]byte { return [3]byte{opShare, byte(back<<3 | idx), 0} }
func forge(back, idx int) [3]byte { return [3]byte{opForge, byte(back<<3 | idx), 0x21} }
func jump(kind, arg byte) [3]byte { return [3]byte{opJump, kind, arg} }
func clock(d time.Duration) [3]byte {
	return [3]byte{opClock, byte(d/scriptTick - 1), 0}
}

var (
	next = [3]byte{opNext, 0, 0}
	tick = [3]byte{opTick, 0, 0}
)

// handScripts are the reassembly cases worth naming, each run under all
// twelve configurations.
func handScripts(config byte) [][]byte {
	// Late: k shares deliver, the next is late at once, the one after the
	// timeout as late as ever.
	late := script(config, share(0, 0), share(0, 1), share(0, 2), share(0, 3), share(0, 1),
		clock(6*time.Millisecond), tick, share(0, 4), share(0, 0))

	// Incomplete eviction: one share times out, the rest re-admit the seq
	// and complete it.
	readmit := script(config, share(0, 0), clock(6*time.Millisecond), share(0, 1), share(0, 2), share(0, 0),
		share(0, 3), share(0, 4))

	// Pressure: one share each of more symbols than the cap holds, then the
	// oldest's remaining shares.
	var pressure [][3]byte
	for i := 0; i < 12; i++ {
		pressure = append(pressure, share(0, 0), next)
	}
	pressure = append(pressure, share(12, 1), share(12, 2), share(12, 3), share(11, 1), share(11, 2))

	// Window slide: deliver more symbols in order than one shard of cap 4
	// spans, then send stragglers for the newest, for the oldest (behind the
	// window: late, and k more shares of it late again) and for the ones
	// either side of the window's lower edge.
	var slide [][3]byte
	for i := 0; i < 20; i++ {
		slide = append(slide, share(0, 0), share(0, 1), share(0, 2), clock(6*time.Millisecond), next)
	}
	slide = append(slide, share(1, 1), share(20, 0), share(20, 1), share(20, 2), share(20, 2), share(3, 0),
		share(17, 0), share(16, 0), share(15, 0))

	// Lower edge: three symbols one share short, then a symbol span−1 ahead
	// of the last is delivered, which leaves that one on the window's edge
	// and the two before it behind it. Their missing shares arrive newest
	// first: one closes its symbol out of seq order, two are late against
	// entries the window overtook, and those leave by timeout, as evictions.
	edge := script(config, share(0, 0), share(0, 1), next, share(0, 0), share(0, 1), next, share(0, 0), share(0, 1),
		jump(0, 0), share(0, 0), share(0, 1), share(0, 2),
		share(1, 2), share(2, 2), share(3, 2), share(1, 3), share(2, 3),
		clock(6*time.Millisecond), tick, share(2, 0), share(3, 0))

	// Slot reuse: seq 0 is delivered, then seq span+1, then seq span, whose
	// bit is the one seq 0 used: it must have been cleared on the way.
	reuse := script(config, share(0, 0), share(0, 1), share(0, 2), jump(1, 0), next,
		share(0, 0), share(0, 1), share(0, 2), share(1, 0), share(1, 1), share(1, 2), share(1, 3), share(2, 3))

	// Jumps: exactly the span, then several, with stragglers for what each
	// leaves behind; then the last two seqs there are, and the wrap to 0,
	// which is behind the window for good.
	jumps := script(config, share(0, 0), share(0, 1), share(0, 2), next, share(0, 0),
		jump(1, 0), share(0, 0), share(0, 1), share(0, 2), share(1, 1), share(1, 2), share(2, 3),
		jump(2, 77), share(0, 0), share(0, 1), share(0, 2), share(1, 3), share(2, 2),
		jump(3, 1), share(0, 0), share(0, 1), share(0, 2), share(0, 3), share(1, 4),
		next, share(0, 1), share(0, 2), share(0, 0), share(1, 4), share(0, 4),
		next, share(0, 0), share(0, 1), share(0, 2), share(4, 4))

	// Forged future: k forged shares of a seq several spans ahead. Under the
	// authenticated scheme they fail to combine and top stays where it was,
	// so seq 1 is still admitted and delivered, and so is the far seq once
	// its honest shares come. (Unauthenticated Shamir combines the forgery,
	// delivers wrong bytes and moves the window: the receiver and the model
	// agree on that too.)
	forged := script(config, share(0, 0), share(0, 1), share(0, 2), next, jump(2, 5),
		forge(0, 0), forge(0, 1), forge(0, 2), share(1, 0), share(1, 1), share(1, 2),
		share(0, 0), share(0, 1), share(0, 2), share(0, 3))

	// Damage: every malformed kind against a fresh, a filling and a delivered seq.
	damage := script(config,
		[3]byte{opWide, 0, 7}, [3]byte{opTruncate, 1, 20}, [3]byte{opFlip, 1, 3}, share(0, 0),
		[3]byte{opParams, 1, 0}, [3]byte{opParams, 1, 1}, [3]byte{opWide, 1, 200}, share(0, 1),
		[3]byte{opFlip, 2, 200}, share(0, 2), [3]byte{opForge, 3, 9}, [3]byte{opParams, 3, 0}, next,
		// A forged share among the first k, its first byte — Shamir's
		// x-coordinate — turned into share 0's: Shamir and authenticated
		// refuse to combine, XOR delivers the wrong bytes.
		share(0, 0), [3]byte{opForge, 1, 0x03}, share(0, 2), share(0, 1), share(0, 3), next,
		// A wrong-(k, m) share first: it fixes the entry and the honest ones are refused.
		[3]byte{opParams, 0, 0}, share(0, 1), share(0, 2), [3]byte{opParams, 3, 0}, share(0, 4), next,
		[3]byte{opParams, 0, 1}, share(0, 1), [3]byte{opParams, 1, 1}, [3]byte{opParams, 2, 1},
		clock(6*time.Millisecond), tick)

	return [][]byte{late, readmit, script(config, pressure...), script(config, slide...), edge, reuse, jumps, forged, damage}
}

// lossyScript is the lossy benchmark workload's shape: each share is dropped
// with probability 0.25, duplicated 0.05, bit-flipped 0.02 or held back
// 20 ms with 0.05, against the 5 ms reassembly timeout, one symbol a
// millisecond so a held share lands 20 symbols later.
func lossyScript(config byte, seed int64, symbols int) []byte {
	_, _, _, m, _, _ := scriptConfig(config)
	rnd := rand.New(rand.NewSource(seed))
	const holdFor = 20 // symbols
	held := make(map[int][]int)
	var ops [][3]byte
	for s := 0; s < symbols; s++ {
		for _, idx := range held[s] {
			ops = append(ops, share(holdFor, idx))
		}
		for idx := 0; idx < m; idx++ {
			switch u := rnd.Float64(); {
			case u < 0.25:
			case u < 0.30:
				ops = append(ops, share(0, idx), share(0, idx))
			case u < 0.32:
				ops = append(ops, [3]byte{opFlip, byte(idx), byte(rnd.Intn(256))})
			case u < 0.37:
				held[s+holdFor] = append(held[s+holdFor], idx)
			default:
				ops = append(ops, share(0, idx))
			}
		}
		ops = append(ops, clock(time.Millisecond), next)
	}
	return script(config, ops...)
}

// randomScript draws n operations with a stream's proportions — mostly
// shares of the last few symbols, some progress and time, a little of each
// kind of damage — where uniform bytes would be two thirds damage and
// complete almost nothing.
func randomScript(config byte, seed int64, n int) []byte {
	rnd := rand.New(rand.NewSource(seed))
	ops := make([][3]byte, n)
	for i := range ops {
		back := rnd.Intn(4)
		if rnd.Intn(8) == 0 {
			back = rnd.Intn(32)
		}
		sel, arg := byte(back<<3|rnd.Intn(8)), byte(rnd.Intn(256))
		switch u := rnd.Intn(100); {
		case u < 60:
			ops[i] = [3]byte{opShare, sel, arg}
		case u < 71:
			ops[i] = next
		case u < 72:
			ops[i] = jump(byte(rnd.Intn(3)), arg)
		case u < 80:
			ops[i] = clock(time.Duration(1+rnd.Intn(30)) * 200 * time.Microsecond)
		case u < 82:
			ops[i] = tick
		default:
			ops[i] = [3]byte{byte(opTruncate + rnd.Intn(numOps-opTruncate)), sel, arg}
		}
	}
	return script(config, ops...)
}

// TestReceiverMatchesModel runs the named scripts, the lossy shape and a
// few thousand random operations under every configuration, and checks that
// between them they reach every counter.
func TestReceiverMatchesModel(t *testing.T) {
	for config := byte(0); config < 12; config++ {
		scripts := append(handScripts(config), lossyScript(config, 1, 400), randomScript(config, int64(config), 4000))
		var sum ReceiverStats
		for _, s := range scripts {
			st := runReceiverScript(t, s)
			sum.SharesReceived += st.SharesReceived
			sum.SharesInvalid += st.SharesInvalid
			sum.SharesDuplicate += st.SharesDuplicate
			sum.SharesLate += st.SharesLate
			sum.SymbolsDelivered += st.SymbolsDelivered
			sum.SymbolsEvicted += st.SymbolsEvicted
			sum.CombineFailures += st.CombineFailures
		}
		if sum.SharesReceived*sum.SharesInvalid*sum.SharesDuplicate*sum.SharesLate*
			sum.SymbolsDelivered*sum.SymbolsEvicted*sum.CombineFailures == 0 {
			name, _, _, _, shards, maxPending := scriptConfig(config)
			t.Errorf("%s shards=%d cap=%d: a counter the scripts never moved: %+v", name, shards, maxPending, sum)
		}
	}
}

// FuzzReceiver lets the fuzzer write the script: its bytes pick the
// configuration, drive the clock, move the sender's seq by one or by spans
// of the replay window and interleave valid, duplicate, late, truncated,
// bit-flipped, M > 32, wrong-(k, m), forged and re-admitted datagrams.
func FuzzReceiver(f *testing.F) {
	for config := byte(0); config < 12; config++ {
		for _, s := range handScripts(config) {
			f.Add(s)
		}
	}
	// The lossy workload itself: authenticated 3-of-5, MaxPending 256, at
	// one shard and two.
	f.Add(lossyScript(8, 1, 120))
	f.Add(lossyScript(11, 2, 120))
	f.Add(lossyScript(2, 3, 120))
	f.Fuzz(func(t *testing.T, prog []byte) {
		runReceiverScript(t, prog)
	})
}

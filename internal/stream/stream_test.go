package stream

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestWriterChunksExactly(t *testing.T) {
	var sent [][]byte
	w, err := NewWriter(func(p []byte) error {
		sent = append(sent, append([]byte(nil), p...))
		return nil
	}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.Write([]byte("abcdefghij")) // 10 bytes -> 4+4+2
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("wrote %d, want 10", n)
	}
	want := [][]byte{[]byte("abcd"), []byte("efgh"), []byte("ij")}
	if len(sent) != len(want) {
		t.Fatalf("sent %d chunks, want %d", len(sent), len(want))
	}
	for i := range want {
		if !bytes.Equal(sent[i], want[i]) {
			t.Errorf("chunk %d = %q, want %q", i, sent[i], want[i])
		}
	}
}

func TestWriterRetries(t *testing.T) {
	fails := 3
	attempts := 0
	w, err := NewWriter(func(p []byte) error {
		attempts++
		if fails > 0 {
			fails--
			return errors.New("backpressure")
		}
		return nil
	}, 8, func(error) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if attempts != 4 {
		t.Errorf("attempts = %d, want 4", attempts)
	}
}

func TestWriterGivesUp(t *testing.T) {
	w, err := NewWriter(func([]byte) error { return errors.New("down") }, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrWriterStopped) {
		t.Errorf("got %v, want ErrWriterStopped", err)
	}
	// Subsequent writes fail fast.
	if _, err := w.Write([]byte("y")); !errors.Is(err, ErrWriterStopped) {
		t.Errorf("got %v, want ErrWriterStopped", err)
	}
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(nil, 8, nil); err == nil {
		t.Error("nil send accepted")
	}
	if _, err := NewWriter(func([]byte) error { return nil }, 0, nil); err == nil {
		t.Error("zero chunk size accepted")
	}
}

func TestOrdererInOrderPassthrough(t *testing.T) {
	var got []uint64
	o, err := NewOrderer(8, func(seq uint64, _ []byte) { got = append(got, seq) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 10; seq++ {
		o.Push(seq, nil)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestOrdererReordersWithinWindow(t *testing.T) {
	var got []uint64
	o, err := NewOrderer(16, func(seq uint64, _ []byte) { got = append(got, seq) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	perm := []uint64{3, 0, 1, 5, 2, 4, 7, 6}
	for _, seq := range perm {
		o.Push(seq, nil)
	}
	if len(got) != len(perm) {
		t.Fatalf("delivered %d of %d", len(got), len(perm))
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("order = %v", got)
		}
	}
	if st := o.Stats(); st.Skipped != 0 || st.Delivered != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOrdererSkipsPersistentGap(t *testing.T) {
	var got []uint64
	var gaps [][2]uint64
	o, err := NewOrderer(4, func(seq uint64, _ []byte) { got = append(got, seq) },
		func(first, n uint64) { gaps = append(gaps, [2]uint64{first, n}) })
	if err != nil {
		t.Fatal(err)
	}
	// Sequence 0 never arrives; 1..6 do. Window 4 forces the skip.
	for seq := uint64(1); seq <= 6; seq++ {
		o.Push(seq, nil)
	}
	if len(gaps) != 1 || gaps[0] != [2]uint64{0, 1} {
		t.Fatalf("gaps = %v, want [[0 1]]", gaps)
	}
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("delivery after skip = %v", got)
	}
	if st := o.Stats(); st.Skipped != 1 {
		t.Errorf("skipped = %d", st.Skipped)
	}
}

func TestOrdererWideGap(t *testing.T) {
	var got []uint64
	var gaps [][2]uint64
	o, err := NewOrderer(2, func(seq uint64, _ []byte) { got = append(got, seq) },
		func(first, n uint64) { gaps = append(gaps, [2]uint64{first, n}) })
	if err != nil {
		t.Fatal(err)
	}
	// 0, 1, 2 all missing; 3, 4, 5 arrive.
	o.Push(3, nil)
	o.Push(4, nil)
	o.Push(5, nil)
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("got %v", got)
	}
	if st := o.Stats(); st.Skipped != 3 {
		t.Errorf("skipped = %d, want 3", st.Skipped)
	}
	// One gap, reported once with its length.
	if len(gaps) != 1 || gaps[0] != [2]uint64{0, 3} {
		t.Errorf("gaps = %v, want [[0 3]]", gaps)
	}
}

// TestOrdererHugeGapOneStep pins the cost of a gap to its count, not its
// length: a jump of 2^40 (a sender restarting at another first sequence
// number, or a forged symbol) is skipped at once.
func TestOrdererHugeGapOneStep(t *testing.T) {
	const jump = uint64(1) << 40
	var got []uint64
	calls := 0
	o, err := NewOrderer(1, func(seq uint64, _ []byte) { got = append(got, seq) },
		func(first, n uint64) {
			calls++
			if first != 0 || n != jump {
				t.Errorf("onGap(%d, %d), want (0, %d)", first, n, jump)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	o.Push(jump, nil)
	o.Push(jump+1, nil)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("skipping a 2^40 gap took %v", elapsed)
	}
	if st := o.Stats(); st.Skipped != int64(jump) || st.Delivered != 2 {
		t.Errorf("stats = %+v, want Skipped %d, Delivered 2", st, jump)
	}
	if calls != 1 || len(got) != 2 || got[0] != jump || got[1] != jump+1 {
		t.Errorf("onGap calls = %d, delivered %v", calls, got)
	}

	// A gap past 2^63 saturates the count instead of wrapping it negative.
	o.onGap = nil
	o.Push(math.MaxUint64-1, nil)
	o.Flush()
	if st := o.Stats(); st.Skipped != math.MaxInt64 {
		t.Errorf("skipped after a 2^64 jump = %d, want %d", st.Skipped, int64(math.MaxInt64))
	}
}

func TestOrdererStaleAndDuplicate(t *testing.T) {
	o, err := NewOrderer(8, func(uint64, []byte) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Push(0, nil)
	o.Push(0, nil) // stale (already delivered)
	o.Push(5, nil)
	o.Push(5, nil) // duplicate (still pending)
	st := o.Stats()
	if st.Stale != 1 {
		t.Errorf("stale = %d, want 1", st.Stale)
	}
	if st.Duplicate != 1 {
		t.Errorf("duplicate = %d, want 1", st.Duplicate)
	}
}

func TestOrdererFlush(t *testing.T) {
	var got []uint64
	o, err := NewOrderer(64, func(seq uint64, _ []byte) { got = append(got, seq) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Push(2, nil)
	o.Push(4, nil)
	if len(got) != 0 {
		t.Fatalf("premature delivery: %v", got)
	}
	o.Flush()
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("flush delivered %v", got)
	}
	if o.Pending() != 0 {
		t.Errorf("pending = %d after flush", o.Pending())
	}
}

func TestOrdererValidation(t *testing.T) {
	if _, err := NewOrderer(8, nil, nil); err == nil {
		t.Error("nil deliver accepted")
	}
	if _, err := NewOrderer(0, func(uint64, []byte) {}, nil); err == nil {
		t.Error("zero window accepted")
	}
}

// TestOrdererQuickPermutations: any permutation of a prefix window delivers
// everything in order without skips.
func TestOrdererQuickPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(nSeed uint8) bool {
		n := int(nSeed)%32 + 1
		var got []uint64
		o, err := NewOrderer(n, func(seq uint64, _ []byte) { got = append(got, seq) }, nil)
		if err != nil {
			return false
		}
		perm := rng.Perm(n)
		for _, v := range perm {
			o.Push(uint64(v), nil)
		}
		if len(got) != n {
			return false
		}
		for i, seq := range got {
			if seq != uint64(i) {
				return false
			}
		}
		return o.Stats().Skipped == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWriterOrdererRoundtrip pipes data through both adapters with a
// shuffled middle, reconstructing the byte stream.
func TestWriterOrdererRoundtrip(t *testing.T) {
	var symbols [][]byte
	w, err := NewWriter(func(p []byte) error {
		symbols = append(symbols, append([]byte(nil), p...))
		return nil
	}, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	o, err := NewOrderer(len(symbols), func(_ uint64, p []byte) { out.Write(p) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	order := rand.New(rand.NewSource(10)).Perm(len(symbols))
	for _, i := range order {
		o.Push(uint64(i), symbols[i])
	}
	o.Flush()
	if !bytes.Equal(out.Bytes(), data) {
		t.Error("roundtrip corrupted the stream")
	}
}

// TestOrdererCopiesWaitingPayloads checks that Push reads its payload only
// during the call: a symbol that must wait keeps its bytes when the caller
// overwrites the pushed slice afterwards, as a Receiver wiping its lent
// payload does.
func TestOrdererCopiesWaitingPayloads(t *testing.T) {
	got := map[uint64]string{}
	o, err := NewOrderer(8, func(seq uint64, p []byte) { got[seq] = string(p) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	lent := make([]byte, 5)
	for _, sym := range []struct {
		seq     uint64
		payload string
	}{{2, "two.."}, {1, "one.."}, {0, "zero."}, {4, "four."}, {3, "three"}} {
		copy(lent, sym.payload)
		o.Push(sym.seq, lent)
		clear(lent)
	}
	want := map[uint64]string{0: "zero.", 1: "one..", 2: "two..", 3: "three", 4: "four."}
	if !maps.Equal(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
}

package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"remicss"
	"remicss/internal/drbg"
	"remicss/internal/gf256"
	"remicss/internal/sharing"
	"remicss/internal/wire"
)

// probeCost is what an isolated probe measures per call.
type probeCost struct {
	ns, allocs, bytes float64
}

// timeLoop calls f in batches for about budget and returns the median batch's
// time per call, with allocations and bytes per call over the whole loop.
// prepare, when non-nil, runs untimed before every batch of n calls.
func timeLoop(budget time.Duration, n int, prepare, f func()) probeCost {
	var before, after runtime.MemStats
	var perCall []float64
	calls := 0
	runtime.ReadMemStats(&before)
	var preparedAllocs, preparedBytes uint64
	for start := time.Now(); time.Since(start) < budget || len(perCall) < 3; {
		if prepare != nil {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			prepare()
			runtime.ReadMemStats(&b)
			preparedAllocs += b.Mallocs - a.Mallocs
			preparedBytes += b.TotalAlloc - a.TotalAlloc
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		perCall = append(perCall, float64(time.Since(t0))/float64(n))
		calls += n
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(perCall)
	return probeCost{
		ns:     perCall[(len(perCall)-1)/2],
		allocs: float64(after.Mallocs-before.Mallocs-preparedAllocs) / float64(calls),
		bytes:  float64(after.TotalAlloc-before.TotalAlloc-preparedBytes) / float64(calls),
	}
}

// batchFor sizes a batch of calls to last about a millisecond.
func batchFor(f func()) int {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	if d <= 0 {
		d = 1
	}
	n := int(time.Millisecond / d)
	if n < 1 {
		n = 1
	}
	return n
}

// discardLink accepts every datagram and drops it: the sender probe's
// transport.
type discardLink struct{}

func (discardLink) Send([]byte) bool       { return true }
func (discardLink) Writable() bool         { return true }
func (discardLink) Backlog() time.Duration { return 0 }

// runProbes times single layers in isolation, at the workload's symbol size,
// k and m, through the same public functions the data path calls. Nothing
// else runs in the process meanwhile.
func runProbes(w *workload, seed uint64, budget time.Duration, m map[string]float64) error {
	const probes = 10
	each := budget / probes
	k, mm := w.k(), w.m()
	secret := buildPool(seed, w.Size)[0]
	scheme, err := w.scheme(nil)
	if err != nil {
		return err
	}

	// sharing: SplitInto and CombineInto with recycled buffers, as the
	// sender and receiver call them.
	var shares []sharing.Share
	var splitErr error
	split := func() { shares, splitErr = sharing.SplitInto(scheme, secret, k, mm, shares) }
	c := timeLoop(each, batchFor(split), nil, split)
	if splitErr != nil {
		return fmt.Errorf("split probe: %w", splitErr)
	}
	m["sharing.split_iso_ns"], m["sharing.split_iso_allocs"], m["sharing.split_iso_B"] = c.ns, c.allocs, c.bytes

	var dst []byte
	var combineErr error
	combine := func() { dst, combineErr = sharing.CombineInto(scheme, dst, shares[:k], k, mm) }
	c = timeLoop(each, batchFor(combine), nil, combine)
	if combineErr != nil {
		return fmt.Errorf("combine probe: %w", combineErr)
	}
	m["sharing.combine_iso_ns"], m["sharing.combine_iso_allocs"] = c.ns, c.allocs

	// drbg and gf256: what a Shamir split is made of.
	buf := make([]byte, w.Size)
	var readErr error
	read := func() { _, readErr = drbg.Shared.Read(buf) }
	c = timeLoop(each, batchFor(read), nil, read)
	if readErr != nil {
		return fmt.Errorf("drbg probe: %w", readErr)
	}
	m["drbg.read_ns_per_KiB"], m["drbg.read_allocs"] = c.ns*1024/float64(w.Size), c.allocs

	acc := make([]byte, w.Size)
	addmul := func() { gf256.AddMulSlice(acc, buf, 0x53) }
	c = timeLoop(each, batchFor(addmul), nil, addmul)
	m["gf256.addmul_GBps"] = float64(w.Size) / c.ns

	// wire: one share's marshal and unmarshal, in the header version the
	// workload's sender emits.
	pkt := wire.SharePacket{Seq: 1, K: uint8(k), M: uint8(mm), Index: 0, SentAt: 1, Payload: shares[0].Data}
	marshalInto := func(d []byte, p wire.SharePacket) ([]byte, error) {
		if w.Sessions > 1 {
			return wire.AppendMarshalSession(d, p)
		}
		return wire.AppendMarshal(d, p)
	}
	if w.Sessions > 1 {
		pkt.Session = 1
	}
	var dgram []byte
	var wireErr error
	marshal := func() { dgram, wireErr = marshalInto(dgram[:0], pkt) }
	c = timeLoop(each, batchFor(marshal), nil, marshal)
	if wireErr != nil {
		return fmt.Errorf("marshal probe: %w", wireErr)
	}
	m["wire.marshal_ns"] = c.ns
	unmarshal := func() { _, wireErr = wire.Unmarshal(dgram) }
	c = timeLoop(each, batchFor(unmarshal), nil, unmarshal)
	if wireErr != nil {
		return fmt.Errorf("unmarshal probe: %w", wireErr)
	}
	m["wire.unmarshal_ns"] = c.ns

	// Sender over links that discard: choose, split, marshal, bookkeeping,
	// no socket.
	chooser, err := w.chooser(seed, 0, nil)
	if err != nil {
		return err
	}
	links := make([]remicss.Link, w.Channels)
	for i := range links {
		links[i] = discardLink{}
	}
	sender, err := remicss.NewSender(remicss.SenderConfig{Scheme: scheme, Chooser: chooser, Clock: remicss.WallClock}, links)
	if err != nil {
		return err
	}
	var sendErr error
	send := func() { sendErr = sender.Send(secret) }
	c = timeLoop(each, batchFor(send), nil, send)
	if sendErr != nil {
		return fmt.Errorf("sender probe: %w", sendErr)
	}
	m["remicss.sender.iso_ns"], m["remicss.sender.iso_allocs"] = c.ns, c.allocs

	// Receiver fed m pre-marshaled shares per symbol straight into
	// HandleDatagram: unmarshal, reassembly, combine, delivery, no socket.
	// Each batch's datagrams are re-marshaled (untimed) with fresh sequence
	// numbers, because the receiver refuses a sequence it has delivered.
	recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme: scheme, Clock: remicss.WallClock, OnSymbol: func(uint64, []byte, time.Duration) {},
		Timeout: w.Timeout, MaxPending: w.MaxPending,
	})
	if err != nil {
		return err
	}
	const symbolsPerBatch = 64
	dgrams := make([][]byte, symbolsPerBatch*mm)
	seq, next := uint64(0), 0
	remarshal := func() {
		for s := 0; s < symbolsPerBatch; s++ {
			seq++
			for i := 0; i < mm; i++ {
				p := wire.SharePacket{Seq: seq, K: uint8(k), M: uint8(mm), Index: uint8(shares[i].Index), SentAt: 1, Payload: shares[i].Data}
				dgrams[s*mm+i], wireErr = wire.AppendMarshal(dgrams[s*mm+i][:0], p)
			}
		}
		next = 0
	}
	replay := func() {
		for i := 0; i < mm; i++ {
			recv.HandleDatagram(dgrams[next])
			next++
		}
	}
	c = timeLoop(each, symbolsPerBatch, remarshal, replay)
	if wireErr != nil {
		return fmt.Errorf("receiver probe: %w", wireErr)
	}
	if got := recv.Stats().SymbolsDelivered; got != int64(seq) {
		return fmt.Errorf("receiver probe: %d of %d symbols delivered", got, seq)
	}
	m["remicss.receiver.iso_ns_per_symbol"], m["remicss.receiver.iso_allocs_per_symbol"] = c.ns, c.allocs

	// Gateway dispatch alone: the workload's session count, no-op handlers,
	// one datagram per session in turn.
	m["gateway.dispatch_iso_ns"] = 0
	if w.Sessions > 1 {
		gw := remicss.NewGateway(remicss.GatewayConfig{})
		perSession := make([][]byte, w.Sessions)
		for i := range perSession {
			if _, err := gw.Register(uint64(i+1), fmt.Sprintf("tenant-%d", i%tenantLabels), func([]byte) {}); err != nil {
				return err
			}
			pkt.Session = uint64(i + 1)
			if perSession[i], err = wire.AppendMarshalSession(nil, pkt); err != nil {
				return err
			}
		}
		i := 0
		dispatch := func() {
			gw.Dispatch(perSession[i])
			if i++; i == len(perSession) {
				i = 0
			}
		}
		c = timeLoop(each, batchFor(dispatch)*64, nil, dispatch)
		m["gateway.dispatch_iso_ns"] = c.ns
	}
	return nil
}

// Command remicss-xfer transfers a file privately over multiple UDP
// channels using the ReMICSS protocol: every chunk is split into shares
// (threshold κ of μ) and no single channel ever carries enough to
// reconstruct the data.
//
// Receiver (prints the channel addresses to give the sender):
//
//	remicss-xfer recv -listen 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 -out got.bin
//
// Sender:
//
//	remicss-xfer send -to 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//	    -kappa 2 -mu 3 -in secret.bin
//
// Transport is best-effort (the protocol's semantics): on lossy paths pick
// μ-κ redundancy accordingly. The receiver reports any missing chunks.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"remicss"
)

// endOffset marks the end-of-stream symbol; its payload is the total file
// size.
const endOffset = ^uint64(0)

// buildScheme returns the sharing scheme, authenticated when a key is set.
func buildScheme(key string) (remicss.SharingScheme, error) {
	base := remicss.NewSharingScheme(nil)
	if key == "" {
		return base, nil
	}
	return remicss.NewAuthenticatedScheme(base, []byte(key))
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "remicss-xfer:", err)
		os.Exit(1)
	}
}

// startMetrics starts the observability endpoint when addr is non-empty,
// returning the registry and trace to wire into the session and a cleanup
// function (a no-op when metrics are disabled).
func startMetrics(addr string) (*remicss.MetricsRegistry, *remicss.EventTrace, func(), error) {
	if addr == "" {
		return nil, nil, func() {}, nil
	}
	reg := remicss.NewMetricsRegistry()
	trace := remicss.NewEventTrace(0)
	srv, err := remicss.StartMetricsServer(addr, reg, trace)
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("metrics on http://%s/metrics\n", srv.Addr())
	return reg, trace, func() { srv.Close() }, nil
}

func run(args []string) error {
	if len(args) < 1 {
		return errors.New("usage: remicss-xfer {send|recv} [flags]")
	}
	switch args[0] {
	case "send":
		return send(args[1:])
	case "recv":
		return recv(args[1:])
	default:
		return fmt.Errorf("unknown mode %q (want send or recv)", args[0])
	}
}

func send(args []string) error {
	fs := flag.NewFlagSet("send", flag.ContinueOnError)
	var (
		to      = fs.String("to", "", "comma-separated receiver channel addresses")
		in      = fs.String("in", "", "file to send")
		kappa   = fs.Float64("kappa", 2, "average threshold κ")
		mu      = fs.Float64("mu", 3, "average multiplicity μ")
		chunk   = fs.Int("chunk", 1200, "chunk size in bytes")
		seed    = fs.Int64("seed", time.Now().UnixNano(), "randomness seed for the schedule dither")
		key     = fs.String("key", "", "pre-shared key: authenticate shares (HMAC) so tampering is detected")
		metrics = fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /trace, and pprof on this address (e.g. 127.0.0.1:9090)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" || *in == "" {
		return errors.New("send requires -to and -in")
	}
	addrs := strings.Split(*to, ",")
	if err := (remicss.Params{Kappa: *kappa, Mu: *mu}).Validate(make(remicss.ChannelSet, len(addrs))); err != nil {
		return err
	}
	scheme, err := buildScheme(*key)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	links, err := remicss.DialUDP(addrs, nil, 0)
	if err != nil {
		return err
	}
	defer func() {
		for _, l := range links {
			l.(*remicss.UDPLink).Close()
		}
	}()

	reg, trace, closeMetrics, err := startMetrics(*metrics)
	if err != nil {
		return err
	}
	defer closeMetrics()
	if reg != nil {
		for i, l := range links {
			l.(*remicss.UDPLink).Instrument(reg, i)
		}
	}

	chooser, err := remicss.NewDynamicChooser(*kappa, *mu, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	snd, err := remicss.NewSender(remicss.SenderConfig{
		Scheme:  scheme,
		Chooser: chooser,
		Clock:   remicss.WallClock,
		Metrics: reg,
		Trace:   trace,
	}, links)
	if err != nil {
		return err
	}

	start := time.Now()
	sendSymbol := func(payload []byte) error {
		for {
			err := snd.Send(payload)
			if err == nil {
				return nil
			}
			if !errors.Is(err, remicss.ErrBackpressure) {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}
	for off := 0; off < len(data); off += *chunk {
		end := off + *chunk
		if end > len(data) {
			end = len(data)
		}
		payload := make([]byte, 8+end-off)
		binary.BigEndian.PutUint64(payload, uint64(off))
		copy(payload[8:], data[off:end])
		if err := sendSymbol(payload); err != nil {
			return fmt.Errorf("chunk at %d: %w", off, err)
		}
	}
	// End marker, sent a few times for loss resilience.
	marker := make([]byte, 16)
	binary.BigEndian.PutUint64(marker, endOffset)
	binary.BigEndian.PutUint64(marker[8:], uint64(len(data)))
	for i := 0; i < 5; i++ {
		if err := sendSymbol(marker); err != nil {
			return fmt.Errorf("end marker: %w", err)
		}
	}
	st := snd.Stats()
	fmt.Printf("sent %d bytes in %v: %d symbols, %d shares (κ=%g, μ=%g over %d channels)\n",
		len(data), time.Since(start).Round(time.Millisecond),
		st.SymbolsSent, st.SharesSent, *kappa, *mu, len(links))
	return nil
}

func recv(args []string) error {
	fs := flag.NewFlagSet("recv", flag.ContinueOnError)
	var (
		listen  = fs.String("listen", "", "comma-separated channel addresses to bind")
		out     = fs.String("out", "", "output file")
		timeout = fs.Duration("timeout", 60*time.Second, "give up after this long without completing")
		key     = fs.String("key", "", "pre-shared key matching the sender's -key")
		metrics = fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /trace, and pprof on this address (e.g. 127.0.0.1:9090)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" || *out == "" {
		return errors.New("recv requires -listen and -out")
	}
	scheme, err := buildScheme(*key)
	if err != nil {
		return err
	}
	listener, err := remicss.ListenUDP(strings.Split(*listen, ","))
	if err != nil {
		return err
	}
	defer listener.Close()
	fmt.Printf("listening on %s\n", strings.Join(listener.Addrs(), ","))

	reg, trace, closeMetrics, err := startMetrics(*metrics)
	if err != nil {
		return err
	}
	defer closeMetrics()
	if reg != nil {
		listener.Instrument(reg)
	}

	var (
		mu       sync.Mutex
		chunks   = make(map[uint64][]byte)
		total    = uint64(0)
		sawEnd   = false
		received = 0
	)
	done := make(chan struct{}, 1)
	rcv, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme:  scheme,
		Clock:   remicss.WallClock,
		Metrics: reg,
		Trace:   trace,
		OnSymbol: func(_ uint64, payload []byte, _ time.Duration) {
			if len(payload) < 8 {
				return
			}
			off := binary.BigEndian.Uint64(payload)
			mu.Lock()
			defer mu.Unlock()
			if off == endOffset {
				if len(payload) >= 16 {
					total = binary.BigEndian.Uint64(payload[8:])
					sawEnd = true
				}
			} else if _, dup := chunks[off]; !dup {
				chunks[off] = append([]byte(nil), payload[8:]...)
				received += len(payload) - 8
			}
			if sawEnd && uint64(received) >= total {
				select {
				case done <- struct{}{}:
				default:
				}
			}
		},
	})
	if err != nil {
		return err
	}
	listener.ServeConcurrent(rcv.HandleDatagram)

	select {
	case <-done:
	case <-time.After(*timeout):
		mu.Lock()
		defer mu.Unlock()
		return fmt.Errorf("timed out with %d/%d bytes (end marker seen: %v)", received, total, sawEnd)
	}

	mu.Lock()
	defer mu.Unlock()
	buf := make([]byte, total)
	var written uint64
	for off, data := range chunks {
		if off+uint64(len(data)) > total {
			return fmt.Errorf("chunk at %d overruns total %d", off, total)
		}
		copy(buf[off:], data)
		written += uint64(len(data))
	}
	if written != total {
		return fmt.Errorf("missing %d bytes of %d", total-written, total)
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("received %d bytes into %s (%d chunks)\n", total, *out, len(chunks))
	return nil
}

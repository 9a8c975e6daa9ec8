package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"remicss"
)

func TestBuildScheme(t *testing.T) {
	plain, err := buildScheme("")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Name() != "auto" {
		t.Errorf("plain scheme = %q", plain.Name())
	}
	keyed, err := buildScheme("k")
	if err != nil {
		t.Fatal(err)
	}
	if keyed.Name() != "authenticated-auto" {
		t.Errorf("keyed scheme = %q", keyed.Name())
	}
}

func TestRunModeDispatch(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"send"}); err == nil {
		t.Error("send without flags accepted")
	}
	if err := run([]string{"recv"}); err == nil {
		t.Error("recv without flags accepted")
	}
}

// TestSendRejectsMuAboveChannels checks that send refuses -mu above the
// number of -to addresses before it reads -in or dials.
func TestSendRejectsMuAboveChannels(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.bin")
	err := run([]string{"send", "-to", "127.0.0.1:9,127.0.0.1:10", "-in", missing, "-kappa", "2", "-mu", "3"})
	if !errors.Is(err, remicss.ErrInvalidParams) {
		t.Fatalf("send with μ=3 over 2 channels: %v, want ErrInvalidParams", err)
	}
}

// TestSendRecvInProcess runs the two halves against each other on loopback.
func TestSendRecvInProcess(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	data := bytes.Repeat([]byte("multichannel "), 5000)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}

	addrs := "127.0.0.1:7301,127.0.0.1:7302,127.0.0.1:7303"
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"recv", "-listen", addrs, "-out", out, "-timeout", "20s", "-key", "tk"})
	}()
	// UDP is fire-and-forget: sends before the receiver binds simply vanish.
	// Re-send until the receiver reports completion; it deduplicates chunks,
	// so repeated transfers are harmless.
	stop := make(chan struct{})
	go func() {
		// Give the receiver time to bind all three sockets first. A send
		// that lands while it is binding gets through on some channels only,
		// and each re-send is a fresh sender reusing the same sequence
		// numbers: its shares would then combine with the stranded ones of
		// the partial transfer (each still carries a valid tag) into garbage.
		time.Sleep(100 * time.Millisecond)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := run([]string{"send", "-to", addrs, "-in", in, "-kappa", "2", "-mu", "3", "-key", "tk", "-seed", "9"}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			time.Sleep(200 * time.Millisecond)
		}
	}()
	err := <-done
	close(stop)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer corrupted: %d bytes vs %d", len(got), len(data))
	}
}

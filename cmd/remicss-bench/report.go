package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"remicss/internal/gf256"
	"remicss/internal/udptrans"
)

// envelope is the header every JSON report of this command opens with:
// enough host and build facts to tell which tree and machine a committed
// number came from. Reports embed it, so its fields sit at the top level of
// the file. go_version, git_rev, gomaxprocs, gf_kernel and net_batch are
// named as in benchmark/'s report.
type envelope struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GFKernel   string `json:"gf_kernel"`
	NetBatch   string `json:"net_batch"`
}

func newEnvelope(schema string) envelope {
	return envelope{
		Schema:     schema,
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GFKernel:   gf256.KernelName(),
		NetBatch:   udptrans.BatchMode(),
	}
}

// gitRev is HEAD of the checkout the command runs in, with "-dirty" when
// tracked files differ from it; "unknown" outside a checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
		rev += "-dirty"
	}
	return rev
}

// writeReport writes v to path as indented JSON with a trailing newline.
func writeReport(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// benchRunner is testing.Benchmark, swappable in tests so the smoke test
// does not spend a second per benchmark.
var benchRunner = testing.Benchmark

package main

import (
	"testing"

	"remicss/internal/lint"
)

// TestLintClean runs the repository's analyzer suite over this module. The
// root module's TestModuleIsClean sweeps ./... and so stops at this
// directory's go.mod; this is the same gate on this side of it. The analyzers
// are configured for the root module's path, as there, so "secret-bearing
// package" means the same packages on both sides.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-list-backed lint in -short mode")
	}
	pkgs, err := lint.Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(pkgs, lint.DefaultAnalyzers("remicss")) {
		t.Errorf("%s", d)
	}
}

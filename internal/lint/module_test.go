package lint_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"remicss/internal/lint"
)

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

// TestModuleIsClean runs the full analyzer suite over the real module and
// requires zero diagnostics — the same gate CI applies via
// cmd/remicss-lint. Every invariant exception in the tree must carry a
// justified //lint:allow annotation for this to pass.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-list-backed module lint in -short mode")
	}
	root := moduleRoot(t)
	mod, err := lint.ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(pkgs, lint.DefaultAnalyzers(mod))
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// annotationBaseline is the marker census at the time the static-analysis
// suite landed. The clean-module gate above is only as strong as the
// annotation set feeding it — deleting a //remicss:secret shrinks the taint
// perimeter and silences findings without any diagnostic — so the counts
// may grow but must never drop. Deliberate removals (dead code deleted,
// an invariant genuinely retired) lower the baseline here in the same
// change, with the reasoning in the commit.
var annotationBaseline = map[string]int{
	"//remicss:secret":  39,
	"//remicss:noalloc": 51,
	"guarded by ":       20,
}

// allowCeiling is the other side of the same gate: the most //lint:allow
// directives each analyzer may have. An exception may be retired freely;
// adding one past the ceiling means raising it here in the same change,
// with the reasoning in the commit.
var allowCeiling = map[string]int{
	"insecure-rand":  10,
	"noalloc":        3,
	"mutexguard":     4,
	"noretain":       0,
	"readonly-input": 0,
	"taint":          3,
	"lockorder":      4,
	"atomicmix":      0,
}

// allowRe captures the analyzer a //lint:allow directive names.
var allowRe = regexp.MustCompile(`//lint:allow (\S+)`)

// TestAnnotationSetNonShrinking counts invariant annotations and
// //lint:allow directives across the module's non-test sources — excluding
// internal/lint itself, whose documentation mentions the markers — and fails
// if any annotation class fell below its baseline or any analyzer's
// directives rose above its ceiling.
func TestAnnotationSetNonShrinking(t *testing.T) {
	root := moduleRoot(t)
	counts := make(map[string]int, len(annotationBaseline))
	allows := make(map[string]int, len(allowCeiling))
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if d.Name() == "testdata" || rel == "internal/lint" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		for marker := range annotationBaseline {
			counts[marker] += strings.Count(string(src), marker)
		}
		for _, m := range allowRe.FindAllStringSubmatch(string(src), -1) {
			allows[m[1]]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for marker, floor := range annotationBaseline {
		if counts[marker] < floor {
			t.Errorf("%s annotations: %d in tree, baseline %d — the invariant perimeter shrank; restore the annotations or lower the baseline with justification",
				marker, counts[marker], floor)
		}
	}
	for name, n := range allows {
		if n > allowCeiling[name] {
			t.Errorf("//lint:allow %s directives: %d in tree, ceiling %d — fix the finding instead, or raise the ceiling with justification",
				name, n, allowCeiling[name])
		}
	}
}

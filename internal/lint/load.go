package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed, and type-checked package ready for
// analysis.
type Package struct {
	// Path is the package's import path (or a synthetic path for fixture
	// directories loaded with LoadDir).
	Path string
	// Dir is the directory holding the package's sources.
	Dir string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records the type checker's facts about Files.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	DepOnly    bool
}

// goList runs `go list -export -deps -json` in dir for the given patterns
// and returns the decoded package stream. Export data for every listed
// package (targets and dependencies alike) lands in the build cache, which
// is what lets the pure-stdlib gc importer resolve imports without
// re-typechecking the world.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Imports,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var pkgs []listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter builds a go/types importer that resolves imports from the
// export-data files go list reported.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typecheck parses and type-checks one package directory's files.
func typecheck(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	files := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// srcPackage is one package to type-check from source.
type srcPackage struct {
	path, dir string
	goFiles   []string
	imports   []string
}

// checkAll type-checks srcs in dependency order, resolving an import of
// another package in the set to its source-checked types and any other
// import through export data. Interprocedural analyzers depend on this: a
// *types.Func or field object reached from an importing package must be the
// same object the defining package's own check produced, or cross-package
// summaries and annotations would silently fail to line up.
func checkAll(srcs []srcPackage, exports map[string]string) ([]*Package, error) {
	fset := token.NewFileSet()
	inSet := make(map[string]bool, len(srcs))
	for _, s := range srcs {
		inSet[s.path] = true
	}
	checked := make(map[string]*Package, len(srcs))
	expImp := exportImporter(fset, exports)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg.Types, nil
		}
		return expImp.Import(path)
	})
	pending := func(path string) bool { return inSet[path] && checked[path] == nil }
	var pkgs []*Package
	for len(pkgs) < len(srcs) {
		progressed := false
		for _, s := range srcs {
			if !pending(s.path) || slices.ContainsFunc(s.imports, pending) {
				continue
			}
			pkg, err := typecheck(fset, imp, s.path, s.dir, s.goFiles)
			if err != nil {
				return nil, err
			}
			checked[s.path] = pkg
			pkgs = append(pkgs, pkg)
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("lint: import cycle among %d unprocessed packages", len(srcs)-len(pkgs))
		}
	}
	return pkgs, nil
}

// exportsOf maps each listed package with export data to its file.
func exportsOf(listed []listedPackage) map[string]string {
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports
}

// Load loads, parses, and type-checks every package matching the go package
// patterns (e.g. "./..."), resolved relative to dir. Test files are not
// analyzed: the invariants the suite enforces are production data-path
// contracts, and tests legitimately use deterministic math/rand sources.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var srcs []srcPackage
	for _, p := range listed {
		if !p.DepOnly && len(p.GoFiles) > 0 {
			srcs = append(srcs, srcPackage{path: p.ImportPath, dir: p.Dir, goFiles: p.GoFiles, imports: p.Imports})
		}
	}
	return checkAll(srcs, exportsOf(listed))
}

// LoadDir loads a single directory of Go files as one package, resolving
// its (standard-library) imports through go list export data. This is the
// entry point for golden-fixture packages under testdata/, which the go
// tool itself refuses to enumerate.
func LoadDir(dir string) (*Package, error) {
	src, err := scanDir(filepath.Base(dir), dir)
	if err != nil {
		return nil, err
	}
	if len(src.goFiles) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkgs, err := loadFixture(dir, []srcPackage{src})
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// LoadTree loads a directory and every nested subdirectory holding Go files
// as one multi-package fixture: each directory becomes a package whose
// import path is the root's base name plus the relative subdirectory, so a
// file in testdata/src/taint may `import "taint/vault"` to reach its
// sibling testdata/src/taint/vault. Packages are type-checked in dependency
// order with fixture-internal imports resolved against the already-checked
// siblings and everything else against go list export data. This is how the
// golden fixtures exercise cross-package analysis (taint propagation, lock
// graphs) that the go tool's refusal to enumerate testdata would otherwise
// make untestable.
func LoadTree(root string) ([]*Package, error) {
	base := filepath.Base(root)
	var srcs []srcPackage
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := base
		if rel != "." {
			importPath = base + "/" + filepath.ToSlash(rel)
		}
		src, err := scanDir(importPath, path)
		if len(src.goFiles) > 0 {
			srcs = append(srcs, src)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("lint: no Go files under %s", root)
	}
	return loadFixture(root, srcs)
}

// scanDir lists dir's non-test Go files, sorted, and the imports they name.
func scanDir(importPath, dir string) (srcPackage, error) {
	src := srcPackage{path: importPath, dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return src, fmt.Errorf("lint: %w", err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src.goFiles = append(src.goFiles, name)
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return src, fmt.Errorf("lint: %w", err)
		}
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return src, fmt.Errorf("lint: %w", err)
			}
			if p != "unsafe" && !slices.Contains(src.imports, p) {
				src.imports = append(src.imports, p)
			}
		}
	}
	sort.Strings(src.goFiles)
	return src, nil
}

// loadFixture type-checks fixture packages, materializing export data with
// go list for every import outside the fixture.
func loadFixture(dir string, srcs []srcPackage) ([]*Package, error) {
	var external []string
	for _, s := range srcs {
		for _, imp := range s.imports {
			if !slices.Contains(external, imp) && !slices.ContainsFunc(srcs, func(o srcPackage) bool { return o.path == imp }) {
				external = append(external, imp)
			}
		}
	}
	var exports map[string]string
	if len(external) > 0 {
		sort.Strings(external)
		listed, err := goList(dir, external)
		if err != nil {
			return nil, err
		}
		exports = exportsOf(listed)
	}
	return checkAll(srcs, exports)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ModulePath reports the module path of the main module rooted at (or
// above) dir, via `go list -m`.
func ModulePath(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("lint: go list -m: %w\n%s", err, stderr.String())
	}
	return strings.TrimSpace(stdout.String()), nil
}

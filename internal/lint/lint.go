// Package lint is a small static-analysis framework, built only on the
// standard library's go/ast, go/parser, and go/types, that mechanically
// enforces the repository's data-path and secrecy invariants. Its eight
// analyzers (DefaultAnalyzers) run on three models:
//
//   - Syntax checks read typed syntax one function at a time and do not
//     follow calls. Per package: insecure-rand (no math/rand in
//     secret-bearing packages or in an io.Reader randomness slot), noalloc
//     (no allocating construct in a //remicss:noalloc function), and
//     noretain and readonly-input, two sink tables over one walker that
//     follows a []byte parameter through local aliases (Send and
//     HandleDatagram must not retain it; Unmarshal must not write through
//     it). Across the module: atomicmix (a field used with sync/atomic is
//     used with nothing else).
//   - Taint summaries carry //remicss:secret data through calls and
//     packages to errors, logs, traces, metric labels, and retained state
//     (taint).
//   - The lock model walks each function's held set in source order and
//     sums up over the static call graph what each function acquires.
//     lockorder reads cycles, self-deadlocks, and dynamic calls under a
//     lock off it; mutexguard decides each access to a field annotated
//     "guarded by mu" on the same walk, and passes an access it cannot
//     decide to the function's callers.
//
// Every diagnostic can be suppressed with an explicit, justified annotation:
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line, on the line directly above it, or in a
// function's doc comment (which suppresses the analyzer for the whole
// function). The reason is mandatory; a directive without one is itself a
// diagnostic. This keeps every exception to an invariant written down next
// to the code that needs it.
//
// The models trade precision for simplicity. Branches are walked as if in
// sequence, except that lock changes inside a block ending in return end
// with it; calls through interfaces and function values are opaque; and a
// function literal that is not a goroutine is taken to run where it is
// defined. Violations these approximations hide are accepted; false
// positives are kept near zero so the suite can run as a required CI step
// (see cmd/remicss-lint).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Per-package analyzers set Run and
// see one package at a time; whole-module analyzers (taint, lockorder,
// atomicmix) set RunModule and see every loaded package at once, which is
// what lets them follow flows and lock acquisitions across package
// boundaries. An analyzer sets exactly one of the two.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects the package behind the pass and reports violations.
	Run func(*Pass)
	// RunModule inspects every loaded package together and reports
	// violations; it is invoked once per Run call, not once per package.
	RunModule func(*ModulePass)
}

// Pass is one analyzer's view of one package: the syntax trees, the type
// information, and a sink for diagnostics.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the package.
	Fset *token.FileSet
	// Files are the package's parsed source files (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression, definition, use, and
	// selection records for Files.
	Info *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(newDiagnostic(p.Analyzer, p.Fset, pos, format, args))
}

// funcAnalyzer builds a per-package analyzer that runs check on every
// function declaration with a body.
func funcAnalyzer(name, doc string, check func(*Pass, *ast.FuncDecl)) *Analyzer {
	return &Analyzer{Name: name, Doc: doc, Run: func(pass *Pass) {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					check(pass, fd)
				}
			}
		}
	}}
}

// TypeOf returns the type of e, or nil if the type checker did not record
// one.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ModulePass is a module-wide analyzer's view of the whole load: every
// package, plus a sink for diagnostics.
type ModulePass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkgs are all loaded packages, in load order.
	Pkgs []*Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos, resolved through the package that
// owns the position.
func (p *ModulePass) Reportf(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	p.report(newDiagnostic(p.Analyzer, fset, pos, format, args))
}

// newDiagnostic resolves pos through fset and formats the message.
func newDiagnostic(a *Analyzer, fset *token.FileSet, pos token.Pos, format string, args []any) Diagnostic {
	at := fset.Position(pos)
	return Diagnostic{Analyzer: a.Name, File: at.Filename, Line: at.Line, Column: at.Column, Message: fmt.Sprintf(format, args...)}
}

// Diagnostic is one reported invariant violation, positioned at file:line.
type Diagnostic struct {
	// Analyzer names the check that produced the diagnostic.
	Analyzer string `json:"analyzer"`
	// File is the source file path as loaded.
	File string `json:"file"`
	// Line and Column locate the violation (1-based).
	Line int `json:"line"`
	// Column is the 1-based column of the violation.
	Column int `json:"column"`
	// Message describes the violation and how to fix or suppress it.
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

// Run executes every analyzer over every package and returns the surviving
// diagnostics (those not suppressed by a //lint:allow directive), sorted by
// position. Malformed directives — unknown analyzer name or missing reason —
// are themselves reported, and so are stale directives: a well-formed
// //lint:allow that suppresses no diagnostic of the analyzers actually run
// is dead weight hiding nothing, and is reported as [stale-allow] so sweeps
// remove it.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// Suppressions are collected across the whole load before any analyzer
	// runs: module-wide analyzers may report a diagnostic in package A from
	// facts discovered in package B, and the directive lives next to the
	// reported line regardless of which package produced the finding.
	sup := &suppressions{lines: make(map[string]map[string]map[int]*directive)}
	for _, pkg := range pkgs {
		collectSuppressions(sup, pkg, known)
	}

	var raw []Diagnostic
	report := func(d Diagnostic) { raw = append(raw, d) }
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   report,
			})
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{Analyzer: a, Pkgs: pkgs, report: report})
	}

	out := append([]Diagnostic(nil), sup.invalid...)
	for _, d := range raw {
		if !sup.allows(d) {
			out = append(out, d)
		}
	}
	out = append(out, sup.stale()...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// allowDirective is the comment prefix that suppresses a diagnostic.
const allowDirective = "//lint:allow"

// parseAllow splits a comment into an allow directive's analyzer name and
// justification. ok is false for comments that are not directives at all.
func parseAllow(text string) (analyzer, reason string, ok bool) {
	if !strings.HasPrefix(text, allowDirective) {
		return "", "", false
	}
	rest := text[len(allowDirective):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", false // e.g. //lint:allowance
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", true
	}
	analyzer = fields[0]
	reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), analyzer))
	return analyzer, reason, true
}

// directive is one well-formed //lint:allow annotation, tracked so unused
// (stale) directives can themselves be reported.
type directive struct {
	analyzer string
	file     string
	line     int // the directive's own position
	column   int
	used     bool
}

// suppressions indexes //lint:allow directives: exact suppressed lines per
// analyzer and file, plus diagnostics for malformed directives.
type suppressions struct {
	// lines[analyzer][file][line] points at the directive covering that
	// line; several lines (a whole function body) may share one directive.
	lines   map[string]map[string]map[int]*directive
	all     []*directive
	invalid []Diagnostic
}

func (s *suppressions) add(d *directive, from, to int) {
	s.all = append(s.all, d)
	byFile := s.lines[d.analyzer]
	if byFile == nil {
		byFile = make(map[string]map[int]*directive)
		s.lines[d.analyzer] = byFile
	}
	set := byFile[d.file]
	if set == nil {
		set = make(map[int]*directive)
		byFile[d.file] = set
	}
	for l := from; l <= to; l++ {
		if set[l] == nil {
			set[l] = d
		}
	}
}

func (s *suppressions) allows(d Diagnostic) bool {
	dir := s.lines[d.Analyzer][d.File][d.Line]
	if dir == nil {
		return false
	}
	dir.used = true
	return true
}

// The framework itself emits diagnostics under two reserved analyzer names:
// directive for malformed //lint:allow comments and stale-allow for
// directives that suppressed nothing.
const (
	directiveAnalyzerName  = "directive"
	staleAllowAnalyzerName = "stale-allow"
)

// stale returns one diagnostic per directive that suppressed nothing during
// this run. Since validateAllow already rejected directives naming analyzers
// outside the run set, every directive here had its analyzer executed.
func (s *suppressions) stale() []Diagnostic {
	var out []Diagnostic
	for _, dir := range s.all {
		if dir.used {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: staleAllowAnalyzerName,
			File:     dir.file,
			Line:     dir.line,
			Column:   dir.column,
			Message: fmt.Sprintf("lint:allow %s directive suppresses no diagnostic; the invariant holds here, remove the directive",
				dir.analyzer),
		})
	}
	return out
}

// collectSuppressions gathers every allow directive in the package into sup.
// A directive in a function's doc comment suppresses the analyzer across the
// whole function body; any other directive suppresses its own line and the
// line below (so it works both as a trailing comment and as a comment above
// the offending statement).
func collectSuppressions(sup *suppressions, pkg *Package, known map[string]bool) {
	for _, file := range pkg.Files {
		docOf := make(map[*ast.CommentGroup]*ast.FuncDecl)
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				docOf[fd.Doc] = fd
			}
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				analyzer, reason, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				if bad := validateAllow(pkg, c, analyzer, reason, known); bad != nil {
					sup.invalid = append(sup.invalid, *bad)
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				from, to := pos.Line, pos.Line+1
				if fd := docOf[group]; fd != nil {
					from, to = pkg.Fset.Position(fd.Pos()).Line, pkg.Fset.Position(fd.End()).Line
				}
				sup.add(&directive{analyzer: analyzer, file: pos.Filename, line: pos.Line, column: pos.Column}, from, to)
			}
		}
	}
}

// validateAllow checks a parsed directive and returns a diagnostic when it
// names an unknown analyzer or omits the mandatory justification.
func validateAllow(pkg *Package, c *ast.Comment, analyzer, reason string, known map[string]bool) *Diagnostic {
	pos := pkg.Fset.Position(c.Pos())
	bad := func(msg string) *Diagnostic {
		return &Diagnostic{
			Analyzer: directiveAnalyzerName,
			File:     pos.Filename,
			Line:     pos.Line,
			Column:   pos.Column,
			Message:  msg,
		}
	}
	if analyzer == "" {
		return bad("lint:allow directive names no analyzer")
	}
	if !known[analyzer] {
		return bad(fmt.Sprintf("lint:allow directive names unknown analyzer %q", analyzer))
	}
	if reason == "" {
		return bad(fmt.Sprintf("lint:allow %s directive has no justification; write down why the invariant does not apply", analyzer))
	}
	return nil
}

// hasMarker reports whether a doc comment contains the //remicss:<name>
// machine-readable marker line.
func hasMarker(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	marker := "//remicss:" + name
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// Package checker drives the rapidvet analyzer suite: it loads packages
// (load.go), runs every applicable analyzer, applies the audited
// suppression markers, and performs the stale-suppression audit. Its one
// front end is the standalone multichecker (Run/Main, used by
// `go run ./tools/analyzers/rapidvet ./...`).
//
// Suppression contract: a finding is silenced by a trailing comment on
// the flagged line — //vet:ok <reason> for any analyzer, //det:ok
// <reason> for the nondeterminism analyzer (its historical marker). The
// reason is mandatory: a bare marker is itself a finding, because an
// unexplained suppression is an invariant hole nobody can audit. And
// suppressions must stay live: a marker on a line that no longer
// triggers any diagnostic is reported as stale, so fixed code sheds its
// waivers instead of accumulating them.
package checker

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"

	"repro/tools/analyzers/rapidvet/analysis"
)

// Suppression markers.
const (
	vetOK = "//vet:ok"
	detOK = "//det:ok"
)

// Finding is one reported diagnostic, positioned and attributed.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Msg)
}

// suppression is one marker comment found in a source file.
type suppression struct {
	pos    token.Position
	marker string // vetOK or detOK
	reason string
	used   bool
}

// appliesToAnalyzer reports whether the marker can silence the analyzer:
// //det:ok is the nondeterminism linter's historical marker and silences
// only it; //vet:ok silences any analyzer in the suite.
func (s *suppression) appliesToAnalyzer(name string) bool {
	return s.marker == vetOK || name == "nondeterminism"
}

// collectSuppressions indexes the marker comments of one file by line.
func collectSuppressions(fset *token.FileSet, file *ast.File) map[int]*suppression {
	out := make(map[int]*suppression)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			var marker string
			switch {
			case strings.HasPrefix(c.Text, vetOK):
				marker = vetOK
			case strings.HasPrefix(c.Text, detOK):
				marker = detOK
			default:
				continue
			}
			pos := fset.Position(c.Pos())
			out[pos.Line] = &suppression{
				pos:    pos,
				marker: marker,
				reason: strings.TrimSpace(strings.TrimPrefix(c.Text, marker)),
			}
		}
	}
	return out
}

// Options configures one checker run.
type Options struct {
	// Patterns are the go-list package patterns (default ./...).
	Patterns []string
	// Analyzers is the suite to run (default All).
	Analyzers []*analysis.Analyzer
	// ScopeOff disables the per-analyzer DefaultPackages restriction —
	// every analyzer runs on every loaded package. The corpus expect-fail
	// CI step uses it, since testdata fixtures live outside the scoped
	// runtime packages.
	ScopeOff bool
	// NoStaleAudit skips the stale-suppression audit. Set automatically
	// when only a subset of analyzers runs: a //det:ok line is not stale
	// just because the nondeterminism analyzer was excluded this run.
	NoStaleAudit bool
}

// Run loads the patterns and applies the suite, returning audited
// findings sorted by position.
func Run(opts Options) ([]Finding, error) {
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"./..."}
	}
	if opts.Analyzers == nil {
		opts.Analyzers = All
	}
	fset, pkgs, err := Load(opts.Patterns)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, pkg := range pkgs {
		fs, err := checkPackage(fset, pkg, opts)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sortFindings(all)
	return all, nil
}

// checkPackage runs every applicable analyzer over one loaded package and
// folds in the suppression audit.
func checkPackage(fset *token.FileSet, pkg *Package, opts Options) ([]Finding, error) {
	// Index suppressions per file line.
	type fileSupp struct {
		file  *ast.File
		lines map[int]*suppression
	}
	supps := make(map[string]*fileSupp) // filename -> suppressions
	for _, f := range pkg.Files {
		supps[fset.Position(f.Pos()).Filename] = &fileSupp{file: f, lines: collectSuppressions(fset, f)}
	}

	var findings []Finding
	for _, a := range opts.Analyzers {
		if !opts.ScopeOff && !appliesTo(a.DefaultPackages, pkg.ImportPath) {
			continue
		}
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if fs := supps[pos.Filename]; fs != nil {
				if s := fs.lines[pos.Line]; s != nil && s.appliesToAnalyzer(a.Name) {
					s.used = true
					continue
				}
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Msg: d.Message})
		}
	}

	// Audit the markers themselves: every suppression needs a reason, and
	// a suppression that silenced nothing is stale — the code it excused
	// has been fixed (or the marker landed on the wrong line) and the
	// waiver must go, or the audit trail rots.
	for _, fs := range supps {
		for _, s := range fs.lines {
			if s.reason == "" {
				findings = append(findings, Finding{
					Analyzer: "suppression",
					Pos:      s.pos,
					Msg:      fmt.Sprintf("%s without a reason: every suppression must say why the flagged pattern is safe", s.marker),
				})
			}
			if !opts.NoStaleAudit && !s.used {
				findings = append(findings, Finding{
					Analyzer: "suppression",
					Pos:      s.pos,
					Msg:      fmt.Sprintf("stale %s: no diagnostic on this line any more — delete the suppression (or re-anchor it to the line that still needs it)", s.marker),
				})
			}
		}
	}
	return findings, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return fs[i].Analyzer < fs[j].Analyzer
	})
}

// selectAnalyzers filters All by a comma-separated name list.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return All, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(All))
	for _, a := range All {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", n, analyzerNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames() string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// Main is the entry point of tools/analyzers/rapidvet. Exit status: 0
// clean, 1 findings (or, with -expect-fail, zero findings), 2 operational
// error.
func Main() {
	fs := flag.NewFlagSet("rapidvet", flag.ExitOnError)
	expectFail := fs.Bool("expect-fail", false, "invert the verdict: exit 0 only if the suite reports at least one finding (corpus self-test)")
	scopeOff := fs.Bool("scope", true, "apply each analyzer's default package scope (=false runs every analyzer everywhere)")
	only := fs.String("analyzers", "", "comma-separated analyzer subset (default: all; disables the stale-suppression audit)")
	list := fs.Bool("list", false, "print the analyzers and their scopes, then exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rapidvet [flags] [packages]\n\n"+
			"rapidvet statically enforces the runtime's concurrency and durability\n"+
			"invariants. Default packages: ./...\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	if *list {
		for _, a := range All {
			scope := "all packages"
			if len(a.DefaultPackages) > 0 {
				scope = strings.Join(a.DefaultPackages, ", ")
			}
			fmt.Printf("%-18s %s\n", a.Name, scope)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidvet: %v\n", err)
		os.Exit(2)
	}
	findings, err := Run(Options{
		Patterns:     fs.Args(),
		Analyzers:    analyzers,
		ScopeOff:     !*scopeOff,
		NoStaleAudit: *only != "",
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidvet: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if *expectFail {
		if len(findings) == 0 {
			fmt.Fprintln(os.Stderr, "rapidvet: -expect-fail but the suite found nothing — the analyzers have gone blind")
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rapidvet: %d findings (expected)\n", len(findings))
		return
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rapidvet: %d findings\n", len(findings))
		os.Exit(1)
	}
}

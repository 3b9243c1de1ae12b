package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// testFuncs returns, per package directory, the Test…, Benchmark… and
// Fuzz… functions its _test.go files declare, read from the source.
func testFuncs(t *testing.T) map[string][]string {
	t.Helper()
	funcs := make(map[string][]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				dir := filepath.Dir(path)
				funcs[dir] = append(funcs[dir], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

var testName = regexp.MustCompile(`^(Test|Benchmark|Fuzz)([A-Z0-9_]|$)`)

// TestDocsCiteDeclaredTests: every Test…, Benchmark… or Fuzz… name the
// design notes, the README and the verify skill cite is declared in some
// _test.go, so a renamed or deleted check cannot stay cited.
func TestDocsCiteDeclaredTests(t *testing.T) {
	declared := make(map[string]bool)
	for _, names := range testFuncs(t) {
		for _, n := range names {
			declared[n] = true
		}
	}
	cited := regexp.MustCompile(`\b(Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	for _, doc := range []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range cited.FindAllString(line, -1) {
				if !declared[name] {
					t.Errorf("%s:%d cites %s, which no _test.go declares", doc, i+1, name)
				}
			}
		}
	}
}

// TestCIRunPatternsSelectTests: every alternative of every go test -run
// pattern in the CI workflow, quoted or bare, selects a test or fuzz
// target in a package its own line runs ('^$', which selects nothing on
// purpose, excepted), so a CI step cannot silently run nothing.
func TestCIRunPatternsSelectTests(t *testing.T) {
	funcs := testFuncs(t)
	text, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`\s-run[= ]('[^']*'|"[^"]*"|\S+)`)
	patterns := 0
	for i, line := range strings.Split(string(text), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, "go test") {
			continue
		}
		var names []string
		for _, dir := range packagesOf(line, funcs) {
			for _, n := range funcs[dir] {
				if !strings.HasPrefix(n, "Benchmark") {
					names = append(names, n)
				}
			}
		}
		for _, alt := range alternatives(strings.Trim(m[1], `'"`)) {
			if alt == "^$" {
				continue
			}
			patterns++
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml:%d: -run alternative %q: %v", i+1, alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml:%d: -run alternative %q selects no test in the packages the line runs", i+1, alt)
			}
		}
	}
	if patterns == 0 {
		t.Fatal("no -run pattern found in ci.yml")
	}
}

// packagesOf returns the package directories a go test command line
// names: ./x, ./x/... and ./... patterns, or the root when it names none.
func packagesOf(line string, funcs map[string][]string) []string {
	var dirs []string
	for _, f := range strings.Fields(line) {
		if f != "." && !strings.HasPrefix(f, "./") {
			continue
		}
		pat := filepath.Clean(f)
		for dir := range funcs {
			if pat == "..." || dir == pat ||
				strings.HasSuffix(pat, "/...") && strings.HasPrefix(dir+"/", strings.TrimSuffix(pat, "...")) {
				dirs = append(dirs, dir)
			}
		}
	}
	if len(dirs) == 0 {
		dirs = append(dirs, ".")
	}
	return dirs
}

// alternatives splits a regular expression at its top-level |.
func alternatives(pat string) []string {
	var out []string
	depth, start := 0, 0
	for i, c := range pat {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pat[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pat[start:])
}

package trace

import (
	"strings"
	"testing"
)

func TestCountTable(t *testing.T) {
	out := Table([]string{"retrans", "dropped"}, [][]int64{{3, 3}, {0, 0}}, "d")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header + 2 procs + totals, got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "retrans") || !strings.Contains(lines[0], "dropped") {
		t.Errorf("header missing columns: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "P0") || !strings.Contains(lines[1], "3") {
		t.Errorf("P0 row wrong: %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "all") {
		t.Errorf("totals row wrong: %q", lines[3])
	}
	cells := strings.Fields(lines[3])
	if len(cells) != 3 || cells[1] != "3" || cells[2] != "3" {
		t.Errorf("totals row should sum columns: %q", lines[3])
	}
	// A short row is padded with zeros rather than panicking.
	if out := Table([]string{"a", "b"}, [][]int64{{1}}, "d"); !strings.Contains(out, "0") {
		t.Errorf("short row not zero-padded:\n%s", out)
	}
}

func TestStateTable(t *testing.T) {
	states := []string{"REC(s)", "EXE(s)", "SND(s)", "MAP(s)", "END(s)"}
	perProc := [][]float64{
		{0.5, 2, 0.25, 0.125, 0},
		{1.5, 1, 0.75, 0.875, 0},
	}
	out := Table(states, perProc, ".4g")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + P0 + P1 + all
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	for _, h := range states {
		if !strings.Contains(lines[0], h) {
			t.Errorf("header missing %q: %s", h, lines[0])
		}
	}
	if !strings.HasPrefix(lines[1], "P0") || !strings.HasPrefix(lines[2], "P1") {
		t.Errorf("missing processor rows:\n%s", out)
	}
	if !strings.HasPrefix(lines[3], "all") {
		t.Errorf("missing totals row:\n%s", out)
	}
	// Totals row sums the columns: REC total 2, EXE total 3.
	if cells := strings.Fields(lines[3]); len(cells) != 6 || cells[1] != "2" || cells[2] != "3" || cells[4] != "1" {
		t.Errorf("totals row wrong: %s", lines[3])
	}
}

// TestStateTableNoUnit: column names are printed as given — a unit is
// the caller's to add.
func TestStateTableNoUnit(t *testing.T) {
	out := Table([]string{"A", "B"}, [][]float64{{1, 2}}, ".4g")
	if strings.Contains(out, "(") {
		t.Errorf("unitless header should have no parens:\n%s", out)
	}
}

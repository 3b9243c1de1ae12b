package trace

import (
	"fmt"
	"strings"
)

// Table renders a per-processor table: one column per name in cols, one
// row per processor, and a final "all" row with per-column totals. perProc
// is indexed [processor][column]; a short row reads as zeros. verb is the
// fmt verb of a cell ("d" for counts, ".4g" for seconds). It is the text
// form of the engine's Occupancy and Reliability counters, used by
// cmd/rapidsolve's report; it is deliberately independent of
// internal/proto.
func Table[V int64 | float64](cols []string, perProc [][]V, verb string) string {
	width := 10
	for _, c := range cols {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	cell := "%*" + verb
	var b strings.Builder
	b.WriteString("proc")
	for _, c := range cols {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	totals := make([]V, len(cols))
	for p, row := range perProc {
		fmt.Fprintf(&b, "P%-3d", p)
		for i := range cols {
			var v V
			if i < len(row) {
				v = row[i]
			}
			totals[i] += v
			fmt.Fprintf(&b, cell, width, v)
		}
		b.WriteByte('\n')
	}
	b.WriteString("all ")
	for i := range cols {
		fmt.Fprintf(&b, cell, width, totals[i])
	}
	b.WriteByte('\n')
	return b.String()
}

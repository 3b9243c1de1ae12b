package trace

import (
	"fmt"
	"strings"
)

// Grid renders an arbitrary header + rows table with left-aligned columns
// sized to their content. The last column is not padded, so free-text
// detail columns do not drag trailing spaces. Ragged rows are tolerated
// (missing cells render empty). It is the text form of the static
// verifier's findings report, used by cmd/rapidverify and cmd/rapidsolve;
// like Table it is deliberately independent of internal/verify.
func Grid(cols []string, rows [][]string) string {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i := 0; i < len(r) && i < len(widths); i++ {
			if len(r[i]) > widths[i] {
				widths[i] = len(r[i])
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, w := range widths {
			v := ""
			if i < len(cells) {
				v = cells[i]
			}
			if i == len(widths)-1 {
				b.WriteString(v)
			} else {
				fmt.Fprintf(&b, "%-*s  ", w, v)
			}
		}
		b.WriteByte('\n')
	}
	line(cols)
	sep := make([]string, len(cols))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// Command paper regenerates the tables and figures of the evaluation
// section of Fu & Yang, PPoPP'97, on the simulated machine.
//
// Usage:
//
//	paper [-scale small|full] [-exp all|table1|table2|...|table8|figure7]
//
// Full scale uses the paper's matrix dimensions (n = 3500..7300) and takes
// a few minutes; small scale finishes in seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/paper"
)

func main() {
	scale := flag.String("scale", "small", "workload scale: small or full")
	exp := flag.String("exp", "all", "experiment: all, table1..table8, figure7")
	flag.Parse()

	sc := paper.Small
	switch strings.ToLower(*scale) {
	case "small":
	case "full":
		sc = paper.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	paper.Report(os.Stdout, sc, *exp)
}

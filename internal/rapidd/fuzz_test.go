package rapidd

import (
	"testing"

	"repro/internal/sched"
)

// FuzzParseJobSpec fuzzes the solve endpoint's whole input surface: any
// byte string must either produce a normalized, in-range spec or an error
// — never a panic, and never a spec the rest of the daemon would have to
// defend against. Normalization must also be a fixpoint: re-normalizing an
// accepted spec changes nothing, so a spec echoed back by the API and
// resubmitted is admitted identically (stable coalescing keys depend on
// this).
func FuzzParseJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"kind":"chol","n":300,"procs":4,"heuristic":"mpo","verify":true}`,
		`{"kind":"lu","n":80,"seed":2,"block":16,"heuristic":"dtsmerge"}`,
		`{"mem_percent":60,"hold_ms":100,"deadline_ms":5000}`,
		`{"drop_frac":0.25,"dup_frac":0.1,"fault_seed":7}`,
		`{"kind":"qr"}`,
		`{"n":-1}`,
		`{"procs":1e99}`,
		"{\"heuristic\":\"\u0000\"}",
		`not json`,
		`"a bare string"`,
		`[1,2,3]`,
		`{"n":`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := parseJobSpec(data, "default")
		if err != nil {
			return
		}
		if spec.Kind != "chol" && spec.Kind != "lu" {
			t.Fatalf("accepted kind %q", spec.Kind)
		}
		if spec.N < 8 || spec.N > 20000 {
			t.Fatalf("accepted n %d", spec.N)
		}
		if spec.Procs < 1 || spec.Procs > 256 {
			t.Fatalf("accepted procs %d", spec.Procs)
		}
		if spec.Block < 1 || spec.Block > 256 {
			t.Fatalf("accepted block %d", spec.Block)
		}
		if _, err := sched.ParseHeuristic(spec.Heuristic); err != nil {
			t.Fatalf("accepted heuristic %q", spec.Heuristic)
		}
		if spec.MemPercent < 0 || spec.MemPercent > 100 {
			t.Fatalf("accepted mem_percent %d", spec.MemPercent)
		}
		if spec.HoldMS < 0 || spec.HoldMS > 60000 {
			t.Fatalf("accepted hold_ms %d", spec.HoldMS)
		}
		if spec.DropFrac < 0 || spec.DropFrac > 1 || spec.DupFrac < 0 || spec.DupFrac > 1 {
			t.Fatalf("accepted fault fractions %g/%g", spec.DropFrac, spec.DupFrac)
		}
		if spec.DeadlineMS < 0 || spec.DeadlineMS > 600000 {
			t.Fatalf("accepted deadline_ms %d", spec.DeadlineMS)
		}
		again := spec
		if err := normalizeSpec(&again); err != nil {
			t.Fatalf("re-normalization rejected an accepted spec: %v", err)
		}
		if again != spec {
			t.Fatalf("normalization not a fixpoint: %+v vs %+v", spec, again)
		}
	})
}

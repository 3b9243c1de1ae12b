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
		`{"mem_percent":60,"deadline_ms":5000}`,
		`{"tenant":"gold","priority":"high","deadline_ms":600000}`,
		// Fields the spec does not have, such as the hold and fault knobs
		// older clients and journals carry, are ignored at any value.
		`{"hold_ms":60001,"drop_frac":1.5,"dup_frac":-0.2,"fault_seed":7}`,
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

package rapid_test

import (
	"sync"
	"testing"

	"repro/internal/proto"
	"repro/rapid"
)

// TestTablesDerivedOncePerPlan executes twelve distinct plans round-robin,
// twice: every plan keeps the protocol tables its first execution derived,
// however many other plans ran in between.
func TestTablesDerivedOncePerPlan(t *testing.T) {
	const n = 12
	heuristics := []rapid.Heuristic{rapid.RCP, rapid.MPO, rapid.DTS, rapid.DTSMerge}
	progs := make([]*rapid.Program, n)
	plans := make([]*rapid.Plan, n)
	for i := range plans {
		procs := 2 + i%3
		progs[i], _ = cholProgram(t, procs)
		var err error
		if plans[i], err = rapid.Compile(progs[i], rapid.Options{Procs: procs, Heuristic: heuristics[i%4]}); err != nil {
			t.Fatal(err)
		}
	}
	first := make([]*proto.Tables, n)
	for round := 0; round < 2; round++ {
		for i, p := range plans {
			if _, err := rapid.Execute(progs[i], p, rapid.ExecOptions{}); err != nil {
				t.Fatalf("round %d plan %d: %v", round, i, err)
			}
			if round == 0 {
				first[i] = p.Tables()
			} else if p.Tables() != first[i] {
				t.Errorf("plan %d: tables re-derived between executions", i)
			}
		}
	}
	for i := 1; i < n; i++ {
		if first[i] == first[0] {
			t.Fatalf("plans 0 and %d share tables", i)
		}
	}
}

// TestPlanSharedByConcurrentRuns races the first use of one plan's tables
// between executor and simulator runs (run under -race in CI).
func TestPlanSharedByConcurrentRuns(t *testing.T) {
	prog, pr := cholProgram(t, 4)
	plan, err := rapid.Compile(prog, rapid.Options{Procs: 4, Heuristic: rapid.MPO})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				_, err = rapid.Execute(prog, plan, rapid.ExecOptions{Kernel: pr.Kernel, Init: pr.InitObject})
			} else {
				_, err = rapid.Simulate(prog, plan, rapid.SimOptions{})
			}
			if err != nil {
				t.Errorf("run %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestPlanLiteralExecutes: a Plan assembled field by field, the way the
// benchmark's layer replay builds one, is a complete plan.
func TestPlanLiteralExecutes(t *testing.T) {
	prog, pr := cholProgram(t, 3)
	opt := rapid.Options{Procs: 3, Heuristic: rapid.MPO}
	fp := rapid.Fingerprint(prog, opt)
	c, err := rapid.Compile(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	lit := &rapid.Plan{Schedule: c.Schedule, Mem: c.Mem, Model: c.Model, Capacity: c.Capacity}
	lit.Fingerprint = fp
	if !lit.Executable() || lit.TOT() != c.TOT() || lit.MinMem() != c.MinMem() ||
		lit.AvgMAPs() != c.AvgMAPs() || lit.PredictedTime() != c.PredictedTime() {
		t.Fatal("literal plan's accessors disagree with the compiled plan's")
	}
	if _, err := rapid.Execute(prog, lit, rapid.ExecOptions{Kernel: pr.Kernel, Init: pr.InitObject}); err != nil {
		t.Fatal(err)
	}
	if _, err := rapid.Simulate(prog, lit, rapid.SimOptions{}); err != nil {
		t.Fatal(err)
	}
	enc, err := rapid.MarshalPlan(lit)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := rapid.UnmarshalPlan(enc); err != nil || back.Fingerprint != fp {
		t.Fatalf("round trip: %v", err)
	}
}

// TestVerdictNotSerialized: passing VerifyPlan marks the plan, and the
// mark does not survive the codec — bytes from outside the process are
// unverified until checked.
func TestVerdictNotSerialized(t *testing.T) {
	prog, _ := cholProgram(t, 2)
	p, err := rapid.Compile(prog, rapid.Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Verified() {
		t.Fatal("freshly compiled plan claims a verdict")
	}
	if res := rapid.VerifyPlan(p); !res.OK() || !p.Verified() {
		t.Fatalf("clean plan not marked verified: %v", res.Err())
	}
	enc, err := rapid.MarshalPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rapid.UnmarshalPlan(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Verified() {
		t.Fatal("decoded plan inherited the encoder's verdict")
	}
	back.Mem.Procs[0].Peak++
	if res := rapid.VerifyPlan(back); res.OK() || back.Verified() {
		t.Fatal("tampered plan marked verified")
	}
}

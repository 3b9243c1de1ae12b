package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/mem"
	"repro/internal/rma"
	"repro/internal/sched"
	"repro/rapid"
)

// stage is one span of the stage-by-stage replay: a call (or calls calls)
// into one layer's public function. Span names are ROADMAP's stage names.
type stage struct {
	name  string
	unit  string  // of the time metric: ms, us or ns
	calls float64 // calls one span covers; metrics are per call
}

var stages = []stage{
	{"sparse.generate", "ms", 1},
	{"sparse.symbolic", "ms", 1},
	{"factor.build", "ms", 1},
	{"sched.assign", "ms", 1},
	{"sched.schedule", "ms", 1},
	{"mem.plan", "ms", 1},
	{"plan.fingerprint", "ms", 1},
	{"plan.encode", "ms", 1},
	{"plan.decode", "ms", 1},
	{"verify.check", "ms", 1},
	{"plancache.mem_hit", "ms", 1},
	{"plancache.disk_load", "ms", 1},
	{"journal.append_sync", "us", journalRecordsPerJob},
	{"journal.append_nosync", "us", journalRecordsPerJob},
	{"exec.run_structure", "ms", 1},
	{"exec.run_numeric", "ms", 1},
	{"machine.simulate", "ms", 1},
	{"factor.sequential", "ms", 1},
	{"rma.alloc_free", "ns", rmaPairsPerSpan},
}

const (
	// journalRecordsPerJob: rapidd writes submit, admit and complete.
	journalRecordsPerJob = 3
	rmaPairsPerSpan      = 1000
)

var unitPerSecond = map[string]float64{"ms": 1e3, "us": 1e6, "ns": 1e9}

// replay measures every stage on one operation of the workload's shape.
type replay struct {
	tr   *tracer
	op   int
	root int
	// per stage, one entry per repetition
	seconds, kb, allocs map[string][]float64
}

// span times fn as one stage, with the bytes and objects it allocated
// (runtime.MemStats deltas: nothing else runs during the replay).
func (r *replay) span(name string, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := r.tr.begin(name, r.root, r.op)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.seconds[name] = append(r.seconds[name], d.Seconds())
	r.kb[name] = append(r.kb[name], float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	r.allocs[name] = append(r.allocs[name], float64(m1.Mallocs-m0.Mallocs))
	return nil
}

// kernelMeter wraps a KernelFunc to measure the blas layer from outside:
// calls, busy time summed over the processor goroutines, and flops from
// the task costs (the builders set cost = flops).
type kernelMeter struct {
	calls  atomic.Int64
	busyNS atomic.Int64
}

func (m *kernelMeter) wrap(k rapid.KernelFunc) rapid.KernelFunc {
	return func(t rapid.TaskID, get func(rapid.ObjID) []float64) error {
		t0 := time.Now()
		err := k(t, get)
		m.busyNS.Add(time.Since(t0).Nanoseconds())
		m.calls.Add(1)
		return err
	}
}

// replayStages runs cfg.reps repetitions of one operation of the
// workload's shape stage by stage and returns the per-layer metrics that
// come from it: per stage the median time, kB and allocations per call,
// plus the protocol counters, kernel meter and simulator prediction of the
// numeric run. The second result is the stages' median seconds by name.
func replayStages(w workload, cfg runConfig, tr *tracer) (map[string]metric, map[string]float64, error) {
	s := w.shape
	r := &replay{tr: tr, seconds: map[string][]float64{}, kb: map[string][]float64{}, allocs: map[string][]float64{}}

	dir, err := os.MkdirTemp("", "rapidbench-replay-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	var journals [2]*journal.Journal // fsync'd, not fsync'd
	for i, name := range []string{"wal-sync", "wal-nosync"} {
		j, _, err := journal.Open(filepath.Join(dir, name), journal.Options{NoSync: i == 1})
		if err != nil {
			return nil, nil, err
		}
		defer j.Close()
		journals[i] = j
	}
	planDir := filepath.Join(dir, "plans")
	warm := rapid.NewPlanCache(rapid.PlanCacheConfig{Dir: planDir})

	structSeed := structureSeed(cfg.seed, 0)
	var (
		opt      rapid.Options
		occ      [5][]float64 // REC EXE SND MAP END, seconds summed over processors, per repetition
		busy     []float64
		share    []float64 // kernel time as % of the metered run's EXE occupancy
		lastRep  *rapid.Report
		calls    int64
		flops    float64
		predict  float64
		blockLen int64
		jobSeq   uint64
	)
	for rep := 0; rep < cfg.reps; rep++ {
		r.op = rep + 1
		r.root = tr.begin("replay", -1, r.op)

		var pb *problem
		if err := r.span("sparse.generate", func() error {
			a, err := genMatrix(s, structSeed)
			pb = &problem{a: a}
			return err
		}); err != nil {
			return nil, nil, err
		}
		if err := r.span("sparse.symbolic", func() error { symbolic(s, pb.a); return nil }); err != nil {
			return nil, nil, err
		}
		if err := r.span("factor.build", func() (err error) { pb, err = buildProblem(s, pb.a); return }); err != nil {
			return nil, nil, err
		}
		g := pb.prog.G
		if rep == 0 {
			// The memory constraint and block length are properties of
			// the structure: resolve them once, outside any span.
			if opt, err = compileOptions(s, pb); err != nil {
				return nil, nil, err
			}
			sizes := make([]int64, 0, g.NumObjects())
			for i := range g.Objects {
				sizes = append(sizes, g.Objects[i].Size)
			}
			sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
			blockLen = sizes[len(sizes)/2]
			for i := range g.Tasks {
				flops += g.Tasks[i].Cost
			}
		}

		// The body of rapid.Compile, one span per layer.
		model := rapid.T3D()
		var assign []rapid.Proc
		if err := r.span("sched.assign", func() (err error) {
			assign, err = sched.OwnerComputeAssign(g, s.Procs)
			return
		}); err != nil {
			return nil, nil, err
		}
		availVol := int64(1) << 62
		if opt.Memory > 0 {
			perm := make([]int64, s.Procs)
			for i := range g.Objects {
				perm[g.Objects[i].Owner] += g.Objects[i].Size
			}
			availVol = opt.Memory - slices.Max(perm)
		}
		var sch *sched.Schedule
		if err := r.span("sched.schedule", func() (err error) {
			sch, err = sched.ScheduleWith(opt.Heuristic, g, assign, s.Procs, model, availVol)
			return
		}); err != nil {
			return nil, nil, err
		}
		capacity := opt.Memory
		if capacity <= 0 {
			capacity = sch.TOT()
		}
		var mp *mem.Plan
		if err := r.span("mem.plan", func() (err error) { mp, err = mem.NewPlan(sch, capacity); return }); err != nil {
			return nil, nil, err
		}
		pl := &rapid.Plan{Schedule: sch, Mem: mp, Model: model, Capacity: capacity}
		if !pl.Executable() {
			return nil, nil, fmt.Errorf("replayed plan not executable under memory %d", opt.Memory)
		}

		if err := r.span("plan.fingerprint", func() error { pl.Fingerprint = rapid.Fingerprint(pb.prog, opt); return nil }); err != nil {
			return nil, nil, err
		}
		var enc []byte
		if err := r.span("plan.encode", func() (err error) { enc, err = rapid.MarshalPlan(pl); return }); err != nil {
			return nil, nil, err
		}
		if err := r.span("plan.decode", func() error { _, err := rapid.UnmarshalPlan(enc); return err }); err != nil {
			return nil, nil, err
		}
		if err := r.span("verify.check", func() error { return rapid.VerifyPlan(pl).Err() }); err != nil {
			return nil, nil, err
		}

		if rep == 0 { // fill both tiers once, outside any span
			if _, _, err := rapid.CompileCached(pb.prog, opt, warm); err != nil {
				return nil, nil, err
			}
		}
		if err := r.span("plancache.mem_hit", func() error {
			return wantSource(rapid.FromMemory)(rapid.CompileCached(pb.prog, opt, warm))
		}); err != nil {
			return nil, nil, err
		}
		if err := r.span("plancache.disk_load", func() error {
			fresh := rapid.NewPlanCache(rapid.PlanCacheConfig{Dir: planDir})
			return wantSource(rapid.FromDisk)(rapid.CompileCached(pb.prog, opt, fresh))
		}); err != nil {
			return nil, nil, err
		}

		for i, name := range []string{"journal.append_sync", "journal.append_nosync"} {
			jobSeq++
			id := fmt.Sprintf("j%04d", jobSeq)
			if err := r.span(name, func() error {
				for _, rec := range []journal.Record{
					{Op: journal.OpSubmit, Seq: jobSeq, ID: id, Tenant: "default", Priority: "normal", Spec: []byte(`{"kind":"chol","n":400,"seed":1,"procs":4,"block":8,"heuristic":"mpo"}`)},
					{Op: journal.OpAdmit, ID: id, Demand: 1 << 16},
					{Op: journal.OpComplete, ID: id, Status: "done"},
				} {
					if err := journals[i].Append(rec); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return nil, nil, err
			}
		}

		if err := r.span("exec.run_structure", func() error {
			_, err := rapid.Execute(pb.prog, pl, rapid.ExecOptions{})
			return err
		}); err != nil {
			return nil, nil, err
		}
		if err := r.span("exec.run_numeric", func() (err error) { lastRep, err = rapid.Execute(pb.prog, pl, pb.exec); return }); err != nil {
			return nil, nil, err
		}
		for si := range occ {
			sum := 0.0
			for _, o := range lastRep.Occupancy {
				sum += o[si]
			}
			occ[si] = append(occ[si], sum)
		}
		// A second numeric run carries the kernel meter, so its clock
		// reads do not sit inside exec.run_numeric.
		meter := &kernelMeter{}
		metered := pb.exec
		metered.Kernel = meter.wrap(pb.exec.Kernel)
		meteredRep, err := rapid.Execute(pb.prog, pl, metered)
		if err != nil {
			return nil, nil, fmt.Errorf("metered run: %w", err)
		}
		busyS, exeS := float64(meter.busyNS.Load())/1e9, 0.0
		for _, o := range meteredRep.Occupancy {
			exeS += o[1] // EXE
		}
		busy = append(busy, busyS)
		share = append(share, 100*busyS/exeS) // of the same run, so contention cancels
		calls = meter.calls.Load()

		if err := r.span("machine.simulate", func() error {
			sim, err := rapid.Simulate(pb.prog, pl, rapid.SimOptions{})
			if err == nil {
				predict = sim.ParallelTime
			}
			return err
		}); err != nil {
			return nil, nil, err
		}
		if err := r.span("factor.sequential", func() error { _, err := pb.sequential(); return err }); err != nil {
			return nil, nil, err
		}
		if err := r.span("rma.alloc_free", func() error {
			m := rma.NewMemory(blockLen)
			for i := 0; i < rmaPairsPerSpan; i++ {
				if _, err := m.Alloc(0, blockLen, blockLen); err != nil {
					return err
				}
				if err := m.Free(0, blockLen); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		tr.end(r.root)
	}

	out := map[string]metric{}
	stageSeconds := map[string]float64{}
	for _, st := range stages {
		sec := median(r.seconds[st.name]) / st.calls
		stageSeconds[st.name] = sec
		out[st.name+"_"+st.unit] = metric{sec * unitPerSecond[st.unit], st.unit}
		out[st.name+"_kb"] = metric{median(r.kb[st.name]) / st.calls, "kB"}
		out[st.name+"_allocs"] = metric{median(r.allocs[st.name]) / st.calls, "count"}
	}
	sum := func(xs []int) (n int) {
		for _, x := range xs {
			n += x
		}
		return
	}
	out["proto.maps_total"] = metric{float64(sum(lastRep.MAPsPerProc)), "count"}
	out["proto.messages"] = metric{float64(lastRep.Messages), "count"}
	out["proto.addr_packages"] = metric{float64(lastRep.AddrPackages), "count"}
	out["proto.suspended_sends"] = metric{float64(sum(lastRep.SuspendedSends)), "count"}
	for si, name := range []string{"rec", "exe", "snd", "map", "end"} {
		out["proto.occ_"+name+"_ms"] = metric{median(occ[si]) * 1e3, "ms"}
	}
	busyS := median(busy)
	out["blas.kernel_busy_ms"] = metric{busyS * 1e3, "ms"}
	out["blas.kernel_share_pct"] = metric{median(share), "%"}
	out["blas.kernel_calls"] = metric{float64(calls), "count"}
	out["blas.kernel_mflops"] = metric{flops / busyS / 1e6, "Mflop/s"}
	out["machine.predicted_ms"] = metric{predict * 1e3, "ms"}
	return out, stageSeconds, nil
}

// wantSource adapts CompileCached's results to an error unless the plan
// came from the expected tier.
func wantSource(want rapid.CacheSource) func(*rapid.Plan, rapid.CacheSource, error) error {
	return func(_ *rapid.Plan, src rapid.CacheSource, err error) error {
		if err == nil && src != want {
			err = fmt.Errorf("plan came from %q, want %q", src, want)
		}
		return err
	}
}

// servedStages lists, per plan source, the replayed stages one served
// request runs; rapidd.overhead_ms is the served p50 minus their sum, i.e.
// what HTTP, JSON, queueing, admission and job records cost.
var servedStages = map[string][]string{
	"memory":   {"sparse.generate", "factor.build", "plancache.mem_hit", "exec.run_numeric"},
	"compiled": {"sparse.generate", "factor.build", "plan.fingerprint", "sched.assign", "sched.schedule", "mem.plan", "plan.encode", "verify.check", "exec.run_numeric"},
	"disk":     {"sparse.generate", "factor.build", "plancache.disk_load", "verify.check", "exec.run_numeric"},
	// a fresh library solve: no service around it (a memory-constrained
	// shape compiles a second, unconstrained plan the replay does not span)
	"": {"sparse.generate", "factor.build", "sched.assign", "sched.schedule", "mem.plan", "exec.run_numeric"},
}

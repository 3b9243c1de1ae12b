package plan

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/sched"
)

// magic identifies a serialized plan artifact.
var magic = [4]byte{'R', 'P', 'L', 'N'}

// Encode serializes the artifact. The output is a pure function of the
// artifact's contents: the artifact holds no maps and slices are written in
// stored order, so two equal artifacts encode to identical bytes. The
// payload is terminated by a SHA-256 checksum. Encode refuses only plans it
// cannot represent; the semantic checks are Artifact.Validate's (and the
// verifier's), so deliberately defective plans — verifier test corpora,
// crash repros — persist too.
func Encode(a *Artifact) ([]byte, error) {
	if err := encodable(a); err != nil {
		return nil, err
	}
	e := &encoder{}
	encodePayload(e, a)
	sum := sha256.Sum256(e.b)
	e.raw(sum[:])
	return e.b, nil
}

// encodable reports why the encoder cannot represent a, if it cannot.
func encodable(a *Artifact) error {
	if a == nil || a.Schedule == nil || a.Schedule.G == nil || a.Mem == nil {
		return fmt.Errorf("plan: artifact missing schedule, graph or memory plan")
	}
	if len(a.Mem.Procs) != a.Schedule.P || len(a.Schedule.Order) != a.Schedule.P {
		return fmt.Errorf("plan: processor counts disagree; cannot encode")
	}
	return nil
}

// encodePayload writes everything the checksum covers.
func encodePayload(e *encoder, a *Artifact) {
	e.raw(magic[:])
	e.u64(Version)
	e.str(a.Fingerprint)
	encodeModel(e, a.Model)
	e.i64(a.Capacity)
	encodeDAG(e, a.Schedule.G)
	encodeSchedule(e, a.Schedule)
	encodeMemPlan(e, a.Mem)
}

// Decode parses a serialized artifact, verifying version, checksum and
// the decoder's structural invariants. Corrupted or truncated input yields
// an error. The semantic checks are Artifact.Validate's: a plan destined
// for the static verifier reports its defects there as findings, not as a
// bare decode error.
func Decode(data []byte) (*Artifact, error) {
	if len(data) < len(magic)+sha256.Size {
		return nil, fmt.Errorf("plan: input too short (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
		return nil, fmt.Errorf("plan: checksum mismatch (corrupted artifact)")
	}
	d := &decoder{b: payload}
	var m [4]byte
	d.rawInto(m[:])
	if m != magic {
		return nil, fmt.Errorf("plan: bad magic %q", m[:])
	}
	if v := d.u64(); v != Version {
		return nil, fmt.Errorf("plan: unsupported version %d (have %d)", v, Version)
	}
	a := &Artifact{}
	a.Fingerprint = d.str()
	a.Model = decodeModel(d)
	a.Capacity = d.i64()
	g, err := decodeDAG(d)
	if err != nil {
		return nil, err
	}
	s, err := decodeSchedule(d, g)
	if err != nil {
		return nil, err
	}
	mp, err := decodeMemPlan(d, s)
	if err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("plan: %d trailing bytes", len(d.b))
	}
	a.Schedule = s
	a.Mem = mp
	return a, nil
}

func encodeModel(e *encoder, m sched.CostModel) {
	e.f64(m.ComputeRate)
	e.f64(m.Latency)
	e.f64(m.Bandwidth)
	e.f64(m.MAPOverhead)
	e.f64(m.MAPPerObject)
	e.f64(m.AddrLatency)
}

func decodeModel(d *decoder) sched.CostModel {
	return sched.CostModel{
		ComputeRate:  d.f64(),
		Latency:      d.f64(),
		Bandwidth:    d.f64(),
		MAPOverhead:  d.f64(),
		MAPPerObject: d.f64(),
		AddrLatency:  d.f64(),
	}
}

func encodeDAG(e *encoder, g *graph.DAG) {
	e.u64(uint64(g.NumObjects()))
	for i := range g.Objects {
		o := &g.Objects[i]
		e.str(o.Name)
		e.i64(o.Size)
		e.i32(o.Owner)
		e.spill()
	}
	e.u64(uint64(g.NumTasks()))
	for i := range g.Tasks {
		t := graph.TaskID(i)
		e.str(g.TaskName(t))
		e.f64(g.Tasks[i].Cost)
		e.ids(g.Reads(t))
		e.ids(g.Writes(t))
		e.bool(g.Tasks[i].Commutative)
		e.spill()
	}
	// Edges in adjacency-list order (From implied by the outer loop), which
	// the graph builder guarantees to be deterministic.
	for t := 0; t < g.NumTasks(); t++ {
		out := g.Out(graph.TaskID(t))
		e.u64(uint64(len(out)))
		for i, ed := range out {
			e.i32(ed.To)
			e.i32(ed.Obj)
			e.u64(uint64(ed.Kind))
			if i%1024 == 1023 {
				e.spill()
			}
		}
		e.spill()
	}
}

func decodeDAG(d *decoder) (*graph.DAG, error) {
	nObj := d.count("objects")
	objects := make([]graph.Object, nObj)
	for i := range objects {
		objects[i] = graph.Object{
			ID:    graph.ObjID(i),
			Name:  d.str(),
			Size:  d.i64(),
			Owner: d.i32(),
		}
	}
	// The tasks' names and access lists go straight into the graph's
	// tables: decoding allocates per table, not per task.
	nTask := d.count("tasks")
	tasks := make([]graph.Task, nTask)
	acc := graph.Accesses{Off: make([]int32, 1, 2*nTask+1)}
	var names graph.Names
	names.Grow(nTask)
	for i := range tasks {
		names.Append(string(d.bytes()))
		tasks[i] = graph.Task{ID: graph.TaskID(i), Cost: d.f64()}
		acc.IDs = d.appendIDs(acc.IDs)
		acc.Off = append(acc.Off, int32(len(acc.IDs)))
		acc.IDs = d.appendIDs(acc.IDs)
		acc.Off = append(acc.Off, int32(len(acc.IDs)))
		tasks[i].Commutative = d.bool()
	}
	if d.err != nil {
		return nil, d.err
	}
	// Count the edges on a copy of the decoder first, so the list the graph
	// keeps is one allocation of its exact size.
	probe, nEdges := *d, 0
	for t := 0; t < nTask && probe.err == nil; t++ {
		nOut := probe.count("edges")
		for k := 0; k < nOut; k++ {
			probe.i64()
			probe.i64()
			probe.u64()
		}
		nEdges += nOut
	}
	edges := make([]graph.Edge, 0, nEdges)
	for t := 0; t < nTask; t++ {
		nOut := d.count("edges")
		for k := 0; k < nOut; k++ {
			to := d.i32()
			obj := d.i32()
			kind := d.u64()
			if d.err != nil {
				return nil, d.err
			}
			if to < 0 || int(to) >= nTask {
				return nil, fmt.Errorf("plan: edge target %d out of range", to)
			}
			if kind > uint64(graph.DepPrec) {
				return nil, fmt.Errorf("plan: bad edge kind %d", kind)
			}
			edges = append(edges, graph.Edge{From: graph.TaskID(t), To: to, Obj: obj, Kind: graph.DepKind(kind)})
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	g := graph.NewDAG(tasks, objects, acc, names, edges)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func encodeSchedule(e *encoder, s *sched.Schedule) {
	e.u64(uint64(s.P))
	e.ids(s.Assign)
	for p := 0; p < s.P; p++ {
		e.ids(s.Order[p])
	}
	e.f64(s.Makespan)
	e.u64(uint64(s.Heuristic))
	if s.Slices == nil {
		e.bool(false)
	} else {
		e.bool(true)
		e.ids(s.Slices)
		e.u64(uint64(s.NumSlices))
	}
}

func decodeSchedule(d *decoder, g *graph.DAG) (*sched.Schedule, error) {
	n := g.NumTasks()
	s := &sched.Schedule{G: g}
	s.P = d.count("processors")
	s.Assign = d.ids()
	s.Order = make([][]graph.TaskID, s.P)
	for p := 0; p < s.P; p++ {
		s.Order[p] = d.ids()
	}
	s.Makespan = d.f64()
	h := d.u64()
	if d.bool() {
		s.Slices = d.ids()
		s.NumSlices = int(d.u64())
	}
	if d.err != nil {
		return nil, d.err
	}
	if h > uint64(sched.TreeMem) {
		return nil, fmt.Errorf("plan: bad heuristic %d", h)
	}
	s.Heuristic = sched.Heuristic(h)
	if s.NumSlices < 0 || s.NumSlices > n+1 {
		return nil, fmt.Errorf("plan: implausible slice count %d for %d tasks", s.NumSlices, n)
	}
	if len(s.Assign) != n {
		return nil, fmt.Errorf("plan: %d assignments for %d tasks", len(s.Assign), n)
	}
	if s.Slices != nil && len(s.Slices) != n {
		return nil, fmt.Errorf("plan: %d slice entries for %d tasks", len(s.Slices), n)
	}
	// Reconstruct Pos and check that every task appears exactly once on its
	// assigned processor.
	s.Pos = make([]int32, n)
	for i := range s.Pos {
		s.Pos[i] = -1
	}
	count := 0
	for p := 0; p < s.P; p++ {
		for i, t := range s.Order[p] {
			if t < 0 || int(t) >= n {
				return nil, fmt.Errorf("plan: ordered task %d out of range", t)
			}
			if s.Assign[t] != graph.Proc(p) {
				return nil, fmt.Errorf("plan: task %d ordered on proc %d but assigned to %d", t, p, s.Assign[t])
			}
			if s.Pos[t] != -1 {
				return nil, fmt.Errorf("plan: task %d ordered twice", t)
			}
			s.Pos[t] = int32(i)
			count++
		}
	}
	if count != n {
		return nil, fmt.Errorf("plan: %d of %d tasks ordered", count, n)
	}
	return s, nil
}

func encodeMemPlan(e *encoder, pl *mem.Plan) {
	e.i64(pl.Capacity)
	e.bool(pl.Executable)
	for p := range pl.Procs {
		pp := &pl.Procs[p]
		e.i64(pp.Peak)
		e.bool(pp.Executable)
		e.i32(pp.FailPos)
		e.u64(uint64(len(pp.MAPs)))
		for mi := range pp.MAPs {
			m := &pp.MAPs[mi]
			e.i32(m.Pos)
			e.i32(m.CoverEnd)
			e.ids(m.Frees)
			e.ids(m.Allocs)
			// Notify in its stored order: destinations ascending.
			e.u64(uint64(m.Notify.Len()))
			for i, q := range m.Notify.Dst {
				e.i32(q)
				e.ids(m.Notify.Objects(i))
			}
		}
	}
}

func decodeMemPlan(d *decoder, s *sched.Schedule) (*mem.Plan, error) {
	pl := &mem.Plan{Schedule: s}
	pl.Capacity = d.i64()
	pl.Executable = d.bool()
	pl.Procs = make([]mem.ProcPlan, s.P)
	for p := range pl.Procs {
		pp := &pl.Procs[p]
		pp.Peak = d.i64()
		pp.Executable = d.bool()
		pp.FailPos = d.i32()
		nMAPs := d.count("MAPs")
		pp.MAPs = make([]mem.MAP, nMAPs)
		for mi := range pp.MAPs {
			m := &pp.MAPs[mi]
			m.Pos = d.i32()
			m.CoverEnd = d.i32()
			m.Frees = d.ids()
			m.Allocs = d.ids()
			nDest := d.count("notify destinations")
			if nDest > 0 {
				m.Notify.Dst = make([]graph.Proc, 0, nDest)
				m.Notify.Off = append(make([]int32, 0, nDest+1), 0)
			}
			for k := 0; k < nDest; k++ {
				q := d.i32()
				m.Notify.Objs = d.appendIDs(m.Notify.Objs)
				if d.err != nil {
					return nil, d.err
				}
				if q < 0 || int(q) >= s.P {
					return nil, fmt.Errorf("plan: notify destination %d out of range", q)
				}
				if k > 0 && q <= m.Notify.Dst[k-1] {
					// A repeated destination would make two byte strings one
					// plan.
					return nil, fmt.Errorf("plan: notify destinations out of order (%d after %d)", q, m.Notify.Dst[k-1])
				}
				m.Notify.Dst = append(m.Notify.Dst, q)
				m.Notify.Off = append(m.Notify.Off, int32(len(m.Notify.Objs)))
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	nObj := int32(s.G.NumObjects())
	for p := range pl.Procs {
		for mi := range pl.Procs[p].MAPs {
			m := &pl.Procs[p].MAPs[mi]
			for _, lists := range [2][]graph.ObjID{m.Frees, m.Allocs} {
				for _, o := range lists {
					if o < 0 || o >= nObj {
						return nil, fmt.Errorf("plan: MAP references object %d out of range", o)
					}
				}
			}
		}
	}
	return pl, nil
}

// encoder appends varint/fixed primitives to a buffer. A stream encoder's
// buffer is a window instead: at record boundaries (spill), once it holds
// window bytes they go to its sink and the window starts over. So an
// encoding of any length passes through about window bytes of memory, and
// the primitives stay plain appends.
type encoder struct {
	b      []byte
	window int // 0: b accumulates the whole encoding
	sink   io.Writer
}

// streamWindow is a stream encoder's window. Its buffer has room for the
// records written between two spills on top.
const streamWindow = 32 << 10

func newStreamEncoder(sink io.Writer) *encoder {
	return &encoder{b: make([]byte, 0, 2*streamWindow), window: streamWindow, sink: sink}
}

// spill hands a full window on; the walkers call it between records.
func (e *encoder) spill() {
	if e.window > 0 && len(e.b) >= e.window {
		e.flush()
	}
}

// flush hands whatever the window holds on.
func (e *encoder) flush() {
	e.sink.Write(e.b)
	e.b = e.b[:0]
}

func (e *encoder) raw(p []byte)  { e.b = append(e.b, p...) }
func (e *encoder) u64(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) i64(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) i32(v int32)   { e.i64(int64(v)) }
func (e *encoder) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *encoder) str(s string)  { e.u64(uint64(len(s))); e.b = append(e.b, s...) }
func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) ids(s []int32) {
	e.u64(uint64(len(s)))
	for i, v := range s {
		e.i32(v)
		if i%4096 == 4095 {
			e.spill()
		}
	}
	e.spill()
}

// decoder consumes the same primitives, latching the first error.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("plan: "+format, args...)
	}
}

func (d *decoder) rawInto(p []byte) {
	if d.err != nil {
		return
	}
	if len(d.b) < len(p) {
		d.fail("truncated input")
		return
	}
	copy(p, d.b[:len(p)])
	d.b = d.b[len(p):]
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) i32() int32 {
	v := d.i64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) str() string { return string(d.bytes()) }

// bytes reads a string's bytes in place: the slice aliases the input.
func (d *decoder) bytes() []byte {
	n := d.count("string bytes")
	if d.err != nil {
		return nil
	}
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.fail("truncated bool")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.fail("bad bool byte %d", v)
		return false
	}
	return v == 1
}

// count reads a length prefix and sanity-checks it against the remaining
// input (every element takes at least one byte), so corrupted lengths fail
// cleanly instead of attempting enormous allocations.
func (d *decoder) count(what string) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.fail("implausible %s count %d (only %d bytes left)", what, n, len(d.b))
		return 0
	}
	return int(n)
}

// appendIDs reads an id list onto s.
func (d *decoder) appendIDs(s []int32) []int32 {
	n := d.count("id list")
	for i := 0; i < n && d.err == nil; i++ {
		s = append(s, d.i32())
	}
	return s
}

func (d *decoder) ids() []int32 {
	n := d.count("id list")
	if d.err != nil || n == 0 {
		return nil
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = d.i32()
	}
	if d.err != nil {
		return nil
	}
	return s
}

package journal

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/iofault"
)

// forceCompact runs a compaction now, whatever the segment's size.
func forceCompact(t *testing.T, j *Journal) {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.compactLocked(); err != nil {
		t.Fatal(err)
	}
}

// writeLog appends recs to a fresh journal in dir, compacting after the
// first compactAt records when compactAt >= 0, and returns what a restart
// replays.
func writeLog(t *testing.T, dir string, recs []Record, compactAt int) *Replay {
	t.Helper()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if i == compactAt {
			forceCompact(t, j)
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if compactAt == len(recs) {
		forceCompact(t, j)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return replayDir(t, dir)
}

// referenceLive folds a record stream by the journal's stated rule, apart
// from its implementation: a submit opens a job unless the ID is already
// live, admit and cancel flag a live job, complete closes it.
func referenceLive(recs []Record) []LiveJob {
	live := map[string]*LiveJob{}
	for _, rec := range recs {
		lj := live[rec.ID]
		switch {
		case rec.Op == OpSubmit && lj == nil:
			live[rec.ID] = &LiveJob{Submit: rec}
		case rec.Op == OpAdmit && lj != nil:
			lj.Admitted = true
		case rec.Op == OpCancel && lj != nil:
			lj.Cancelled = true
		case rec.Op == OpComplete:
			delete(live, rec.ID)
		}
	}
	var out []LiveJob
	for _, lj := range live {
		out = append(out, *lj)
	}
	slices.SortFunc(out, func(a, b LiveJob) int {
		return cmp.Or(cmp.Compare(a.Submit.Seq, b.Submit.Seq), strings.Compare(a.Submit.ID, b.Submit.ID))
	})
	return out
}

// TestDuplicateSubmitKeepsAdmitThroughCompaction: in [submit j1, admit
// j1, submit j1] the first submit and the admit stand, before a
// compaction and after one. A fold that let the second submit replace
// the job dropped the admit from the compacted segment, so a restart
// re-ran a job that had already started.
func TestDuplicateSubmitKeepsAdmitThroughCompaction(t *testing.T) {
	recs := []Record{
		{Op: OpSubmit, Seq: 1, ID: "j1", Tenant: "acme", Spec: []byte(`{"first":true}`)},
		{Op: OpAdmit, ID: "j1", Demand: 64},
		{Op: OpSubmit, Seq: 1, ID: "j1", Tenant: "acme", Spec: []byte(`{"first":false}`)},
	}
	want := []LiveJob{{Submit: recs[0], Admitted: true}}
	for name, compactAt := range map[string]int{"plain": -1, "compacted": len(recs)} {
		rep := writeLog(t, t.TempDir(), recs, compactAt)
		admits := 0
		for _, rec := range rep.Records {
			if rec.Op == OpAdmit && rec.ID == "j1" {
				admits++
			}
		}
		if admits != 1 {
			t.Errorf("%s: %d admit records for j1 replayed, want 1: %+v", name, admits, rep.Records)
		}
		if !reflect.DeepEqual(rep.Live, want) {
			t.Errorf("%s: Live = %+v, want %+v", name, rep.Live, want)
		}
	}
}

// TestLiveFoldIgnoresCompaction is the one-fold property: over random
// record streams on a few IDs — duplicate submits, admits, cancels and
// completions of live and finished jobs alike — Replay.Live after a
// plain reopen, Replay.Live after a reopen that follows a compaction at
// a random point, and referenceLive over the plain replay's records all
// agree.
func TestLiveFoldIgnoresCompaction(t *testing.T) {
	ids := []string{"a", "b", "c", "d"}
	ops := []Op{OpSubmit, OpSubmit, OpAdmit, OpCancel, OpComplete}
	for seed := uint64(0); seed < 256; seed++ {
		rng := rand.New(rand.NewPCG(seed, 43))
		var recs []Record
		var seq uint64
		for n := 5 + rng.IntN(40); len(recs) < n; {
			rec := Record{Op: ops[rng.IntN(len(ops))], ID: ids[rng.IntN(len(ids))]}
			switch rec.Op {
			case OpSubmit:
				seq++
				rec.Seq, rec.Tenant, rec.Spec = seq, "t", []byte(fmt.Sprintf(`{"seq":%d}`, seq))
			case OpAdmit:
				rec.Demand = int64(1 + rng.IntN(100))
			case OpComplete:
				rec.Status = "done"
			}
			recs = append(recs, rec)
		}
		plain := writeLog(t, t.TempDir(), recs, -1)
		compacted := writeLog(t, t.TempDir(), recs, rng.IntN(len(recs)+1))
		ref := referenceLive(plain.Records)
		if !reflect.DeepEqual(plain.Live, ref) {
			t.Fatalf("seed %d: plain Live disagrees with the reference fold\n got %+v\nwant %+v\nlog %+v", seed, plain.Live, ref, recs)
		}
		if !reflect.DeepEqual(compacted.Live, ref) {
			t.Fatalf("seed %d: Live after a compaction disagrees with the reference fold\n got %+v\nwant %+v\nlog %+v", seed, compacted.Live, ref, recs)
		}
	}
}

// TestWriteClampsFreeFormFields: Write cuts an over-cap Status or Error to
// the cap and marks the cut, so a long error never costs the completion
// record; EncodeRecord itself still refuses the uncut record.
func TestWriteClampsFreeFormFields(t *testing.T) {
	long := strings.Repeat("e", 3*MaxFieldBytes)
	rec := Record{Op: OpComplete, ID: "j1", Status: long, Error: long}
	if _, err := EncodeRecord(rec); err == nil {
		t.Fatal("EncodeRecord accepted an over-cap field")
	}
	rep := writeLog(t, t.TempDir(), []Record{rec}, -1)
	if len(rep.Records) != 1 {
		t.Fatalf("replayed %d records, want 1", len(rep.Records))
	}
	for name, s := range map[string]string{"status": rep.Records[0].Status, "error": rep.Records[0].Error} {
		if len(s) != MaxFieldBytes || !strings.HasSuffix(s, "...(truncated)") {
			t.Errorf("%s: %d bytes, tail %q; want %d bytes ending in the marker", name, len(s), s[len(s)-20:], MaxFieldBytes)
		}
	}
}

// TestEncodeNamesFirstOverCapField: with two fields over the cap the
// error names the first in field order, every time.
func TestEncodeNamesFirstOverCapField(t *testing.T) {
	long := strings.Repeat("x", MaxFieldBytes+1)
	rec := Record{Op: OpComplete, ID: "j1", Tenant: long, Error: long}
	for i := 0; i < 20; i++ {
		_, err := EncodeRecord(rec)
		if err == nil || !strings.Contains(err.Error(), "tenant field") {
			t.Fatalf("run %d: err = %v, want it to name the tenant field", i, err)
		}
	}
}

// TestStatsSegmentsSurviveReadFault: Stats reports the segment count the
// journal keeps, so a directory that cannot be listed does not read as an
// empty journal.
func TestStatsSegmentsSurviveReadFault(t *testing.T) {
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	j, _, err := Open(t.TempDir(), Options{FS: ffs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(submitRec(1)); err != nil {
		t.Fatal(err)
	}
	ffs.Break(iofault.ClassRead, syscall.EIO)
	if got := j.Stats().Segments; got != 1 {
		t.Fatalf("Segments = %d under a read fault, want 1", got)
	}
}

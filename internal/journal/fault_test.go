package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/iofault"
)

func submitRec(seq uint64) Record {
	return Record{
		Op: OpSubmit, Seq: seq, ID: fmt.Sprintf("job-%d", seq),
		Tenant: "t", Priority: "normal", Spec: []byte(`{"kind":"grid"}`),
	}
}

func completeRec(seq uint64) Record {
	return Record{Op: OpComplete, ID: fmt.Sprintf("job-%d", seq), Status: "done"}
}

// countSubmits returns the set of submit IDs in a replay.
func countSubmits(rep *Replay) map[string]bool {
	ids := make(map[string]bool)
	for _, rec := range rep.Records {
		if rec.Op == OpSubmit {
			ids[rec.ID] = true
		}
	}
	return ids
}

// TestFsyncFailurePoisonsSegment is the fsyncgate regression test: after
// a failed fsync the journal must never write to the poisoned segment fd
// again — every Append fails fast with ErrDegraded until Rearm rotates
// onto a fresh segment — and the record whose fsync failed must not
// survive replay as a phantom.
func TestFsyncFailurePoisonsSegment(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	j, _, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.Append(submitRec(seq)); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
	seg1 := filepath.Join(dir, segName(1))
	writesAtPoison := ffs.Writes(seg1)

	// Disk dies: the write lands but the fsync fails, so job-4 was never
	// acknowledged even though its bytes are on disk.
	ffs.Break(iofault.ClassSync, syscall.EIO)
	if err := j.Append(submitRec(4)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Append during fsync failure = %v, want ErrDegraded", err)
	}
	if deg, cause := j.Degraded(); !deg || cause == nil {
		t.Fatalf("Degraded() = %v, %v after poison", deg, cause)
	}
	// Fast-fail path: no writes may reach the poisoned fd.
	for seq := uint64(5); seq <= 8; seq++ {
		if err := j.Append(submitRec(seq)); !errors.Is(err, ErrDegraded) {
			t.Fatalf("Append(%d) while degraded = %v, want ErrDegraded", seq, err)
		}
	}
	if got := ffs.Writes(seg1); got != writesAtPoison+1 {
		t.Fatalf("poisoned segment got %d writes after the fault, want 1 (the failing append only)", got-writesAtPoison)
	}

	// Disk still broken: Rearm must fail and stay degraded.
	if err := j.Rearm(); err == nil {
		t.Fatalf("Rearm with the disk still broken succeeded")
	}
	if j.Stats().RearmFailures == 0 {
		t.Fatalf("RearmFailures not counted")
	}

	// Disk comes back: Rearm rotates onto a fresh segment.
	ffs.Heal()
	if err := j.Rearm(); err != nil {
		t.Fatalf("Rearm after heal: %v", err)
	}
	if deg, _ := j.Degraded(); deg {
		t.Fatalf("still degraded after successful Rearm")
	}
	st := j.Stats()
	if st.Rearms != 1 || st.GapRecords != 1 {
		t.Fatalf("Rearms=%d GapRecords=%d, want 1/1", st.Rearms, st.GapRecords)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(2))); err != nil {
		t.Fatalf("rotation did not create a fresh segment: %v", err)
	}
	if err := j.Append(submitRec(9)); err != nil {
		t.Fatalf("Append after Rearm: %v", err)
	}
	// Zero writes to the poisoned segment across the whole degraded
	// window and after recovery.
	if got := ffs.Writes(seg1); got != writesAtPoison+1 {
		t.Fatalf("poisoned segment written after rotation: %d writes", got-writesAtPoison)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Replay: jobs 1-3 and 9 survive; job-4 (unacknowledged suspect
	// bytes) is discarded by the gap cap, never a phantom.
	j2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	ids := countSubmits(rep)
	for _, want := range []string{"job-1", "job-2", "job-3", "job-9"} {
		if !ids[want] {
			t.Fatalf("replay lost acknowledged %s (got %v)", want, ids)
		}
	}
	if ids["job-4"] {
		t.Fatalf("unacknowledged job-4 resurrected as a phantom")
	}
	if rep.SuspectBytes == 0 {
		t.Fatalf("suspect bytes not reported (the torn frame was on disk)")
	}
	if j2.HighSeq() != 9 {
		t.Fatalf("HighSeq = %d, want 9 (carried across the gap)", j2.HighSeq())
	}
}

// TestWriteFailurePoisons covers the EIO-on-write path: the frame never
// reaches the disk, so the gap cap discards nothing but the journal still
// degrades and re-arms.
func TestWriteFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	j, _, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Append(submitRec(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ffs.Break(iofault.ClassWrite, syscall.EIO)
	if err := j.Append(submitRec(2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Append = %v, want ErrDegraded", err)
	}
	ffs.Heal()
	if err := j.Rearm(); err != nil {
		t.Fatalf("Rearm: %v", err)
	}
	if err := j.Append(submitRec(3)); err != nil {
		t.Fatalf("Append after Rearm: %v", err)
	}
	j.Close()
	_, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	ids := countSubmits(rep)
	if !ids["job-1"] || !ids["job-3"] || ids["job-2"] {
		t.Fatalf("replay ids = %v, want job-1 and job-3 only", ids)
	}
	if rep.SuspectBytes != 0 {
		t.Fatalf("SuspectBytes = %d, want 0 (the failed write never landed)", rep.SuspectBytes)
	}
}

// TestENOSPCRearmCompacts: when the fault is disk-full, Rearm's first
// move is an emergency compaction — the live set is tiny, and publishing
// a compaction root deletes every older segment, reclaiming the dead
// weight that filled the disk.
func TestENOSPCRearmCompacts(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	j, _, err := Open(dir, Options{FS: ffs, MaxSegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Mostly dead weight: 40 terminal jobs, 2 live ones.
	for seq := uint64(1); seq <= 40; seq++ {
		if err := j.Append(submitRec(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := j.Append(completeRec(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	for seq := uint64(41); seq <= 42; seq++ {
		if err := j.Append(submitRec(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	ffs.Break(iofault.ClassDurability, syscall.ENOSPC)
	if err := j.Append(submitRec(43)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Append = %v, want ErrDegraded", err)
	}
	if err := j.Rearm(); err == nil {
		t.Fatalf("Rearm with the disk still full succeeded")
	}
	ffs.Heal()
	if err := j.Rearm(); err != nil {
		t.Fatalf("Rearm after heal: %v", err)
	}
	st := j.Stats()
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1 (ENOSPC re-arm must compact)", st.Compactions)
	}
	if st.GapRecords != 0 {
		t.Fatalf("GapRecords = %d, want 0 (the root supersedes the poisoned segment)", st.GapRecords)
	}
	if st.Segments != 1 {
		t.Fatalf("Segments = %d, want 1 after emergency compaction", st.Segments)
	}
	if err := j.Append(submitRec(44)); err != nil {
		t.Fatalf("Append after Rearm: %v", err)
	}
	j.Close()
	_, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	ids := countSubmits(rep)
	for _, want := range []string{"job-41", "job-42", "job-44"} {
		if !ids[want] {
			t.Fatalf("replay lost live %s", want)
		}
	}
	if ids["job-43"] || ids["job-1"] {
		t.Fatalf("replay ids = %v: phantom or un-compacted terminal job", ids)
	}
}

// TestCompactDirSyncFailureRollsBack: a compaction whose publish cannot
// be made durable (directory fsync fails) must roll back and keep the old
// segment — never leave a root it is not appending to next to a segment
// it is.
func TestCompactDirSyncFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	j, _, err := Open(dir, Options{FS: ffs, MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ffs.Break(iofault.ClassSyncDir, syscall.EIO)
	// Enough terminal traffic to cross the compaction threshold several
	// times; every attempt must fail cleanly without losing an append.
	var seq uint64
	for seq = 1; seq <= 200; seq++ {
		if err := j.Append(submitRec(seq)); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
		if err := j.Append(completeRec(seq)); err != nil {
			t.Fatalf("Append complete(%d): %v", seq, err)
		}
	}
	st := j.Stats()
	if st.CompactFailures == 0 {
		t.Fatalf("no compaction was attempted (CompactFailures = 0); grow the workload")
	}
	if st.Compactions != 0 {
		t.Fatalf("compaction published without a durable dir entry")
	}
	ffs.Heal()
	// With the disk healed the next eligible append compacts for real.
	for ; seq <= 600; seq++ {
		if err := j.Append(submitRec(seq)); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
		if err := j.Append(completeRec(seq)); err != nil {
			t.Fatalf("Append complete(%d): %v", seq, err)
		}
		if j.Stats().Compactions > 0 {
			break
		}
	}
	if j.Stats().Compactions == 0 {
		t.Fatalf("compaction never recovered after heal")
	}
	j.Close()
	if _, rep, err := Open(dir, Options{}); err != nil {
		t.Fatalf("reopen: %v", err)
	} else if len(rep.Records) == 0 {
		t.Fatalf("empty replay after compaction recovery")
	}
}

// TestCompactWriteFailureIsNonFatal: an EIO while writing the compacted
// tmp segment must not fail the append that triggered it (its record is
// already durable) and must leave no .tmp litter that a reopen would
// misread.
func TestCompactWriteFailureIsNonFatal(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	j, _, err := Open(dir, Options{FS: ffs, MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Fail every write to a .tmp path by breaking CreateTemp-class ops?
	// Compaction opens the tmp via OpenFile, so break writes globally only
	// for the compaction window: fill below the threshold first, then
	// break, then push one append over the line. The append itself must
	// still succeed because its own write+fsync completed before the
	// compaction attempt started.
	var seq uint64
	for seq = 1; ; seq++ {
		if err := j.Append(submitRec(seq)); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
		if err := j.Append(completeRec(seq)); err != nil {
			t.Fatalf("Append complete(%d): %v", seq, err)
		}
		st := j.Stats()
		if st.ActiveBytes >= (4<<10)-200 {
			break
		}
	}
	ffs.Break(iofault.ClassOpen|iofault.ClassCreate, syscall.EIO)
	// Push appends over the compaction threshold; each rides a failing
	// compaction attempt and must still succeed.
	for i := 0; i < 20; i++ {
		seq++
		if err := j.Append(submitRec(seq)); err != nil {
			t.Fatalf("append that triggers a failing compaction must not fail: %v", err)
		}
		if err := j.Append(completeRec(seq)); err != nil {
			t.Fatalf("Append complete(%d): %v", seq, err)
		}
	}
	st := j.Stats()
	if st.CompactFailures == 0 {
		t.Fatalf("compaction failure not counted")
	}
	if st.Compactions != 0 {
		t.Fatalf("compaction reported success under EIO")
	}
	ffs.Heal()
	j.Close()
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == tmpSuffix {
			t.Fatalf("aborted compaction left %s behind", e.Name())
		}
	}
	if _, rep, err := Open(dir, Options{}); err != nil {
		t.Fatalf("reopen: %v", err)
	} else {
		ids := countSubmits(rep)
		if !ids[fmt.Sprintf("job-%d", seq)] {
			t.Fatalf("the append that rode the failed compaction was lost")
		}
	}
}

// TestLostAckedBytesFailsLoudly: if the poisoned segment is shorter than
// the extent the gap record says was acknowledged, durable data vanished
// — Open must refuse, not silently come up incomplete.
func TestLostAckedBytesFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	j, _, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if err := j.Append(submitRec(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	ffs.Break(iofault.ClassSync, syscall.EIO)
	j.Append(submitRec(5))
	ffs.Heal()
	if err := j.Rearm(); err != nil {
		t.Fatalf("Rearm: %v", err)
	}
	j.Close()
	// Chop acknowledged bytes off the capped segment.
	seg1 := filepath.Join(dir, segName(1))
	fi, err := os.Stat(seg1)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(seg1, fi.Size()/2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatalf("Open succeeded on a log that lost acknowledged records")
	}
	if _, err := ReplayDir(dir); err == nil {
		t.Fatalf("ReplayDir succeeded on a log that lost acknowledged records")
	}
}

// TestSeededFaultPlanSoak drives a journal through a seeded low-rate
// fault plan: every append either acknowledges durably or degrades
// loudly, re-arms heal the journal, and the final replay contains exactly
// the acknowledged submits — no phantoms, no losses — for several seeds.
func TestSeededFaultPlanSoak(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			ffs := iofault.NewFaultFS(nil, iofault.Plan{
				Seed: seed, SyncErrFrac: 0.05, WriteErrFrac: 0.03,
			})
			j, _, err := Open(dir, Options{FS: ffs, MaxSegmentBytes: 8 << 10})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			acked := make(map[string]bool)
			terminal := make(map[string]bool)
			for seq := uint64(1); seq <= 300; seq++ {
				id := fmt.Sprintf("job-%d", seq)
				err := j.Append(submitRec(seq))
				switch {
				case err == nil:
					acked[id] = true
				case errors.Is(err, ErrDegraded):
					// Re-arm with unlimited patience: the plan's faults are
					// transient, so some attempt succeeds.
					for try := 0; ; try++ {
						if err := j.Rearm(); err == nil {
							break
						}
						if try > 1000 {
							t.Fatalf("journal never re-armed under seed %d", seed)
						}
					}
				default:
					t.Fatalf("Append(%d) = %v, want nil or ErrDegraded", seq, err)
				}
				if acked[id] && seq%3 == 0 {
					// A completion whose append failed is held for the
					// re-arm, so the job is terminal either way.
					j.Append(completeRec(seq))
					terminal[id] = true
				}
			}
			j.Close()
			_, rep, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen under seed %d: %v", seed, err)
			}
			ids := countSubmits(rep)
			for id := range ids {
				if !acked[id] {
					t.Fatalf("seed %d: phantom %s in replay (never acknowledged)", seed, id)
				}
			}
			for id := range acked {
				if terminal[id] {
					continue // terminal jobs may be compacted away
				}
				if !ids[id] {
					t.Fatalf("seed %d: acknowledged %s lost at replay", seed, id)
				}
			}
		})
	}
}

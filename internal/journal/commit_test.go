package journal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"testing"

	"repro/internal/iofault"
)

// gateFS is the real filesystem whose next file Sync, once armed, stops
// until released — an fsync the test holds in flight.
type gateFS struct {
	iofault.OS
	mu      sync.Mutex
	gate    chan struct{} // guarded-by: mu
	entered chan struct{}
}

func newGateFS() *gateFS { return &gateFS{entered: make(chan struct{}, 1)} }

// arm makes the next Sync block until the returned release is called.
func (g *gateFS) arm() (release func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
	return func() { close(gate) }
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := g.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	iofault.File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	g := f.fs
	g.mu.Lock()
	gate := g.gate
	g.gate = nil
	g.mu.Unlock()
	if gate != nil {
		g.entered <- struct{}{}
		<-gate
	}
	return f.File.Sync()
}

func mustWrite(t *testing.T, j *Journal, rec Record) Pos {
	t.Helper()
	pos, err := j.Write(rec)
	if err != nil {
		t.Fatalf("Write(%s %s): %v", rec.Op, rec.ID, err)
	}
	return pos
}

// TestConcurrentSyncsShareOneFsync: while one fsync is in flight, writers
// keep appending — Write does not wait for it — and the Syncs that queue
// behind it are all answered by one more fsync. Eleven records, each
// synced by its own caller, cost two fsyncs, and each caller returns only
// once an fsync that started after its Write has finished.
func TestConcurrentSyncsShareOneFsync(t *testing.T) {
	dir := t.TempDir()
	fs := newGateFS()
	j, _, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	first := mustWrite(t, j, submitRec(1))
	release := fs.arm()
	firstDone := make(chan error, 1)
	go func() { firstDone <- j.Sync(first) }()
	<-fs.entered // the first fsync runs, with the journal's lock released

	const behind = 10
	errs := make(chan error, behind)
	var wg sync.WaitGroup
	for seq := uint64(2); seq < 2+behind; seq++ {
		pos := mustWrite(t, j, submitRec(seq))
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- j.Sync(pos)
		}()
	}
	select {
	case err := <-firstDone:
		t.Fatalf("Sync returned (%v) while its fsync was still held", err)
	default:
	}
	release()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Syncs != 2 || st.Records != 1+behind {
		t.Fatalf("%d records cost %d fsyncs, want %d records and 2 fsyncs (the held one, then one for everything behind it)", st.Records, st.Syncs, 1+behind)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(countSubmits(rep)); n != 1+behind {
		t.Fatalf("replay holds %d submits, want %d", n, 1+behind)
	}
}

// TestSyncCoversEarlierWrites: a record is durable once any later record
// is — one fsync covers the file — so a job's submit, admit and complete
// cost one fsync between them, and syncing an earlier position afterwards
// costs none.
func TestSyncCoversEarlierWrites(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	submit := mustWrite(t, j, submitRec(1))
	mustWrite(t, j, Record{Op: OpAdmit, ID: "job-1", Demand: 64})
	complete := mustWrite(t, j, completeRec(1))
	if err := j.Sync(complete); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(submit); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Syncs != 1 || st.Records != 3 || st.LiveJobs != 0 {
		t.Fatalf("stats %+v, want 3 records, 1 fsync, no live job", st)
	}
}

// TestCompactionCarriesUnsyncedRecords: a compaction that runs while
// records written behind an fsync are still waiting for theirs copies them
// into the new segment — the old one is deleted — and its own fsync makes
// them durable, so their Sync needs no second one.
func TestCompactionCarriesUnsyncedRecords(t *testing.T) {
	dir := t.TempDir()
	fs := newGateFS()
	j, _, err := Open(dir, Options{FS: fs, MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Dead weight just short of the compaction threshold.
	var seq uint64
	for seq = 1; ; seq++ {
		if err := j.Append(submitRec(seq)); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(completeRec(seq)); err != nil {
			t.Fatal(err)
		}
		if j.Stats().ActiveBytes >= (4<<10)-200 {
			break
		}
	}
	seq++
	big := submitRec(seq)
	big.Spec = make([]byte, 400)
	over := mustWrite(t, j, big) // crosses the threshold
	if j.Stats().Compactions != 0 {
		t.Fatal("compacted before the test's fsync")
	}
	release := fs.arm()
	done := make(chan error, 1)
	go func() { done <- j.Sync(over) }()
	<-fs.entered
	behind := mustWrite(t, j, submitRec(seq+1)) // waits on the fsync in flight
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	syncs := st.Syncs
	if err := j.Sync(behind); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Syncs; got != syncs {
		t.Fatalf("the record the compaction carried needed %d more fsyncs, want 0", got-syncs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := countSubmits(rep)
	if len(ids) != 2 || !ids[fmt.Sprintf("job-%d", seq)] || !ids[fmt.Sprintf("job-%d", seq+1)] {
		t.Fatalf("replay after compaction holds %v, want the two live jobs", ids)
	}
}

// TestLostRecordNeverReportsDurable: the records an fsync failure cut off
// stay lost — Sync on them fails before and after the re-arm, even though
// the journal's durable position moves past them — while records written
// after the re-arm sync as usual.
func TestLostRecordNeverReportsDurable(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	j, _, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRec(1)); err != nil {
		t.Fatal(err)
	}
	lost := mustWrite(t, j, submitRec(2))
	ffs.Break(iofault.ClassSync, syscall.EIO)
	if err := j.Sync(lost); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Sync through a failing fsync = %v, want ErrDegraded", err)
	}
	ffs.Heal()
	if err := j.Rearm(); err != nil {
		t.Fatal(err)
	}
	after := mustWrite(t, j, submitRec(3))
	if err := j.Sync(after); err != nil {
		t.Fatalf("Sync after the re-arm: %v", err)
	}
	if err := j.Sync(lost); !errors.Is(err, ErrLost) || !errors.Is(err, ErrDegraded) {
		t.Fatalf("Sync of a record lost to the fault window after the re-arm = %v, want ErrLost", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids := countSubmits(rep); !ids["job-1"] || ids["job-2"] || !ids["job-3"] {
		t.Fatalf("replay ids %v, want job-1 and job-3", ids)
	}
}

// TestHeldRecordsFollowTheGap: a completion that cannot be made durable
// because the disk died is held, if its job's submit is durable, and the
// re-arm writes it right behind the gap marker — the job is terminal at
// replay and will not run again. Records of a job whose submit never
// became durable are dropped, and a submit is never held.
func TestHeldRecordsFollowTheGap(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(nil, iofault.Plan{})
	j, _, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := j.Append(submitRec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	orphan := mustWrite(t, j, submitRec(3))
	// The fsync that would cover job-1's completion fails: it was written,
	// so the gap discards it, and the journal keeps a copy.
	ffs.Break(iofault.ClassSync, syscall.EIO)
	if err := j.Append(completeRec(1)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Append through a failing fsync = %v, want ErrDegraded", err)
	}
	if err := j.Sync(orphan); !errors.Is(err, ErrDegraded) {
		t.Fatalf("job-3's submit was in the fault window; Sync = %v", err)
	}
	// Degraded: job-2's completion is held, job-3's is dropped with its
	// submit, a new submit is refused.
	for _, rec := range []Record{completeRec(2), completeRec(3), submitRec(4)} {
		if _, err := j.Write(rec); !errors.Is(err, ErrDegraded) {
			t.Fatalf("Write(%s %s) while degraded = %v, want ErrDegraded", rec.Op, rec.ID, err)
		}
	}
	if st := j.Stats(); st.LiveJobs != 2 {
		t.Fatalf("LiveJobs = %d while degraded, want 2 (held records are not durable yet)", st.LiveJobs)
	}
	ffs.Heal()
	if err := j.Rearm(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.LiveJobs != 0 || st.GapRecords != 1 {
		t.Fatalf("after the re-arm: %+v, want no live job and one gap record", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range rep.Records {
		got = append(got, rec.Op.String()+" "+rec.ID)
	}
	want := []string{"submit job-1", "submit job-2", "gap " + segName(1), "complete job-1", "complete job-2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replay %q, want %q", got, want)
	}
}

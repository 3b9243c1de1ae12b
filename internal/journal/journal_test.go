package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Op: OpSubmit, Seq: 1, ID: "j0001", Tenant: "acme", Priority: "high", Spec: []byte(`{"kind":"chol","n":120}`)},
		{Op: OpAdmit, Seq: 0, ID: "j0001", Demand: 512},
		{Op: OpSubmit, Seq: 2, ID: "j0002", Tenant: "dot", Priority: "low", Spec: []byte(`{"kind":"lu"}`)},
		{Op: OpCancel, ID: "j0002"},
		{Op: OpComplete, ID: "j0001", Status: "done"},
		{Op: OpComplete, ID: "j0002", Status: "failed", Error: "cancelled"},
		{Op: OpMark, Seq: 7},
	}
}

// replayDir opens the journal in dir and closes it again, returning what a
// restart would replay.
func replayDir(t *testing.T, dir string) *Replay {
	t.Helper()
	j, rep, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		b, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("%v: %v", rec.Op, err)
		}
		got, n, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", rec.Op, err)
		}
		if n != len(b) {
			t.Fatalf("%v: consumed %d of %d bytes", rec.Op, n, len(b))
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", rec.Op, got, rec)
		}
	}
}

func TestEncodeRejectsBadRecords(t *testing.T) {
	if _, err := EncodeRecord(Record{Op: 0}); err == nil {
		t.Error("op 0 must be rejected")
	}
	if _, err := EncodeRecord(Record{Op: 99}); err == nil {
		t.Error("unknown op must be rejected")
	}
	if _, err := EncodeRecord(Record{Op: OpSubmit, ID: strings.Repeat("x", maxFieldBytes+1)}); err == nil {
		t.Error("oversized field must be rejected")
	}
	if _, err := EncodeRecord(Record{Op: OpSubmit, Spec: make([]byte, maxRecordBytes)}); err == nil {
		t.Error("oversized spec must be rejected")
	}
}

// TestDecodeTruncationAndCorruption exercises every cut point of a valid
// frame (truncation) and every flipped byte (corruption): the decoder
// must return the sentinel errors, never a wrong record, never panic.
func TestDecodeTruncationAndCorruption(t *testing.T) {
	rec := sampleRecords()[0]
	b, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, _, err := DecodeRecord(b[:cut]); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: got %v, want truncated/corrupt", cut, err)
		}
	}
	for i := 0; i < len(b); i++ {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0xFF
		got, _, err := DecodeRecord(mut)
		if err == nil && !reflect.DeepEqual(got, rec) {
			// A flip in the length prefix can widen the frame so the CRC no
			// longer matches — any error is fine; a silently different
			// record is not.
			t.Fatalf("flip at %d: decoded a different record without error: %+v", i, got)
		}
	}
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	j, rep, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(rep.Records))
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if hs := j.HighSeq(); hs != 7 {
		t.Fatalf("HighSeq=%d, want 7 (from the mark record)", hs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(want[0]); err == nil {
		t.Fatal("append after Close must fail")
	}

	j2, rep2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(rep2.Records, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", rep2.Records, want)
	}
	if rep2.TruncatedBytes != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", rep2.TruncatedBytes)
	}
	if hs := j2.HighSeq(); hs != 7 {
		t.Fatalf("replayed HighSeq=%d, want 7", hs)
	}
}

// TestTornTailTruncated simulates a crash mid-append: every prefix of a
// valid log replays a prefix of its records, and Open truncates the torn
// bytes so the journal is appendable again.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	var frames [][]byte
	for _, rec := range recs {
		frame, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	full, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rep, err := Open(sub, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Count how many whole frames fit in the prefix.
		whole, off := 0, 0
		for whole < len(frames) && off+len(frames[whole]) <= cut {
			off += len(frames[whole])
			whole++
		}
		if len(rep.Records) != whole {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(rep.Records), whole)
		}
		if want := int64(cut - off); rep.TruncatedBytes != want {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, rep.TruncatedBytes, want)
		}
		// The journal must be appendable after truncation, and the new
		// record must land where the torn bytes were.
		if err := j2.Append(Record{Op: OpMark, Seq: 99}); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		j2.Close()
		rep2 := replayDir(t, sub)
		if len(rep2.Records) != whole+1 || rep2.Records[whole].Seq != 99 {
			t.Fatalf("cut %d: re-replay got %d records", cut, len(rep2.Records))
		}
	}
}

// TestMidJournalCorruptionRefused: damage before the newest segment's
// tail must fail Open loudly, not silently drop records.
func TestMidJournalCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xFF // inside the first record, not the tail
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Corruption in the last (only) segment reads as a torn tail — but a
	// second segment after it makes the damage mid-journal.
	if err := os.WriteFile(filepath.Join(dir, segName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("Open must refuse a journal with a mid-log hole")
	}
}

// reframe encodes rec, then rewrites its payload's version and op bytes
// and checksums the result: a frame some other writer wrote whole.
func reframe(t *testing.T, rec Record, version, op byte) []byte {
	t.Helper()
	b, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHdrBytes], b[frameHdrBytes+1] = version, op
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[frameHdrBytes:], crcTable))
	return b
}

// TestUndecodableFrameRefused: only a frame that ends early or fails its
// checksum is a torn tail. A checksum-valid frame the decoder cannot read
// was written whole — by another writer, or by an older one, like the
// op-6 gap marker a re-arm used to begin a segment with — and the records
// after it may have been acknowledged, so Open must refuse the log, name
// the segment and offset, and truncate nothing.
func TestUndecodableFrameRefused(t *testing.T) {
	enc := func(rec Record) []byte {
		b, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	j1 := enc(Record{Op: OpSubmit, Seq: 1, ID: "j1"})
	j2 := enc(Record{Op: OpSubmit, Seq: 2, ID: "j2"})
	// What a re-arm used to write: the gap capped segment 1 at j1, past
	// which j2 was never acknowledged.
	gap := reframe(t, Record{Op: OpMark, Seq: 1, ID: segName(1), Demand: int64(len(j1))}, recVersion, 6)
	if _, _, err := DecodeRecord(gap); !errors.Is(err, ErrCorrupt) {
		t.Errorf("op 6 decodes (err=%v); it is retired", err)
	}
	for _, tc := range []struct {
		name string
		segs [][]byte
		off  int // where the newest segment is damaged
	}{
		{"unknown op", [][]byte{cat(j1, reframe(t, Record{Op: OpSubmit, Seq: 3, ID: "jx"}, recVersion, 7), j2)}, len(j1)},
		{"unknown version", [][]byte{cat(j1, reframe(t, Record{Op: OpSubmit, Seq: 3, ID: "jx"}, recVersion+1, byte(OpSubmit)), j2)}, len(j1)},
		{"gap segment", [][]byte{cat(j1, j2), cat(gap, enc(Record{Op: OpComplete, ID: "j1", Status: "done"}))}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for i, b := range tc.segs {
				if err := os.WriteFile(filepath.Join(dir, segName(i+1)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err := Open(dir, Options{NoSync: true})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want an error matching ErrCorrupt", err)
			}
			newest := segName(len(tc.segs))
			if where := fmt.Sprintf("%s damaged at offset %d", newest, tc.off); !strings.Contains(err.Error(), where) {
				t.Fatalf("Open error %q does not say %q", err, where)
			}
			for i, b := range tc.segs {
				got, err := os.ReadFile(filepath.Join(dir, segName(i+1)))
				if err != nil || !bytes.Equal(got, b) {
					t.Fatalf("%s changed by a refused Open: %d bytes, was %d (err=%v)", segName(i+1), len(got), len(b), err)
				}
			}
		})
	}
}

// TestCompaction drives the journal past its segment bound with mostly
// terminal jobs and checks that compaction keeps live jobs and the ID
// high-water mark while old segments are deleted.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true, MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"kind":"chol","n":240,"seed":12345}`)
	var seq uint64
	submit := func(id, tenant string) {
		seq++
		if err := j.Append(Record{Op: OpSubmit, Seq: seq, ID: id, Tenant: tenant, Priority: "normal", Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	// Two live jobs (one admitted), then a flood of terminal ones.
	submit("live-queued", "acme")
	submit("live-running", "dot")
	if err := j.Append(Record{Op: OpAdmit, ID: "live-running", Demand: 64}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		id := "dead-" + string(rune('a'+i%26)) + "-" + string(rune('a'+i/26))
		submit(id, "acme")
		if err := j.Append(Record{Op: OpComplete, ID: id, Status: "done"}); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatal("expected at least one compaction")
	}
	if st.Segments != 1 {
		t.Fatalf("Segments=%d after compaction, want 1", st.Segments)
	}
	if st.LiveJobs != 2 {
		t.Fatalf("LiveJobs=%d, want 2", st.LiveJobs)
	}
	high := j.HighSeq()
	j.Close()

	j2, rep, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// The mark plus the post-compaction records must reconstruct the full
	// ID high-water mark: a restarted daemon can never reuse a job ID.
	if j2.HighSeq() != high {
		t.Fatalf("replayed HighSeq=%d, want %d", j2.HighSeq(), high)
	}
	byID := map[string][]Op{}
	for _, rec := range rep.Records {
		if rec.Op == OpMark {
			continue
		}
		byID[rec.ID] = append(byID[rec.ID], rec.Op)
	}
	for id, want := range map[string][]Op{
		"live-queued":  {OpSubmit},
		"live-running": {OpSubmit, OpAdmit},
	} {
		if !reflect.DeepEqual(byID[id], want) {
			t.Fatalf("%s ops=%v, want %v", id, byID[id], want)
		}
	}
	for id, ops := range byID {
		if id != "live-queued" && id != "live-running" {
			// Any surviving terminal job must be complete — pairs in the
			// active segment's tail that have not been compacted yet.
			if ops[len(ops)-1] != OpComplete {
				t.Fatalf("non-terminal residue for %s: %v", id, ops)
			}
		}
	}
}

// TestCompactionPreservesSubmissionOrder: recovered jobs must replay in
// arrival order even after their records pass through a compaction.
func TestCompactionPreservesSubmissionOrder(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true, MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for i := 0; i < 50; i++ {
		seq++
		id := string(rune('a' + i%26))
		if err := j.Append(Record{Op: OpSubmit, Seq: seq, ID: "live" + string(rune('0'+i/10)) + id, Spec: bytes.Repeat([]byte("x"), 200)}); err != nil {
			t.Fatal(err)
		}
	}
	// Force a compaction: dead weight beyond the cap.
	for i := 0; i < 100; i++ {
		seq++
		if err := j.Append(Record{Op: OpSubmit, Seq: seq, ID: "dead", Spec: bytes.Repeat([]byte("y"), 200)}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Op: OpComplete, ID: "dead", Status: "done"}); err != nil {
			t.Fatal(err)
		}
	}
	if j.Stats().Compactions == 0 {
		t.Fatal("expected a compaction")
	}
	j.Close()
	rep := replayDir(t, dir)
	var last uint64
	for _, rec := range rep.Records {
		if rec.Op != OpSubmit || rec.ID == "dead" {
			continue
		}
		if rec.Seq <= last {
			t.Fatalf("submit order violated: seq %d after %d", rec.Seq, last)
		}
		last = rec.Seq
	}
}

// TestCrashBetweenCompactionAndRemoveReplaysOnce simulates the crash
// window after compactLocked publishes the compacted segment but before
// it removes the old one: both segments are on disk, and the compacted
// one repeats every live job's frames. Open must treat the
// segment-initial OpMark as a compaction root — replaying only from it
// and deleting the stale segment — so no job's records replay twice.
func TestCrashBetweenCompactionAndRemoveReplaysOnce(t *testing.T) {
	dir := t.TempDir()
	frame := func(rec Record) []byte {
		b, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	submit := frame(Record{Op: OpSubmit, Seq: 1, ID: "j0001", Tenant: "acme", Priority: "normal", Spec: []byte(`{"kind":"chol"}`)})
	admit := frame(Record{Op: OpAdmit, ID: "j0001", Demand: 64})
	// Segment 1: the pre-compaction log — the live job plus a dead one.
	seg1 := append(append(append([]byte(nil), submit...), admit...),
		append(frame(Record{Op: OpSubmit, Seq: 2, ID: "j0002", Spec: []byte(`{}`)}),
			frame(Record{Op: OpComplete, ID: "j0002", Status: "done"})...)...)
	// Segment 2: exactly what compactLocked publishes — mark + live frames.
	seg2 := append(append(frame(Record{Op: OpMark, Seq: 2}), submit...), admit...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), seg2, 0o644); err != nil {
		t.Fatal(err)
	}

	j, rep, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if hs := j.HighSeq(); hs != 2 {
		t.Errorf("HighSeq=%d, want 2", hs)
	}
	if st := j.Stats(); st.Segments != 1 || st.LiveJobs != 1 {
		t.Errorf("Segments=%d LiveJobs=%d after root recovery, want 1 and 1", st.Segments, st.LiveJobs)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Errorf("stale pre-compaction segment still on disk (err=%v)", err)
	}
	submits := 0
	for _, rec := range rep.Records {
		if rec.Op == OpSubmit && rec.ID == "j0001" {
			submits++
		}
		if rec.ID == "j0002" {
			t.Errorf("terminal job j0002 resurrected from the stale segment")
		}
	}
	if submits != 1 {
		t.Errorf("%d OpSubmit records for j0001, want exactly 1", submits)
	}
}

// TestCrashDuringCompactionKeepsOldSegment: a compaction that dies before
// its rename leaves only a .tmp file; Open must discard it and replay the
// old segment untouched — the half-written copy must never shadow it.
func TestCrashDuringCompactionKeepsOldSegment(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// A torn compacted segment: a valid mark, but the live frames that
	// should follow never made it to disk.
	mark, err := EncodeRecord(Record{Op: OpMark, Seq: 7})
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, segName(2)+tmpSuffix)
	if err := os.WriteFile(tmp, mark, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rep, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(rep.Records, want) {
		t.Fatalf("replay after interrupted compaction:\n got %+v\nwant %+v", rep.Records, want)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("interrupted compaction tmp file still on disk (err=%v)", err)
	}
}

// TestMidSegmentMarkDoesNotReset: an OpMark appended in the middle of a
// segment is just the high-water record — only a segment-INITIAL mark is
// a compaction root.
func TestMidSegmentMarkDoesNotReset(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords() // ends with a mid-segment OpMark
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	rep := replayDir(t, dir)
	if !reflect.DeepEqual(rep.Records, want) {
		t.Fatalf("mid-segment mark dropped records:\n got %+v\nwant %+v", rep.Records, want)
	}
}

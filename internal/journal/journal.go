// Package journal is the write-ahead job journal of the rapidd solve
// service. Every job-lifecycle transition (submit, admit, complete,
// cancel) is written — checksummed — before the daemon acts on it, and
// made durable by an fsync before the daemon promises anything that rests
// on it, so a restart can replay the log and reconstruct exactly which
// jobs were queued (recoverable) and which were executing (must be failed
// explicitly). The journal never silently drops an acknowledged record:
// the only tolerated damage is a torn tail on the newest segment, which a
// crash mid-append produces by construction, and even that is truncated
// loudly (reported in Stats) rather than skipped over.
//
// Writing and syncing are separate calls. Write appends a record to the
// active segment and returns its Pos; Sync(pos) returns once that record
// is durable. One fsync covers every record written before it started, so
// concurrent Syncs share it: the first caller runs the fsync outside the
// lock while later writers keep appending, and whoever waits behind it
// either finds its record already covered or runs the next fsync for all
// of them (group commit). Append is Write followed by Sync.
//
// Layout: a journal directory holds numbered segment files
// (wal-00000001.log, ...). Records are length-prefixed, CRC-32C-framed
// binary. When the active segment outgrows MaxSegmentBytes the journal
// compacts: it writes a fresh segment seeded with a high-water mark record
// plus the live (non-terminal) jobs' records, then deletes the older
// segments — terminal jobs vanish, the ID high-water mark and every
// in-flight job survive. Replay therefore always sees a bounded log:
// live jobs plus the tail of recent traffic.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"repro/internal/iofault"
)

// Op enumerates record types.
type Op uint8

const (
	// OpSubmit records a job accepted into the queue: ID, Seq, Tenant,
	// Priority and the raw spec bytes.
	OpSubmit Op = 1
	// OpAdmit records a job booking admission budget and starting to
	// execute: ID and Demand. A job with OpAdmit but no OpComplete at
	// replay time was in flight when the daemon died.
	OpAdmit Op = 2
	// OpComplete records a terminal state: ID, Status ("done"/"failed")
	// and Error.
	OpComplete Op = 3
	// OpCancel records a cancellation request for a queued job.
	OpCancel Op = 4
	// OpMark carries the job-sequence high-water mark into compacted
	// segments so restarted daemons never reuse an ID.
	OpMark Op = 5
	// OpGap is the first record of a segment opened by a degraded-mode
	// re-arm. It tells replay the extent of the fault window it closes:
	// Demand holds the durable (acknowledged) byte length of the
	// immediately preceding segment — everything past that offset was
	// written to a poisoned fd whose fsync failed and must be discarded —
	// Seq carries the high-water mark across the gap, and Error records
	// the fault that opened the window.
	OpGap Op = 6
)

func (op Op) valid() bool { return op >= OpSubmit && op <= OpGap }

// String names the op for logs and tests.
func (op Op) String() string {
	switch op {
	case OpSubmit:
		return "submit"
	case OpAdmit:
		return "admit"
	case OpComplete:
		return "complete"
	case OpCancel:
		return "cancel"
	case OpMark:
		return "mark"
	case OpGap:
		return "gap"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Record is one journal entry. Fields irrelevant to an op are left zero
// (and encode to a few bytes).
type Record struct {
	Op       Op
	Seq      uint64 // job sequence number (submit/mark)
	ID       string
	Tenant   string
	Priority string
	Demand   int64  // admitted budget units (admit)
	Status   string // terminal status (complete)
	Error    string // terminal error (complete)
	Spec     []byte // raw job-spec JSON (submit), opaque to the journal
}

// Encoding limits. A spec is a few hundred bytes of JSON; anything near
// these caps is garbage and is rejected before it can poison the log.
const (
	maxFieldBytes  = 1 << 10
	maxRecordBytes = 1 << 20
	recVersion     = 1
	frameHdrBytes  = 8 // 4B payload length + 4B CRC-32C

	// MaxSpecBytes is the largest Spec payload EncodeRecord accepts.
	// Callers that validate request bodies before journaling them should
	// enforce the same cap, so a spec that passed validation can never
	// fail to journal.
	MaxSpecBytes = maxRecordBytes / 2
	// MaxFieldBytes is the per-string-field cap (ID, Tenant, Priority,
	// Status, Error). Callers must truncate free-form text (error
	// messages) to this before journaling.
	MaxFieldBytes = maxFieldBytes
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. ErrTruncated means the buffer ends mid-record — expected
// at the tail of the newest segment after a crash; ErrCorrupt means the
// bytes are structurally wrong or fail their checksum.
var (
	ErrTruncated = errors.New("journal: truncated record")
	ErrCorrupt   = errors.New("journal: corrupt record")
)

// ErrDegraded wraps every Append error after an I/O fault has poisoned
// the active segment. A failed fsync says nothing about which earlier
// pages reached disk (the kernel may mark dirty pages clean on error), so
// the journal never writes to that fd again; it stays degraded — every
// Append failing fast with this error — until Rearm rotates onto a fresh
// segment. Callers match it with errors.Is.
var ErrDegraded = errors.New("journal: degraded")

// ErrLost is what Sync returns for a record that was written but that a
// fault discarded before any fsync covered it — the journal may be
// durable again since. It matches ErrDegraded too. The fault was
// reported when it happened, to whoever's Write or Sync hit it.
var ErrLost = fmt.Errorf("%w: record lost to a fault window", ErrDegraded)

func putStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// EncodeRecord frames r: [len][crc32c][payload]. Panics only on records
// violating the documented field caps (a programming error, not input).
func EncodeRecord(r Record) ([]byte, error) {
	if !r.Op.valid() {
		return nil, fmt.Errorf("journal: encode: invalid op %d", r.Op)
	}
	for name, s := range map[string]string{
		"id": r.ID, "tenant": r.Tenant, "priority": r.Priority,
		"status": r.Status, "error": r.Error,
	} {
		if len(s) > maxFieldBytes {
			return nil, fmt.Errorf("journal: encode: %s field %d bytes exceeds cap %d", name, len(s), maxFieldBytes)
		}
	}
	if len(r.Spec) > MaxSpecBytes {
		return nil, fmt.Errorf("journal: encode: spec %d bytes exceeds cap %d", len(r.Spec), MaxSpecBytes)
	}
	p := make([]byte, 0, 64+len(r.Spec))
	p = append(p, recVersion, byte(r.Op))
	p = binary.AppendUvarint(p, r.Seq)
	p = binary.AppendUvarint(p, uint64(r.Demand))
	p = putStr(p, r.ID)
	p = putStr(p, r.Tenant)
	p = putStr(p, r.Priority)
	p = putStr(p, r.Status)
	p = putStr(p, r.Error)
	p = binary.AppendUvarint(p, uint64(len(r.Spec)))
	p = append(p, r.Spec...)

	out := make([]byte, frameHdrBytes, frameHdrBytes+len(p))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(p, crcTable))
	return append(out, p...), nil
}

// byteCursor walks a payload, flagging overruns as corruption.
type byteCursor struct {
	b   []byte
	off int
	err error
}

func (c *byteCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = ErrCorrupt
		return 0
	}
	c.off += n
	return v
}

func (c *byteCursor) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > maxFieldBytes || c.off+int(n) > len(c.b) {
		c.err = ErrCorrupt
		return ""
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}

// DecodeRecord decodes the first frame in b, returning the record and the
// number of bytes consumed. It never panics on any input: the outcomes
// are a valid record, ErrTruncated (b ends mid-frame) or ErrCorrupt.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHdrBytes {
		return Record{}, 0, ErrTruncated
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	if plen < 2 || plen > maxRecordBytes {
		return Record{}, 0, ErrCorrupt
	}
	if len(b) < frameHdrBytes+int(plen) {
		return Record{}, 0, ErrTruncated
	}
	payload := b[frameHdrBytes : frameHdrBytes+int(plen)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, ErrCorrupt
	}
	if payload[0] != recVersion {
		return Record{}, 0, fmt.Errorf("%w: unknown version %d", ErrCorrupt, payload[0])
	}
	r := Record{Op: Op(payload[1])}
	if !r.Op.valid() {
		return Record{}, 0, fmt.Errorf("%w: unknown op %d", ErrCorrupt, payload[1])
	}
	c := &byteCursor{b: payload, off: 2}
	r.Seq = c.uvarint()
	r.Demand = int64(c.uvarint())
	r.ID = c.str()
	r.Tenant = c.str()
	r.Priority = c.str()
	r.Status = c.str()
	r.Error = c.str()
	specLen := c.uvarint()
	if c.err == nil {
		if specLen > MaxSpecBytes || c.off+int(specLen) > len(c.b) {
			c.err = ErrCorrupt
		} else if specLen > 0 {
			r.Spec = append([]byte(nil), c.b[c.off:c.off+int(specLen)]...)
			c.off += int(specLen)
		}
	}
	if c.err != nil {
		return Record{}, 0, c.err
	}
	if c.off != len(payload) {
		// Trailing garbage inside a checksummed payload means the encoder
		// and decoder disagree — corruption, not slack.
		return Record{}, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(payload)-c.off)
	}
	return r, frameHdrBytes + int(plen), nil
}

// Options configures a Journal.
type Options struct {
	// MaxSegmentBytes triggers compaction when the active segment outgrows
	// it (default 1 MiB; minimum 4 KiB).
	MaxSegmentBytes int64
	// NoSync skips the fsync: a record counts as durable once written.
	// Tests and benchmarks only: a production journal without fsync can
	// acknowledge records a crash then loses.
	NoSync bool
	// FS is the filesystem seam; nil means the real OS. Fault-injection
	// tests pass an iofault.FaultFS here.
	FS iofault.FS
}

// Stats reports journal health.
type Stats struct {
	Segments       int   // segment files on disk
	Records        int64 // records written or replayed this session
	Syncs          int64 // fsyncs that made written records durable
	TruncatedBytes int64 // torn-tail bytes discarded at Open
	Compactions    int64 // segment compactions this session
	LiveJobs       int   // non-terminal jobs currently tracked
	ActiveBytes    int64 // size of the active segment

	Degraded        bool   // an I/O fault poisoned the active segment
	DegradedCause   string // fault that opened the current/last window
	Rearms          int64  // successful degraded→durable recoveries
	RearmFailures   int64  // failed Rearm attempts
	CompactFailures int64  // compactions aborted by I/O errors
	CleanupErrors   int64  // post-publish close/remove errors (non-fatal)
	GapRecords      int64  // OpGap records written this session
	SuspectBytes    int64  // unacknowledged bytes discarded at Open
}

// liveJob retains the encoded frames needed to re-materialize one
// non-terminal job into a compacted segment.
type liveJob struct {
	seq    uint64
	frames [][]byte
	bytes  int64
}

// Pos is a place in the journal's write stream: the number of bytes this
// session has written up to the end of one record. Write returns it, and
// Sync(pos) makes everything up to it durable. The zero Pos is durable
// from the start.
type Pos int64

// written is a record that has reached the active segment but no fsync
// yet: the frame is kept so a compaction can carry it over, and the
// record (spec dropped) so it joins the live-job state once durable.
type written struct {
	rec   Record
	frame []byte
	end   Pos
}

// Journal is an open journal directory. Safe for concurrent use.
type Journal struct {
	dir  string
	opts Options
	fs   iofault.FS

	mu       sync.Mutex
	f        iofault.File        // guarded-by: mu
	seg      int                 // guarded-by: mu
	segBytes int64               // guarded-by: mu
	highSeq  uint64              // guarded-by: mu
	live     map[string]*liveJob // guarded-by: mu
	liveByte int64               // guarded-by: mu
	stats    Stats               // guarded-by: mu
	closed   bool                // guarded-by: mu

	// The write stream. end is the Pos of the last record written, synced
	// the Pos up to which every record is durable; unsynced holds the
	// records in between, in write order. Only durable records enter the
	// live-job state, so neither a compaction root nor a re-arm can make
	// durable a record whose own fsync failed.
	end      Pos       // guarded-by: mu
	synced   Pos       // guarded-by: mu
	unsynced []written // guarded-by: mu
	// syncing is set while one caller runs an fsync with mu released;
	// idle (on mu) wakes the callers that wait for it to finish.
	syncing bool // guarded-by: mu
	idle    sync.Cond

	// Degraded-mode state. ackedBytes is the durable prefix of the active
	// segment: it advances only after a successful fsync, so when a fault
	// poisons the segment it is exactly the offset past which bytes are
	// suspect — the extent the re-arm's OpGap record carries. lost lists
	// the (from, to] Pos ranges written past that point, whose records
	// the gap discards; held keeps the ones that belong to a job whose
	// submit is durable, and the records such jobs write while degraded,
	// for the re-arm to write behind the gap.
	degraded      bool      // guarded-by: mu
	degradedCause error     // guarded-by: mu
	ackedBytes    int64     // guarded-by: mu
	lost          [][2]Pos  // guarded-by: mu
	held          []written // guarded-by: mu
	// compactAfter backs off compaction retries after an I/O failure:
	// no new attempt until the active segment grows past it.
	compactAfter int64 // guarded-by: mu
}

// segName formats a segment file name; the zero-padded number keeps
// lexicographic and numeric order identical.
func segName(n int) string { return fmt.Sprintf("wal-%08d.log", n) }

func parseSegName(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "wal-%08d.log", &n); err != nil || segName(n) != name {
		return 0, false
	}
	return n, true
}

// Replay is the outcome of reading a journal directory.
type Replay struct {
	// Records holds every decoded record in append order.
	Records []Record
	// TruncatedBytes counts torn-tail bytes discarded from the newest
	// segment (zero on a clean shutdown).
	TruncatedBytes int64
	// SuspectBytes counts bytes discarded because an OpGap record capped a
	// poisoned segment at its acknowledged extent: they were written to an
	// fd whose fsync later failed, so no client was ever told they were
	// durable.
	SuspectBytes int64
}

// loadedSeg is one segment read into memory during replay, after gap caps
// have been applied.
type loadedSeg struct {
	n    int
	data []byte
}

// loadSegments reads every segment and applies OpGap caps: a segment
// whose first record is OpGap was opened by a re-arm after the fd of the
// segment named in the record's ID field was poisoned, and the record's
// Demand field is that segment's durable byte extent. Bytes past that
// offset were never acknowledged — discard them (and, when persist is
// set, truncate them off on disk so a later replay sees the same log). A
// poisoned segment SHORTER than its acknowledged extent means durable
// data vanished: fail loudly.
func loadSegments(fs iofault.FS, dir string, segs []int, persist bool) ([]loadedSeg, int64, error) {
	loaded := make([]loadedSeg, 0, len(segs))
	byName := make(map[string]int, len(segs))
	for _, seg := range segs {
		data, err := fs.ReadFile(filepath.Join(dir, segName(seg)))
		if err != nil {
			return nil, 0, fmt.Errorf("journal: %w", err)
		}
		byName[segName(seg)] = len(loaded)
		loaded = append(loaded, loadedSeg{n: seg, data: data})
	}
	var suspect int64
	for i := 1; i < len(loaded); i++ {
		rec0, _, err0 := DecodeRecord(loaded[i].data)
		if err0 != nil || rec0.Op != OpGap {
			continue
		}
		target, ok := byName[rec0.ID]
		if !ok || target >= i {
			// The poisoned segment is gone — an emergency compaction or a
			// later compaction root already superseded it.
			continue
		}
		acked := rec0.Demand
		if int64(len(loaded[target].data)) < acked {
			return nil, 0, fmt.Errorf("journal: segment %s is %d bytes but %d were acknowledged durable before the fault window; refusing to replay a log that lost acknowledged records",
				rec0.ID, len(loaded[target].data), acked)
		}
		if int64(len(loaded[target].data)) == acked {
			continue
		}
		suspect += int64(len(loaded[target].data)) - acked
		loaded[target].data = loaded[target].data[:acked]
		if persist {
			if err := fs.Truncate(filepath.Join(dir, rec0.ID), acked); err != nil {
				return nil, 0, fmt.Errorf("journal: truncating fault window: %w", err)
			}
		}
	}
	return loaded, suspect, nil
}

// Open replays the journal in dir (creating it if absent) and opens it
// for appending. Damage anywhere but the newest segment's tail or a
// gap-capped fault window is an error — the caller must not come up on a
// silently incomplete log.
func Open(dir string, opts Options) (*Journal, *Replay, error) {
	if opts.MaxSegmentBytes == 0 {
		opts.MaxSegmentBytes = 1 << 20
	}
	if opts.MaxSegmentBytes < 4<<10 {
		opts.MaxSegmentBytes = 4 << 10
	}
	fs := opts.FS
	if fs == nil {
		fs = iofault.OS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// A compaction interrupted before its fsync+rename leaves a .tmp file;
	// it is incomplete by construction (the rename is what publishes it),
	// so discard it and keep replaying from the segments it would have
	// replaced.
	if err := removeTempSegments(fs, dir); err != nil {
		return nil, nil, err
	}
	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: dir, opts: opts, fs: fs, live: make(map[string]*liveJob)}
	j.idle.L = &j.mu
	rep := &Replay{}
	loaded, suspect, err := loadSegments(fs, dir, segs, true)
	if err != nil {
		return nil, nil, err
	}
	if suspect > 0 {
		rep.SuspectBytes = suspect
		j.stats.SuspectBytes = suspect
	}
	for i, ls := range loaded {
		seg, data := ls.n, ls.data
		last := i == len(loaded)-1
		// A segment that BEGINS with an OpMark is a compaction root: it
		// was published (renamed into place) only after holding a complete,
		// fsync'd copy of every live job, so any older segment is a
		// leftover of a crash between that rename and the old segment's
		// removal. Replaying both would duplicate every live job's records
		// — reset the state accumulated so far and finish the deletion the
		// crash interrupted. (An OpMark appended mid-segment is just the
		// high-water record and does not reset anything.)
		if i > 0 {
			if rec0, _, err0 := DecodeRecord(data); err0 == nil && rec0.Op == OpMark {
				for _, old := range loaded[:i] {
					if err := fs.Remove(filepath.Join(dir, segName(old.n))); err != nil {
						return nil, nil, fmt.Errorf("journal: removing stale pre-compaction segment: %w", err)
					}
				}
				rep.Records = rep.Records[:0]
				j.live = make(map[string]*liveJob)
				j.liveByte = 0
				j.highSeq = 0
				j.stats.Records = 0
			}
		}
		off := 0
		for off < len(data) {
			rec, n, err := DecodeRecord(data[off:])
			if err != nil {
				if !last {
					return nil, nil, fmt.Errorf("journal: segment %s damaged at offset %d (%v); refusing to replay past a hole", segName(seg), off, err)
				}
				// Torn tail of the newest segment: the crash interrupted an
				// append. Truncate to the last whole record and carry on.
				rep.TruncatedBytes = int64(len(data) - off)
				j.stats.TruncatedBytes = rep.TruncatedBytes
				if err := fs.Truncate(filepath.Join(dir, segName(seg)), int64(off)); err != nil {
					return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
				}
				data = data[:off]
				break
			}
			off += n
			rep.Records = append(rep.Records, rec)
			j.stats.Records++
			j.applyLocked(rec, data[off-n:off])
		}
		if last {
			j.seg = seg
			j.segBytes = int64(len(data))
		}
	}
	if len(loaded) == 0 {
		j.seg = 1
	}
	path := filepath.Join(dir, segName(j.seg))
	j.f, err = fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.ackedBytes = j.segBytes
	return j, rep, nil
}

func listSegments(fs iofault.FS, dir string) ([]int, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []int
	for _, e := range ents {
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// tmpSuffix marks a compacted segment still being written; only the
// rename after fsync makes it a real segment.
const tmpSuffix = ".tmp"

// removeTempSegments deletes half-written compaction outputs.
func removeTempSegments(fs iofault.FS, dir string) error {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, tmpSuffix) {
			continue
		}
		if _, ok := parseSegName(strings.TrimSuffix(name, tmpSuffix)); !ok {
			continue
		}
		if err := fs.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("journal: removing interrupted compaction %s: %w", name, err)
		}
	}
	return nil
}

// applyLocked folds one record into the live-job and high-water state.
func (j *Journal) applyLocked(rec Record, frame []byte) {
	if rec.Seq > j.highSeq {
		j.highSeq = rec.Seq
	}
	switch rec.Op {
	case OpSubmit:
		// Belt and braces: a duplicate submit for a live ID (which the
		// compaction-root handling in Open should already have prevented)
		// replaces rather than double-counts the job.
		if old, ok := j.live[rec.ID]; ok {
			j.liveByte -= old.bytes
		}
		lj := &liveJob{seq: rec.Seq}
		lj.frames = append(lj.frames, append([]byte(nil), frame...))
		lj.bytes = int64(len(frame))
		j.live[rec.ID] = lj
		j.liveByte += lj.bytes
	case OpAdmit, OpCancel:
		if lj, ok := j.live[rec.ID]; ok {
			lj.frames = append(lj.frames, append([]byte(nil), frame...))
			lj.bytes += int64(len(frame))
			j.liveByte += int64(len(frame))
		}
	case OpComplete:
		if lj, ok := j.live[rec.ID]; ok {
			j.liveByte -= lj.bytes
			delete(j.live, rec.ID)
		}
	}
}

// Append writes one record and waits until it is durable: Write, then
// Sync. The record is durable when Append returns nil.
func (j *Journal) Append(rec Record) error {
	pos, err := j.Write(rec)
	if err != nil {
		return err
	}
	return j.Sync(pos)
}

// Write encodes rec and appends it to the active segment, without an
// fsync, and returns the Pos that Sync takes to make it durable. Any I/O
// failure poisons the active segment — the fd is closed and never written
// again (a failed fsync may have silently dropped earlier dirty pages) —
// and Write returns an error matching ErrDegraded, as does every Write
// until Rearm succeeds. While degraded, an admit, cancel or complete
// record of a job whose submit is durable is not dropped: the journal
// holds it, and the Rearm that ends the window writes it right behind its
// gap marker, so a job that finished during a disk outage does not run
// again after a restart. The error still reports it, since it is not
// durable yet.
func (j *Journal) Write(rec Record) (Pos, error) {
	frame, err := EncodeRecord(rec)
	if err != nil {
		return 0, err
	}
	rec.Spec = nil // the frame carries it
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, errors.New("journal: closed")
	}
	if j.degraded {
		j.holdLocked(written{rec: rec, frame: frame})
		return 0, j.degradedErrLocked()
	}
	if _, err := j.f.Write(frame); err != nil {
		j.poisonLocked(fmt.Errorf("append: %w", err))
		j.holdLocked(written{rec: rec, frame: frame})
		return 0, j.degradedErrLocked()
	}
	j.segBytes += int64(len(frame))
	j.end += Pos(len(frame))
	j.stats.Records++
	j.unsynced = append(j.unsynced, written{rec: rec, frame: frame, end: j.end})
	if j.opts.NoSync {
		j.durableLocked(j.end, j.segBytes)
		j.maybeCompactLocked()
	}
	return j.end, nil
}

// Sync returns once the record Write returned pos for is durable. If an
// fsync is already running it waits for that one, which may cover pos;
// otherwise it runs one itself, outside the lock, covering every record
// written so far — so concurrent callers share fsyncs, and writers keep
// appending while one runs. It fails with an error matching ErrDegraded
// if the fsync fails, and with ErrLost if the record was lost to a fault
// window.
func (j *Journal) Sync(pos Pos) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing && pos > j.synced {
		j.idle.Wait()
	}
	for _, r := range j.lost {
		if pos > r[0] && pos <= r[1] {
			return ErrLost
		}
	}
	switch {
	case pos <= j.synced:
		return nil
	case j.closed:
		return errors.New("journal: closed")
	case j.degraded:
		return j.degradedErrLocked()
	}
	f, upto, seg := j.f, j.end, j.segBytes
	j.syncing = true
	j.mu.Unlock()
	err := f.Sync()
	j.mu.Lock()
	j.syncing = false
	j.idle.Broadcast()
	if j.f != f {
		// A failed Write poisoned the segment while the fsync ran; the
		// records it covered are in the lost range now.
		f.Close()
		return j.degradedErrLocked()
	}
	if err != nil {
		j.poisonLocked(fmt.Errorf("fsync: %w", err))
		return j.degradedErrLocked()
	}
	j.stats.Syncs++
	j.durableLocked(upto, seg)
	j.maybeCompactLocked()
	return nil
}

// durableLocked records that everything up to upto is durable — seg bytes
// of the active segment — and folds those records into the live-job state.
func (j *Journal) durableLocked(upto Pos, seg int64) {
	n := 0
	for ; n < len(j.unsynced) && j.unsynced[n].end <= upto; n++ {
		j.applyLocked(j.unsynced[n].rec, j.unsynced[n].frame)
	}
	rest := copy(j.unsynced, j.unsynced[n:])
	clear(j.unsynced[rest:])
	j.unsynced = j.unsynced[:rest]
	j.synced = upto
	j.ackedBytes = seg
}

// maybeCompactLocked compacts when the segment is oversized and mostly
// dead weight — compacting a segment that is all live jobs would thrash.
// A failed compaction fails nothing (every record is where it was); it is
// retried once the segment grows past the backoff watermark.
func (j *Journal) maybeCompactLocked() {
	if j.segBytes < j.opts.MaxSegmentBytes || j.liveByte >= j.segBytes/2 || j.segBytes < j.compactAfter {
		return
	}
	if err := j.compactLocked(); err != nil {
		j.stats.CompactFailures++
		j.compactAfter = j.segBytes + j.opts.MaxSegmentBytes/4
	} else {
		j.compactAfter = 0
	}
}

func (j *Journal) degradedErrLocked() error {
	return fmt.Errorf("%w: %v", ErrDegraded, j.degradedCause)
}

// holdLocked keeps a record that could not be made durable for the
// re-arm, if a durable submit refers to it: without it, replay would
// re-run a job that already ran. Anything else is dropped — no durable
// record refers to it.
func (j *Journal) holdLocked(w written) {
	if w.rec.Op == OpSubmit || j.live[w.rec.ID] == nil {
		return
	}
	j.held = append(j.held, w)
}

// poisonLocked moves the journal into degraded mode: the active segment's
// fd is closed — by the fsync running on it, if there is one — and never
// reused. ackedBytes is left at the last durable extent — the value a
// re-arm's OpGap record publishes so replay discards everything past it —
// and the records written past it are lost, bar the ones held for the
// re-arm.
func (j *Journal) poisonLocked(cause error) {
	if j.degraded {
		return
	}
	j.degraded = true
	j.degradedCause = cause
	j.stats.Degraded = true
	j.stats.DegradedCause = cause.Error()
	if j.end > j.synced {
		j.lost = append(j.lost, [2]Pos{j.synced, j.end})
	}
	for _, w := range j.unsynced {
		j.holdLocked(w)
	}
	clear(j.unsynced)
	j.unsynced = j.unsynced[:0]
	if j.f != nil && !j.syncing {
		j.f.Close() // fd is suspect; release it regardless of the result
	}
	j.f = nil
}

// Degraded reports whether the journal is refusing appends, and why.
func (j *Journal) Degraded() (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded, j.degradedCause
}

// Rearm attempts to leave degraded mode. For ENOSPC it first tries an
// emergency compaction — the live set is small, and publishing a
// compaction root deletes every older segment, reclaiming the dead weight
// that filled the disk. Otherwise (or if that fails) it rotates onto a
// fresh segment whose first record is an OpGap marker carrying the
// poisoned segment's durable extent, so replay knows exactly where the
// fault window starts. Either way the records held during the window
// follow, in one write and one fsync. Returns nil when the journal is
// durable again; callers own the retry/backoff policy.
func (j *Journal) Rearm() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing {
		j.idle.Wait()
	}
	if j.closed {
		return errors.New("journal: closed")
	}
	if !j.degraded {
		return nil
	}
	reopened := false
	if errors.Is(j.degradedCause, syscall.ENOSPC) {
		reopened = j.compactLocked() == nil
	}
	if !reopened {
		if err := j.rotateGapLocked(); err != nil {
			j.stats.RearmFailures++
			return err
		}
	}
	j.synced = j.end // nothing was written since the poison
	j.degraded = false
	j.degradedCause = nil
	j.stats.Degraded = false
	if err := j.writeHeldLocked(); err != nil {
		j.stats.RearmFailures++
		return err
	}
	j.stats.Rearms++
	return nil
}

// writeHeldLocked appends the records held through the fault window to the
// fresh segment and fsyncs them; a failure poisons it again, and the
// records stay held for the next Rearm.
func (j *Journal) writeHeldLocked() error {
	if len(j.held) == 0 {
		return nil
	}
	var buf []byte
	for _, w := range j.held {
		buf = append(buf, w.frame...)
	}
	held := j.held
	j.held = nil
	if _, err := j.f.Write(buf); err != nil {
		j.poisonLocked(fmt.Errorf("rearm: %w", err))
		j.held = held
		return j.degradedErrLocked()
	}
	if err := j.f.Sync(); err != nil {
		j.poisonLocked(fmt.Errorf("rearm fsync: %w", err))
		j.held = held
		return j.degradedErrLocked()
	}
	j.segBytes += int64(len(buf))
	j.ackedBytes = j.segBytes
	j.stats.Syncs++
	for _, w := range held {
		j.stats.Records++
		j.applyLocked(w.rec, w.frame)
	}
	return nil
}

// rotateGapLocked opens a fresh segment and makes its first record an
// OpGap marker: Seq carries the high-water mark, Demand the poisoned
// predecessor's durable extent, Error the fault. Only a fully written and
// fsync'd gap segment is adopted; any failure leaves the journal degraded
// with no state change.
func (j *Journal) rotateGapLocked() error {
	cause := ""
	if j.degradedCause != nil {
		cause = j.degradedCause.Error()
		if len(cause) > MaxFieldBytes {
			cause = cause[:MaxFieldBytes]
		}
	}
	gap, err := EncodeRecord(Record{
		Op:     OpGap,
		Seq:    j.highSeq,
		ID:     segName(j.seg), // the poisoned segment this gap caps
		Demand: j.ackedBytes,
		Error:  cause,
	})
	if err != nil {
		return err
	}
	// O_EXCL: if a crashed compaction left a published root at the next
	// number, appending the gap there would corrupt its first-record
	// semantics — skip to an unused name instead.
	next := j.seg
	var f iofault.File
	for try := 0; try < 4; try++ {
		next++
		path := filepath.Join(j.dir, segName(next))
		f, err = j.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			break
		}
		if !errors.Is(err, os.ErrExist) {
			return fmt.Errorf("journal: rearm: %w", err)
		}
		f = nil
	}
	if f == nil {
		return fmt.Errorf("journal: rearm: no free segment name after %s", segName(j.seg))
	}
	path := filepath.Join(j.dir, segName(next))
	abort := func(err error) error {
		f.Close()
		j.fs.Remove(path)
		return err
	}
	if _, err := f.Write(gap); err != nil {
		return abort(fmt.Errorf("journal: rearm: %w", err))
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("journal: rearm fsync: %w", err))
	}
	// Make the new segment's dir entry durable before acknowledging
	// anything into it.
	if err := j.fs.SyncDir(j.dir); err != nil {
		return abort(fmt.Errorf("journal: rearm dir fsync: %w", err))
	}
	j.f = f
	j.seg = next
	j.segBytes = int64(len(gap))
	j.ackedBytes = j.segBytes
	j.stats.GapRecords++
	j.stats.Records++
	return nil
}

// compactLocked writes a fresh segment holding the high-water mark plus
// every live job's frames, then the records not yet synced, fsyncs it —
// which makes all of them durable — renames it into place, then removes
// the older segment. The temp-then-rename order is what makes crash
// recovery unambiguous: a published segment starting with OpMark is
// guaranteed complete (Open treats it as a compaction root and drops any
// older segment a crash left behind), while a segment that never got
// renamed is a .tmp file Open simply deletes.
func (j *Journal) compactLocked() error {
	next := j.seg + 1
	path := filepath.Join(j.dir, segName(next))
	tmp := path + tmpSuffix
	f, err := j.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		j.fs.Remove(tmp)
		return err
	}
	var size int64
	mark, err := EncodeRecord(Record{Op: OpMark, Seq: j.highSeq})
	if err != nil {
		return fail(err)
	}
	if _, err := f.Write(mark); err != nil {
		return fail(fmt.Errorf("journal: compact: %w", err))
	}
	size += int64(len(mark))
	ids := make([]string, 0, len(j.live))
	for id := range j.live {
		ids = append(ids, id)
	}
	// Submission order, so replay of a compacted segment re-queues
	// recovered jobs exactly as the original arrival order did.
	sort.Slice(ids, func(a, b int) bool { return j.live[ids[a]].seq < j.live[ids[b]].seq })
	for _, id := range ids {
		for _, frame := range j.live[id].frames {
			if _, err := f.Write(frame); err != nil {
				return fail(fmt.Errorf("journal: compact: %w", err))
			}
			size += int64(len(frame))
		}
	}
	for _, w := range j.unsynced {
		if _, err := f.Write(w.frame); err != nil {
			return fail(fmt.Errorf("journal: compact: %w", err))
		}
		size += int64(len(w.frame))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("journal: compact fsync: %w", err))
	}
	// Publish. The open fd survives the rename (same inode), so f becomes
	// the active segment file.
	if err := j.fs.Rename(tmp, path); err != nil {
		return fail(fmt.Errorf("journal: compact publish: %w", err))
	}
	// The rename is not durable until the directory is fsync'd; until then
	// a crash could resurrect the .tmp name, and Open deletes .tmp files —
	// so nothing may be acknowledged into the new segment yet. A failed
	// dir fsync therefore rolls the publish back and keeps the old
	// segment. If even the rollback fails, the directory holds a
	// compaction root we are not writing to next to a segment we are —
	// replaying that after more appends would drop them — so the only safe
	// exit is to poison the journal and let Rearm rebuild on fresh state.
	if err := j.fs.SyncDir(j.dir); err != nil {
		f.Close()
		if rerr := j.fs.Remove(path); rerr != nil {
			j.poisonLocked(fmt.Errorf("compact publish fsync: %v; rollback: %w", err, rerr))
			return fmt.Errorf("%w: %v", ErrDegraded, j.degradedCause)
		}
		return fmt.Errorf("journal: compact publish fsync: %w", err)
	}
	old := j.f
	j.f, j.seg, j.segBytes = f, next, size
	j.durableLocked(j.end, size)
	j.stats.Compactions++
	// Post-publish cleanup. The root is durable, so these failures cannot
	// lose records — Open's compaction-root handling deletes any stragglers
	// — but they are counted, not swallowed: a close error on the old
	// segment or an undeletable file is an early sign of the same disk
	// faults that poison appends.
	if old != nil {
		if err := old.Close(); err != nil {
			j.stats.CleanupErrors++
		}
	}
	// Remove every older segment, not just the immediate predecessor:
	// degraded-mode rotations can leave several capped segments behind,
	// and the root supersedes them all.
	if segs, err := listSegments(j.fs, j.dir); err == nil {
		for _, s := range segs {
			if s >= next {
				continue
			}
			if err := j.fs.Remove(filepath.Join(j.dir, segName(s))); err != nil {
				j.stats.CleanupErrors++
			}
		}
	} else {
		j.stats.CleanupErrors++
	}
	// Make the deletions durable (best effort: if the old segments do
	// survive a crash, Open's compaction-root handling discards them).
	if err := j.fs.SyncDir(j.dir); err != nil {
		j.stats.CleanupErrors++
	}
	return nil
}

// HighSeq returns the largest job sequence number ever journaled — the
// floor for ID allocation after a restart.
func (j *Journal) HighSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.highSeq
}

// Stats snapshots journal health counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.stats
	st.LiveJobs = len(j.live)
	st.ActiveBytes = j.segBytes
	segs, err := listSegments(j.fs, j.dir)
	if err == nil {
		st.Segments = len(segs)
	}
	return st
}

// Close fsyncs and closes the active segment, which makes every record
// written so far durable. Writes after Close fail. Closing a degraded
// journal is a no-op on the fd (poisoning already closed it) but still
// latches the closed state; records held for a re-arm are lost with it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing {
		j.idle.Wait()
	}
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			j.f.Close()
			return fmt.Errorf("journal: close: %w", err)
		}
		j.durableLocked(j.end, j.segBytes)
	}
	return j.f.Close()
}

// ReplayDir reads a journal directory without opening it for appends —
// the read-only half of Open, for tools and tests that inspect a log
// (e.g. asserting what a crashed daemon had acknowledged). Unlike Open it
// modifies nothing: a torn tail is reported, not truncated.
func ReplayDir(dir string) (*Replay, error) {
	fs := iofault.FS(iofault.OS{})
	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, err
	}
	loaded, suspect, err := loadSegments(fs, dir, segs, false)
	if err != nil {
		return nil, err
	}
	rep := &Replay{SuspectBytes: suspect}
	for i, ls := range loaded {
		data := ls.data
		// Same compaction-root rule as Open, minus the cleanup: a segment
		// beginning with OpMark supersedes everything before it.
		if i > 0 {
			if rec0, _, err0 := DecodeRecord(data); err0 == nil && rec0.Op == OpMark {
				rep.Records = rep.Records[:0]
			}
		}
		off := 0
		for off < len(data) {
			rec, n, err := DecodeRecord(data[off:])
			if err != nil {
				if i != len(loaded)-1 {
					return nil, fmt.Errorf("journal: segment %s damaged at offset %d (%v)", segName(ls.n), off, err)
				}
				rep.TruncatedBytes = int64(len(data) - off)
				break
			}
			off += n
			rep.Records = append(rep.Records, rec)
		}
	}
	return rep, nil
}

// WriteTo streams a human-readable dump of a replay (debugging aid).
func (r *Replay) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, rec := range r.Records {
		n, err := fmt.Fprintf(w, "%s seq=%d id=%s tenant=%s prio=%s demand=%d status=%s err=%q spec=%dB\n",
			rec.Op, rec.Seq, rec.ID, rec.Tenant, rec.Priority, rec.Demand, rec.Status, rec.Error, len(rec.Spec))
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	if r.TruncatedBytes > 0 {
		n, err := fmt.Fprintf(w, "torn tail: %d bytes truncated\n", r.TruncatedBytes)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

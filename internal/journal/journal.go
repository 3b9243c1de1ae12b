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
// live jobs plus the tail of recent traffic. A disk fault ends the same
// way: Rearm compacts, and its root supersedes the poisoned segment.
package journal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

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
	// Op 6 is retired and never reused: older journals began a re-armed
	// segment with an op-6 gap marker, and Open refuses such a log rather
	// than replay it without the cap the marker described.
)

func (op Op) valid() bool { return op >= OpSubmit && op <= OpMark }

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
	// Status, Error). Write clamps the free-form Status and Error fields
	// to it, marking the cut; EncodeRecord rejects any field over it.
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
// Append failing fast with this error — until Rearm compacts onto a fresh
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

// EncodeRecord frames r: [len][crc32c][payload]. It rejects an invalid
// op and any field over its cap, naming the first such field in encoding
// order. The frame is one allocation: the payload is written behind the
// header's place, sized for the longest varints, and the header is filled
// in last.
func EncodeRecord(r Record) ([]byte, error) {
	if !r.Op.valid() {
		return nil, fmt.Errorf("journal: encode: invalid op %d", r.Op)
	}
	fields := [...]struct{ name, s string }{
		{"id", r.ID}, {"tenant", r.Tenant}, {"priority", r.Priority},
		{"status", r.Status}, {"error", r.Error},
	}
	size := frameHdrBytes + 2 + 3*binary.MaxVarintLen64 + len(r.Spec)
	for _, f := range fields {
		if len(f.s) > maxFieldBytes {
			return nil, fmt.Errorf("journal: encode: %s field %d bytes exceeds cap %d", f.name, len(f.s), maxFieldBytes)
		}
		size += binary.MaxVarintLen64 + len(f.s)
	}
	if len(r.Spec) > MaxSpecBytes {
		return nil, fmt.Errorf("journal: encode: spec %d bytes exceeds cap %d", len(r.Spec), MaxSpecBytes)
	}
	out := make([]byte, frameHdrBytes, size)
	out = append(out, recVersion, byte(r.Op))
	out = binary.AppendUvarint(out, r.Seq)
	out = binary.AppendUvarint(out, uint64(r.Demand))
	out = putStr(out, r.ID)
	out = putStr(out, r.Tenant)
	out = putStr(out, r.Priority)
	out = putStr(out, r.Status)
	out = putStr(out, r.Error)
	out = binary.AppendUvarint(out, uint64(len(r.Spec)))
	out = append(out, r.Spec...)

	p := out[frameHdrBytes:]
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(p, crcTable))
	return out, nil
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
	payload, n, err := readFrame(b)
	if err != nil {
		return Record{}, 0, err
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return r, n, nil
}

// readFrame checks the first frame in b and returns its payload and the
// frame's length. Its errors are the ones a torn append produces: b ends
// mid-frame, the length prefix is out of range, or the checksum fails.
func readFrame(b []byte) ([]byte, int, error) {
	if len(b) < frameHdrBytes {
		return nil, 0, ErrTruncated
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	if plen < 2 || plen > maxRecordBytes {
		return nil, 0, ErrCorrupt
	}
	if len(b) < frameHdrBytes+int(plen) {
		return nil, 0, ErrTruncated
	}
	payload := b[frameHdrBytes : frameHdrBytes+int(plen)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, ErrCorrupt
	}
	return payload, frameHdrBytes + int(plen), nil
}

// decodePayload decodes a checksum-verified payload. Its errors are not
// torn writes: the bytes are what a writer meant to write, and this
// decoder does not understand them.
func decodePayload(payload []byte) (Record, error) {
	if payload[0] != recVersion {
		return Record{}, fmt.Errorf("%w: unknown version %d", ErrCorrupt, payload[0])
	}
	r := Record{Op: Op(payload[1])}
	if !r.Op.valid() {
		return Record{}, fmt.Errorf("%w: unknown op %d", ErrCorrupt, payload[1])
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
		return Record{}, c.err
	}
	if c.off != len(payload) {
		// Trailing garbage inside a checksummed payload means the encoder
		// and decoder disagree — corruption, not slack.
		return Record{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(payload)-c.off)
	}
	return r, nil
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
	segments int                 // guarded-by: mu; segment files on disk
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

	// Degraded-mode state. lost lists the (from, to] Pos ranges written
	// past the last fsync when a fault poisoned the segment: the re-arm's
	// compaction root supersedes that segment, so their records are gone.
	// held keeps the ones that belong to a job whose submit is durable, and
	// the records such jobs write while degraded, for the re-arm to write
	// into its root.
	degraded      bool      // guarded-by: mu
	degradedCause error     // guarded-by: mu
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

// LiveJob is one unfinished job as the journal's fold leaves it: the
// submit record that opened it and whether an admit or a cancel record
// followed.
type LiveJob struct {
	Submit    Record
	Admitted  bool
	Cancelled bool
}

// Replay is the outcome of reading a journal directory.
type Replay struct {
	// Records holds every decoded record in append order.
	Records []Record
	// Live holds every job without a completion record, in submission
	// order: the live set compaction writes out, the same either way.
	Live []LiveJob
	// TruncatedBytes counts torn-tail bytes discarded from the newest
	// segment (zero on a clean shutdown).
	TruncatedBytes int64
}

// Open replays the journal in dir (creating it if absent) and opens it
// for appending. The only damage it repairs is a torn tail on the newest
// segment: bytes that end mid-frame or fail their checksum, which a crash
// mid-append leaves. Anything else — a damaged older segment, or a
// checksum-valid record this decoder cannot read (an ErrCorrupt) — is an
// error naming the segment and offset, and the log is left as it was:
// the caller must not come up on a silently incomplete log.
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
	// Read back from the newest segment to the newest compaction root. A
	// segment that BEGINS with an OpMark is one: it was published (renamed
	// into place) only after holding a complete, fsync'd copy of every live
	// job, so any older segment is a leftover of a crash between that
	// rename and the older segments' removal — a re-arm's poisoned segment
	// included. Replaying both would duplicate every live job's records.
	// (An OpMark appended mid-segment is just the high-water record.)
	root := 0
	data := make([][]byte, len(segs))
	for i := len(segs) - 1; i >= 0; i-- {
		if data[i], err = fs.ReadFile(filepath.Join(dir, segName(segs[i]))); err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		if rec0, _, err0 := DecodeRecord(data[i]); i > 0 && err0 == nil && rec0.Op == OpMark {
			root = i
			break
		}
	}
	j := &Journal{dir: dir, opts: opts, fs: fs, live: make(map[string]*liveJob), seg: 1}
	j.idle.L = &j.mu
	rep := &Replay{}
	for i := root; i < len(segs); i++ {
		b, last := data[i], i == len(segs)-1
		off := 0
		for off < len(b) {
			payload, n, err := readFrame(b[off:])
			if err != nil && last {
				// Torn tail of the newest segment: the crash interrupted an
				// append. Truncate to the last whole record below.
				rep.TruncatedBytes = int64(len(b) - off)
				b = b[:off]
				break
			}
			var rec Record
			if err == nil {
				rec, err = decodePayload(payload)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("journal: segment %s damaged at offset %d; refusing to replay past it: %w", segName(segs[i]), off, err)
			}
			off += n
			rep.Records = append(rep.Records, rec)
			j.applyLocked(rec, b[off-n:off])
		}
		if last {
			j.seg = segs[i]
			j.segBytes = int64(len(b))
		}
	}
	j.stats.Records = int64(len(rep.Records))
	j.stats.TruncatedBytes = rep.TruncatedBytes
	if rep.Live, err = j.liveLocked(); err != nil {
		return nil, nil, err
	}
	// The log replayed; only now finish what a crash interrupted.
	for _, old := range segs[:root] {
		if err := fs.Remove(filepath.Join(dir, segName(old))); err != nil {
			return nil, nil, fmt.Errorf("journal: removing stale pre-compaction segment: %w", err)
		}
	}
	j.segments = max(len(segs)-root, 1)
	path := filepath.Join(dir, segName(j.seg))
	if rep.TruncatedBytes > 0 {
		if err := fs.Truncate(path, j.segBytes); err != nil {
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	j.f, err = fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
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
	slices.Sort(segs)
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
// It is the journal's one fold: compaction writes its live set out, and
// Replay.Live reads it back.
func (j *Journal) applyLocked(rec Record, frame []byte) {
	if rec.Seq > j.highSeq {
		j.highSeq = rec.Seq
	}
	switch rec.Op {
	case OpSubmit:
		// A submit for an ID already live is ignored: the first submit and
		// every record after it stand. Replacing the job instead would drop
		// its admit, and a compaction would then write out a job that
		// never started.
		if _, ok := j.live[rec.ID]; ok {
			return
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

// liveIDsLocked lists the live jobs in submission order (ID breaks a tie).
func (j *Journal) liveIDsLocked() []string {
	ids := make([]string, 0, len(j.live))
	for id := range j.live {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b string) int {
		return cmp.Or(cmp.Compare(j.live[a].seq, j.live[b].seq), strings.Compare(a, b))
	})
	return ids
}

// liveLocked reads the live set back as Replay.Live: a job's submit
// frame, then its admit and cancel frames.
func (j *Journal) liveLocked() ([]LiveJob, error) {
	var out []LiveJob
	for _, id := range j.liveIDsLocked() {
		var lv LiveJob
		for _, frame := range j.live[id].frames {
			rec, _, err := DecodeRecord(frame)
			if err != nil {
				return nil, fmt.Errorf("journal: live job %s: %w", id, err)
			}
			switch rec.Op {
			case OpSubmit:
				lv.Submit = rec
			case OpAdmit:
				lv.Admitted = true
			case OpCancel:
				lv.Cancelled = true
			}
		}
		out = append(out, lv)
	}
	return out, nil
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
// fsync, and returns the Pos that Sync takes to make it durable. It
// clamps Status and Error to MaxFieldBytes: refusing a completion record
// for a long error would bring a finished job back at replay. Any I/O
// failure poisons the active segment — the fd is closed and never written
// again (a failed fsync may have silently dropped earlier dirty pages) —
// and Write returns an error matching ErrDegraded, as does every Write
// until Rearm succeeds. While degraded, an admit, cancel or complete
// record of a job whose submit is durable is not dropped: the journal
// holds it, and the Rearm that ends the window writes it into its
// compaction root, so a job that finished during a disk outage does not
// run again after a restart. The error still reports it, since it is not
// durable yet.
func (j *Journal) Write(rec Record) (Pos, error) {
	rec.Status, rec.Error = clampField(rec.Status), clampField(rec.Error)
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
		j.durableLocked(j.end)
		j.maybeCompactLocked()
	}
	return j.end, nil
}

// clampField cuts s to MaxFieldBytes, marking the cut so a replayed
// record is recognizably shortened.
func clampField(s string) string {
	if len(s) <= maxFieldBytes {
		return s
	}
	const marker = "...(truncated)"
	return s[:maxFieldBytes-len(marker)] + marker
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
	f, upto := j.f, j.end
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
	j.durableLocked(upto)
	j.maybeCompactLocked()
	return nil
}

// durableLocked records that everything up to upto is durable and folds
// those records into the live-job state.
func (j *Journal) durableLocked(upto Pos) {
	n := 0
	for ; n < len(j.unsynced) && j.unsynced[n].end <= upto; n++ {
		j.applyLocked(j.unsynced[n].rec, j.unsynced[n].frame)
	}
	rest := copy(j.unsynced, j.unsynced[n:])
	clear(j.unsynced[rest:])
	j.unsynced = j.unsynced[:rest]
	j.synced = upto
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
// reused, and the records written since the last fsync are lost, bar the
// ones held for the re-arm.
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

// Rearm attempts to leave degraded mode by compacting: it publishes a
// fresh segment holding the high-water mark, the live jobs' frames and
// then the records held through the fault window, fsync'd before the
// rename, which supersedes every older segment — the poisoned one and the
// unacknowledged bytes past its last fsync included. On ENOSPC that also
// reclaims the dead weight that filled the disk. A failure leaves the
// journal degraded with the records still held. Returns nil when the
// journal is durable again; callers own the retry/backoff policy.
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
	if err := j.compactLocked(); err != nil {
		j.stats.RearmFailures++
		return err
	}
	j.degraded = false
	j.degradedCause = nil
	j.stats.Degraded = false
	j.stats.Rearms++
	return nil
}

// compactLocked writes a fresh segment holding the high-water mark plus
// every live job's frames, then the records not yet synced, then the
// records held through a fault window, fsyncs it — which makes all of them
// durable — renames it into place, then removes the older segments. The
// temp-then-rename order is what makes crash
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
	// Submission order, so replay of a compacted segment re-queues
	// recovered jobs exactly as the original arrival order did.
	for _, id := range j.liveIDsLocked() {
		for _, frame := range j.live[id].frames {
			if _, err := f.Write(frame); err != nil {
				return fail(fmt.Errorf("journal: compact: %w", err))
			}
			size += int64(len(frame))
		}
	}
	// A poison empties unsynced, so at most one of the two is non-empty.
	for _, ws := range [][]written{j.unsynced, j.held} {
		for _, w := range ws {
			if _, err := f.Write(w.frame); err != nil {
				return fail(fmt.Errorf("journal: compact: %w", err))
			}
			size += int64(len(w.frame))
		}
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
	// exit is to poison the journal and let Rearm publish a root over it.
	if err := j.fs.SyncDir(j.dir); err != nil {
		f.Close()
		if rerr := j.fs.Remove(path); rerr != nil {
			j.segments++ // the root stays published
			j.poisonLocked(fmt.Errorf("compact publish fsync: %v; rollback: %w", err, rerr))
			return fmt.Errorf("%w: %v", ErrDegraded, j.degradedCause)
		}
		return fmt.Errorf("journal: compact publish fsync: %w", err)
	}
	old := j.f
	j.f, j.seg, j.segBytes = f, next, size
	j.durableLocked(j.end)
	// Only now, durable in the published root, do the held records join
	// the live-job state.
	for _, w := range j.held {
		j.stats.Records++
		j.applyLocked(w.rec, w.frame)
	}
	j.held = nil
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
	// Remove every older segment, not just the immediate predecessor: an
	// earlier cleanup that failed leaves stragglers, and the root
	// supersedes them all. The listing also recounts the segments.
	if segs, err := listSegments(j.fs, j.dir); err == nil {
		j.segments = 0
		for _, s := range segs {
			if s < next {
				if err := j.fs.Remove(filepath.Join(j.dir, segName(s))); err == nil {
					continue
				}
				j.stats.CleanupErrors++
			}
			j.segments++
		}
	} else {
		j.segments++
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
	st.Segments = j.segments
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
		j.durableLocked(j.end)
	}
	return j.f.Close()
}

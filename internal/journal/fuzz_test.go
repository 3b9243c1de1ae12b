package journal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// seedRecords seed FuzzDecodeRecord: every op, every field filled once.
var seedRecords = []Record{
	{Op: OpSubmit, Seq: 1, ID: "j0001", Tenant: "acme", Priority: "high", Spec: []byte(`{"kind":"chol","n":120}`)},
	{Op: OpAdmit, ID: "j0001", Demand: 512},
	{Op: OpComplete, ID: "j0001", Status: "done"},
	{Op: OpComplete, ID: "j0002", Status: "failed", Error: "daemon restarted mid-execution"},
	{Op: OpCancel, ID: "j0003"},
	{Op: OpMark, Seq: 1 << 40},
}

// FuzzDecodeRecord is the journal's whole input surface at restart: bytes
// read back from disk after an arbitrary crash. Any input must decode to
// a valid record, ErrTruncated or ErrCorrupt — never panic, never consume
// a nonsensical length — and a decoded record must survive a re-encode
// round trip (what compaction writes is what replay read).
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range seedRecords {
		b, err := EncodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// Torn and corrupted variants seed the interesting error paths.
		f.Add(b[:len(b)/2])
		mut := append([]byte(nil), b...)
		mut[len(mut)/2] ^= 0x40
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if n != 0 {
				t.Fatalf("error with %d bytes consumed", n)
			}
			return
		}
		if n < frameHdrBytes || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if !rec.Op.valid() {
			t.Fatalf("decoded invalid op %d", rec.Op)
		}
		reenc, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		rec2, n2, err := DecodeRecord(reenc)
		if err != nil || n2 != len(reenc) {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip drift:\n got %+v\nwant %+v", rec2, rec)
		}
	})
}

// FuzzReplayStream feeds an arbitrary byte stream through the segment
// replay loop's logic: records decoded until the first damage, with every
// decoded prefix identical whether the damage exists or not (replay of a
// crashed log is a prefix of replay of the full log).
func FuzzReplayStream(f *testing.F) {
	var clean []byte
	for _, rec := range []Record{
		{Op: OpSubmit, Seq: 1, ID: "a", Spec: []byte(`{}`)},
		{Op: OpAdmit, ID: "a", Demand: 9},
		{Op: OpComplete, ID: "a", Status: "done"},
	} {
		b, err := EncodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		clean = append(clean, b...)
	}
	f.Add(clean, 10)
	f.Add(clean, len(clean)-3)

	decodeAll := func(data []byte) []Record {
		var recs []Record
		off := 0
		for off < len(data) {
			rec, n, err := DecodeRecord(data[off:])
			if err != nil {
				break
			}
			off += n
			recs = append(recs, rec)
		}
		return recs
	}

	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if cut < 0 || cut > len(data) {
			return
		}
		full := decodeAll(data)
		prefix := decodeAll(data[:cut])
		if len(prefix) > len(full) {
			t.Fatalf("prefix decoded more records (%d) than the full stream (%d)", len(prefix), len(full))
		}
		for i := range prefix {
			if !reflect.DeepEqual(prefix[i], full[i]) {
				t.Fatalf("record %d differs between prefix and full replay", i)
			}
		}
	})
}

// TestEncodeRecordOneAllocation: a record is framed in one allocation, and
// the frames are byte for byte those of the encoder that built the payload
// first and copied it behind the header (the hex below), for every op. The
// fuzz seeds decode back to themselves.
func TestEncodeRecordOneAllocation(t *testing.T) {
	submit := Record{Op: OpSubmit, Seq: 7, ID: "j0007", Tenant: "gold", Priority: "high", Spec: []byte(`{"kind":"chol","n":120,"procs":4,"seed":7}`)}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := EncodeRecord(submit); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("encoding a submit with a %d-byte spec allocates %.0f times, want 1", len(submit.Spec), n)
	}
	want := []string{
		"2e0000004cb9a50801010100056a303030310461636d6504686967680000177b226b696e64223a2263686f6c222c226e223a3132307d",
		"10000000fafbc0880102008004056a303030310000000000",
		"13000000e43b1f1501030000056a30303031000004646f6e650000",
		"33000000ba2409ed01030000056a303030320000066661696c65641e6461656d6f6e20726573746172746564206d69642d657865637574696f6e00",
		"0f0000000f86239001040000056a303030330000000000",
		"0f000000c278aad2010580808080802000000000000000",
		"410000004f6a815201010700056a3030303704676f6c64046869676800002a7b226b696e64223a2263686f6c222c226e223a3132302c2270726f6373223a342c2273656564223a377d",
	}
	for i, rec := range append(append([]Record(nil), seedRecords...), submit) {
		b, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != want[i] {
			t.Errorf("record %d (op %d): frame %s, want %s", i, rec.Op, got, want[i])
		}
		dec, n, err := DecodeRecord(b)
		if err != nil || n != len(b) {
			t.Fatalf("record %d: decode consumed %d of %d bytes: %v", i, n, len(b), err)
		}
		if len(dec.Spec) == 0 && len(rec.Spec) == 0 {
			dec.Spec, rec.Spec = nil, nil
		}
		if !reflect.DeepEqual(dec, rec) {
			t.Errorf("record %d decodes to %+v, want %+v", i, dec, rec)
		}
	}
}

package records_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"redoop/internal/colfmt"
	"redoop/internal/records"
)

// The tests below pin the Record contract against the one pane
// encoding that stores records (internal/colfmt): a batch survives
// encode/decode with timestamps and payloads intact, damaged bytes are
// rejected, and the visitor reports each payload at its own offset.

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []records.Record{
		{Ts: 0, Data: []byte("alpha")},
		{Ts: -5, Data: nil},
		{Ts: 1 << 40, Data: []byte{0, 1, 2, 255}},
		{Ts: 7, Data: bytes.Repeat([]byte("x"), 1000)},
	}
	out, err := colfmt.DecodeRecords(colfmt.EncodeRecords(in))
	if err != nil {
		t.Fatalf("DecodeRecords: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Ts != in[i].Ts || !bytes.Equal(out[i].Data, in[i].Data) {
			t.Errorf("record %d mismatch: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good := colfmt.EncodeRecords([]records.Record{{Ts: 1, Data: []byte("abcdef")}})
	// Truncated payload.
	if _, err := colfmt.DecodeRecords(good[:len(good)-2]); err == nil {
		t.Error("truncated buffer should fail")
	}
	// Garbage: a run of varint continuation bytes is no pane segment.
	junk := bytes.Repeat([]byte{0x80}, 12)
	if _, err := colfmt.DecodeRecords(junk); err == nil {
		t.Error("garbage bytes should fail")
	}
}

func TestVisitOffsets(t *testing.T) {
	recs := []records.Record{{Ts: 10, Data: []byte("aa")}, {Ts: 20, Data: []byte("bbbb")}}
	enc := colfmt.EncodeRecords(recs)
	var offs []int
	var tss []int64
	err := colfmt.VisitRecords(enc, func(off int, ts int64, payload []byte) bool {
		offs = append(offs, off)
		tss = append(tss, ts)
		if !bytes.Equal(enc[off:off+len(payload)], payload) {
			t.Errorf("payload at offset %d does not match the encoded bytes", off)
		}
		return true
	})
	if err != nil {
		t.Fatalf("VisitRecords: %v", err)
	}
	if len(offs) != 2 || tss[0] != 10 || tss[1] != 20 {
		t.Fatalf("visited ts %v at offsets %v, want [10 20]", tss, offs)
	}
	// Payloads sit back to back, so the second starts where the first ends.
	if offs[1]-offs[0] != len(recs[0].Data) {
		t.Errorf("offsets = %v, want a gap of %d", offs, len(recs[0].Data))
	}
}

// Property: the pane encoding round-trips arbitrary record batches.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(tss []int64, blobs [][]byte) bool {
		n := len(tss)
		if len(blobs) < n {
			n = len(blobs)
		}
		in := make([]records.Record, n)
		for i := 0; i < n; i++ {
			in[i] = records.Record{Ts: tss[i], Data: blobs[i]}
		}
		out, err := colfmt.DecodeRecords(colfmt.EncodeRecords(in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i].Ts != in[i].Ts || !bytes.Equal(out[i].Data, in[i].Data) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

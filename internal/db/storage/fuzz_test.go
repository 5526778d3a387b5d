package storage

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/db/value"
)

// FuzzDecodeTuple drives arbitrary bytes and column masks through the
// tuple decoder: it must never panic; the masked and full decodes must
// agree on whether the input is an error and on every needed column,
// with every other column NULL; decoding into a dirty reused buffer
// must match a fresh decode; and whatever decodes must survive an
// encode/decode round trip.
func FuzzDecodeTuple(f *testing.F) {
	for _, row := range [][]value.Value{
		sampleRow(),
		{value.NewInt(-7), value.NewFloat(math.Inf(-1)), value.NewStr("")},
		{value.NewStr("lineitem comment"), value.NewDate(value.MakeDate(1998, 12, 1))},
		nil,
	} {
		f.Add(EncodeTuple(row, nil), []byte{1, 0, 1})
		f.Add(EncodeTuple(row, nil), []byte{})
	}
	for _, bad := range [][]byte{
		{byte(value.Int)},
		{byte(value.Str), 10, 0, 'a'},
		{byte(value.Float), 1, 2, 3},
		{byte(value.Bool)},
		{250},
		{byte(value.Str), 255},
		{byte(value.Null), byte(value.Bool), 7, 250},
	} {
		f.Add(bad, []byte{0, 1})
	}

	f.Fuzz(func(t *testing.T, data, mask []byte) {
		need := make([]bool, len(mask))
		for i, b := range mask {
			need[i] = b&1 != 0
		}
		full, ferr := DecodeTuple(data, nil)
		masked, merr := DecodeColumns(data, nil, need)
		if (ferr == nil) != (merr == nil) {
			t.Fatalf("full decode err %v, masked decode err %v", ferr, merr)
		}
		if ferr != nil {
			return
		}
		if len(masked) != len(full) {
			t.Fatalf("masked arity %d, full arity %d", len(masked), len(full))
		}
		for i := range full {
			if i < len(need) && need[i] {
				if !identical(masked[i], full[i]) {
					t.Fatalf("needed column %d: masked %v, full %v", i, masked[i], full[i])
				}
			} else if !masked[i].IsNull() {
				t.Fatalf("unneeded column %d decoded as %v", i, masked[i])
			}
		}
		dirty := make([]value.Value, len(full)+3)
		for i := range dirty {
			dirty[i] = value.NewStr("stale")
		}
		reused, err := DecodeColumns(data, dirty[:1], need)
		if err != nil || len(reused) != len(masked) {
			t.Fatalf("reused-buffer decode: %d columns, err %v", len(reused), err)
		}
		for i := range masked {
			if !identical(reused[i], masked[i]) {
				t.Fatalf("reused-buffer column %d: %v, want %v", i, reused[i], masked[i])
			}
		}
		enc := EncodeTuple(full, nil)
		again, err := DecodeTuple(enc, nil)
		if err != nil || len(again) != len(full) {
			t.Fatalf("re-encoded tuple decodes to %d columns, err %v", len(again), err)
		}
		for i := range full {
			if !identical(again[i], full[i]) {
				t.Fatalf("round trip column %d: %v, want %v", i, again[i], full[i])
			}
		}
		if !bytes.Equal(EncodeTuple(again, nil), enc) {
			t.Fatal("encoding is not stable across a round trip")
		}
	})
}

// identical reports whether two decoded values are the same datum,
// bit for bit (NaN floats included).
func identical(a, b value.Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

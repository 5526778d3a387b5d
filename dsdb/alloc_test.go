package dsdb_test

import (
	"context"
	"testing"

	"repro/internal/db/storage"
	"repro/internal/db/value"
)

// TestRejectedRowsDoNotAllocate is a deterministic allocation gate on
// the scan path: a query whose qualifier rejects every lineitem row
// must cost a fixed number of allocations (compile, plan, one decode
// buffer, the result row), not one or more per row scanned.
func TestRejectedRowsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	if testing.Short() {
		t.Skip("loads TPC-D at SF 0.01")
	}
	db, err := benchDB()
	if err != nil {
		t.Fatal(err)
	}
	db.SetParallelism(1)
	const q = "select count(*) from lineitem where l_quantity < 0"
	ctx := context.Background()
	var rows int64
	if err := db.QueryRow(ctx, "select count(*) from lineitem").Scan(&rows); err != nil {
		t.Fatal(err)
	}
	if rows < 50000 {
		t.Fatalf("lineitem has %d rows; the gate needs SF 0.01", rows)
	}
	allocs := testing.AllocsPerRun(5, func() {
		var n int64
		if err := db.QueryRow(ctx, q).Scan(&n); err != nil || n != 0 {
			t.Fatalf("count = %d, err %v; want 0", n, err)
		}
	})
	// Parsing, planning and running the statement cost about 55
	// allocations whatever the table size: fewer than one per heap
	// page, where one per rejected row would be 60,000.
	const limit = 100
	if allocs > limit {
		t.Fatalf("%v allocations per run over %d rejected rows, want <= %d", allocs, rows, limit)
	}
	t.Logf("%v allocations per run over %d rejected rows", allocs, rows)
}

// TestDecodeTupleAllocations pins the decode buffer discipline: a
// short dst costs one allocation at the tuple's arity, a reused one
// none.
func TestDecodeTupleAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	row := make([]value.Value, 16)
	for i := range row {
		row[i] = value.NewInt(int64(i))
	}
	enc := storage.EncodeTuple(row, nil)
	var dec []value.Value
	if n := testing.AllocsPerRun(100, func() { dec, _ = storage.DecodeTuple(enc, nil) }); n != 1 {
		t.Errorf("decode into nil dst: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { dec, _ = storage.DecodeTuple(enc, dec) }); n != 0 {
		t.Errorf("decode into reused dst: %v allocs, want 0", n)
	}
}

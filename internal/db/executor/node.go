package executor

import (
	"repro/internal/db/catalog"
	"repro/internal/db/probe"
	"repro/internal/db/value"
)

// Node is one operator of the execution plan tree (Volcano iterator
// model). Open prepares the node (and must reset it if called again),
// Next produces the next tuple, Close releases resources.
//
// Tuple lifetime: a Tuple returned by Next is valid only until the
// next Next or Close on the same node, which may overwrite it in
// place — scans decode every row into one reused buffer and joins
// build every output row in one scratch slice. A consumer that keeps
// a row past that point (Sort, Material, the HashJoin build table,
// the MergeJoin duplicate group, GroupAgg's pending row, ParallelScan
// batches, engine.Run)
// makes a shallow copy: Values are immutable and strings are never
// shared with pages, so copying the slice suffices.
type Node interface {
	Open() error
	Next() (Tuple, bool, error)
	Close() error
	// Schema describes the output columns (used by the planner to
	// resolve variable references).
	Schema() *catalog.Schema
}

// child invokes a child node through the ExecProcNode dispatcher,
// bracketing the call with the caller's call-site and continuation
// probes — the per-tuple call chain that gives DBMS code its long,
// loop-free instruction sequences.
func (c *Ctx) child(call, cont probe.ID, n Node) (Tuple, bool, error) {
	if c.Interrupt != nil {
		if err := c.Interrupt(); err != nil {
			return nil, false, err
		}
	}
	c.Tr.Emit(call)
	c.Tr.Emit(probe.ExecProcEnter)
	t, ok, err := n.Next()
	c.Tr.Emit(probe.ExecProcExit)
	c.Tr.Emit(cont)
	return t, ok, err
}

// tupleCompare compares two tuples on the given columns and
// directions, emitting the per-column comparator probes (PostgreSQL's
// per-type btXXXcmp functions called from tuplesort/group/mergejoin).
func tupleCompare(c *Ctx, a, b Tuple, cols []SortKey) int {
	c.Tr.Emit(probe.TupCmpEnter)
	res := 0
	for _, k := range cols {
		c.Tr.Emit(probe.TupCmpCol)
		c.Tr.Emit(cmpProbeFor(a[k.Col]))
		r := compareVals(a[k.Col], b[k.Col])
		c.Tr.Emit(probe.TupCmpColCont)
		if r != 0 {
			if k.Desc {
				r = -r
			}
			res = r
			break
		}
	}
	c.Tr.Emit(probe.TupCmpDone)
	return res
}

// rowStore holds the shallow copies a retaining operator keeps of its
// child's rows, carving them out of shared slabs so a copy is rarely
// an allocation of its own.
type rowStore struct{ slab []value.Value }

// maxSlabValues caps the geometric slab growth (about 160 KiB).
const maxSlabValues = 4096

// keep returns a copy of t that stays valid until reset.
func (s *rowStore) keep(t Tuple) Tuple {
	if len(t) > cap(s.slab)-len(s.slab) {
		size := min(max(2*cap(s.slab), 64), maxSlabValues)
		s.slab = make([]value.Value, 0, max(size, len(t)))
	}
	n := len(s.slab)
	s.slab = append(s.slab, t...)
	return Tuple(s.slab[n:len(s.slab):len(s.slab)])
}

// reset lets the current slab be reused; every row kept so far
// becomes invalid.
func (s *rowStore) reset() { s.slab = s.slab[:0] }

// joinRow builds the concatenation of l and r in dst's storage.
func joinRow(dst, l, r Tuple) Tuple {
	dst = append(dst[:0], l...)
	return append(dst, r...)
}

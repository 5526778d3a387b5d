package executor

import (
	"fmt"
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/value"
)

// clobberNode is the worst child the tuple-lifetime contract allows:
// it returns every row in one reused backing array, and on each Next
// first overwrites the slots of the row it returned last. A consumer
// that keeps a row without copying it sees the garbage.
type clobberNode struct {
	Node
	buf Tuple
}

// Next implements Node.
func (n *clobberNode) Next() (Tuple, bool, error) {
	for i := range n.buf {
		n.buf[i] = value.NewStr("clobbered")
	}
	tup, ok, err := n.Node.Next()
	if !ok || err != nil {
		return tup, ok, err
	}
	n.buf = append(n.buf[:0], tup...)
	return n.buf, true, nil
}

// retainRows is a three-column input (k int, g int, s varchar) with
// duplicate keys, sorted on k and on g.
func retainRows(c *Ctx, n int) *ValuesScan {
	sch := catalog.NewSchema(
		catalog.Column{Name: "k", Type: value.Int},
		catalog.Column{Name: "g", Type: value.Int},
		catalog.Column{Name: "s", Type: value.Str},
	)
	names := []string{"alpha", "beta", "gamma"}
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{value.NewInt(int64(i / 3)), value.NewInt(int64(i / 4)),
			value.NewStr(fmt.Sprintf("%s-%d", names[i%3], n-i))}
	}
	return &ValuesScan{C: c, Out: sch, Rows: rows}
}

// TestRetainingOperatorsCopyRows runs every operator that keeps a
// child's row past the child's next Next over a clobbering child, and
// requires the same rows as over a well-behaved one.
func TestRetainingOperatorsCopyRows(t *testing.T) {
	db := newTestDB(t, 40)
	cases := []struct {
		name string
		plan func(c *Ctx, wrap func(Node) Node) Node
	}{
		{"sort", func(c *Ctx, wrap func(Node) Node) Node {
			return &Sort{C: c, Child: wrap(retainRows(c, 30)), Keys: []SortKey{{Col: 2}}}
		}},
		{"material", func(c *Ctx, wrap func(Node) Node) Node {
			// The inner of a cartesian NestLoop: replayed per outer row.
			return &NestLoop{C: c, Outer: retainRows(c, 4),
				Inner: &Material{C: c, Child: wrap(retainRows(c, 10))}}
		}},
		{"hash_join_build", func(c *Ctx, wrap func(Node) Node) Node {
			return &HashJoin{C: c, Outer: wrap(retainRows(c, 20)),
				Inner: wrap(retainRows(c, 20)), OuterKey: 1, InnerKey: 0}
		}},
		{"merge_join_duplicates", func(c *Ctx, wrap func(Node) Node) Node {
			return &MergeJoin{C: c, Outer: wrap(retainRows(c, 20)),
				Inner: wrap(retainRows(c, 20)), OuterKey: 0, InnerKey: 1}
		}},
		{"group_agg", func(c *Ctx, wrap func(Node) Node) Node {
			return &GroupAgg{C: c, Child: wrap(retainRows(c, 30)), GroupBy: []int{1, 0},
				Specs: []AggSpec{{Func: AggCount}, {Func: AggMin, Arg: &Var{Idx: 2, T: value.Str}},
					{Func: AggMax, Arg: &Var{Idx: 2, T: value.Str}}}}
		}},
		{"aggregate", func(c *Ctx, wrap func(Node) Node) Node {
			return &Agg{C: c, Child: wrap(retainRows(c, 30)),
				Specs: []AggSpec{{Func: AggMin, Arg: &Var{Idx: 2, T: value.Str}},
					{Func: AggMax, Arg: &Var{Idx: 2, T: value.Str}}}}
		}},
		{"nest_loop_outer", func(c *Ctx, wrap func(Node) Node) Node {
			return &NestLoop{C: c, Outer: wrap(retainRows(c, 8)), Inner: wrap(retainRows(c, 6)),
				Quals: []Expr{&BinOp{Op: OpLE, L: intvar(0), R: &Var{Idx: 4, T: value.Int}}}}
		}},
		{"index_loop_join_outer", func(c *Ctx, wrap func(Node) Node) Node {
			return &IndexLoopJoin{C: c, Outer: wrap(retainRows(c, 20)), OuterKey: 1,
				Heap: db.heap, BTree: db.btree, InnerSch: db.sch}
		}},
		{"sort_over_join", func(c *Ctx, wrap func(Node) Node) Node {
			// A join's scratch row feeding a retaining parent.
			join := &HashJoin{C: c, Outer: wrap(retainRows(c, 20)),
				Inner: wrap(retainRows(c, 20)), OuterKey: 1, InnerKey: 0}
			return &Sort{C: c, Child: join, Keys: []SortKey{{Col: 5, Desc: true}, {Col: 2}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := drain(t, tc.plan(NewCtx(nil), func(n Node) Node { return n }))
			got := drain(t, tc.plan(NewCtx(nil), func(n Node) Node { return &clobberNode{Node: n} }))
			if len(want) == 0 {
				t.Fatal("reference plan returned no rows")
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("over a clobbering child:\n got %v\nwant %v", got, want)
			}
		})
	}
}

package executor

import (
	"repro/internal/db/catalog"
	"repro/internal/db/probe"
	"repro/internal/db/value"
)

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

// Aggregate functions supported by the executor.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{"count", "sum", "avg", "min", "max"}

// String returns the SQL name.
func (f AggFunc) String() string { return aggNames[f] }

// AggSpec is one aggregate in a target list. A nil Arg means COUNT(*).
type AggSpec struct {
	Func AggFunc
	Arg  Expr
	Name string
}

// aggState accumulates one aggregate.
type aggState struct {
	count  int64
	sum    float64
	isInt  bool
	intOK  bool
	intSum int64
	min    value.Value
	max    value.Value
	any    bool
}

func (st *aggState) advance(v value.Value) {
	if v.IsNull() {
		return
	}
	st.count++
	switch v.T {
	case value.Int, value.Date:
		st.sum += float64(v.I)
		st.intSum += v.I
	case value.Float:
		st.sum += v.F
		st.intOK = false
	}
	if !st.any {
		st.min, st.max = v, v
		st.any = true
	} else {
		if value.Compare(v, st.min) < 0 {
			st.min = v
		}
		if value.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
}

func (st *aggState) result(f AggFunc, argType value.Type) value.Value {
	switch f {
	case AggCount:
		return value.NewInt(st.count)
	case AggSum:
		if st.count == 0 {
			return value.NewNull()
		}
		if (argType == value.Int || argType == value.Date) && st.intOK {
			return value.NewInt(st.intSum)
		}
		return value.NewFloat(st.sum)
	case AggAvg:
		if st.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat(st.sum / float64(st.count))
	case AggMin:
		if !st.any {
			return value.NewNull()
		}
		return st.min
	default:
		if !st.any {
			return value.NewNull()
		}
		return st.max
	}
}

func newAggStates(n int) []aggState {
	sts := make([]aggState, n)
	for i := range sts {
		sts[i].intOK = true
	}
	return sts
}

// Agg computes plain (ungrouped) aggregates over its whole input,
// emitting exactly one row (ExecAgg).
type Agg struct {
	C     *Ctx
	Child Node
	Specs []AggSpec

	out  *catalog.Schema
	done bool
}

// Open implements Node.
func (a *Agg) Open() error {
	a.done = false
	return a.Child.Open()
}

// Next implements Node.
func (a *Agg) Next() (Tuple, bool, error) {
	c := a.C
	c.Tr.Emit(probe.AggEnter)
	if a.done {
		c.Tr.Emit(probe.AggEOF)
		return nil, false, nil
	}
	states := newAggStates(len(a.Specs))
	for {
		tup, ok, err := c.child(probe.AggChildCall, probe.AggChildCont, a.Child)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		for i, sp := range a.Specs {
			last := i == len(a.Specs)-1
			if sp.Arg == nil {
				// COUNT(*): no expression evaluation.
				if last {
					c.Tr.Emit(probe.AggCountStarLast)
				} else {
					c.Tr.Emit(probe.AggCountStar)
				}
				states[i].count++
				continue
			}
			c.Tr.Emit(probe.AggAdvance)
			v := sp.Arg.Eval(c, tup)
			if last {
				c.Tr.Emit(probe.AggAdvanceLast)
			} else {
				c.Tr.Emit(probe.AggAdvanceCont)
			}
			states[i].advance(v)
		}
	}
	out := make(Tuple, len(a.Specs))
	for i, sp := range a.Specs {
		t := value.Int
		if sp.Arg != nil {
			t = sp.Arg.Type()
		}
		out[i] = states[i].result(sp.Func, t)
	}
	a.done = true
	c.Tr.Emit(probe.AggEmit)
	return out, true, nil
}

// Close implements Node.
func (a *Agg) Close() error { return a.Child.Close() }

// Schema implements Node.
func (a *Agg) Schema() *catalog.Schema {
	if a.out == nil {
		cols := make([]catalog.Column, len(a.Specs))
		for i, sp := range a.Specs {
			t := value.Int
			if sp.Arg != nil {
				t = sp.Arg.Type()
				if sp.Func == AggAvg {
					t = value.Float
				}
				if sp.Func == AggCount {
					t = value.Int
				}
			}
			name := sp.Name
			if name == "" {
				name = sp.Func.String()
			}
			cols[i] = catalog.Column{Name: name, Type: t}
		}
		a.out = catalog.NewSchema(cols...)
	}
	return a.out
}

// GroupAgg computes grouped aggregates over an input sorted by the
// group columns, exploiting group boundaries (ExecGroup + ExecAgg, the
// sort-based grouping of PostgreSQL 6.3). The output is the group
// columns followed by the aggregates.
type GroupAgg struct {
	C       *Ctx
	Child   Node
	GroupBy []int // columns of the child output
	Specs   []AggSpec

	out  *catalog.Schema
	keys []SortKey // GroupBy as ascending sort keys
	// pending is a copy of the first row of the next group; spare is
	// the storage of the row before it, reused for the next copy.
	pending, spare Tuple
	havePending    bool
	eof            bool
}

// Open implements Node.
func (g *GroupAgg) Open() error {
	g.pending = g.pending[:0]
	g.havePending = false
	g.eof = false
	g.keys = g.keys[:0]
	for _, col := range g.GroupBy {
		g.keys = append(g.keys, SortKey{Col: col})
	}
	return g.Child.Open()
}

// sameGroup compares group columns of two rows with comparator probes.
func (g *GroupAgg) sameGroup(a, b Tuple) bool {
	c := g.C
	c.Tr.Emit(probe.GrpCmpCall)
	r := tupleCompare(c, a, b, g.keys)
	c.Tr.Emit(probe.GrpCmpCont)
	return r == 0
}

// Next implements Node.
func (g *GroupAgg) Next() (Tuple, bool, error) {
	c := g.C
	c.Tr.Emit(probe.GrpEnter)
	if g.eof {
		c.Tr.Emit(probe.GrpEOF)
		return nil, false, nil
	}
	// Fetch the first row of the next group unless one is pending from
	// the previous boundary.
	if !g.havePending {
		tup, ok, err := c.child(probe.GrpFirstCall, probe.GrpFirstCont, g.Child)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			g.eof = true
			c.Tr.Emit(probe.GrpFirstEOF)
			return nil, false, nil
		}
		g.pending = append(g.pending[:0], tup...)
		g.havePending = true
		c.Tr.Emit(probe.GrpAccum)
	} else {
		c.Tr.Emit(probe.GrpAccumPend)
	}
	head := g.pending
	states := newAggStates(len(g.Specs))
	g.accumulate(states, head)
	drained := false
	for {
		tup, ok, err := c.child(probe.GrpChildCall, probe.GrpChildCont, g.Child)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			g.eof = true
			g.havePending = false
			drained = true
			break
		}
		if g.sameGroup(head, tup) {
			c.Tr.Emit(probe.GrpSame)
			g.accumulate(states, tup)
			continue
		}
		// Boundary: stash a copy of the first row of the next group
		// (head keeps the storage it was copied into).
		g.pending, g.spare = append(g.spare[:0], tup...), g.pending
		g.havePending = true
		break
	}
	out := make(Tuple, 0, len(g.GroupBy)+len(g.Specs))
	for _, col := range g.GroupBy {
		out = append(out, head[col])
	}
	for i, sp := range g.Specs {
		t := value.Int
		if sp.Arg != nil {
			t = sp.Arg.Type()
		}
		out = append(out, states[i].result(sp.Func, t))
	}
	if drained {
		c.Tr.Emit(probe.GrpDrain)
	} else {
		c.Tr.Emit(probe.GrpEmit)
	}
	return out, true, nil
}

func (g *GroupAgg) accumulate(states []aggState, tup Tuple) {
	c := g.C
	for i, sp := range g.Specs {
		last := i == len(g.Specs)-1
		if sp.Arg == nil {
			if last {
				c.Tr.Emit(probe.GrpCountStarLast)
			} else {
				c.Tr.Emit(probe.GrpCountStar)
			}
			states[i].count++
			continue
		}
		c.Tr.Emit(probe.GrpAdvance)
		v := sp.Arg.Eval(c, tup)
		if last {
			c.Tr.Emit(probe.GrpAdvanceLast)
		} else {
			c.Tr.Emit(probe.GrpAdvanceCont)
		}
		states[i].advance(v)
	}
}

// Close implements Node.
func (g *GroupAgg) Close() error { return g.Child.Close() }

// Schema implements Node.
func (g *GroupAgg) Schema() *catalog.Schema {
	if g.out == nil {
		child := g.Child.Schema()
		cols := make([]catalog.Column, 0, len(g.GroupBy)+len(g.Specs))
		for _, col := range g.GroupBy {
			cols = append(cols, child.Columns[col])
		}
		for _, sp := range g.Specs {
			t := value.Int
			if sp.Arg != nil {
				t = sp.Arg.Type()
				if sp.Func == AggAvg {
					t = value.Float
				}
				if sp.Func == AggCount {
					t = value.Int
				}
			}
			name := sp.Name
			if name == "" {
				name = sp.Func.String()
			}
			cols = append(cols, catalog.Column{Name: name, Type: t})
		}
		g.out = catalog.NewSchema(cols...)
	}
	return g.out
}

package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/dsdb"
	"repro/dsdb/obs"
	"repro/dsdb/wire"
	"repro/internal/db/access"
	"repro/internal/db/engine"
	"repro/internal/db/executor"
	"repro/internal/db/sql"
	"repro/internal/db/storage"
)

// probeTime is how long each layer probe repeats its loop.
const probeTime = 200 * time.Millisecond

// stages is a snapshot of the observability tracer's per-stage
// histograms.
type stages struct {
	stage [obs.NumStages]obs.HistSnapshot
}

func stageSnapshot(db *dsdb.DB) stages {
	var s stages
	for i := range s.stage {
		s.stage[i] = db.Obs().StageSnapshot(obs.Stage(i))
	}
	return s
}

// setStageMeans sets obs.<stage>_us: each stage's mean over the spans
// that spent time in it, from histogram Sum/Count deltas.
func setStageMeans(res *Result, before, after stages) {
	for i, name := range obsStages {
		n := after.stage[i].Count - before.stage[i].Count
		v := 0.0
		if n > 0 {
			v = float64(after.stage[i].Sum-before.stage[i].Sum) / float64(n) / 1e3
		}
		res.Set("obs."+name+"_us", v)
	}
}

// stageSum is the total time all stages recorded between two
// snapshots.
func stageSum(before, after stages) time.Duration {
	var d time.Duration
	for i := range after.stage {
		d += after.stage[i].Sum - before.stage[i].Sum
	}
	return d
}

// setPoolMetrics sets the buffer pool's per-query counts and miss
// ratio from two PoolStats snapshots.
func setPoolMetrics(res *Result, before, after dsdb.PoolStats, queries int) {
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	res.Set("buffer.hits_per_query", hits/float64(max(queries, 1)))
	res.Set("buffer.misses_per_query", misses/float64(max(queries, 1)))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = misses / (hits + misses)
	}
	res.Set("buffer.miss_ratio", ratio)
}

// setOverhead reports how much slower traced rounds ran than the
// untraced rounds interleaved with them.
func setOverhead(res *Result, untraced, traced Samples) {
	u, t := untraced.Median(), traced.Median()
	pct := 0.0
	if u > 0 {
		pct = 100 * (float64(t)/float64(u) - 1)
	}
	res.Set("trace.overhead_pct", pct)
	fmt.Printf("tracing overhead: %+.2f%% (median traced round %.3fms over %d, untraced %.3fms over %d)\n",
		pct, Ms(t), len(traced), Ms(u), len(untraced))
}

// idle reports 0 for the metrics of layers this workload never calls.
func idle(res *Result, names ...string) {
	for _, n := range names {
		res.Set(n, 0)
	}
}

// idleServing reports 0 for the layers only served-drilldown calls:
// client, server, result cache, writes and capture.
func idleServing(res *Result) {
	idle(res, "client.overhead_us", "server.queries_total",
		"qcache.hit_ratio", "qcache.evictions", "qcache.invalidations", "qcache.used_mb",
		"engine.insert_us", "engine.refresh_ms", "wal.appends_per_refresh", "wal.bytes_per_user_byte", "wal.fsyncs",
		"wcap.records", "wcap.dropped", "wcap.bytes_per_record")
}

// idleSTC reports 0 for the paper pipeline's layers, which only the
// tpcd-power traced run calls.
func idleSTC(res *Result) {
	idle(res, "kernel.profile_ms.train", "kernel.profile_ms.test", "kernel.events_per_us",
		"profile.derive_ms", "core.layout_ms.ops", "core.layout_ms.auto",
		"layout.layout_ms.pettis_hansen", "layout.layout_ms.torrellas",
		"fetch.simulate_ms", "fetch.minstr_per_s")
}

// probeInput is the workload's own data for the layer probes.
type probeInput struct {
	db *dsdb.DB
	// statements are the SQL texts the workload issued.
	statements []string
	// rows are result rows the workload received.
	rows [][]dsdb.Value
}

// layerProbes runs the probes every traced run shares, over the
// workload's database: each TPC-D query timed once and once under
// EXPLAIN ANALYZE, then tuple decode, heap scan, B-tree probe,
// compile and wire encode/decode.
func layerProbes(ctx context.Context, cfg runConfig, res *Result, in probeInput) error {
	if err := analyzePass(ctx, cfg.rec, res, in.db); err != nil {
		return err
	}
	eng := in.db.Engine()
	release := eng.BeginRead()
	defer release()
	if err := probeStorage(cfg.rec, res, eng); err != nil {
		return err
	}
	if err := probeBTree(cfg.rec, res, eng, rand.New(rand.NewPCG(uint64(cfg.seed), 7))); err != nil {
		return err
	}
	if err := probeCompile(cfg.rec, res, eng, in.statements); err != nil {
		return err
	}
	return probeWire(cfg.rec, res, in.rows)
}

// repeat calls f until probeTime has passed; f returns how many units
// of work it did. It returns the mean nanoseconds per unit.
func repeat(f func() (int, error)) (float64, error) {
	units := 0
	t0 := time.Now()
	for time.Since(t0) < probeTime {
		n, err := f()
		if err != nil {
			return 0, err
		}
		units += n
	}
	return float64(time.Since(t0)) / float64(max(units, 1)), nil
}

// probeStorage times full scans of lineitem (access) and
// storage.DecodeTuple over its stored tuples, with the bytes each
// decode allocates.
func probeStorage(rec *Recorder, res *Result, eng *engine.DB) error {
	var raw [][]byte
	var tuples int
	var scans Samples
	sp := rec.Begin("access.heap_scan", 0)
	for range 3 {
		sc := eng.Heap("lineitem").BeginScan()
		t0 := time.Now()
		n := 0
		for {
			vals, _, ok, err := sc.Next(nil, nil)
			if err != nil {
				sc.Close()
				return fmt.Errorf("scanning lineitem: %w", err)
			}
			if !ok {
				break
			}
			if len(raw) < 20000 && len(scans) == 0 {
				raw = append(raw, storage.EncodeTuple(vals, nil))
			}
			n++
		}
		sc.Close()
		scans = append(scans, time.Since(t0))
		tuples = n
	}
	rec.End(sp, 0)
	res.Set("access.heap_scan_ns_per_tuple", float64(scans.Median())/float64(max(tuples, 1)))

	sp = rec.Begin("storage.decode", 0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	decoded := 0
	ns, err := repeat(func() (int, error) {
		for _, b := range raw {
			if _, err := storage.DecodeTuple(b, nil); err != nil {
				return 0, fmt.Errorf("decoding lineitem tuple: %w", err)
			}
		}
		decoded += len(raw)
		return len(raw), nil
	})
	runtime.ReadMemStats(&ms1)
	rec.End(sp, 0)
	if err != nil {
		return err
	}
	res.Set("storage.decode_ns_per_tuple", ns)
	res.Set("storage.decode_b_per_tuple", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(max(decoded, 1)))
	return nil
}

// probeBTree times point probes of the orders.o_orderkey B-tree at
// keys drawn from the table.
func probeBTree(rec *Recorder, res *Result, eng *engine.DB, rng *rand.Rand) error {
	tbl, _ := eng.Cat.Table("orders")
	var bt *access.BTree
	for _, ix := range tbl.Indexes {
		if ix.Column == "o_orderkey" {
			bt = eng.BTreeFor(ix)
		}
	}
	if bt == nil {
		return fmt.Errorf("orders has no B-tree index on o_orderkey")
	}
	var keys []int64
	sc := eng.Heap("orders").BeginScan()
	for {
		vals, _, ok, err := sc.Next(nil, nil)
		if err != nil {
			sc.Close()
			return fmt.Errorf("scanning orders: %w", err)
		}
		if !ok {
			break
		}
		keys = append(keys, vals[0].I)
	}
	sc.Close()
	sp := rec.Begin("access.btree_probe", 0)
	ns, err := repeat(func() (int, error) {
		for range 1000 {
			k := keys[rng.IntN(len(keys))]
			s, err := bt.SeekGE(nil, k)
			if err != nil {
				return 0, fmt.Errorf("btree probe: %w", err)
			}
			if got, _, ok, err := s.Next(nil); err != nil || !ok || got != k {
				return 0, fmt.Errorf("btree probe for %d found %d (ok=%v err=%v)", k, got, ok, err)
			}
		}
		return 1000, nil
	})
	rec.End(sp, 0)
	res.Set("access.btree_probe_ns", ns)
	return err
}

// probeCompile times sql.CompileQuery (parse and plan) on the
// workload's statements.
func probeCompile(rec *Recorder, res *Result, eng *engine.DB, statements []string) error {
	sp := rec.Begin("sql.compile", 0)
	ns, err := repeat(func() (int, error) {
		for _, q := range statements {
			if _, err := sql.CompileQuery(eng, executor.NewCtx(nil), q); err != nil {
				return 0, fmt.Errorf("compiling %q: %w", q, err)
			}
		}
		return len(statements), nil
	})
	rec.End(sp, 0)
	res.Set("sql.compile_us", ns/1e3)
	return err
}

// probeWire times encoding and decoding the workload's result rows in
// server-sized row batches.
func probeWire(rec *Recorder, res *Result, rows [][]dsdb.Value) error {
	var batches []wire.RowBatch
	var payloads [][]byte
	for i := 0; i < len(rows); i += wire.BatchRows {
		b := wire.RowBatch{Rows: rows[i:min(i+wire.BatchRows, len(rows))]}
		batches = append(batches, b)
		payloads = append(payloads, wire.EncodeRowBatch(b))
	}
	sp := rec.Begin("wire.encode", 0)
	ns, _ := repeat(func() (int, error) {
		for _, b := range batches {
			wire.EncodeRowBatch(b)
		}
		return len(rows), nil
	})
	rec.End(sp, 0)
	res.Set("wire.encode_ns_per_row", ns)
	sp = rec.Begin("wire.decode", 0)
	ns, err := repeat(func() (int, error) {
		for _, p := range payloads {
			if _, err := wire.DecodeRowBatch(p); err != nil {
				return 0, fmt.Errorf("decoding row batch: %w", err)
			}
		}
		return len(rows), nil
	})
	rec.End(sp, 0)
	res.Set("wire.decode_ns_per_row", ns)
	return err
}

// analyzeLine matches one operator line of EXPLAIN ANALYZE output.
var analyzeLine = regexp.MustCompile(`^(\s*)(?:-> )?(.*?) \(actual rows=(\d+) loops=\d+ time=[\d.]+ms self=([\d.]+)ms`)

// opKind maps an EXPLAIN operator label to its metric name.
func opKind(label string) string {
	for _, k := range []struct{ prefix, kind string }{
		{"Seq Scan", "seq_scan"}, {"Index Scan", "index_scan"},
		{"Index Loop Join", "index_loop_join"}, {"Nested Loop", "nested_loop"},
		{"Sort", "sort"}, {"Group Aggregate", "group_aggregate"},
		{"Aggregate", "aggregate"}, {"Filter", "filter"}, {"Project", "project"},
		{"Materialize", "materialize"},
	} {
		if strings.HasPrefix(label, k.prefix) {
			return k.kind
		}
	}
	return "other"
}

// analyzePass times each TPC-D query once (dsdb.exec_ms.q*), then runs
// it under EXPLAIN ANALYZE and sums operator self times by kind. It
// also sets how much of the obs exec stage the self times cover, how
// many leaf rows each result row costs, and — for in-process callers —
// how much of the caller's latency the obs stages cover.
func analyzePass(ctx context.Context, rec *Recorder, res *Result, db *dsdb.DB) error {
	var latency time.Duration
	before := stageSnapshot(db)
	for _, q := range tpcdQueries {
		text, _ := dsdb.TPCDQuery(q)
		sp := rec.Begin(fmt.Sprintf("dsdb.exec.q%d", q), 0)
		t0 := time.Now()
		if _, err := db.Exec(ctx, text); err != nil {
			return fmt.Errorf("Q%d: %w", q, err)
		}
		latency += time.Since(t0)
		rec.End(sp, 0)
	}
	res.Set("obs.latency_coverage", float64(stageSum(before, stageSnapshot(db)))/float64(latency))
	byName := make(map[string]Samples)
	for _, s := range rec.Spans() {
		byName[s.Name] = append(byName[s.Name], s.Dur())
	}
	for _, q := range tpcdQueries {
		res.Set(fmt.Sprintf("dsdb.exec_ms.q%d", q), Ms(byName[fmt.Sprintf("dsdb.exec.q%d", q)].Median()))
	}

	self := make(map[string]float64)
	var leafRows, resultRows, selfTotal float64
	before = stageSnapshot(db)
	for _, q := range tpcdQueries {
		text, _ := dsdb.TPCDQuery(q)
		sp := rec.Begin(fmt.Sprintf("executor.analyze.q%d", q), 0)
		out, err := db.Exec(ctx, "explain analyze "+text)
		rec.End(sp, 0)
		if err != nil {
			return fmt.Errorf("explain analyze Q%d: %w", q, err)
		}
		type op struct {
			indent int
			rows   float64
		}
		var ops []op
		for _, row := range out.Rows {
			m := analyzeLine.FindStringSubmatch(row[0].S)
			if m == nil {
				continue
			}
			rows, _ := strconv.ParseFloat(m[3], 64)
			ms, _ := strconv.ParseFloat(m[4], 64)
			self[opKind(m[2])] += ms
			selfTotal += ms
			ops = append(ops, op{len(m[1]), rows})
		}
		if len(ops) == 0 {
			return fmt.Errorf("explain analyze Q%d: no operator lines", q)
		}
		resultRows += ops[0].rows
		for i, o := range ops {
			if i == len(ops)-1 || ops[i+1].indent <= o.indent {
				leafRows += o.rows
			}
		}
	}
	after := stageSnapshot(db)
	exec := after.stage[obs.StageExec].Sum - before.stage[obs.StageExec].Sum
	for _, k := range opKinds {
		res.Set("executor.self_ms."+k, self[k])
	}
	res.Set("executor.leaf_rows_per_result_row", leafRows/max(resultRows, 1))
	res.Set("executor.exec_coverage", selfTotal/Ms(exec))
	return nil
}

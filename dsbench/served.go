package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/qcache"
	"repro/dsdb/server"
	"repro/dsdb/wcap"
	"repro/internal/db/storage"
)

// The served-drilldown database: TPC-D at SF 0.01 (data seed 42) in a
// durable data directory behind a 512-frame pool, so the ≈2,026 data
// pages are ≈4× the pool. The result cache budget sits below the
// distinct result bytes a run touches, so it evicts.
const (
	servedSF         = 0.01
	servedSeed       = 42
	servedFrames     = 512
	servedCacheBytes = 256 << 10
	servedSessions   = 2
	// roundOps is a session round: 99 reads and one UF1 refresh at a
	// seeded position. One refresh per 100 ops is an assumption, not a
	// measured rate.
	roundOps = 100
	// zipfS skews key popularity (rank r drawn with weight r^-s). It is
	// the default exponent of dsload's zipf scenario.
	zipfS = 1.5
)

// Op kinds of the served mix, in report order.
const (
	opPoint = iota
	opLineitem
	opCustomer
	opQ2
	opQ11
	opQ17
	opRefresh
	numOpKinds
)

var opNames = [numOpKinds]string{"point", "lineitem", "customer", "q2", "q11", "q17", "refresh"}

// servedEnv is one set-up database with its server and capture.
type servedEnv struct {
	db   *dsdb.DB
	cap  *wcap.Writer
	srv  *server.Server
	addr string
	dir  string
	done chan error // Serve's return

	closeOnce sync.Once
	closeErr  error
}

func openServed(dir string) (*servedEnv, error) {
	db, err := dsdb.Open(dsdb.WithTPCD(servedSF), dsdb.WithSeed(servedSeed),
		dsdb.WithDataDir(filepath.Join(dir, "data")), dsdb.WithBufferFrames(servedFrames),
		dsdb.WithResultCache(servedCacheBytes))
	if err != nil {
		return nil, err
	}
	w, err := wcap.Open(filepath.Join(dir, "capture"), wcap.Options{})
	if err != nil {
		db.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.Close()
		db.Close()
		return nil, err
	}
	e := &servedEnv{db: db, cap: w, srv: server.New(db, server.WithCapture(w)),
		addr: ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

// Close drains the server, then flushes the capture and closes and
// removes the database, keeping the capture for joinCapture. It is
// idempotent.
func (e *servedEnv) Close() error {
	e.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := e.srv.Shutdown(ctx)
		if serr := <-e.done; !errors.Is(serr, server.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		e.closeErr = errors.Join(err, e.cap.Close(), e.db.Close(), os.RemoveAll(filepath.Join(e.dir, "data")))
	})
	return e.closeErr
}

// servedOp is one generated operation.
type servedOp struct {
	kind int
	key  int64 // the looked-up key (point, lineitem, customer)
	sql  string
}

// reports are the cheap repeated TPC-D reports of the mix.
var reports = []struct{ kind, q int }{{opQ2, 2}, {opQ11, 11}, {opQ17, 17}}

// opGen generates one session's seeded operation sequence.
type opGen struct {
	rng                *rand.Rand
	orderZ, custZ      *rand.Zipf
	orderKeys, custs   []int64 // in popularity order
	refreshAt, inRound int
}

func newOpGen(seed int64, session int, orderKeys, custs []int64) *opGen {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(session)+1))
	return &opGen{
		rng:       rng,
		orderZ:    rand.NewZipf(rng, zipfS, 1, uint64(len(orderKeys)-1)),
		custZ:     rand.NewZipf(rng, zipfS, 1, uint64(len(custs)-1)),
		orderKeys: orderKeys,
		custs:     custs,
	}
}

// next returns the session's next operation. Reads: 55% order point
// lookups, 20% lineitem drill-downs, 15% orders-by-customer, 10%
// Q2/Q11/Q17 reports; one refresh per round. These shares are
// assumptions, not measured from a captured workload: mostly keyed
// lookups, some repeated reports.
func (g *opGen) next() servedOp {
	if g.inRound == 0 {
		g.refreshAt = g.rng.IntN(roundOps)
	}
	i := g.inRound
	g.inRound = (g.inRound + 1) % roundOps
	if i == g.refreshAt {
		return servedOp{kind: opRefresh}
	}
	switch u := g.rng.IntN(100); {
	case u < 55:
		k := g.orderKeys[g.orderZ.Uint64()]
		return servedOp{opPoint, k, fmt.Sprintf(
			"select o_orderkey, o_custkey, o_totalprice, o_orderdate from orders where o_orderkey = %d", k)}
	case u < 75:
		k := g.orderKeys[g.orderZ.Uint64()]
		return servedOp{opLineitem, k, fmt.Sprintf(
			"select l_orderkey, l_linenumber, l_quantity, l_extendedprice from lineitem where l_orderkey = %d", k)}
	case u < 90:
		c := g.custs[g.custZ.Uint64()]
		return servedOp{opCustomer, c, fmt.Sprintf(
			"select o_orderkey, o_custkey, o_totalprice from orders where o_custkey = %d", c)}
	default:
		r := reports[g.rng.IntN(len(reports))]
		q, _ := dsdb.TPCDQuery(r.q)
		return servedOp{kind: r.kind, sql: q}
	}
}

// loaded is what set-up loaded into orders and lineitem, read
// in-process by full scans, so every served lookup can be checked row
// for row. Refreshes only add orders keyed above maxOrder.
type loaded struct {
	orderKeys, custs []int64                // in popularity order
	orders           map[int64][]dsdb.Value // point-lookup row by o_orderkey
	lines            map[int64]string       // digest of the drill-down rows by l_orderkey
	byCust           map[int64][]int64      // o_orderkeys by o_custkey
	maxOrder         int64
}

// checkRows validates one served result against what set-up loaded:
// a point lookup returns exactly the loaded row, a drill-down exactly
// the loaded lineitems, and a customer lookup every loaded order of
// that customer plus only refreshed ones.
func (l *loaded) checkRows(op servedOp, rows [][]dsdb.Value, cols []string) error {
	switch op.kind {
	case opPoint:
		if len(rows) != 1 || !slices.Equal(rows[0], l.orders[op.key]) {
			return fmt.Errorf("order %d: got %v, want the one loaded row %v", op.key, rows, l.orders[op.key])
		}
	case opLineitem:
		if linesDigest(rows) != l.lines[op.key] {
			return fmt.Errorf("order %d: %d lineitem rows differ from the loaded ones", op.key, len(rows))
		}
	case opCustomer:
		seen := 0
		for _, r := range rows {
			k := r[0].I
			switch {
			case r[1].I != op.key:
				return fmt.Errorf("customer %d lookup returned order %d of customer %d", op.key, k, r[1].I)
			case k > l.maxOrder:
				// A refreshed order.
			case !slices.Equal(r, l.orders[k][:3]):
				return fmt.Errorf("customer %d: order %d is %v, loaded %v", op.key, k, r, l.orders[k][:3])
			default:
				seen++
			}
		}
		if want := len(l.byCust[op.key]); seen != want {
			return fmt.Errorf("customer %d: %d loaded orders returned, want %d", op.key, seen, want)
		}
	case opQ2, opQ11:
		q := 2
		if op.kind == opQ11 {
			q = 11
		}
		// Refreshes touch only orders and lineitem, so these reports
		// keep the tpcd-power answers.
		if d := digest(&dsdb.Result{Columns: cols, Rows: rows}); d != powerDigests[q] {
			return fmt.Errorf("Q%d digest %s, recorded %s", q, d, powerDigests[q])
		}
	case opQ17:
		if len(rows) != 1 {
			return fmt.Errorf("Q17 returned %d rows, want 1", len(rows))
		}
	}
	return nil
}

// refresher generates TPC-D UF1 refresh batches: SF×1,500 new orders
// with 1–7 lineitems each, keyed above the loaded range. Session s's
// k-th batch owns a fixed key block, so keys never collide and every
// seed names the same rows.
type refresher struct {
	base     int64 // first key above the loaded range
	perBatch int
	nPart    int64
	nSupp    int64
	nCust    int64
}

// batch builds session s's k-th refresh batch as (table, row) inserts
// in load order: each order's lineitems, then the order.
func (f refresher) batch(rng *rand.Rand, s, k int) (tables []string, rows [][]dsdb.Value) {
	for j := range f.perBatch {
		key := f.base + int64((k*servedSessions+s)*f.perBatch+j)
		od := dsdb.MakeDate(1995, 1, 1) + int64(rng.IntN(365))
		total := 0.0
		for ln := range 1 + rng.IntN(7) {
			qty := float64(1 + rng.IntN(50))
			price := qty * (900 + float64(rng.IntN(10000))/10)
			ship := od + int64(1+rng.IntN(121))
			tables = append(tables, "lineitem")
			rows = append(rows, []dsdb.Value{
				dsdb.NewInt(key), dsdb.NewInt(1 + rng.Int64N(f.nPart)), dsdb.NewInt(1 + rng.Int64N(f.nSupp)),
				dsdb.NewInt(int64(ln + 1)), dsdb.NewFloat(qty), dsdb.NewFloat(price),
				dsdb.NewFloat(float64(rng.IntN(11)) / 100), dsdb.NewFloat(float64(rng.IntN(9)) / 100),
				dsdb.NewStr("N"), dsdb.NewStr("O"), dsdb.NewDate(ship), dsdb.NewDate(ship + 10),
				dsdb.NewDate(ship + 20), dsdb.NewStr("AIR"), dsdb.NewStr("NONE"),
			})
			total += price
		}
		tables = append(tables, "orders")
		rows = append(rows, []dsdb.Value{
			dsdb.NewInt(key), dsdb.NewInt(1 + rng.Int64N(f.nCust)), dsdb.NewStr("O"),
			dsdb.NewFloat(total), dsdb.NewDate(od), dsdb.NewStr("3-MEDIUM"), dsdb.NewInt(0),
		})
	}
	return tables, rows
}

// sessionLog is what one client session measured.
type sessionLog struct {
	lat        [numOpKinds]Samples
	ops        Outcomes // served queries
	refreshes  Outcomes
	rounds     Samples // untraced rounds
	traced     Samples // traced rounds
	issued     int     // queries sent to the server
	userBytes  int64   // encoded bytes of refreshed rows
	qids       map[uint64]time.Duration
	statements []string
	rows       [][]dsdb.Value
	resultB    map[string]int64
}

// session runs one closed-loop client until the deadline, finishing
// its current operation.
func session(ctx context.Context, e *servedEnv, cfg runConfig, s int, gen *opGen, data *loaded, rf refresher, deadline time.Time, res *Result, mu *sync.Mutex) (*sessionLog, error) {
	cl, err := client.Dial(e.addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	lg := &sessionLog{qids: make(map[uint64]time.Duration), resultB: make(map[string]int64)}
	refreshRng := rand.New(rand.NewPCG(uint64(cfg.seed), uint64(1000+s)))
	problem := func(format string, args ...any) {
		mu.Lock()
		res.Problem("session %d: "+format, append([]any{s}, args...)...)
		mu.Unlock()
	}
	batches := 0
	for round := 0; time.Now().Before(deadline); round++ {
		rec := cfg.rec
		if round%2 == 0 {
			rec = nil
		}
		root := rec.Begin("session.round", 0)
		r0 := time.Now()
		for range roundOps {
			op := gen.next()
			if op.kind == opRefresh {
				tables, rows := rf.batch(refreshRng, s, batches)
				batches++
				sp := rec.Begin("engine.refresh", root.ID())
				t0 := time.Now()
				var ierr error
				for i, row := range rows {
					isp := rec.Begin("engine.insert", sp.ID())
					ierr = e.db.Insert(tables[i], row...)
					rec.End(isp, 0)
					if ierr != nil {
						break
					}
					if cfg.rec != nil {
						lg.userBytes += int64(len(storage.EncodeTuple(row, nil)))
					}
				}
				d := time.Since(t0)
				rec.End(sp, 0)
				if ierr != nil {
					lg.refreshes.Fail()
					problem("refresh: %v", ierr)
					continue
				}
				lg.refreshes.Succeed(d)
				lg.lat[opRefresh] = append(lg.lat[opRefresh], d)
				continue
			}
			lg.issued++
			sp := rec.Begin("client.query."+opNames[op.kind], root.ID())
			t0 := time.Now()
			rows, cols, qid, err := fetch(ctx, cl, opNames[op.kind], op.sql)
			d := time.Since(t0)
			rec.End(sp, qid)
			if err == nil {
				err = data.checkRows(op, rows, cols)
			}
			if err != nil {
				lg.ops.Fail()
				problem("%s: %v", opNames[op.kind], err)
				continue
			}
			lg.ops.Succeed(d)
			lg.lat[op.kind] = append(lg.lat[op.kind], d)
			if cfg.rec != nil {
				lg.qids[qid] = d
				if _, seen := lg.resultB[op.sql]; !seen {
					lg.resultB[op.sql] = qcache.ResultBytes(&qcache.Result{Columns: cols, Rows: rows})
					if len(lg.statements) < 200 {
						lg.statements = append(lg.statements, op.sql)
					}
					if len(lg.rows) < 5000 {
						lg.rows = append(lg.rows, rows...)
					}
				}
			}
		}
		rec.End(root, 0)
		if rec != nil {
			lg.traced = append(lg.traced, time.Since(r0))
		} else {
			lg.rounds = append(lg.rounds, time.Since(r0))
		}
	}
	return lg, nil
}

// fetch runs one served query to completion.
func fetch(ctx context.Context, cl *client.DB, label, q string) ([][]dsdb.Value, []string, uint64, error) {
	rows, err := cl.QueryLabeled(ctx, label, q)
	if err != nil {
		return nil, nil, 0, err
	}
	var out [][]dsdb.Value
	for rows.Next() {
		out = append(out, rows.Values())
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return nil, nil, 0, err
	}
	cols := rows.Columns()
	qid := rows.QueryID()
	return out, cols, qid, rows.Close()
}

// linesDigest digests an order's lineitem rows in l_linenumber order.
func linesDigest(rows [][]dsdb.Value) string {
	rows = slices.SortedFunc(slices.Values(rows), func(a, b []dsdb.Value) int { return cmp.Compare(a[1].I, b[1].I) })
	return digest(&dsdb.Result{Rows: rows})
}

// loadData reads the loaded orders and lineitems in-process, and
// shuffles the order and customer keys by the seed into popularity
// order.
func loadData(ctx context.Context, db *dsdb.DB, seed int64) (*loaded, error) {
	l := &loaded{
		orders: make(map[int64][]dsdb.Value),
		lines:  make(map[int64]string),
		byCust: make(map[int64][]int64),
	}
	o, err := db.Exec(ctx, "select o_orderkey, o_custkey, o_totalprice, o_orderdate from orders")
	if err != nil {
		return nil, err
	}
	for _, row := range o.Rows {
		k := row[0].I
		l.orders[k] = row
		l.byCust[row[1].I] = append(l.byCust[row[1].I], k)
		l.orderKeys = append(l.orderKeys, k)
	}
	li, err := db.Exec(ctx, "select l_orderkey, l_linenumber, l_quantity, l_extendedprice from lineitem")
	if err != nil {
		return nil, err
	}
	lines := make(map[int64][][]dsdb.Value)
	for _, row := range li.Rows {
		lines[row[0].I] = append(lines[row[0].I], row)
	}
	for k, rows := range lines {
		l.lines[k] = linesDigest(rows)
	}
	c, err := db.Exec(ctx, "select c_custkey from customer")
	if err != nil {
		return nil, err
	}
	for _, row := range c.Rows {
		l.custs = append(l.custs, row[0].I)
	}
	slices.Sort(l.orderKeys)
	slices.Sort(l.custs)
	l.maxOrder = slices.Max(l.orderKeys)
	rng := rand.New(rand.NewPCG(uint64(seed), 99))
	rng.Shuffle(len(l.orderKeys), func(i, j int) { l.orderKeys[i], l.orderKeys[j] = l.orderKeys[j], l.orderKeys[i] })
	rng.Shuffle(len(l.custs), func(i, j int) { l.custs[i], l.custs[j] = l.custs[j], l.custs[i] })
	return l, nil
}

func runServed(cfg runConfig, res *Result) error {
	e, err := setupMedian(res, func(i int) (*servedEnv, error) {
		return openServed(filepath.Join(cfg.scratch, fmt.Sprintf("served-%d", i)))
	})
	if err != nil {
		return err
	}
	defer e.Close()
	ctx := context.Background()
	data, err := loadData(ctx, e.db, cfg.seed)
	if err != nil {
		return err
	}
	rf := refresher{
		base:     data.maxOrder + 1,
		perBatch: int(servedSF * 1500),
		nPart:    int64(e.db.NumRows("part")),
		nSupp:    int64(e.db.NumRows("supplier")),
		nCust:    int64(len(data.custs)),
	}

	poolBefore := e.db.PoolStats()
	obsBefore := stageSnapshot(e.db)
	walBefore := e.db.WALStats()
	walBytesBefore := dirBytes(filepath.Join(e.dir, "data", "wal"))
	cacheBefore, _ := e.db.ResultCacheStats()
	statsBefore := e.srv.Stats()

	var ms0, ms1 runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	logs := make([]*sessionLog, servedSessions)
	errs := make([]error, servedSessions)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := range servedSessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := newOpGen(cfg.seed, s, data.orderKeys, data.custs)
			logs[s], errs[s] = session(ctx, e, cfg, s, gen, data, rf, deadline, res, &mu)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err := setPeakRSS(res); err != nil {
		return err
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}

	var all sessionLog
	all.qids = make(map[uint64]time.Duration)
	all.resultB = make(map[string]int64)
	for _, lg := range logs {
		for k := range numOpKinds {
			all.lat[k] = append(all.lat[k], lg.lat[k]...)
		}
		all.ops.Merge(lg.ops)
		all.refreshes.Merge(lg.refreshes)
		all.rounds = append(all.rounds, lg.rounds...)
		all.traced = append(all.traced, lg.traced...)
		all.issued += lg.issued
		all.userBytes += lg.userBytes
		for q, d := range lg.qids {
			all.qids[q] = d
		}
		for q, b := range lg.resultB {
			all.resultB[q] = b
		}
		all.statements = append(all.statements, lg.statements...)
		all.rows = append(all.rows, lg.rows...)
	}
	res.Ops.Merge(all.ops)
	res.Ops.Merge(all.refreshes)

	// The server saw exactly the queries the clients sent, and the
	// capture kept every one.
	st := e.srv.Stats()
	if got := int(st.Queries - statsBefore.Queries); got != all.issued {
		res.Fail("server counted %d queries, clients issued %d", got, all.issued)
	}
	if st.CaptureDropped != 0 {
		res.Fail("capture dropped %d records", st.CaptureDropped)
	}
	refreshes := len(all.refreshes.OK)
	wantOrders := len(data.orderKeys) + refreshes*rf.perBatch
	tail := all.ops.OK.TailPercentile(99, 10)
	logf("%d ops (%d refreshes) in %.2fs by %d sessions; tail p%.2f over %d samples (%d beyond); %.2f%% of queries within 1ms; refresh p50 %.3fms",
		res.Ops.Attempted(), refreshes, wall.Seconds(), servedSessions, tail.Level, tail.N, tail.Beyond,
		100*all.ops.WithinLimit(time.Millisecond), Ms(all.lat[opRefresh].Median()))

	if cfg.rec == nil {
		if err := probeServed(ctx, e, res, wantOrders); err != nil {
			return err
		}
		var medians []float64
		for k := range numOpKinds {
			medians = append(medians, Ms(all.lat[k].Median()))
		}
		rounds := len(all.rounds)
		res.Set("round_s", all.rounds.Median().Seconds())
		res.Set("geomean_ms", GeoMean(medians))
		res.Set("p50_ms", Ms(all.ops.OK.Median()))
		res.Set("tail_ms", Ms(tail.Value))
		res.Set("ops_per_s", float64(res.Ops.Attempted())/wall.Seconds())
		res.Set("alloc_mb_per_round", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(max(rounds, 1))/(1<<20))
		return nil
	}

	pool := e.db.PoolStats()
	setPoolMetrics(res, poolBefore, pool, all.issued)
	setStageMeans(res, obsBefore, stageSnapshot(e.db))
	setOverhead(res, all.rounds, all.traced)

	cs, _ := e.db.ResultCacheStats()
	hits, misses := cs.Hits-cacheBefore.Hits, cs.Misses-cacheBefore.Misses
	res.Set("qcache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	res.Set("qcache.evictions", float64(cs.Evictions-cacheBefore.Evictions))
	res.Set("qcache.invalidations", float64(cs.Invalidations-cacheBefore.Invalidations))
	res.Set("qcache.used_mb", float64(cs.UsedBytes)/(1<<20))
	var distinct int64
	for _, b := range all.resultB {
		distinct += b
	}
	logf("result cache budget %d B vs %d B of distinct results (%d distinct queries); %d evictions",
		servedCacheBytes, distinct, len(all.resultB), cs.Evictions-cacheBefore.Evictions)

	wal := e.db.WALStats()
	var inserts Samples
	for _, sp := range cfg.rec.Spans() {
		if sp.Name == "engine.insert" {
			inserts = append(inserts, sp.Dur())
		}
	}
	res.Set("engine.insert_us", float64(inserts.Mean())/1e3)
	res.Set("engine.refresh_ms", Ms(all.lat[opRefresh].Median()))
	res.Set("wal.appends_per_refresh", float64(wal.Appends-walBefore.Appends)/float64(max(refreshes, 1)))
	res.Set("wal.fsyncs", float64(wal.Fsyncs-walBefore.Fsyncs))
	res.Set("wal.bytes_per_user_byte",
		float64(dirBytes(filepath.Join(e.dir, "data", "wal"))-walBytesBefore)/float64(max(all.userBytes, 1)))
	res.Set("server.queries_total", float64(st.Queries-statsBefore.Queries))
	res.Set("wcap.records", float64(st.CaptureRecords-statsBefore.CaptureRecords))
	res.Set("wcap.dropped", float64(st.CaptureDropped))
	res.Set("wcap.bytes_per_record", float64(st.CaptureBytes)/float64(max(st.CaptureRecords, 1)))
	idleSTC(res)

	// The probes run before probeServed, so the result cache holds
	// only what the workload itself cached.
	if err := layerProbes(ctx, cfg, res, probeInput{db: e.db, statements: all.statements, rows: all.rows}); err != nil {
		return err
	}
	if err := probeServed(ctx, e, res, wantOrders); err != nil {
		return err
	}
	if err := e.Close(); err != nil {
		return err
	}
	return joinCapture(res, e.cap.Dir(), all.qids)
}

// probeServed runs a fixed set of probe queries over the wire and
// in-process and requires identical rows, and checks that every
// refreshed order landed.
func probeServed(ctx context.Context, e *servedEnv, res *Result, wantOrders int) error {
	cl, err := client.Dial(e.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	q6, _ := dsdb.TPCDQuery(6)
	q3, _ := dsdb.TPCDQuery(3)
	probes := []string{
		"select count(*) from orders",
		"select count(*), sum(l_quantity) from lineitem",
		"select o_orderkey, o_totalprice from orders where o_custkey = 7",
		q6, q3,
	}
	for i, q := range probes {
		served, cols, _, err := fetch(ctx, cl, "probe", q)
		if err != nil {
			return fmt.Errorf("probe %q: %w", q, err)
		}
		local, err := e.db.Exec(ctx, q)
		if err != nil {
			return fmt.Errorf("probe %q in-process: %w", q, err)
		}
		if digest(&dsdb.Result{Columns: cols, Rows: served}) != digest(local) {
			res.Fail("probe %q: served rows differ from in-process rows", q)
		}
		if i == 0 && (len(served) != 1 || served[0][0].I != int64(wantOrders)) {
			res.Fail("orders holds %v rows after the refreshes, want %d", served, wantOrders)
		}
	}
	return nil
}

// joinCapture joins a closed capture's records to the client
// latencies on the query id, and sets the client's share of latency
// and how much of the latency the stages and that share explain.
func joinCapture(res *Result, dir string, qids map[uint64]time.Duration) error {
	recs, err := wcap.Load(dir)
	if err != nil {
		return err
	}
	var clientSum, overheadSum, stageSumNS time.Duration
	joined := 0
	for _, r := range recs {
		d, ok := qids[r.QueryID]
		if !ok {
			continue
		}
		joined++
		clientSum += d
		overheadSum += d - r.Latency
		for _, ns := range r.Stages {
			stageSumNS += time.Duration(ns)
		}
	}
	if joined < len(qids) {
		res.Fail("capture holds %d of the %d traced queries", joined, len(qids))
	}
	res.Set("client.overhead_us", float64(overheadSum)/float64(max(joined, 1))/1e3)
	res.Set("obs.latency_coverage", float64(stageSumNS+overheadSum)/float64(max(clientSum, 1)))
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, _ := os.ReadDir(dir)
	var n int64
	for _, de := range ents {
		if fi, err := de.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

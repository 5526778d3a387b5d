package main

import (
	_ "embed"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"repro/dsdb"
	"repro/dsdb/stcpipe"
)

// The paper reproduction's defaults: TPC-D at SF 0.002 from seed 42.
// The workload seed orders the layout and simulation jobs.
const (
	stcSF   = 0.002
	stcSeed = 42
)

// cacheCfg is one i-cache size and conflict-free-area size of the
// paper's Table 3/4 grid (scaled 1/8, as the experiments are).
type cacheCfg struct{ cache, cfa int }

var paperGrid = []cacheCfg{
	{1024, 256}, {1024, 512}, {1024, 768},
	{2048, 512}, {2048, 1024}, {2048, 1536},
	{4096, 512}, {4096, 1024}, {4096, 2048}, {4096, 3072},
	{8192, 1024}, {8192, 2048}, {8192, 3072},
}

// layoutNames is the column order of Tables 3 and 4.
var layoutNames = []string{"orig", "P&H", "Torr", "auto", "ops"}

// traceCacheEntries is the scaled hardware trace cache (paper: 256).
const traceCacheEntries = 64

// stcEnv holds the two paper databases and the pipeline.
type stcEnv struct {
	pipe        *stcpipe.Pipeline
	btree, hash *dsdb.DB
}

func (e *stcEnv) Close() error { return errors.Join(e.btree.Close(), e.hash.Close()) }

func openSTC() (*stcEnv, error) {
	btree, err := dsdb.Open(dsdb.WithTPCD(stcSF), dsdb.WithSeed(stcSeed))
	if err != nil {
		return nil, err
	}
	hash, err := dsdb.Open(dsdb.WithTPCD(stcSF), dsdb.WithSeed(stcSeed), dsdb.WithIndexKind(dsdb.Hash))
	if err != nil {
		btree.Close()
		return nil, err
	}
	return &stcEnv{pipe: stcpipe.New(), btree: btree, hash: hash}, nil
}

// tables are the pipeline's outputs: Table 3 miss rates and Table 4
// fetch bandwidth.
type tables struct {
	miss, ipc           [][]float64 // [config][layout], direct-mapped
	twoWay, victim      []float64   // [config], orig layout
	tc, tcOps           []float64   // [config], trace cache + i-cache
	idealIPC            []float64   // [layout], perfect i-cache
	idealTC, idealTCOps float64
}

// pipelineRun is one pipeline's timings.
type pipelineRun struct {
	wall     time.Duration
	sims     Samples // every Simulate call
	kinds    map[string]Samples
	instrs   uint64 // test trace instructions per Simulate
	events   int    // trace events recorded
	profiled time.Duration
}

// job is one layout build or Simulate call.
type job struct {
	name string
	run  func() error
}

// runJobs runs jobs one after another, recording each job's latency
// under its name and as a span under parent.
func runJobs(rec *Recorder, parent uint64, jobs []job, lat map[string]Samples) error {
	for _, j := range jobs {
		sp := rec.Begin(j.name, parent)
		t0 := time.Now()
		err := j.run()
		lat[j.name] = append(lat[j.name], time.Since(t0))
		rec.End(sp, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
	}
	return nil
}

// pipeline runs the paper's flow once: profile the training and test
// workloads, derive the training profile, build the five layouts for
// every cache configuration, and simulate the Table 3/4 grid.
func pipeline(e *stcEnv, rec *Recorder, rng *rand.Rand) (*tables, *pipelineRun, error) {
	run := &pipelineRun{kinds: make(map[string]Samples)}
	root := rec.Begin("stc.pipeline", 0)
	defer rec.End(root, 0)
	t0 := time.Now()
	step := func(name string, f func() error) error {
		sp := rec.Begin(name, root.ID())
		s0 := time.Now()
		err := f()
		run.kinds[name] = append(run.kinds[name], time.Since(s0))
		rec.End(sp, 0)
		return err
	}
	var train, test *stcpipe.Profile
	if err := step("kernel.profile.train", func() (err error) {
		train, err = e.pipe.Profile(e.btree, stcpipe.Training())
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := step("kernel.profile.test", func() (err error) {
		if test, err = e.pipe.Profile(e.btree, stcpipe.Test()); err != nil {
			return err
		}
		return test.Run(e.hash, stcpipe.Test())
	}); err != nil {
		return nil, nil, err
	}
	run.profiled = time.Since(t0)
	run.events = train.Events() + test.Events()
	run.instrs = test.Instrs()
	if err := step("profile.derive", func() error { train.Footprint(); return nil }); err != nil {
		return nil, nil, err
	}

	// Layouts: orig and P&H do not depend on the cache; the greedy
	// sequence builders do.
	n := len(paperGrid)
	lays := make([][]*stcpipe.Layout, n)
	for i := range lays {
		lays[i] = make([]*stcpipe.Layout, len(layoutNames))
	}
	var orig, ph *stcpipe.Layout
	if err := step("layout.orig", func() (err error) { orig, err = train.Layout(stcpipe.Original()); return err }); err != nil {
		return nil, nil, err
	}
	if err := step("layout.pettis_hansen", func() (err error) { ph, err = train.Layout(stcpipe.PettisHansen()); return err }); err != nil {
		return nil, nil, err
	}
	var jobs []job
	for i, cc := range paperGrid {
		p := stcpipe.Params{CacheBytes: cc.cache, CFABytes: cc.cfa}
		for li, alg := range []struct {
			name string
			a    stcpipe.Algorithm
		}{{"layout.torrellas", stcpipe.Torrellas(p)}, {"core.auto", stcpipe.STCAuto(p)}, {"core.ops", stcpipe.STCOps(p)}} {
			jobs = append(jobs, job{alg.name, func() (err error) { lays[i][2+li], err = train.Layout(alg.a); return err }})
		}
	}
	if err := runJobs(rec, root.ID(), shuffled(rng, jobs), run.kinds); err != nil {
		return nil, nil, err
	}
	for i := range lays {
		lays[i][0], lays[i][1] = orig, ph
	}

	// Simulations: Table 3 (direct-mapped per layout, 2-way and victim
	// on orig) and Table 4 (the same direct-mapped runs give IPC; trace
	// cache on orig and ops; the ideal row on the 4K/1K layouts).
	t := &tables{
		miss: make([][]float64, n), ipc: make([][]float64, n),
		twoWay: make([]float64, n), victim: make([]float64, n),
		tc: make([]float64, n), tcOps: make([]float64, n),
		idealIPC: make([]float64, len(layoutNames)),
	}
	sim := func(name string, l *stcpipe.Layout, fc stcpipe.FetchConfig, set func(stcpipe.Result)) job {
		return job{name, func() error {
			r, err := test.Simulate(l, fc)
			set(r)
			return err
		}}
	}
	jobs = jobs[:0]
	for i, cc := range paperGrid {
		t.miss[i] = make([]float64, len(layoutNames))
		t.ipc[i] = make([]float64, len(layoutNames))
		dm := stcpipe.FetchConfig{CacheBytes: cc.cache}
		for li := range layoutNames {
			jobs = append(jobs, sim("fetch.simulate.dm", lays[i][li], dm, func(r stcpipe.Result) {
				t.miss[i][li], t.ipc[i][li] = r.MissesPer100Instr(), r.IPC()
			}))
		}
		jobs = append(jobs,
			sim("fetch.simulate.2way", orig, stcpipe.FetchConfig{CacheBytes: cc.cache, Ways: 2},
				func(r stcpipe.Result) { t.twoWay[i] = r.MissesPer100Instr() }),
			sim("fetch.simulate.victim", orig, stcpipe.FetchConfig{CacheBytes: cc.cache, VictimEntries: 16},
				func(r stcpipe.Result) { t.victim[i] = r.MissesPer100Instr() }),
			sim("fetch.simulate.tc", orig, stcpipe.FetchConfig{CacheBytes: cc.cache, TraceCacheEntries: traceCacheEntries},
				func(r stcpipe.Result) { t.tc[i] = r.IPC() }),
			sim("fetch.simulate.tc", lays[i][4], stcpipe.FetchConfig{CacheBytes: cc.cache, TraceCacheEntries: traceCacheEntries},
				func(r stcpipe.Result) { t.tcOps[i] = r.IPC() }),
		)
	}
	ideal := lays[7] // the 4K/1K configuration
	for li := range layoutNames {
		jobs = append(jobs, sim("fetch.simulate.ideal", ideal[li], stcpipe.FetchConfig{},
			func(r stcpipe.Result) { t.idealIPC[li] = r.IPC() }))
	}
	jobs = append(jobs,
		sim("fetch.simulate.ideal", ideal[0], stcpipe.FetchConfig{TraceCacheEntries: traceCacheEntries},
			func(r stcpipe.Result) { t.idealTC = r.IPC() }),
		sim("fetch.simulate.ideal", ideal[4], stcpipe.FetchConfig{TraceCacheEntries: traceCacheEntries},
			func(r stcpipe.Result) { t.idealTCOps = r.IPC() }))
	if err := runJobs(rec, root.ID(), shuffled(rng, jobs), run.kinds); err != nil {
		return nil, nil, err
	}
	for name, d := range run.kinds {
		if strings.HasPrefix(name, "fetch.simulate.") {
			run.sims = append(run.sims, d...)
		}
	}
	run.wall = time.Since(t0)
	return t, run, nil
}

// shuffled returns the jobs in a seeded order.
func shuffled(rng *rand.Rand, jobs []job) []job {
	out := slices.Clone(jobs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// render prints the tables in stcpipe.Report's Table 3 and Table 4
// layout, so the two can be compared cell for cell.
func (t *tables) render() (table3, table4 string) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: i-cache misses per 100 instructions (test set)\n")
	fmt.Fprintf(&b, "%-11s", "cache/CFA")
	for _, n := range layoutNames {
		fmt.Fprintf(&b, " %7s", n)
	}
	fmt.Fprintf(&b, " %7s %7s\n", "2-way", "victim")
	for i, cc := range paperGrid {
		fmt.Fprintf(&b, "%4dK/%-5.2gK", cc.cache/1024, float64(cc.cfa)/1024)
		for li := range layoutNames {
			fmt.Fprintf(&b, " %7.3f", t.miss[i][li])
		}
		fmt.Fprintf(&b, " %7.3f %7.3f\n", t.twoWay[i], t.victim[i])
	}
	table3 = b.String()

	b.Reset()
	fmt.Fprintf(&b, "Table 4: fetch bandwidth in instructions per cycle (test set, 5-cycle miss penalty)\n")
	fmt.Fprintf(&b, "%-11s", "cache/CFA")
	for _, n := range layoutNames {
		fmt.Fprintf(&b, " %6s", n)
	}
	fmt.Fprintf(&b, " %6s %7s\n", "TC", "TC+ops")
	fmt.Fprintf(&b, "%-11s", "Ideal")
	for li := range layoutNames {
		fmt.Fprintf(&b, " %6.2f", t.idealIPC[li])
	}
	fmt.Fprintf(&b, " %6.2f %7.2f\n", t.idealTC, t.idealTCOps)
	for i, cc := range paperGrid {
		fmt.Fprintf(&b, "%4dK/%-5.2gK", cc.cache/1024, float64(cc.cfa)/1024)
		for li := range layoutNames {
			fmt.Fprintf(&b, " %6.2f", t.ipc[i][li])
		}
		fmt.Fprintf(&b, " %6.2f %7.2f\n", t.tc[i], t.tcOps[i])
	}
	return table3, b.String()
}

// stcTables is what stcpipe.Report renders for Table 3 and Table 4 at
// SF 0.002, seed 42, recorded with --record-tables.
//
//go:embed stc_tables.golden
var stcTables string

// reportTables renders stcpipe.Report's Table 3 and Table 4.
func reportTables() (string, error) {
	rep, err := stcpipe.NewReport(stcpipe.ReportParams{SF: stcSF, Seed: stcSeed})
	if err != nil {
		return "", err
	}
	return rep.Table3() + rep.Table4(), nil
}

// checkTables compares the pipeline's tables with the recorded
// Report tables, line by line.
func checkTables(res *Result, t *tables) {
	got3, got4 := t.render()
	g, w := strings.Split(got3+got4, "\n"), strings.Split(stcTables, "\n")
	if len(g) != len(w) {
		res.Fail("tables: %d lines, Report renders %d", len(g), len(w))
		return
	}
	for i := range g {
		if g[i] != w[i] {
			res.Fail("tables line %d: pipeline %q, Report %q", i, g[i], w[i])
		}
	}
}

// probeSTC runs the paper pipeline once, traced, over its own SF 0.002
// databases; checks Table 3 and Table 4 against what stcpipe.Report
// renders; and sets the metrics of the pipeline's layers: kernel
// tracing, profile derivation, the STC and baseline layouts and the
// fetch simulator. The tpcd-power traced run calls it.
func probeSTC(cfg runConfig, res *Result) error {
	e, err := openSTC()
	if err != nil {
		return err
	}
	defer e.Close()
	t, run, err := pipeline(e, cfg.rec, rand.New(rand.NewPCG(uint64(cfg.seed), 3)))
	if err != nil {
		return err
	}
	checkTables(res, t)
	res.Ops.OK = append(res.Ops.OK, run.sims...)
	logf("paper pipeline: %.2fs, %d Simulate calls", run.wall.Seconds(), len(run.sims))

	res.Set("kernel.profile_ms.train", Ms(run.kinds["kernel.profile.train"].Median()))
	res.Set("kernel.profile_ms.test", Ms(run.kinds["kernel.profile.test"].Median()))
	res.Set("kernel.events_per_us", float64(run.events)/float64(run.profiled.Microseconds()))
	res.Set("profile.derive_ms", Ms(run.kinds["profile.derive"].Median()))
	res.Set("core.layout_ms.ops", Ms(run.kinds["core.ops"].Median()))
	res.Set("core.layout_ms.auto", Ms(run.kinds["core.auto"].Median()))
	res.Set("layout.layout_ms.pettis_hansen", Ms(run.kinds["layout.pettis_hansen"].Median()))
	res.Set("layout.layout_ms.torrellas", Ms(run.kinds["layout.torrellas"].Median()))
	res.Set("fetch.simulate_ms", Ms(run.sims.Median()))
	var simBusy time.Duration
	for _, d := range run.sims {
		simBusy += d
	}
	res.Set("fetch.minstr_per_s", float64(run.instrs)*float64(len(run.sims))/simBusy.Seconds()/1e6)
	return nil
}

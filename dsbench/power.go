package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/dsdb"
)

// The tpcd-power database: TPC-D at SF 0.01 from the generator's
// default seed, so every run checks against the same recorded
// digests. The workload seed shuffles the query order of each round.
const (
	powerSF   = 0.01
	powerSeed = 42
)

// powerDigests are the result digests of the 12 TPC-D queries at
// SF 0.01, data seed 42, recorded with --record-digests.
var powerDigests = map[int]string{
	2:  "372301a108a58f91", // 4 rows
	3:  "badfc8e8221864ba", // 10 rows
	4:  "1050c28f2e86aac8", // 5 rows
	5:  "f9db8ce4633e41f5", // 5 rows
	6:  "b78d00c8af47b338", // 1 row
	9:  "614da542665c0f78", // 24 rows
	11: "b8fa9ed690327fb9", // 50 rows
	12: "bd9e88ab557eb082", // 2 rows
	13: "2dd6c968aab168df", // 100 rows
	14: "f4003fb14a868385", // 1 row
	15: "c107ba02a147a871", // 1 row
	17: "520030eca0396f05", // 1 row
}

// digest hashes a result: columns, then every row in order, floats at
// ten significant digits so summation order cannot flip the last bit.
func digest(res *dsdb.Result) string {
	h := sha256.New()
	for _, c := range res.Columns {
		fmt.Fprintf(h, "%s|", c)
	}
	for _, row := range res.Rows {
		h.Write([]byte{'\n'})
		for _, v := range row {
			switch v.T {
			case dsdb.Float:
				h.Write([]byte(strconv.FormatFloat(v.F, 'g', 10, 64)))
			case dsdb.Str:
				h.Write([]byte(strconv.Quote(v.S)))
			default:
				fmt.Fprintf(h, "%d:%d", v.T, v.I)
			}
			h.Write([]byte{'|'})
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func openPower() (*dsdb.DB, error) {
	return dsdb.Open(dsdb.WithTPCD(powerSF), dsdb.WithSeed(powerSeed))
}

func printDigests() error {
	db, err := openPower()
	if err != nil {
		return err
	}
	defer db.Close()
	for _, q := range tpcdQueries {
		text, _ := dsdb.TPCDQuery(q)
		res, err := db.Exec(context.Background(), text)
		if err != nil {
			return fmt.Errorf("Q%d: %w", q, err)
		}
		fmt.Printf("%d: %q, // %d rows\n", q, digest(res), len(res.Rows))
	}
	return nil
}

func runPower(cfg runConfig, res *Result) error {
	db, err := setupMedian(res, func(int) (*dsdb.DB, error) { return openPower() })
	if err != nil {
		return err
	}
	defer db.Close()
	texts := make([]string, len(tpcdQueries))
	for i, q := range tpcdQueries {
		texts[i], _ = dsdb.TPCDQuery(q)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x9e3779b97f4a7c15))
	perQuery := make([]Samples, len(tpcdQueries))
	results := make([][][]dsdb.Value, len(tpcdQueries))
	// round runs the 12 queries once in a seeded order, checking every
	// result, and returns how long the round took.
	round := func(rec *Recorder, timed bool) time.Duration {
		root := rec.Begin("power.round", 0)
		t0 := time.Now()
		for _, qi := range rng.Perm(len(tpcdQueries)) {
			q := tpcdQueries[qi]
			sp := rec.Begin(fmt.Sprintf("dsdb.exec.q%d", q), root.ID())
			q0 := time.Now()
			out, err := db.Exec(ctx, texts[qi])
			d := time.Since(q0)
			rec.End(sp, 0)
			switch {
			case err != nil:
				res.Fail("Q%d: %v", q, err)
			case digest(out) != powerDigests[q]:
				res.Fail("Q%d: result digest %s, recorded %s", q, digest(out), powerDigests[q])
			case timed:
				res.Ops.Succeed(d)
				perQuery[qi] = append(perQuery[qi], d)
				results[qi] = out.Rows
			}
		}
		rec.End(root, 0)
		return time.Since(t0)
	}
	// One untimed round first, so the measured loop starts with the
	// heap grown to its working size.
	round(nil, false)

	var rounds, tracedRounds Samples
	poolBefore := db.PoolStats()
	obsBefore := stageSnapshot(db)
	var ms0, ms1 runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds || i == 0; i++ {
		// A traced run alternates traced and untraced rounds, so the
		// two halves see the same database and the same heap.
		if i%2 == 1 && cfg.rec != nil {
			tracedRounds = append(tracedRounds, round(cfg.rec, true))
		} else {
			rounds = append(rounds, round(nil, true))
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err := setPeakRSS(res); err != nil {
		return err
	}
	pool := db.PoolStats()

	if cfg.rec == nil {
		// Means over the whole run rather than medians: the host's
		// speed wanders by tens of percent over seconds to minutes, and
		// a median jumps between its fast and slow phases while a mean
		// follows the share of the run each took.
		var means []float64
		for _, s := range perQuery {
			means = append(means, Ms(s.Mean()))
		}
		res.Set("round_s", rounds.Mean().Seconds())
		res.Set("geomean_ms", GeoMean(means))
		// Each query repeats once a round, so a pooled percentile lands
		// on one query's samples, at a rank that moves with the round
		// count: report the median and the slowest of the query means.
		res.Set("p50_ms", MedianFloat(means))
		res.Set("tail_ms", slices.Max(means))
		res.Set("ops_per_s", float64(res.Ops.Attempted())/wall.Seconds())
		res.Set("alloc_mb_per_round", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(rounds))/(1<<20))
		logf("%d rounds (interquartile range %.1f%% of the median), %d queries in %.2fs; pool misses %d",
			len(rounds), 100*Spread(rounds.Seconds()), res.Ops.Attempted(), wall.Seconds(), pool.Misses-poolBefore.Misses)
		return nil
	}

	queries := res.Ops.Attempted()
	setPoolMetrics(res, poolBefore, pool, queries)
	setStageMeans(res, obsBefore, stageSnapshot(db))
	setOverhead(res, rounds, tracedRounds)
	idleServing(res)
	if err := layerProbes(ctx, cfg, res, probeInput{db: db, statements: texts, rows: slices.Concat(results...)}); err != nil {
		return err
	}
	return probeSTC(cfg, res)
}

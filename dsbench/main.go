// Command dsbench is dsdb's benchmark: seeded workloads driven through
// the public entry points, with every output checked before its
// numbers count. See README.md for the workloads, the metrics and how
// to run it.
//
//	dsbench --workload tpcd-power --seed 1 --seconds 10 --trace 0
package main

import (
	"cmp"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 5

// runConfig carries one run's arguments.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// rec is nil on untraced runs.
	rec *Recorder
	// scratch is a directory for data files, removed after the run.
	scratch string
}

var workloads = []struct {
	name string
	run  func(cfg runConfig, res *Result) error
}{
	{"tpcd-power", runPower},
	{"served-drilldown", runServed},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	recordDigests := flag.Bool("record-digests", false, "print the tpcd-power result digests for this commit and exit")
	recordTables := flag.Bool("record-tables", false, "print stcpipe.Report's Table 3 and Table 4 for the paper pipeline probe and exit")
	flag.Parse()

	switch {
	case *recordDigests:
		if err := printDigests(); err != nil {
			fatal(err)
		}
		return
	case *recordTables:
		t, err := reportTables()
		if err != nil {
			fatal(err)
		}
		fmt.Print(t)
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	var names []string
	switch *name {
	case "all":
		for _, w := range workloads {
			names = append(names, w.name)
		}
	default:
		names = []string{*name}
	}
	ok := true
	for _, n := range names {
		correct, err := runOne(n, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fatal(err)
		}
		ok = ok && correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its metrics; it reports whether
// every output check passed.
func runOne(name string, seed int64, seconds time.Duration, traced bool) (bool, error) {
	var run func(runConfig, *Result) error
	for _, w := range workloads {
		if w.name == name {
			run = w.run
		}
	}
	if run == nil {
		return false, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return false, err
	}
	scratch, err := os.MkdirTemp(".bench_build", name+"-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)
	cfg := runConfig{seed: seed, seconds: seconds, scratch: scratch}
	if traced {
		cfg.rec = NewRecorder()
	}
	res := newResult()
	logf("%s seed=%d seconds=%v traced=%v", name, seed, seconds, traced)
	if err := run(cfg, res); err != nil {
		return false, fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		// Every workload's set-up is dominated by building TPC-D.
		res.Set("tpcd.build_ms", res.Values["setup_s"]*1000)
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := WriteSpans(path, cfg.rec.Spans()); err != nil {
			return false, err
		}
		logf("%d spans written to %s; self time by span:", len(cfg.rec.Spans()), path)
		self := SelfByName(cfg.rec.Spans())
		names := slices.Collect(maps.Keys(self))
		slices.SortFunc(names, func(a, b string) int { return cmp.Compare(self[b], self[a]) })
		for _, n := range names[:min(len(names), 8)] {
			logf("  %-28s %10.3f ms", n, Ms(self[n]))
		}
	} else {
		res.Set("ok_frac", 1-res.Ops.ErrorFrac())
	}
	if err := res.Emit(os.Stdout, defs); err != nil {
		return false, err
	}
	return res.Correct(), nil
}

// setupMedian runs open setupReps times, closing each set-up before
// the next so only one is resident, keeps the last and records the
// median wall time as setup_s.
func setupMedian[T interface{ Close() error }](res *Result, open func(i int) (T, error)) (T, error) {
	var v T
	var secs []float64
	for i := range setupReps {
		t0 := time.Now()
		var err error
		if v, err = open(i); err != nil {
			return v, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := v.Close(); err != nil {
				return v, err
			}
		}
	}
	res.Set("setup_s", MedianFloat(secs))
	return v, nil
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsbench:", err)
	os.Exit(2)
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsbench: "+format+"\n", args...)
}

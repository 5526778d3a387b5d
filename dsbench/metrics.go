package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
)

// def names one metric and its unit.
type def struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, in print
// order. Each workload gives each one its own reading (see README.md):
// a "round" is a 12-query power round, a 100-op session round, or one
// whole paper pipeline; an "op" is a query, a served operation, or a
// Simulate call.
var endToEnd = []def{
	{"setup_s", "s"},
	{"ok_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"round_s", "s"},
	{"geomean_ms", "ms"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_round", "MB"},
}

// tpcdQueries are the paper's 12 TPC-D queries in number order.
var tpcdQueries = []int{2, 3, 4, 5, 6, 9, 11, 12, 13, 14, 15, 17}

// opKinds are the executor operator kinds reported from EXPLAIN
// ANALYZE self times; "other" collects the rest (Limit, hash and
// merge joins, values and parallel scans).
var opKinds = []string{"seq_scan", "index_scan", "index_loop_join", "nested_loop",
	"sort", "group_aggregate", "aggregate", "filter", "project", "materialize", "other"}

var obsStages = []string{"plan", "cache", "exec", "io", "wal", "net"}

// perLayer lists the metrics every traced run reports. A layer a
// workload never calls reports 0.
var perLayer = func() []def {
	var d []def
	for _, q := range tpcdQueries {
		d = append(d, def{fmt.Sprintf("dsdb.exec_ms.q%d", q), "ms"})
	}
	for _, k := range opKinds {
		d = append(d, def{"executor.self_ms." + k, "ms"})
	}
	d = append(d,
		def{"executor.leaf_rows_per_result_row", "ratio"},
		def{"executor.exec_coverage", "ratio"},
		def{"storage.decode_ns_per_tuple", "ns"},
		def{"storage.decode_b_per_tuple", "B"},
		def{"access.heap_scan_ns_per_tuple", "ns"},
		def{"access.btree_probe_ns", "ns"},
		def{"buffer.hits_per_query", "count"},
		def{"buffer.misses_per_query", "count"},
		def{"buffer.miss_ratio", "ratio"},
		def{"sql.compile_us", "us"},
	)
	for _, s := range obsStages {
		d = append(d, def{"obs." + s + "_us", "us"})
	}
	d = append(d,
		def{"obs.latency_coverage", "ratio"},
		def{"client.overhead_us", "us"},
		def{"server.queries_total", "count"},
		def{"wire.encode_ns_per_row", "ns"},
		def{"wire.decode_ns_per_row", "ns"},
		def{"qcache.hit_ratio", "ratio"},
		def{"qcache.evictions", "count"},
		def{"qcache.invalidations", "count"},
		def{"qcache.used_mb", "MB"},
		def{"engine.insert_us", "us"},
		def{"engine.refresh_ms", "ms"},
		def{"wal.appends_per_refresh", "count"},
		def{"wal.bytes_per_user_byte", "ratio"},
		def{"wal.fsyncs", "count"},
		def{"wcap.records", "count"},
		def{"wcap.dropped", "count"},
		def{"wcap.bytes_per_record", "B"},
		def{"tpcd.build_ms", "ms"},
		def{"kernel.profile_ms.train", "ms"},
		def{"kernel.profile_ms.test", "ms"},
		def{"kernel.events_per_us", "1/us"},
		def{"profile.derive_ms", "ms"},
		def{"core.layout_ms.ops", "ms"},
		def{"core.layout_ms.auto", "ms"},
		def{"layout.layout_ms.pettis_hansen", "ms"},
		def{"layout.layout_ms.torrellas", "ms"},
		def{"fetch.simulate_ms", "ms"},
		def{"fetch.minstr_per_s", "M/s"},
		def{"trace.overhead_pct", "%"},
	)
	return d
}()

// Result is what one run measured.
type Result struct {
	// Values holds the metrics by name.
	Values map[string]float64
	// Ops accounts for every measured operation.
	Ops Outcomes
	// Problems lists every failed output check; any makes the run
	// incorrect.
	Problems []string
}

func newResult() *Result { return &Result{Values: make(map[string]float64)} }

// Set records a metric value.
func (r *Result) Set(name string, v float64) { r.Values[name] = v }

// Problem records why a run is incorrect, without counting an
// operation (the caller has, or nothing was attempted).
func (r *Result) Problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fail records a failed output check as one failed operation.
func (r *Result) Fail(format string, args ...any) {
	r.Ops.Fail()
	r.Problem(format, args...)
}

// Correct reports whether every output check passed and no operation
// failed.
func (r *Result) Correct() bool { return len(r.Problems) == 0 && r.Ops.Failed == 0 }

// Emit prints one line per metric (name, value, unit) followed by the
// one-line JSON summary the benchmark contract asks for, last on out.
// Missing metrics are a bug in the workload and are reported as a
// problem rather than printed as zero.
func (r *Result) Emit(out io.Writer, defs []def) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.Values[d.name]
		if !ok {
			r.Problem("metric %s was not measured", d.name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Problem("metric %s is %v", d.name, v)
			continue
		}
		ms[d.name] = metric{v, d.unit}
		fmt.Fprintf(out, "%-36s %14s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "dsbench: CHECK FAILED:", p)
	}
	attempted := max(r.Ops.Attempted(), 1)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct(), attempted, r.Ops.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// resetPeakRSS returns the heap's free pages to the system and resets
// the process's peak resident set size to its current size (Linux
// 4.0+), so the peak read after a measured loop covers only that loop
// and what stays resident from set-up.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		logf("cannot reset the peak RSS (%v); peak_rss_mb includes set-up", err)
	}
}

// setPeakRSS records the peak resident set size since resetPeakRSS as
// peak_rss_mb.
func setPeakRSS(res *Result) error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.Set("peak_rss_mb", mb)
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

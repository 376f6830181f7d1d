// Command perfbench is the repository's benchmark. It starts the ccsd
// -serve binary built from the same checkout, drives it from this one
// load-generator process over at most nproc connections, runs the
// in-process sharded field workload, checks every answer against an
// in-process replay of the same seeded inputs, and prints one JSON
// result line. See README.md for the workloads, the metrics and how the
// traced replay attributes time to the program's layers.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload solve-miss --seed 1 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	ccsd     string
	root     string
	out      string
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	// guards lists every workload-shape guard that did not hold; a run
	// with any is not a valid measurement.
	guards []string
	// answerHash digests the answers of the run's fixed-count phases,
	// which depend on the seed alone.
	answerHash string
	// stamp adds workload-specific entries to the result's stamp.
	stamp  map[string]any
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, stamp: map[string]any{}, detail: map[string]any{}}
}

func (o *outcome) guard(ok bool, format string, args ...any) {
	if !ok {
		o.guards = append(o.guards, fmt.Sprintf(format, args...))
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// -trace 0; every workload reports every one (see README.md for what
// each means on the in-process field workload).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"cost_saving_pct", "%"},
	{"devices_per_s", "1/s"},
}

// perLayer are the traced run's per-layer metrics, reported with
// -trace 1. A layer the workload never reaches reads 0.
var perLayer = []metricDef{
	{"ccsd.self_ms", "ms"},
	{"ccsd.wait_ms", "ms"},
	{"ccsd.session_index_us", "us"},
	{"ccsd.requests", "count"},
	{"ccsd.failures", "count"},
	{"ccsd.delta_solves", "count"},
	{"ccsd.repair_solves", "count"},
	{"ccsd.repair_fallbacks", "count"},
	{"failed_frac", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.fixed_p50_ms", "ms"},
	{"loadgen.fixed_p99_ms", "ms"},
	{"host.steal_pct", "%"},
	{"loadgen.samples", "count"},
	{"gen.decode_us", "us"},
	{"gen.decode_allocs", "count"},
	{"gen.request_kb", "KiB"},
	{"instcache.key_us", "us"},
	{"instcache.lookup_us", "us"},
	{"instcache.raw_hit_ratio", "ratio"},
	{"instcache.solution_hit_ratio", "ratio"},
	{"instcache.collapsed", "count"},
	{"instcache.evictions", "count"},
	{"core.build_us", "us"},
	{"core.patch_us.add", "us"},
	{"core.patch_us.remove", "us"},
	{"core.patch_us.update", "us"},
	{"core.patch_us.tariff", "us"},
	{"core.solve_us.ccsa", "us"},
	{"core.solve_us.ccsga", "us"},
	{"core.solve_us.mobile", "us"},
	{"core.solve_allocs", "count"},
	{"core.passes", "count"},
	{"core.switches", "count"},
	{"core.repair_us", "us"},
	{"core.fallback_us", "us"},
	{"core.repair_ratio", "ratio"},
	{"core.frontier_devices", "count"},
	{"core.fallbacks", "count"},
	{"core.fallbacks.frontier", "count"},
	{"core.fallbacks.other", "count"},
	{"wire.frame_us", "us"},
	{"shard.partition_ms", "ms"},
	{"shard.solve_ms", "ms"},
	{"shard.replicated_frac", "ratio"},
	{"shard.reassigned", "count"},
	{"shard.passes", "count"},
	{"shard.switches", "count"},
	{"replay.wall_ms", "ms"},
	{"replay.other_pct", "%"},
	{"replay.coverage_pct", "%"},
	{"replay.trace_overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*options) (*outcome, error){
	"solve-miss":    func(o *options) (*outcome, error) { return runSolve(o, false) },
	"solve-repeat":  func(o *options) (*outcome, error) { return runSolve(o, true) },
	"session-churn": runSession,
	"field-rounds":  runField,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: solve-miss | solve-repeat | session-churn | field-rounds")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long the timed phases run, in total")
	flag.IntVar(&trace, "trace", 0, "1 = also replay the inputs in-process with spans and report per-layer metrics")
	flag.StringVar(&o.ccsd, "ccsd", "", "path of the ccsd binary built from the checkout under test")
	flag.StringVar(&o.root, "root", ".", "root of the checkout (stamped into the result)")
	flag.StringVar(&o.out, "out", "", "directory for the detailed result file (empty = none)")
	flag.Parse()
	o.trace = trace == 1
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	runner, ok := workloads[o.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown -workload %q", o.workload)
	case o.seconds <= 0:
		return fmt.Errorf("-seconds must be > 0, got %v", o.seconds)
	case o.workload != "field-rounds" && o.ccsd == "":
		return fmt.Errorf("-ccsd is required for %s", o.workload)
	}
	start := time.Now()
	res, err := runner(o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	defs, values := endToEnd, res.e2e
	if o.trace {
		defs, values = perLayer, res.layer
		values["failed_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": values[d.name], "unit": d.unit}
	}
	for _, g := range res.guards {
		fmt.Fprintln(os.Stderr, "perfbench: guard failed:", g)
	}
	line := map[string]any{
		"correct":   res.failed == 0 && len(res.guards) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	}
	st := stamp(o)
	for k, v := range res.stamp {
		st[k] = v
	}
	st["answer_hash"] = res.answerHash
	st["run_wall_s"] = time.Since(start).Seconds()
	if o.out != "" {
		if err := writeDetail(o, st, line, res); err != nil {
			return err
		}
	}
	sb, _ := json.Marshal(map[string]any{"stamp": st})
	fmt.Println(string(sb))
	lb, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(lb))
	return nil
}

// writeDetail records the whole run — stamp, result line, every metric
// of both kinds, guards and workload detail — as one JSON file.
func writeDetail(o *options, st map[string]any, line map[string]any, res *outcome) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"stamp":      st,
		"result":     line,
		"end_to_end": res.e2e,
		"per_layer":  res.layer,
		"guards":     res.guards,
		"detail":     res.detail,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	return os.WriteFile(filepath.Join(o.out, name), append(b, '\n'), 0o644)
}

// stamp describes the machine, toolchain and code a result came from.
func stamp(o *options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(o.root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the git commit when the checkout is
// a repository of its own, otherwise a digest of every Go source and
// go.mod file.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

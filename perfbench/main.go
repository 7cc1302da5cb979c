// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator (in-process, through the public
// packages) or against bvsimd (as a real process over HTTP), checks
// every output against its golden, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer
// metrics from a separate traced run. See README.md.
package main

import (
	"bufio"
	"context"
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed golden
var goldenFS embed.FS

// endToEnd and perLayer are the metric names BENCHMARK.json declares;
// every workload reports all of them (see README.md for what each
// means on each workload).
var (
	endToEnd = []string{"setup_s", "sim_mips", "suite_s", "peak_rss_mb", "op_p50_ms"}
	perLayer = []string{
		"sim.setup_ms", "sim.cold_setup_ms", "sim.alloc_kb_per_run", "sim.unattributed_pct",
		"cpu.ns_per_ins",
		"workload.gen_ns_per_op", "workload.segs_ns_per_call",
		"hierarchy.self_ns_per_access", "hierarchy.llc_accesses_per_kins",
		"ccache.basevictim.ns_per_op", "ccache.uncompressed.ns_per_op", "ccache.twotag.ns_per_op",
		"ccache.twotag-mod.ns_per_op", "ccache.vsc2x.ns_per_op",
		"ccache.victim_hit_share", "ccache.victim_insert_fail_ratio",
		"compress.bdi_ns_per_line", "compress.fpc_ns_per_line", "compress.cpack_ns_per_line",
		"dram.ns_per_access", "dram.row_hit_ratio",
		"prefetch.ns_per_advise", "prefetch.useful_ratio",
		"figures.runs_executed", "figures.memo_hit_ratio", "figures.worker_util", "figures.mix_share",
		"serve.miss_p50_ms.lo", "serve.miss_p95_ms.lo", "serve.miss_p50_ms.hi", "serve.miss_p95_ms.hi",
		"serve.hit_p50_ms", "serve.hit_p95_ms", "serve.goodput_rps.hi",
		"serve.http_ms.p50", "serve.queue_wait_ms.p50", "serve.queue_wait_ms.p95",
		"serve.worker_attempt_ms.p50", "serve.worker_overhead_ms.p50",
		"serve.store_write_ms.p50", "serve.store_read_ms.p50",
		"serve.shed_frac", "serve.resim_on_hit",
		"gen.lag_ms.p99", "obs.bench_trace_overhead_pct",
	}
)

// metricUnits gives each declared metric its unit; workload-specific
// extras printed as text carry their own.
var metricUnits = map[string]string{
	"setup_s": "s", "sim_mips": "Mins/s", "suite_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms",
}

func unitOf(name string) string {
	if u, ok := metricUnits[name]; ok {
		return u
	}
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.Contains(name, "ns_per"):
		return "ns"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_kb_per_run"):
		return "KiB"
	case strings.HasSuffix(name, "_per_kins"):
		return "1/kins"
	case strings.Contains(name, "_rps"):
		return "1/s"
	case strings.HasSuffix(name, "runs_executed") || strings.HasSuffix(name, "resim_on_hit"):
		return "count"
	}
	return "ratio"
}

// report collects a run's metrics and outcome counts.
type report struct {
	values    map[string]float64
	units     map[string]string
	order     []string
	notes     []string
	attempted int
	failed    int
	mismatch  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, units: map[string]string{}}
}

// set records a metric; the unit comes from the declared table unless
// given.
func (r *report) set(name string, v float64, unit ...string) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = v
	if len(unit) > 0 {
		r.units[name] = unit[0]
	} else {
		r.units[name] = unitOf(name)
	}
}

func (r *report) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// fail records an output-check mismatch; any one fails the command.
func (r *report) fail(format string, a ...any) {
	r.mismatch = append(r.mismatch, fmt.Sprintf(format, a...))
}

// run bundles one invocation's settings.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	bvsimd   string
	out      string
	golden   *golden
	update   bool
	tr       *tracer
	rep      *report
}

var workloads = map[string]func(context.Context, *run) error{
	"sim-llc":       func(ctx context.Context, r *run) error { return runSim(ctx, r, simLLC) },
	"sim-core":      func(ctx context.Context, r *run) error { return runSim(ctx, r, simCore) },
	"figures-short": runFigures,
	"serve-mixed":   runServe,
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "workload: sim-llc|sim-core|figures-short|serve-mixed")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 20, "measured time per run")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bvsimd  = fs.String("bvsimd", "", "bvsimd binary (serve-mixed)")
		out     = fs.String("out", ".bench_out", "directory for scratch state and trace files")
		update  = fs.String("update-golden", "", "write fresh goldens into this directory instead of checking")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*wl]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	g, err := loadGolden(*update)
	if err != nil && *update == "" {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r := &run{workload: *wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, bvsimd: *bvsimd, out: *out, golden: g, update: *update != "", rep: newReport()}
	if r.traced {
		r.tr = newTracer()
	}
	if err := fn(context.Background(), r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	if r.update {
		if err := r.golden.write(*update); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: goldens written to %s\n", *update)
		return 0
	}
	if r.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *wl, *seed))
		if err := r.tr.writeJSONL(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(r.tr.spans), path)
	}
	return emit(r, stdout, stderr)
}

func workloadNames() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, "|")
}

// emit prints every metric as text, then the result object, and turns
// any output mismatch into a failing exit code.
func emit(r *run, stdout, stderr io.Writer) int {
	rep := r.rep
	w := bufio.NewWriter(stdout)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, name := range rep.order {
		fmt.Fprintf(w, "%-36s %14s %s\n", name, strconv.FormatFloat(rep.values[name], 'g', 8, 64), rep.units[name])
	}
	want := endToEnd
	if r.traced {
		want = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(want))
	for _, name := range want {
		v, ok := rep.values[name]
		if !ok {
			rep.fail("metric %s was not measured", name)
			continue
		}
		ms[name] = metric{Value: v, Unit: rep.units[name]}
	}
	for _, m := range rep.mismatch {
		fmt.Fprintf(stderr, "perfbench: output check failed: %s\n", m)
	}
	correct := len(rep.mismatch) == 0
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(rep.attempted, 1), rep.failed, ms})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	if err := w.Flush(); err != nil {
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// resetPeakRSS restarts this process's resident high-water mark, so
// each pass's peak can be read on its own.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads a process's resident high-water mark from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// Command perfbench is the repository's benchmark. It runs one workload on
// freshly built simulated clusters, checks every output, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics, ending with
// one JSON line:
//
//	go build -o perfbench . && ./perfbench -workload crowd -seed 1 -seconds 20 -trace 0
//
// The workload seed is expanded into a fixed number of run seeds. Virtual
// results pool one run of each. Within the time budget the invocation
// cycles through the run seeds as often as fits, and every repeated run must
// reproduce its seed's virtual results exactly. Host speed comes from the
// fastest run, set-up time is the median run's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// workload is one benchmark input: a function that builds a fresh cluster
// from a run seed, runs it through ph and checks its outputs.
type workload struct {
	name string
	// seeds is how many run seeds the virtual results pool. Pooling
	// several shorter simulations varies less from one workload seed to
	// the next than one long one, and leaves more runs to take host speed
	// from.
	seeds int
	run   func(seed uint64, ph *phase) (*outcome, error)
}

var workloads = []workload{
	{"crowd", 4, func(seed uint64, ph *phase) (*outcome, error) { return runEcho(crowdSpec, seed, ph) }},
	{"rawwrite", 10, func(seed uint64, ph *phase) (*outcome, error) { return runEcho(rawwriteSpec, seed, ph) }},
	{"kv-rw", 8, runKV},
	{"smallbank", 4, runSmallBank},
}

// runSeeds expands the workload seed into n run seeds.
func runSeeds(seed uint64, n int) []uint64 {
	rng := stats.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one run's outcome together with its host measurements.
type sample struct {
	out *outcome
	ph  *phase
}

func (s sample) hostOpsPerSec() float64 { return float64(s.out.ops) / s.ph.run.Seconds() }

func main() {
	name := flag.String("workload", "", "workload: crowd, rawwrite, kv-rw or smallbank")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "how long to keep repeating the workload")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	outDir := flag.String("out", ".bench_build/traces", "directory for trace files")
	flag.Parse()
	os.Exit(run(os.Stdout, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir))
}

// run executes one benchmark invocation and returns the exit code.
func run(w io.Writer, name string, seed uint64, budget time.Duration, traced bool, outDir string) int {
	i := slices.IndexFunc(workloads, func(wl workload) bool { return wl.name == name })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	wl := workloads[i]
	fmt.Fprintf(w, "record: %s workload=%s seed=%d traced=%v\n", runRecord(), name, seed, traced)

	var res *result
	var err error
	if traced {
		res, err = measureTraced(w, wl, seed, budget, outDir)
	} else {
		res, err = measure(w, wl, seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	printMetrics(w, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	return 0
}

// commit is the source revision the benchmark was built from; run.sh sets
// it at link time.
var commit = "unknown"

// runRecord describes the machine and build a result came from.
func runRecord() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d GOGC=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), os.Getenv("GOGC"), runtime.Version(), commit)
}

// repeat runs wl, cycling through the run seeds, until the budget is spent
// and at least minRuns runs are done. refs holds each run seed's virtual
// results; a run of a seed without them sets them, every other run must
// reproduce them exactly.
func repeat(w io.Writer, wl workload, seeds []uint64, budget time.Duration, minRuns int, traced bool, refs []*virtual) ([]sample, error) {
	start := time.Now()
	var out []sample
	var last time.Duration
	for i := 0; i < minRuns || time.Since(start)+last <= budget; i++ {
		k := i % len(seeds)
		t0 := time.Now()
		ph := newPhase(traced)
		o, err := wl.run(seeds[k], ph)
		if err != nil {
			return out, fmt.Errorf("run %d (run seed %d): %w", i+1, seeds[k], err)
		}
		if refs[k] == nil {
			refs[k] = &o.virt
		} else if !reflect.DeepEqual(*refs[k], o.virt) {
			return out, fmt.Errorf("run %d: virtual results differ from an earlier run of run seed %d:\n  first %+v\n  now   %+v",
				i+1, seeds[k], *refs[k], o.virt)
		}
		out = append(out, sample{o, ph})
		fmt.Fprintf(w, "run %d (traced=%v, run seed %d): setup %.4fs, run phase %.3fs, %d ops, %.0f ops/s\n",
			i+1, traced, seeds[k], ph.setup.Seconds(), ph.run.Seconds(), o.ops, out[i].hostOpsPerSec())
		// Collect the finished cluster now so the next run starts from a
		// clean heap instead of paying for this one's garbage.
		runtime.GC()
		last = time.Since(t0)
	}
	return out, nil
}

// pooled is the virtual result of one invocation: every run seed's
// measured operations together.
type pooled struct {
	mops, p50, p99, p999 float64
	samples              uint64
	attempted, failed    uint64
	// layers averages each per-layer metric over the run seeds.
	layers map[string]float64
}

// pool combines the virtual results of every run seed.
func pool(refs []*virtual) pooled {
	lat := stats.NewHistogram()
	var window sim.Duration
	p := pooled{layers: make(map[string]float64)}
	for _, v := range refs {
		lat.Merge(v.Lat)
		window += v.Window
		p.attempted += v.Attempted
		p.failed += v.Failed
		for k, x := range v.Layers {
			p.layers[k] += x / float64(len(refs))
		}
	}
	p.samples = lat.Count()
	p.mops = float64(p.samples) / (float64(window) / 1e3)
	p.p50 = float64(lat.Quantile(0.5)) / 1e3
	p.p99 = float64(lat.Quantile(0.99)) / 1e3
	p.p999 = float64(lat.Quantile(0.999)) / 1e3
	return p
}

// fastest returns the run whose run phase took the least host time. Other
// load on the machine comes in episodes that slow every run they overlap,
// so the fastest run is the steadiest measure of the program's own speed;
// a median moves with how much of the invocation an episode covered.
func fastest(ss []sample) sample {
	best := ss[0]
	for _, s := range ss[1:] {
		if s.ph.run < best.ph.run {
			best = s
		}
	}
	return best
}

// median returns the median of f over the samples.
func median(ss []sample, f func(sample) float64) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// totals sums attempted and failed operations over the samples.
func totals(ss []sample) (attempted, failed uint64) {
	for _, s := range ss {
		attempted += s.out.virt.Attempted
		failed += s.out.virt.Failed
	}
	return attempted, failed
}

// measure is the untraced run: it reports the end-to-end metrics.
func measure(w io.Writer, wl workload, seed uint64, budget time.Duration) (*result, error) {
	refs := make([]*virtual, wl.seeds)
	ss, err := repeat(w, wl, runSeeds(seed, wl.seeds), budget, wl.seeds+1, false, refs)
	if err != nil {
		return nil, err
	}
	v := pool(refs)
	att, failed := totals(ss)
	fmt.Fprintf(w, "runs: %d over %d run seeds, pooled latency samples: %d (p999 has %d beyond it)\n",
		len(ss), wl.seeds, v.samples, v.samples-uint64(0.999*float64(v.samples)))
	return &result{
		Correct: true, Attempted: att, Failed: failed,
		Metrics: map[string]metric{
			"mops":           {v.mops, "Mops/s"},
			"p50_us":         {v.p50, "us"},
			"p99_us":         {v.p99, "us"},
			"p999_us":        {v.p999, "us"},
			"host_ops_per_s": {fastest(ss).hostOpsPerSec(), "ops/s"},
			"setup_s":        {median(ss, func(s sample) float64 { return s.ph.setup.Seconds() }), "s"},
			"peak_rss_mb":    {peakRSSMB(), "MB"},
		},
	}, nil
}

// measureTraced is the traced run: untraced runs first, then one traced run
// of every run seed, under a CPU profile with request spans recorded. It
// reports the per-layer metrics.
func measureTraced(w io.Writer, wl workload, seed uint64, budget time.Duration, outDir string) (*result, error) {
	start := time.Now()
	seeds := runSeeds(seed, wl.seeds)
	refs := make([]*virtual, wl.seeds)
	plain, err := repeat(w, wl, seeds, budget/2, wl.seeds+1, false, refs)
	if err != nil {
		return nil, err
	}
	traced, err := repeat(w, wl, seeds, budget-time.Since(start), wl.seeds, true, refs)
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	att, failed := totals(append(slices.Clone(plain), traced...))
	v := pool(refs)
	m := v.layers
	m["fail_frac"] = ratio(v.failed, v.attempted)
	m["run.latency_samples"] = float64(v.samples)
	best := fastest(plain)
	m["sim.host_ns_per_event"] = float64(best.ph.run.Nanoseconds()) / float64(best.ph.events)
	m["go.alloc_bytes_per_op"] = median(plain, func(s sample) float64 { return float64(s.ph.alloc) / float64(s.out.ops) })
	m["go.gc_cycles"] = median(plain, func(s sample) float64 { return float64(s.ph.gcs) })
	m["trace.overhead_frac"] = best.hostOpsPerSec()/fastest(traced).hostOpsPerSec() - 1

	buckets, total, err := profileBuckets(traced)
	if err != nil {
		return nil, err
	}
	var sum float64
	for k, v := range buckets {
		m[k] = v
		sum += v
	}
	if math.Abs(sum-total) > 1e-9*total {
		return nil, fmt.Errorf("profile buckets sum to %gs, profile total is %gs", sum, total)
	}
	m["profile.total_s"] = total
	// The span quantiles cover one traced run of every run seed, the
	// trace file the first run seed's.
	var spans []span
	for _, s := range traced[:wl.seeds] {
		spans = append(spans, s.out.spans...)
	}
	maps.Copy(m, spanQuantiles(spans))
	path, err := writeChromeTrace(outDir, wl.name, seed, traced[0].out.spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "runs: %d untraced, %d traced over %d run seeds; %d spans, run seed %d's written to %s\n",
		len(plain), len(traced), wl.seeds, len(spans), seeds[0], path)
	res := &result{Correct: true, Attempted: att, Failed: failed, Metrics: make(map[string]metric)}
	for _, lm := range perLayer {
		res.Metrics[lm.name] = metric{m[lm.name], lm.unit}
		delete(m, lm.name)
	}
	for k := range m {
		return nil, fmt.Errorf("metric %s is missing from the per-layer list", k)
	}
	return res, nil
}

// peakRSSMB reads this process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// printMetrics writes the metrics as a table, one per line with its unit.
func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

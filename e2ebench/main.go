// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload in one process for a fixed measuring time, checks every
// iteration's output against the population's ground truth, and prints
// its metrics by name with their units; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run measures the workload untraced and then traced, and prints the
// per-layer breakdown the traced phase recorded from the benchmark's side
// of each layer boundary. See README.md for the workloads and metrics.
//
// Run it from the checkout's root through run.sh, which builds it from the
// checkout's sources:
//
//	bash e2ebench/run.sh --workload dense-l7 --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minIterations is the fewest worlds a phase measures, however short
// --seconds is: medians need three.
const minIterations = 3

// setupSamples is how many set-up timings a phase collects: set-ups that
// take milliseconds are repeated on their own (up to a second in all), so
// setup_s is a median of many.
const setupSamples = 25

// options is one run's configuration. The command line sets the first
// four; the self-test also sets the sizes, directories and doctor.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	outDir   string // build output directory, for journals, traces and profiles
	root     string // the checkout, for the environment stamp
	doctor   bool   // corrupt the ground truth: the gate must fail the run
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name (dense-l7, sweep-fabric, longevity)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same world")
	fs.Float64Var(&o.seconds, "seconds", 15, "measuring time per phase, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced phase and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := findWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = trace == 1
	o.sizes = fullSizes
	o.outDir = ".bench_build"
	o.root = "."
	return o, nil
}

// metric is one named value with its unit, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// iteration is one set-up plus measured phase.
type iteration struct {
	setup, wall, cpu time.Duration
	alloc            uint64
	out              outcome
	world            int
	repeat           bool // a second run of world 0, for the determinism gate only
}

// worldSeed derives the seed of a run's k-th world; world 0 is the seed
// itself.
func worldSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	x := uint64(seed) ^ uint64(k)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x ^ (x >> 31)) >> 1)
}

// phase is the iterations of one (traced or untraced) measuring phase.
type phase struct {
	its []iteration
	// setups are the set-up timings: one per iteration, plus the extra
	// set-ups of cheap workloads.
	setups []time.Duration
	// profiles are the traced phase's CPU profiles, one per measured run.
	profiles []string
}

func run(ctx context.Context, o options, w io.Writer) (*result, error) {
	wl, _ := findWorkload(o.workload)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v: %s\n", wl.name, o.seed, o.seconds, o.trace, wl.why)
	stamp, err := json.Marshal(environment(o.root))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "env %s\n", stamp)

	// A traced run splits its measuring time between the untraced phase
	// (the baseline for trace_overhead and the vulnerable-set check) and
	// the traced one.
	limit := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		limit /= 2
	}
	untraced, err := measure(ctx, wl, o, limit, nil, w)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	gate(res, untraced, w)
	if !o.trace {
		for name, m := range endToEnd(untraced) {
			res.Metrics[name] = m
		}
	} else {
		tr := newTracer(wl.name)
		traced, err := measure(ctx, wl, o, limit, tr, w)
		if err != nil {
			return nil, err
		}
		gate(res, traced, w)
		if a, b := untraced.its[0].out.vulnDigest, traced.its[0].out.vulnDigest; a != b {
			fmt.Fprintf(w, "GATE traced vulnerable set %s differs from untraced %s\n", b, a)
			res.Correct = false
			res.Failed++
		}
		cpu, err := cpuBuckets(traced.profiles, len(traced.its))
		if err != nil {
			return nil, err
		}
		for name, m := range perLayer(tr, untraced, traced, cpu) {
			res.Metrics[name] = m
		}
		tracePath := filepath.Join(o.outDir, "traces", fmt.Sprintf("%s-seed%d.json", wl.name, o.seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeTrace(tracePath); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace %s\n", tracePath)
		for _, t := range tr.tails {
			fmt.Fprintf(w, "tail %-26s p50 %v, p%g %v, over %d samples\n", t.name, t.t.p50, t.t.pct, t.t.tail, t.t.n)
		}
	}
	printMetrics(w, res.Metrics)
	return res, nil
}

// measure runs iterations of set-up, measured phase and check until the
// measured phases add up to limit, or set-up and checks have stretched the
// phase to three times that, and at least minIterations ran. Cheap set-ups
// are then repeated on their own until there are setupSamples timings.
//
// Iteration k runs on world k of the seed (worldSeed), so a run's medians
// sample several worlds of one size rather than one world several times.
// The untraced phase runs world 0 twice: the repeat is only compared with
// the first run of that world (the determinism gate) and is left out of
// the medians.
func measure(ctx context.Context, wl workload, o options, limit time.Duration, tr *tracer, w io.Writer) (*phase, error) {
	p := &phase{}
	var measured time.Duration
	start := time.Now()
	for i, world := 0, 0; world < minIterations || (measured < limit && time.Since(start) < 3*limit); i++ {
		repeat := tr == nil && i == 1
		if !repeat && i > 0 {
			world++
		}
		// Each iteration starts from a collected heap, so one iteration's
		// garbage is not billed to the next.
		runtime.GC()
		e := env{seed: worldSeed(o.seed, world), sizes: o.sizes, tr: tr,
			outDir: filepath.Join(o.outDir, "journal"), iter: i, doctor: o.doctor}
		t0 := time.Now()
		inst, err := wl.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		it := iteration{setup: time.Since(t0), world: world, repeat: repeat}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var stopProfile func() error
		if tr != nil {
			path := filepath.Join(o.outDir, "prof", fmt.Sprintf("%s-seed%d-%d.pprof", wl.name, o.seed, i))
			if stopProfile, err = startProfile(path); err != nil {
				inst.close()
				return nil, err
			}
			p.profiles = append(p.profiles, path)
		}
		cpu0 := cpuTime()
		t1 := time.Now()
		err = inst.run(ctx)
		it.wall = time.Since(t1)
		it.cpu = cpuTime() - cpu0
		if stopProfile != nil {
			if perr := stopProfile(); err == nil {
				err = perr
			}
		}
		runtime.ReadMemStats(&ms1)
		it.alloc = ms1.TotalAlloc - ms0.TotalAlloc
		if err == nil && tr != nil {
			if h, ok := inst.(interface{ harvest(context.Context) error }); ok {
				err = h.harvest(ctx)
			}
		}
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("%s run: %w", wl.name, err)
		}
		it.out = inst.check()
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("%s close: %w", wl.name, err)
		}
		if tr != nil {
			tr.endIteration()
		}
		if !repeat {
			measured += it.wall
		}
		p.its = append(p.its, it)
		p.setups = append(p.setups, it.setup)
		fmt.Fprintf(w, "iteration %d world %d traced=%v: setup %.4fs, wall %.3fs, cpu %.3fs, alloc %.1fMB, work %.0f (%.4g/s)\n",
			i, world, tr != nil, it.setup.Seconds(), it.wall.Seconds(), it.cpu.Seconds(), float64(it.alloc)/1e6,
			it.out.work, it.out.work/it.wall.Seconds())
	}
	var extra time.Duration
	for i := len(p.its); len(p.setups) < setupSamples && extra < time.Second; i++ {
		runtime.GC()
		t0 := time.Now()
		inst, err := wl.setup(ctx, env{seed: worldSeed(o.seed, 0), sizes: o.sizes,
			outDir: filepath.Join(o.outDir, "journal"), iter: i})
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("%s close: %w", wl.name, err)
		}
		p.setups = append(p.setups, d)
		extra += d
	}
	return p, nil
}

// gate applies the correctness checks to one phase: zero misclassified
// endpoints in every iteration, and the repeat of world 0 reproducing its
// report digest.
func gate(res *result, p *phase, w io.Writer) {
	if res.Attempted == 0 {
		res.Correct = true
	}
	first := p.its[0].out
	for i, it := range p.its {
		res.Attempted++
		ok := it.out.errors == 0
		if !ok {
			fmt.Fprintf(w, "GATE iteration %d: %d of %d ground-truth endpoints misclassified\n", i, it.out.errors, it.out.truth)
		}
		if it.repeat && it.out.digest != first.digest {
			fmt.Fprintf(w, "GATE iteration %d: report digest %s differs from %s, same seed\n", i, it.out.digest, first.digest)
			ok = false
		}
		if !ok {
			res.Failed++
			res.Correct = false
		}
	}
	fmt.Fprintf(w, "gate: %d iterations, world 0 digest %s, error_rate %g\n", len(p.its), first.digest, errorRate(p))
}

func errorRate(p *phase) float64 {
	worst := 0.0
	for _, it := range p.its {
		if it.out.truth > 0 {
			worst = max(worst, float64(it.out.errors)/float64(it.out.truth))
		}
	}
	return worst
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// med is the median of f over the phase's iterations, repeats excluded.
func (p *phase) med(f func(iteration) float64) float64 {
	var xs []float64
	for _, it := range p.its {
		if !it.repeat {
			xs = append(xs, f(it))
		}
	}
	return median(xs)
}

func (p *phase) workPerSec() float64 {
	return p.med(func(it iteration) float64 { return it.out.work / it.wall.Seconds() })
}

// endToEnd is what a user of the scanner sees, per iteration, as medians.
func endToEnd(p *phase) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(seconds(p.setups)), "s"},
		"work_per_s":  {p.workPerSec(), "1/s"},
		"cpu_s":       {p.med(func(it iteration) float64 { return it.cpu.Seconds() }), "s"},
		"alloc_mb":    {p.med(func(it iteration) float64 { return float64(it.alloc) / 1e6 }), "MB"},
		"peak_rss_mb": {peakRSS() / 1e6, "MB"},
		"accuracy":    {1 - errorRate(p), "ratio"},
	}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads the process's peak resident set (VmHWM), in bytes.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb * 1024
			}
		}
	}
	return 0
}

// startProfile starts the CPU profiler writing to path and returns the
// function that stops it and closes the file.
func startProfile(path string) (func() error, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		fmt.Fprintf(bw, "metric %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	bw.Flush()
}

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"mavscan/internal/fabric"
	"mavscan/internal/iprange"
	"mavscan/internal/mav"
	"mavscan/internal/observer"
	"mavscan/internal/orchestrator"
	"mavscan/internal/population"
	"mavscan/internal/portscan"
	"mavscan/internal/scanner"
	"mavscan/internal/simtime"
	"mavscan/internal/study"
	"mavscan/internal/telemetry"
)

// sizes fixes the input size of every workload. The benchmark runs at
// fullSizes; the self-test runs the same code paths at tinySizes.
type sizes struct {
	dense     population.Config
	sweep     population.Config
	sweepStep uint64 // addresses per journaled fabric segment
	longScan  population.Config
	longEvery time.Duration // observer cadence
	longSpan  time.Duration // observation window
}

var fullSizes = sizes{
	dense: population.Config{
		HostScale: 1600, VulnScale: 4, BackgroundScale: 80000, WildcardScale: 80000, Lazy: true,
	},
	sweep: population.Config{
		HostScale: 32000, VulnScale: 32, BackgroundScale: 1600000, WildcardScale: 1600000,
		PopScale: 2, Lazy: true,
	},
	sweepStep: 8750,
	longScan: population.Config{
		HostScale: 40000, VulnScale: 20, BackgroundScale: -1, WildcardScale: -1, Lazy: true,
	},
	longEvery: 24 * time.Hour,
	longSpan:  28 * 24 * time.Hour,
}

var tinySizes = sizes{
	dense: population.Config{
		HostScale: 40000, VulnScale: 200, BackgroundScale: -1, WildcardScale: -1, Lazy: true,
	},
	sweep: population.Config{
		HostScale: 40000, VulnScale: 200, BackgroundScale: -1, WildcardScale: -1, Lazy: true,
	},
	sweepStep: 200000,
	longScan: population.Config{
		HostScale: 40000, VulnScale: 200, BackgroundScale: -1, WildcardScale: -1, Lazy: true,
	},
	longEvery: 7 * 24 * time.Hour,
	longSpan:  28 * 24 * time.Hour,
}

// env is what a workload's set-up needs besides the seed.
type env struct {
	seed   int64
	sizes  sizes
	tr     *tracer // nil for the untraced phase
	outDir string  // scratch space inside the checkout (journals)
	iter   int
	doctor bool // corrupt the ground truth (gate self-test)
}

// outcome is one iteration's result as the gate sees it.
type outcome struct {
	work   float64 // probed (address, port) pairs, or observer checks
	errors int     // misclassified endpoints against ground truth
	truth  int     // ground-truth endpoints
	// digest hashes the full canonical report; vulnDigest only the
	// vulnerable endpoint set (or, for longevity, the study result), which
	// the traced and untraced phases must agree on.
	digest, vulnDigest string
}

// instance is one set-up workload, ready for its measured phase.
type instance interface {
	run(ctx context.Context) error
	check() outcome
	close() error
}

type workload struct {
	name  string
	why   string
	setup func(ctx context.Context, e env) (instance, error)
}

var workloads = []workload{
	{"dense-l7", "dense 1x world with fingerprinting: Stages II/III (HTTP, TLS, prefilter, plugins, fingerprint) take most of the CPU; no fabric, no journal", setupDense},
	{"sweep-fabric", "sparse 2x world through a coordinator, 2 workers and a file journal: Stage I dominates, the lease protocol and journal run only here", setupSweep},
	{"longevity", "daily re-checks of ~215 confirmed MAVs over 4 weeks: repeat-heavy L7 on few hosts with no Stage I, so per-host reuse shows", setupLongevity},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func popConfig(c population.Config, seed int64) population.Config {
	c.Seed = seed
	return c
}

// generate builds the lazy world, timed as the population layer.
func generate(cfg population.Config, tr *tracer) (*population.World, error) {
	t0 := time.Now()
	w, err := population.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating world: %w", err)
	}
	tr.sample("population.generate", time.Since(t0))
	return w, nil
}

func truthFor(w *population.World, doctor bool) groundTruth {
	g := truthOf(w)
	if doctor {
		g = g.doctor()
	}
	return g
}

// --- dense-l7 ---------------------------------------------------------

type denseInst struct {
	e      env
	world  *population.World
	opts   scanner.Options
	pipe   *scanner.Pipeline // untraced: the program's own pipeline
	stages *stageSet         // traced: the same stages, called one by one

	report *scanner.Report
	vuln   map[vkey]bool
	stats  portscan.Stats
}

func setupDense(_ context.Context, e env) (instance, error) {
	world, err := generate(popConfig(e.sizes.dense, e.seed), e.tr)
	if err != nil {
		return nil, err
	}
	d := &denseInst{e: e, world: world, opts: scanner.Options{
		Targets: world.Geo.Prefixes(), Seed: uint64(e.seed),
	}}
	if e.tr == nil {
		d.pipe = scanner.New(world.Net)
	} else {
		d.stages = newStageSet(world.Net, e.tr)
	}
	return d, nil
}

func (d *denseInst) run(ctx context.Context) error {
	if d.pipe != nil {
		r, err := d.pipe.Run(ctx, d.opts)
		if err != nil {
			return err
		}
		d.report, d.vuln, d.stats = r, vulnerableSet(r), r.Stats
		return nil
	}
	tr := d.e.tr
	root := tr.start("run.dense-l7", 0)
	vuln, stats, err := d.stages.scan(ctx, d.opts, tr, root.id)
	root.end()
	d.vuln, d.stats = vuln, stats
	tr.add("portscan.probes", float64(stats.Probed))
	tr.add("portscan.open", float64(stats.Open))
	tr.add("population.materialized", float64(d.world.MaterializedHosts()))
	return err
}

func (d *denseInst) check() outcome {
	errs, truth := scanErrors(truthFor(d.world, d.e.doctor), d.vuln)
	o := outcome{work: float64(d.stats.Probed), errors: errs, truth: truth,
		vulnDigest: digestJSON(keyStrings(d.vuln))}
	if d.report != nil {
		o.digest = reportDigest(d.report)
	} else {
		o.digest = digestJSON([]any{keyStrings(d.vuln), d.stats.Probed, d.stats.Open})
	}
	return o
}

func (d *denseInst) close() error { return nil }

// --- sweep-fabric -----------------------------------------------------

// sweepWorkers is the fleet size: one worker per core of the 2-core box
// the benchmark was sized on.
const sweepWorkers = 2

type sweepInst struct {
	e        env
	world    *population.World
	journal  string
	store    *orchestrator.FileStore
	coord    *fabric.Coordinator
	pipe     *fabric.PipeTransport
	workers  []*fabric.Worker
	regs     []*telemetry.Registry // traced: one per worker
	coordReg *telemetry.Registry
	// spans holds the run's root span id (slot 0) and each worker's span
	// id, filled by run before the workers start; the traced transport and
	// journal wrappers parent their spans to them.
	spans []uint64

	report *scanner.Report
}

func setupSweep(_ context.Context, e env) (instance, error) {
	pop := popConfig(e.sizes.sweep, e.seed)
	world, err := generate(pop, e.tr)
	if err != nil {
		return nil, err
	}
	s := &sweepInst{e: e, world: world, spans: make([]uint64, sweepWorkers+1)}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	s.journal = filepath.Join(e.outDir, fmt.Sprintf("sweep-%d-%d.jsonl", e.seed, e.iter))
	if err := os.Remove(s.journal); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if s.store, err = orchestrator.OpenFileStore(s.journal); err != nil {
		return nil, err
	}
	var store orchestrator.Store = s.store
	if e.tr != nil {
		s.coordReg = telemetry.New(simtime.Wall{})
		store = tracedStore{inner: s.store, tr: e.tr, root: &s.spans[0]}
	}
	s.coord, err = fabric.NewCoordinator(fabric.CoordinatorConfig{
		Population: pop,
		Scan:       scanner.Options{Targets: world.Geo.Prefixes(), Seed: uint64(e.seed)},
		Shards:     sweepWorkers,
		Checkpoint: orchestrator.Checkpoint{Store: store, Every: e.sizes.sweepStep},
		Telemetry:  s.coordReg,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.pipe = fabric.NewPipeTransport(s.coord)
	for i := 0; i < sweepWorkers; i++ {
		cfg := fabric.WorkerConfig{ID: fmt.Sprintf("w%d", i), Transport: s.pipe}
		if e.tr != nil {
			reg := telemetry.New(simtime.Wall{})
			s.regs = append(s.regs, reg)
			cfg.Telemetry = reg
			cfg.Transport = tracedTransport{inner: s.pipe, tr: e.tr, parent: &s.spans[i+1]}
		}
		w, err := fabric.NewWorker(cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	return s, nil
}

func (s *sweepInst) run(ctx context.Context) error {
	tr := s.e.tr
	root := tr.start("run.sweep-fabric", 0)
	s.spans[0] = root.id
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, len(s.workers))
	var wg sync.WaitGroup
	for i, w := range s.workers {
		ws := tr.start(fmt.Sprintf("worker.w%d", i), root.id)
		s.spans[i+1] = ws.id
		wg.Add(1)
		go func(w *fabric.Worker) {
			defer wg.Done()
			errc <- w.Run(runCtx)
			ws.end()
		}(w)
	}
	// The merged report exists once the last completion lands; idle
	// workers then wait out a heartbeat before asking again, so they are
	// cancelled rather than waited for.
	var err error
	for pending := len(s.workers); pending > 0; {
		select {
		case <-s.coord.Done():
			pending = 0
		case werr := <-errc:
			pending--
			if werr != nil && !errors.Is(werr, context.Canceled) {
				err = werr
				pending = 0
			}
		}
	}
	cancel()
	wg.Wait()
	root.end()
	if err != nil {
		return err
	}
	s.report, err = s.coord.Report()
	return err
}

func (s *sweepInst) check() outcome {
	if s.report == nil {
		return outcome{errors: 1, truth: 1}
	}
	vuln := vulnerableSet(s.report)
	errs, truth := scanErrors(truthFor(s.world, s.e.doctor), vuln)
	return outcome{work: float64(s.report.Stats.Probed), errors: errs, truth: truth,
		digest: reportDigest(s.report), vulnDigest: digestJSON(keyStrings(vuln))}
}

var shardPrefix = regexp.MustCompile(`^shard\d+\.`)

// harvest reads what the workers' and coordinator's existing telemetry
// recorded — Stage-I counters, pipeline spans, resident hosts, lease
// counters — and the journal's size. On the first traced iteration it
// also calibrates the Stage-I probe cost.
func (s *sweepInst) harvest(ctx context.Context) error {
	tr := s.e.tr
	for i, reg := range s.regs {
		tr.add("portscan.probes", float64(reg.CounterValue("mavscan_portscan_probes_total")))
		tr.add("portscan.open", float64(reg.CounterValue("mavscan_portscan_open_total")))
		tr.add("scanner.batches", float64(reg.CounterValue("mavscan_portscan_batches_total")))
		tr.add("population.materialized", float64(reg.GaugeValue("mavscan_population_resident_hosts")))
		spans, _ := reg.Spans()
		ids := map[uint64]uint64{}
		for _, sp := range spans {
			ids[sp.ID] = tr.nextID()
		}
		for _, sp := range spans {
			parent := ids[sp.Parent]
			if parent == 0 {
				parent = s.spans[i+1]
			}
			// The Stage-II/III pool span covers the whole pipeline run,
			// mostly waiting for Stage I, so only the pipeline and its
			// Stage-I span are imported.
			var name string
			switch shardPrefix.ReplaceAllString(sp.Name, "") {
			case "pipeline.run":
				name = "scanner.pipeline"
			case "stage1.portscan":
				name = "portscan.scan"
				tr.add("portscan.busy_s", sp.Duration().Seconds())
			default:
				continue
			}
			tr.record(ids[sp.ID], parent, name, sp.Start, sp.End)
		}
	}
	tr.add("fabric.leases", float64(s.coordReg.CounterValue("mavscan_fabric_leases_granted_total")))
	tr.add("fabric.reassigned", float64(s.coordReg.CounterValue("mavscan_fabric_leases_reassigned_total")))
	fi, err := os.Stat(s.journal)
	if err != nil {
		return err
	}
	tr.add("orchestrator.journal_bytes", float64(fi.Size()))
	if s.e.iter == 0 {
		return calibrateProbes(ctx, s.world, tr)
	}
	return nil
}

func (s *sweepInst) close() error {
	var err error
	if s.pipe != nil {
		err = s.pipe.Close()
	}
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.Remove(s.journal); err == nil && rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		err = rerr
	}
	return err
}

// calibrateProbes times sampled Stage-I probes on the sweep world directly:
// the fabric workers build their pipelines internally, so the Prober
// wrapper cannot sit inside them. It scans the first sixteenth of the
// address space on every port and discards the results.
func calibrateProbes(ctx context.Context, w *population.World, tr *tracer) error {
	space, err := iprange.FromPrefixes(w.Geo.Prefixes())
	if err != nil {
		return err
	}
	slice := space.Slice(0, space.NumAddresses()/16)
	_, err = portscan.New(sampledProber{inner: w.Net, tr: tr}).ScanBatches(ctx, portscan.Config{
		Space: slice, Ports: mav.ScanPorts(), Seed: 1,
	}, func([]portscan.Result) {})
	return err
}

// --- longevity --------------------------------------------------------

type longInst struct {
	e     env
	scan  *study.ScanStudy
	reg   *telemetry.Registry
	ticks int
	res   *observer.Result
}

// setupLongevity generates the world and runs the initial scan whose
// confirmed MAVs the observer then watches; both are set-up.
func setupLongevity(ctx context.Context, e env) (instance, error) {
	world, err := generate(popConfig(e.sizes.longScan, e.seed), e.tr)
	if err != nil {
		return nil, err
	}
	report, err := scanner.New(world.Net).Run(ctx, scanner.Options{
		Targets: world.Geo.Prefixes(), Seed: uint64(e.seed),
	})
	if err != nil {
		return nil, fmt.Errorf("initial scan: %w", err)
	}
	l := &longInst{e: e, scan: &study.ScanStudy{World: world, Report: report},
		ticks: int(e.sizes.longSpan / e.sizes.longEvery)}
	if e.tr != nil {
		l.reg = telemetry.New(simtime.Wall{})
	}
	return l, nil
}

func (l *longInst) run(ctx context.Context) error {
	sp := l.e.tr.start("observer.study", 0)
	res, err := study.RunLongevity(ctx, study.LongevityConfig{
		Scan: l.scan, Seed: l.e.seed,
		Interval: l.e.sizes.longEvery, Duration: l.e.sizes.longSpan,
		Telemetry: l.reg,
	})
	sp.end()
	l.res = res
	return err
}

func (l *longInst) check() outcome {
	if l.res == nil {
		return outcome{errors: 1, truth: 1}
	}
	// The initial scan is gated too: a target it missed would silently
	// shrink the observed population.
	scanErrs, _ := scanErrors(truthFor(l.scan.World, l.e.doctor), vulnerableSet(l.scan.Report))
	errs, truth := longevityErrors(l.scan.World, l.res, l.ticks)
	type byApp struct {
		App    mav.App
		Series []observer.Sample
	}
	apps := make([]byApp, 0, len(l.res.ByApp))
	for app, series := range l.res.ByApp {
		apps = append(apps, byApp{app, series})
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i].App < apps[j].App })
	d := digestJSON([]any{l.res.Targets, l.res.Overall, apps, l.res.Updated})
	return outcome{work: float64(l.ticks * len(l.res.Targets)), errors: errs + scanErrs, truth: truth,
		digest: d, vulnDigest: d}
}

// harvest reads the observer's existing telemetry: check counters and the
// per-tick duration histogram.
func (l *longInst) harvest(context.Context) error {
	tr := l.e.tr
	tr.add("observer.checks", float64(l.reg.CounterFamilyTotal("mavscan_observer_checks_total")))
	tr.add("population.materialized", float64(l.scan.World.MaterializedHosts()))
	if h, ok := l.reg.Snapshot().Histograms["mavscan_observer_tick_seconds"]; ok {
		tr.add("observer.busy_s", h.Sum)
		tr.addHist("observer.tick", h)
	}
	return nil
}

func (l *longInst) close() error { return nil }

func keyStrings(m map[vkey]bool) []string {
	out := make([]string, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, k.ip.String()+"/"+string(k.app))
	}
	return out
}

// Package scanner wires the paper's three-stage scanning methodology
// (Section 3.1) into one pipeline:
//
//	Stage I   portscan   — which (ip, port) pairs are open,
//	Stage II  prefilter  — which of those speak HTTP(S) and look like one
//	                       of the 18 studied applications,
//	Stage III tsunami    — which of those actually suffer from a MAV,
//	          fingerprint — what version the application runs.
//
// Stage I streams batches into the later stages while the port scan is
// still running, mirroring the paper's batch-wise processing that avoids
// scanning hosts long after they were seen open.
package scanner

import (
	"context"
	"fmt"
	"net/netip"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"mavscan/internal/apps"
	"mavscan/internal/fingerprint"
	"mavscan/internal/httpsim"
	"mavscan/internal/iprange"
	"mavscan/internal/mav"
	"mavscan/internal/portscan"
	"mavscan/internal/prefilter"
	"mavscan/internal/resilience"
	"mavscan/internal/simnet"
	"mavscan/internal/telemetry"
	"mavscan/internal/tsunami"
	"mavscan/internal/tsunami/plugins"
)

// Options configure a pipeline run.
type Options struct {
	// Targets and Exclude define the address space (Stage I).
	Targets []netip.Prefix
	Exclude []netip.Prefix
	// Space, when non-nil, overrides Targets and Exclude with a precomputed
	// scan space (see portscan.Config.Space). The orchestrator uses it to
	// run one pipeline per flat-index shard of the global space.
	Space *iprange.Set
	// Ports defaults to mav.ScanPorts().
	Ports []int
	// PortWorkers is the Stage-I pool size (default 64); HTTPWorkers the
	// Stage-II/III pool size (default 32).
	PortWorkers int
	HTTPWorkers int
	// Seed keys the scan-order permutation.
	Seed uint64
	// SkipFingerprint disables the version fingerprinter.
	SkipFingerprint bool
	// RatePerSec caps Stage-I probes per second (0 = unlimited).
	RatePerSec int
}

// PortObservation aggregates Stage I+II information for one (ip, port).
type PortObservation struct {
	IP          netip.Addr
	Port        int
	HTTP, HTTPS bool
}

// AppObservation is the per-(host, app) outcome of stages II/III.
type AppObservation struct {
	IP       netip.Addr
	App      mav.App
	Port     int
	Scheme   string
	Findings []mav.Finding
	Version  string
	Released time.Time
	FPMethod fingerprint.Method
}

// Vulnerable reports whether Stage III confirmed a MAV.
func (o AppObservation) Vulnerable() bool { return len(o.Findings) > 0 }

// Report is the outcome of a full pipeline run.
type Report struct {
	// OpenPorts maps port number to the count of hosts with it open
	// (wildcard-artifact hosts excluded, as in Table 2).
	OpenPorts map[int]int
	// HTTPResponses / HTTPSResponses count stage-II protocol responders
	// per port.
	HTTPResponses  map[int]int
	HTTPSResponses map[int]int
	// ArtifactHosts counts hosts excluded for having every scanned port
	// open without any HTTP behind them.
	ArtifactHosts int
	// Apps holds one observation per (host, app), deduplicated across
	// ports as in Table 3.
	Apps []AppObservation
	// Stats carries Stage-I statistics.
	Stats portscan.Stats
}

// HostsPerApp counts distinct hosts running each application.
func (r *Report) HostsPerApp() map[mav.App]int {
	out := map[mav.App]int{}
	for _, o := range r.Apps {
		out[o.App]++
	}
	return out
}

// MAVsPerApp counts distinct vulnerable hosts per application.
func (r *Report) MAVsPerApp() map[mav.App]int {
	out := map[mav.App]int{}
	for _, o := range r.Apps {
		if o.Vulnerable() {
			out[o.App]++
		}
	}
	return out
}

// VulnerableObservations returns the confirmed-MAV observations.
func (r *Report) VulnerableObservations() []AppObservation {
	var out []AppObservation
	for _, o := range r.Apps {
		if o.Vulnerable() {
			out = append(out, o)
		}
	}
	return out
}

// Pipeline is a ready-to-run scanning pipeline over a simulated network.
// Its configuration is fixed at construction: see New and the With*
// options.
type Pipeline struct {
	net    *simnet.Network
	ports  *portscan.Scanner
	pre    *prefilter.Prefilter
	engine *tsunami.Engine
	fp     *fingerprint.Fingerprinter
	reg    *telemetry.Registry
	queue  *telemetry.Gauge
	conns  *httpsim.Meter
	shard  ShardPlan
	// Per-stage retriers; nil when no resilience policy is installed.
	retrPre, retrScan, retrFP *resilience.Retrier
}

// ShardPlan identifies a pipeline's slot in an orchestrated sharded scan.
// The zero value means unsharded. It is declared here rather than in the
// orchestrator so the pipeline can label its telemetry per shard without
// an import cycle.
type ShardPlan struct {
	// Shard is the 0-based shard index.
	Shard int
	// Shards is the total shard count; 0 or 1 means unsharded.
	Shards int
}

// settings collects what the functional options configure before the
// pipeline is assembled, removing the ordering hazards of the former
// mutator API (SetResilience had to precede Instrument).
type settings struct {
	policy      resilience.Policy
	reg         *telemetry.Registry
	shard       ShardPlan
	httpTimeout time.Duration
}

// Option configures a Pipeline at construction time.
type Option func(*settings)

// WithResilience installs a retry/backoff policy on the HTTP stages
// (prefilter, tsunami, fingerprint); Stage I keeps masscan's shoot-once
// semantics — the observer, not the port scan, is where missed SYNs
// matter. Backoff delays are computed and recorded but waits complete
// instantly (an immediate sleeper), the right semantics for simulated
// studies, where only the simulated timeline may pass time. A disabled
// policy (zero value) is a no-op, so the option can be passed
// unconditionally.
func WithResilience(policy resilience.Policy) Option {
	return func(s *settings) { s.policy = policy }
}

// WithTelemetry registers metrics and spans for the whole pipeline with
// reg, fanning out to every stage's own Instrument method. A nil registry
// is a no-op, so the option can be passed unconditionally.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *settings) { s.reg = reg }
}

// WithShardPlan marks the pipeline as one shard of an orchestrated scan:
// its root span is prefixed "shardNN." so the span tree attributes stage
// timings per shard.
func WithShardPlan(plan ShardPlan) Option {
	return func(s *settings) { s.shard = plan }
}

// WithHTTPTimeout overrides the 10-second default HTTP timeout of the
// Stage-II/III clients. The same value becomes each connection's wall
// budget (httpsim's watchdog), which is what bounds the cost of a tarpit
// or slow-loris endpoint to one short exchange: against a hostile-seeded
// population, a smaller timeout is the difference between a scan that
// finishes and one that idles in adversarial pits. Zero or negative keeps
// the default.
func WithHTTPTimeout(d time.Duration) Option {
	return func(s *settings) { s.httpTimeout = d }
}

// New assembles the pipeline with all detection plugins installed,
// configured by the given options.
func New(n *simnet.Network, opts ...Option) *Pipeline {
	var cfg settings
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.httpTimeout <= 0 {
		cfg.httpTimeout = 10 * time.Second
	}
	// One client serves all three HTTP stages, so a Stage-I hit's session
	// (see Run) carries prefilter, Tsunami and the fingerprinter over one
	// connection per endpoint.
	client := httpsim.NewClient(n, httpsim.ClientOptions{
		Timeout:           cfg.httpTimeout,
		DisableKeepAlives: true,
	})
	p := &Pipeline{
		net:    n,
		ports:  portscan.New(n),
		pre:    prefilter.NewWithClient(client),
		engine: tsunami.NewEngine(plugins.NewRegistry(), client),
		fp:     fingerprint.New(tsunami.NewEnv(client)),
		shard:  cfg.shard,
	}
	if cfg.policy.Enabled() {
		p.retrPre = resilience.New(cfg.policy, nil)
		p.retrScan = resilience.New(cfg.policy, nil)
		p.retrFP = resilience.New(cfg.policy, nil)
		p.pre.SetRetrier(p.retrPre)
		p.engine.SetRetrier(p.retrScan)
		p.fp.SetRetrier(p.retrFP)
	}
	if cfg.reg.Enabled() {
		p.reg = cfg.reg
		p.queue = cfg.reg.Gauge("mavscan_scanner_queue_depth")
		p.conns = httpsim.NewMeter(cfg.reg)
		p.ports.Instrument(cfg.reg)
		p.pre.Instrument(cfg.reg)
		p.engine.Instrument(cfg.reg)
		p.fp.Instrument(cfg.reg)
		p.retrPre.Instrument(cfg.reg, "prefilter")
		p.retrScan.Instrument(cfg.reg, "tsunami")
		p.retrFP.Instrument(cfg.reg, "fingerprint")
	}
	return p
}

// spanName prefixes base with the pipeline's shard slot, so orchestrated
// runs produce one attributable span tree per shard.
func (p *Pipeline) spanName(base string) string {
	if p.shard.Shards > 1 {
		return fmt.Sprintf("shard%02d.%s", p.shard.Shard, base)
	}
	return base
}

// Run executes the full pipeline.
func (p *Pipeline) Run(ctx context.Context, opts Options) (*Report, error) {
	if len(opts.Ports) == 0 {
		opts.Ports = mav.ScanPorts()
	}
	if opts.HTTPWorkers <= 0 {
		opts.HTTPWorkers = 32
	}

	report := &Report{
		OpenPorts:      map[int]int{},
		HTTPResponses:  map[int]int{},
		HTTPSResponses: map[int]int{},
	}

	// Root span covering the whole run; stage spans hang off it so the
	// snapshot shows how long Stage I overlapped the Stage-II/III drain.
	// Stage transitions also land in the event log — spans need both ends
	// before they appear in a snapshot, events stream as they happen.
	pipeSpan := p.reg.StartSpan(p.spanName("pipeline.run"))
	stage1Span := pipeSpan.Child("stage1.portscan")
	stage23Span := pipeSpan.Child("stage23.workers")
	p.reg.Event(p.spanName("pipeline.start"))

	// Stage II/III worker pool consuming Stage-I results while the port
	// scan is still running. The handoff is batch-granular: Stage-I workers
	// flush open ports in slices, so channel synchronization is paid once
	// per batch instead of once per open port.
	hits := make(chan []portscan.Result, 64)
	agg := newAggregator()

	var wg sync.WaitGroup
	for w := 0; w < opts.HTTPWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(ctx, pprof.Labels("mavscan_pool", "stage23.http"), func(ctx context.Context) {
				ctx = httpsim.WithMeter(ctx, p.conns)
				for batch := range hits {
					p.queue.Sub(1)
					for _, hit := range batch {
						// Canceled: keep draining batches so Stage-I
						// flushers never block, but probe nothing more.
						if ctx.Err() != nil {
							break
						}
						p.scanHit(ctx, hit, agg, opts.SkipFingerprint)
					}
				}
			})
		}()
	}

	stats, scanErr := p.ports.ScanBatches(ctx, portscan.Config{
		Targets:    opts.Targets,
		Exclude:    opts.Exclude,
		Space:      opts.Space,
		Ports:      opts.Ports,
		Workers:    opts.PortWorkers,
		Seed:       opts.Seed,
		RatePerSec: opts.RatePerSec,
	}, func(batch []portscan.Result) {
		p.queue.Add(1)
		hits <- batch
	})
	stage1Span.End()
	p.reg.Event(p.spanName("pipeline.stage1.done"),
		"probed", strconv.FormatUint(stats.Probed, 10),
		"open", strconv.FormatUint(stats.Open, 10))
	close(hits)
	wg.Wait()
	stage23Span.End()
	pipeSpan.End()
	p.reg.Event(p.spanName("pipeline.done"))
	if scanErr != nil {
		return nil, scanErr
	}
	report.Stats = stats

	agg.fold(report, len(opts.Ports))
	return report, nil
}

// scanHit carries one open port through Stages II and III. The hit is one
// work unit: its httpsim session lets the prefilter, every Tsunami plugin
// and the fingerprinter share one connection (and one TLS handshake) per
// scheme, and closes it before the next hit.
func (p *Pipeline) scanHit(ctx context.Context, hit portscan.Result, agg *aggregator, skipFP bool) {
	ctx, end := httpsim.WithSession(ctx)
	defer end()
	res := p.pre.Probe(ctx, hit.IP, hit.Port)
	for _, t := range agg.observe(hit.IP, hit.Port, res) {
		if ctx.Err() != nil {
			break
		}
		findings := p.engine.Scan(ctx, t)
		var fpRes fingerprint.Result
		if !skipFP {
			fpRes = p.fp.Fingerprint(ctx, t)
		}
		agg.update(t.IP, t.App, func(obs *AppObservation) {
			obs.Findings = findings
			obs.Version = fpRes.Version
			obs.FPMethod = fpRes.Method
			if fpRes.Version != "" {
				// Map the fingerprinted version to its public release
				// date for the age analyses (Figure 1).
				if rel, err := apps.ReleaseDate(t.App, fpRes.Version); err == nil {
					obs.Released = rel
				}
			}
		})
	}
}

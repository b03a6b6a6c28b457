package main

import (
	"context"
	"sync"
	"time"

	"mavscan/internal/fingerprint"
	"mavscan/internal/httpsim"
	"mavscan/internal/mav"
	"mavscan/internal/portscan"
	"mavscan/internal/prefilter"
	"mavscan/internal/scanner"
	"mavscan/internal/simnet"
	"mavscan/internal/tsunami"
	"mavscan/internal/tsunami/plugins"
)

// stageSet is the traced run's own assembly of the pipeline's public
// stages. It is built the way scanner.New builds them (same clients, same
// timeout, redirect limit and keep-alive setting), so that the benchmark
// can put a span around every call into a stage: scanner.Pipeline keeps
// its stages private.
type stageSet struct {
	ports  *portscan.Scanner
	pre    *prefilter.Prefilter
	engine *tsunami.Engine
	fp     *fingerprint.Fingerprinter
}

func newStageSet(n *simnet.Network, tr *tracer) *stageSet {
	const timeout = 10 * time.Second
	client := httpsim.NewClient(n, httpsim.ClientOptions{Timeout: timeout, DisableKeepAlives: true})
	preClient := httpsim.NewClient(n, httpsim.ClientOptions{
		Timeout: timeout, MaxRedirects: 5, DisableKeepAlives: true,
	})
	return &stageSet{
		ports:  portscan.New(sampledProber{inner: n, tr: tr}),
		pre:    prefilter.NewWithClient(preClient),
		engine: tsunami.NewEngine(plugins.NewRegistry(), client),
		fp:     fingerprint.New(tsunami.NewEnv(client)),
	}
}

// flushed is one Stage-I batch stamped with its flush time, so the Stage-II
// pickup can measure how long it waited.
type flushed struct {
	hits []portscan.Result
	at   time.Time
}

// scan mirrors scanner.Pipeline.Run: Stage I streams batches of open ports
// to a pool of Stage-II/III workers; the first port of a host matching an
// application's signature makes that (host, app) a Stage-III target. It
// returns the confirmed vulnerable endpoints and the Stage-I statistics.
func (s *stageSet) scan(ctx context.Context, opts scanner.Options, tr *tracer, root uint64) (map[vkey]bool, portscan.Stats, error) {
	if len(opts.Ports) == 0 {
		opts.Ports = mav.ScanPorts()
	}
	workers := opts.HTTPWorkers
	if workers <= 0 {
		workers = 32
	}
	hits := make(chan flushed, 64) // the pipeline's own handoff depth
	var mu sync.Mutex
	seen := map[vkey]bool{}
	vuln := map[vkey]bool{}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range hits {
				tr.sample("scanner.handoff_wait", time.Since(b.at))
				bs := tr.start("scanner.batch", root)
				for _, hit := range b.hits {
					if ctx.Err() != nil {
						break
					}
					sp := tr.start("prefilter.probe", bs.id)
					res := s.pre.Probe(withHTTPTrace(ctx, tr, sp.id), hit.IP, hit.Port)
					tr.sample("prefilter.call", sp.end())
					if len(res.Apps) > 0 {
						tr.add("prefilter.matched", 1)
					}
					for _, t := range newTargets(&mu, seen, res) {
						sp := tr.start("tsunami.scan", bs.id)
						findings := s.engine.Scan(withHTTPTrace(ctx, tr, sp.id), t)
						tr.sample("tsunami.call", sp.end())
						if !opts.SkipFingerprint {
							sp := tr.start("fingerprint.fingerprint", bs.id)
							fpRes := s.fp.Fingerprint(withHTTPTrace(ctx, tr, sp.id), t)
							tr.sample("fingerprint.call", sp.end())
							if fpRes.Identified() {
								tr.add("fingerprint.identified", 1)
							}
						}
						if len(findings) > 0 {
							tr.add("tsunami.hits", 1)
							mu.Lock()
							vuln[vkey{t.IP, t.App}] = true
							mu.Unlock()
						}
					}
				}
				bs.end()
			}
		}()
	}

	ps := tr.start("portscan.scan", root)
	stats, err := s.ports.ScanBatches(ctx, portscan.Config{
		Targets: opts.Targets, Exclude: opts.Exclude, Space: opts.Space,
		Ports: opts.Ports, Workers: opts.PortWorkers, Seed: opts.Seed,
	}, func(batch []portscan.Result) {
		tr.add("scanner.batches", 1)
		hits <- flushed{hits: batch, at: time.Now()}
	})
	tr.add("portscan.busy_s", ps.end().Seconds())
	close(hits)
	wg.Wait()
	return vuln, stats, err
}

// newTargets records the prefilter outcome and returns the Stage-III
// targets it newly creates (first matching port per host and app wins).
func newTargets(mu *sync.Mutex, seen map[vkey]bool, res prefilter.Result) []tsunami.Target {
	mu.Lock()
	defer mu.Unlock()
	var out []tsunami.Target
	for _, app := range res.Apps {
		k := vkey{res.IP, app}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, tsunami.Target{IP: res.IP, Port: res.Port, Scheme: res.Scheme, App: app})
	}
	return out
}

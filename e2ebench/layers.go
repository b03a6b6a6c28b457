package main

import "time"

// selfLayers are the layers whose self time (span time not covered by
// child spans) the traced run reports as self.<layer>_s.
var selfLayers = []string{
	"portscan", "scanner", "prefilter", "tsunami", "fingerprint", "httpsim",
	"fabric", "orchestrator", "observer",
}

// perLayer computes the per-layer metrics of a traced run. Counts, busy
// times and self times are per traced iteration; latency summaries pool
// the samples of every traced iteration. A layer a workload does not
// exercise reads 0.
func perLayer(tr *tracer, untraced, traced *phase, cpu map[string]float64) map[string]metric {
	n := float64(len(traced.its))
	c := func(name string) float64 { return tr.counts[name] / n }
	ms := map[string]metric{}
	set := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	lat := func(prefix string, unit time.Duration, unitName string) {
		t := summarize(tr.samples[prefix])
		set(prefix+"_p50_"+unitName, float64(t.p50)/float64(unit), unitName)
		set(prefix+"_tail_"+unitName, float64(t.tail)/float64(unit), unitName)
		tr.tails = append(tr.tails, tailNote{prefix, t})
	}

	gen := summarize(tr.samples["population.generate"])
	set("population.generate_s", gen.p50.Seconds(), "s")
	set("population.materialized", c("population.materialized"), "count")

	probes := c("portscan.probes")
	set("portscan.busy_s", c("portscan.busy_s"), "s")
	set("portscan.probes", probes, "count")
	set("portscan.open_ratio", ratio(c("portscan.open"), probes), "ratio")
	probe := summarize(tr.samples["simnet.probe"])
	set("simnet.probe_ns", float64(probe.p50.Nanoseconds()), "ns")

	set("scanner.batches", c("scanner.batches"), "count")
	lat("scanner.handoff_wait", time.Millisecond, "ms")

	for _, k := range []string{"requests", "conns_new", "conns_reused", "tls_handshakes"} {
		set("httpsim."+k, c("httpsim."+k), "count")
	}
	set("httpsim.tls_s", c("httpsim.tls_s"), "s")
	lat("httpsim.conn_wait", time.Microsecond, "us")
	lat("httpsim.ttfb", time.Microsecond, "us")

	for _, m := range []struct{ layer, good, ratioName string }{
		{"prefilter", "prefilter.matched", "match_ratio"},
		{"tsunami", "tsunami.hits", "hit_ratio"},
		{"fingerprint", "fingerprint.identified", "identified_ratio"},
	} {
		samples := tr.samples[m.layer+".call"]
		calls := float64(len(samples)) / n
		set(m.layer+".calls", calls, "count")
		set(m.layer+".busy_s", sumDur(samples).Seconds()/n, "s")
		t := summarize(samples)
		set(m.layer+".p50_us", float64(t.p50)/1e3, "us")
		set(m.layer+".tail_us", float64(t.tail)/1e3, "us")
		tr.tails = append(tr.tails, tailNote{m.layer, t})
		set(m.layer+"."+m.ratioName, ratio(c(m.good), calls), "ratio")
	}

	set("orchestrator.appends", c("orchestrator.appends"), "count")
	lat("orchestrator.append", time.Microsecond, "us")
	set("orchestrator.journal_bytes", c("orchestrator.journal_bytes"), "bytes")

	set("fabric.calls", c("fabric.calls"), "count")
	lat("fabric.call", time.Microsecond, "us")
	set("fabric.leases", c("fabric.leases"), "count")
	set("fabric.reassigned", c("fabric.reassigned"), "count")

	set("observer.checks", c("observer.checks"), "count")
	set("observer.busy_s", c("observer.busy_s"), "s")
	tick := summarizeHist(tr.hists["observer.tick"])
	set("observer.tick_p50_ms", float64(tick.p50)/1e6, "ms")
	set("observer.tick_tail_ms", float64(tick.tail)/1e6, "ms")
	tr.tails = append(tr.tails, tailNote{"observer.tick", tick})

	for _, l := range selfLayers {
		set("self."+l+"_s", tr.self[l].Seconds()/n, "s")
	}
	for _, name := range cpuBucketNames() {
		set(name, cpu[name], "s")
	}
	// The share of untraced throughput the traced phase lost.
	set("trace_overhead", 1-ratio(traced.workPerSec(), untraced.workPerSec()), "ratio")
	return ms
}

// tailNote records which percentile a *_tail metric is, and over how many
// samples, for the human-readable report.
type tailNote struct {
	name string
	t    tail
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

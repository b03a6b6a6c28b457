package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/netip"
	"sort"

	"mavscan/internal/mav"
	"mavscan/internal/observer"
	"mavscan/internal/population"
	"mavscan/internal/scanner"
)

// vkey is one vulnerable endpoint: a host and the application on it.
type vkey struct {
	ip  netip.Addr
	app mav.App
}

// groundTruth is what the population generated: the vulnerable set
// (World.VulnerableSpecs) and a per-address oracle (World.SpecFor).
type groundTruth struct {
	vulnerable map[vkey]bool
	isVuln     func(vkey) bool
}

func truthOf(w *population.World) groundTruth {
	g := groundTruth{vulnerable: map[vkey]bool{}}
	for _, s := range w.VulnerableSpecs() {
		g.vulnerable[vkey{s.IP, s.App}] = true
	}
	g.isVuln = func(k vkey) bool {
		s, ok := w.SpecFor(k.ip)
		return ok && s.App == k.app && s.Vulnerable
	}
	return g
}

// doctor corrupts the ground truth on purpose, for the self-test that the
// gate trips: one real vulnerable endpoint is declared secure and one
// address with no host is declared vulnerable.
func (g groundTruth) doctor() groundTruth {
	keys := sortedKeys(g.vulnerable)
	out := groundTruth{vulnerable: map[vkey]bool{}}
	for _, k := range keys {
		out.vulnerable[k] = true
	}
	var dropped vkey
	if len(keys) > 0 {
		dropped = keys[0]
		delete(out.vulnerable, dropped)
	}
	out.vulnerable[vkey{netip.MustParseAddr("0.0.0.1"), mav.WordPress}] = true
	out.isVuln = func(k vkey) bool { return k != dropped && g.isVuln(k) }
	return out
}

// scanErrors counts false negatives (ground-truth MAVs the scan did not
// report) plus false positives (reported endpoints the oracle says are not
// vulnerable).
func scanErrors(g groundTruth, reported map[vkey]bool) (errors, truth int) {
	for k := range g.vulnerable {
		if !reported[k] {
			errors++
		}
	}
	for k := range reported {
		if !g.isVuln(k) {
			errors++
		}
	}
	return errors, len(g.vulnerable)
}

func vulnerableSet(r *scanner.Report) map[vkey]bool {
	out := map[vkey]bool{}
	for _, o := range r.VulnerableObservations() {
		out[vkey{o.IP, o.App}] = true
	}
	return out
}

// reportDigest hashes the canonical JSON of a scan report: everything but
// the wall-clock elapsed time, which differs between runs by nature.
func reportDigest(r *scanner.Report) string {
	c := *r
	c.Stats.Elapsed = 0
	return digestJSON(c)
}

func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// longevityErrors compares the observer's last tick with the world's end
// state. Each target is, in truth, offline (host down or firewalled),
// fixed (reachable, instance no longer vulnerable) or still vulnerable.
// The observer reports per-application counts, so misclassified targets
// are counted as half the summed per-application, per-state differences
// — exact whenever classification errors do not cancel within an app.
func longevityErrors(w *population.World, res *observer.Result, ticks int) (errors, truth int) {
	truth = len(res.Targets)
	if len(res.Overall) != ticks {
		return truth, truth
	}
	want := map[mav.App]*observer.Sample{}
	for _, t := range res.Targets {
		s := want[t.App]
		if s == nil {
			s = &observer.Sample{}
			want[t.App] = s
		}
		switch endState(w, t) {
		case observer.StateVulnerable:
			s.Vulnerable++
		case observer.StateFixed:
			s.Fixed++
		default:
			s.Offline++
		}
	}
	diff := 0
	for app, s := range want {
		series := res.ByApp[app]
		var got observer.Sample
		if len(series) > 0 {
			got = series[len(series)-1]
		}
		diff += abs(got.Vulnerable-s.Vulnerable) + abs(got.Fixed-s.Fixed) + abs(got.Offline-s.Offline)
	}
	for app, series := range res.ByApp {
		if want[app] == nil && len(series) > 0 {
			diff += series[len(series)-1].Total()
		}
	}
	return (diff + 1) / 2, truth
}

func endState(w *population.World, t observer.Target) observer.State {
	h, ok := w.Net.Host(t.IP)
	if !ok || !h.Online() || h.Firewalled() {
		return observer.StateOffline
	}
	s, ok := w.SpecFor(t.IP)
	if !ok || s.App != t.App || !s.Instance.Vulnerable() {
		return observer.StateFixed
	}
	return observer.StateVulnerable
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sortedKeys(m map[vkey]bool) []vkey {
	out := make([]vkey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ip != out[j].ip {
			return out[i].ip.Less(out[j].ip)
		}
		return out[i].app < out[j].app
	})
	return out
}

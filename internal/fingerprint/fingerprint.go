// Package fingerprint determines the deployed version of a detected
// application, reproducing the paper's two-path fingerprinter:
//
//  1. Direct extraction for the 13 applications that voluntarily reveal a
//     version (an API endpoint, an HTTP header, a meta generator tag, or
//     an HTML comment).
//  2. A crawler plus a knowledge base of static-file hashes for the five
//     remaining applications (and for installations that strip their
//     version markers), combining the approaches of WhatWeb and
//     BlindElephant as described in Section 3.1.
package fingerprint

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"sort"
	"strings"
	"time"

	"mavscan/internal/apps"
	"mavscan/internal/httpsim"
	"mavscan/internal/mav"
	"mavscan/internal/resilience"
	"mavscan/internal/telemetry"
	"mavscan/internal/tsunami"
)

// Method records how a version was determined.
type Method string

// Fingerprinting methods.
const (
	MethodDirect  Method = "direct"
	MethodHash    Method = "hash"
	MethodUnknown Method = ""
)

// Result is a fingerprinting outcome.
type Result struct {
	App     mav.App
	Version string
	Method  Method
}

// Identified reports whether a version was determined.
func (r Result) Identified() bool { return r.Version != "" }

// assetKey identifies a (app, version) release pair in the knowledge base.
type assetKey struct {
	App     mav.App
	Version string
}

// KnowledgeBase maps static-file content hashes to the releases that ship
// them. One hash may belong to several releases (version-stable files);
// the crawler resolves ambiguity by intersecting candidate sets.
type KnowledgeBase map[string][]assetKey

// BuildKnowledgeBase hashes every static asset of every release of every
// cataloged application — the equivalent of the paper's repository-derived
// knowledge base.
func BuildKnowledgeBase() KnowledgeBase {
	kb := make(KnowledgeBase)
	for _, info := range mav.Catalog() {
		for _, rel := range apps.Timeline(info.App) {
			for _, path := range apps.AssetPaths(info.App) {
				sum := hashBody(apps.AssetBody(info.App, rel.Version, path))
				kb[sum] = append(kb[sum], assetKey{info.App, rel.Version})
			}
		}
	}
	return kb
}

func hashBody(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Fingerprinter identifies application versions over the network.
type Fingerprinter struct {
	env *tsunami.Env
	kb  KnowledgeBase
	tel *fpTelemetry
}

// fpTelemetry carries the fingerprinter's handles: one latency histogram
// plus a counter per identification method, splitting the cheap direct
// path from the crawl-heavy hash path the way DESIGN.md's ablation does.
type fpTelemetry struct {
	reg      *telemetry.Registry
	latency  *telemetry.Histogram
	byMethod map[Method]*telemetry.Counter
}

// Instrument registers the fingerprinting metrics with reg (nil = off).
func (f *Fingerprinter) Instrument(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	byMethod := make(map[Method]*telemetry.Counter, 3)
	for _, m := range []struct {
		method Method
		label  string
	}{{MethodDirect, "direct"}, {MethodHash, "hash"}, {MethodUnknown, "unknown"}} {
		byMethod[m.method] = reg.Counter(
			telemetry.Labeled("mavscan_fingerprint_total", "method", m.label))
	}
	f.tel = &fpTelemetry{
		reg:      reg,
		latency:  reg.Histogram("mavscan_fingerprint_seconds", nil),
		byMethod: byMethod,
	}
}

// New builds a fingerprinter using env for network access and the default
// knowledge base.
func New(env *tsunami.Env) *Fingerprinter {
	return &Fingerprinter{env: env, kb: BuildKnowledgeBase()}
}

// NewWithKnowledgeBase uses a caller-provided knowledge base.
func NewWithKnowledgeBase(env *tsunami.Env, kb KnowledgeBase) *Fingerprinter {
	return &Fingerprinter{env: env, kb: kb}
}

// SetRetrier installs retry/backoff on the fingerprinter's network access.
func (f *Fingerprinter) SetRetrier(r *resilience.Retrier) { f.env.SetRetrier(r) }

// Fingerprint determines the version of the application at t, trying the
// direct path first and falling back to crawl-and-hash. Both paths share
// one connection to the target: Fingerprint joins the caller's httpsim
// session, or opens one for the call.
func (f *Fingerprinter) Fingerprint(ctx context.Context, t tsunami.Target) Result {
	ctx, end := httpsim.WithSession(ctx)
	defer end()
	tel := f.tel
	var start time.Time
	if tel != nil {
		start = tel.reg.Now()
	}
	res := f.fingerprint(ctx, t)
	if tel != nil {
		tel.latency.ObserveDuration(tel.reg.Now().Sub(start))
		tel.byMethod[res.Method].Inc()
	}
	return res
}

func (f *Fingerprinter) fingerprint(ctx context.Context, t tsunami.Target) Result {
	if v := f.direct(ctx, t); v != "" {
		return Result{App: t.App, Version: v, Method: MethodDirect}
	}
	if v := f.crawlHash(ctx, t); v != "" {
		return Result{App: t.App, Version: v, Method: MethodHash}
	}
	return Result{App: t.App, Method: MethodUnknown}
}

// Version-marker regexps for the direct extractors.
var (
	reWordPressGen = regexp.MustCompile(`content="WordPress ([0-9][0-9a-zA-Z.\-]*)"`)
	reDrupalGen    = regexp.MustCompile(`content="Drupal ([0-9][0-9a-zA-Z.\-]*)`)
	reConsulHTML   = regexp.MustCompile(`<!-- Consul ([0-9][0-9a-zA-Z.\-]*) -->`)
	reGoVersion    = regexp.MustCompile(`"version"\s*:\s*"([^"]+)"`)
	reGitVersion   = regexp.MustCompile(`"gitVersion"\s*:\s*"v([^"]+)"`)
	reDockerVer    = regexp.MustCompile(`"Version"\s*:\s*"([^"]+)"`)
	reHadoopVer    = regexp.MustCompile(`"resourceManagerVersion"\s*:\s*"([^"]+)"`)
	reNomadVer     = regexp.MustCompile(`"Version"\s*:\s*\{\s*"Version"\s*:\s*"([^"]+)"`)
	reZeppelinVer  = regexp.MustCompile(`"body"\s*:\s*\{\s*"version"\s*:\s*"([^"]+)"`)
	rePMAVer       = regexp.MustCompile(`Version information: ([0-9][0-9a-zA-Z.\-]*)`)
	reGoCDVer      = regexp.MustCompile(`server-version">([^<]+)<`)
)

// direct implements the 13 voluntary-disclosure extractors.
func (f *Fingerprinter) direct(ctx context.Context, t tsunami.Target) string {
	get := func(path string) *tsunami.Response {
		resp, err := f.env.Get(ctx, t, path)
		if err != nil {
			return nil
		}
		return resp
	}
	first := func(re *regexp.Regexp, body string) string {
		if m := re.FindStringSubmatch(body); m != nil {
			return m[1]
		}
		return ""
	}
	switch t.App {
	case mav.Jenkins:
		if resp := get("/"); resp != nil {
			return resp.Header.Get("X-Jenkins")
		}
	case mav.GoCD:
		if resp := get("/go/api/version"); resp != nil {
			if v := first(reGoVersion, resp.Body); v != "" {
				return v
			}
		}
		if resp := get("/go/home"); resp != nil {
			return first(reGoCDVer, resp.Body)
		}
	case mav.WordPress:
		if resp := get("/"); resp != nil {
			return first(reWordPressGen, resp.Body)
		}
	case mav.Drupal:
		if resp := get("/"); resp != nil {
			if v := first(reDrupalGen, resp.Body); v != "" {
				return v
			}
			if xg := resp.Header.Get("X-Generator"); strings.HasPrefix(xg, "Drupal ") {
				return strings.TrimPrefix(xg, "Drupal ")
			}
		}
	case mav.Kubernetes:
		if resp := get("/version"); resp != nil {
			return first(reGitVersion, resp.Body)
		}
	case mav.Docker:
		if resp := get("/version"); resp != nil && resp.Status == 200 {
			return first(reDockerVer, resp.Body)
		}
	case mav.Consul:
		if resp := get("/ui/"); resp != nil {
			return first(reConsulHTML, resp.Body)
		}
	case mav.Hadoop:
		if resp := get("/ws/v1/cluster/info"); resp != nil {
			return first(reHadoopVer, resp.Body)
		}
	case mav.Nomad:
		if resp := get("/v1/agent/self"); resp != nil {
			return first(reNomadVer, resp.Body)
		}
	case mav.JupyterLab, mav.JupyterNotebook:
		if resp := get("/api"); resp != nil {
			return first(reGoVersion, resp.Body)
		}
	case mav.Zeppelin:
		if resp := get("/api/version"); resp != nil {
			return first(reZeppelinVer, resp.Body)
		}
	case mav.PhpMyAdmin:
		for _, path := range []string{"/", "/phpmyadmin"} {
			if resp := get(path); resp != nil {
				if v := first(rePMAVer, resp.Body); v != "" {
					return v
				}
			}
		}
	}
	return ""
}

var reLinks = regexp.MustCompile(`(?:href|src)="(/[^"]+)"`)

// crawlHash crawls the landing page for static assets, hashes them and
// intersects knowledge-base candidates until one release remains.
func (f *Fingerprinter) crawlHash(ctx context.Context, t tsunami.Target) string {
	root, err := f.env.Get(ctx, t, "/")
	if err != nil {
		return ""
	}
	seen := map[string]bool{}
	for _, m := range reLinks.FindAllStringSubmatch(root.Body, 32) {
		seen[m[1]] = true
	}
	// Also try the release's known asset paths directly: landing pages of
	// half-installed applications do not always link every asset.
	for _, p := range apps.AssetPaths(t.App) {
		seen[p] = true
	}
	// Crawl in sorted order: under fault injection the draw consumed by
	// each request depends on request order, so map-order iteration would
	// make the outcome vary run to run.
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var candidates map[assetKey]bool
	for _, path := range paths {
		if ctx.Err() != nil {
			return "" // canceled mid-crawl: no identification, not a partial one
		}
		resp, err := f.env.Get(ctx, t, path)
		if err != nil || resp.Status != 200 {
			continue
		}
		if resp.Truncated {
			// A body cut at the read cap is a prefix, and a prefix hash can
			// collide with nothing in the knowledge base — or worse, a
			// hostile endpoint could serve cap-sized prefixes of real assets
			// to poison the intersection. Truncated bodies are no evidence.
			continue
		}
		keys, ok := f.kb[hashBody([]byte(resp.Body))]
		if !ok {
			continue
		}
		set := map[assetKey]bool{}
		for _, k := range keys {
			if k.App == t.App {
				set[k] = true
			}
		}
		if len(set) == 0 {
			continue
		}
		if candidates == nil {
			candidates = set
			continue
		}
		// Intersect.
		for k := range candidates {
			if !set[k] {
				delete(candidates, k)
			}
		}
	}
	if len(candidates) != 1 {
		return ""
	}
	for k := range candidates {
		return k.Version
	}
	return ""
}

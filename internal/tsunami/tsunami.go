// Package tsunami implements Stage III of the pipeline: a plugin-based
// network security scanner modeled on the Tsunami scanner the paper
// open-sourced. Each missing-authentication vulnerability is verified by a
// dedicated detection plugin (Appendix A, Table 10).
//
// The engine enforces the study's ethics constraint at the API level:
// plugins interact with targets exclusively through Env, which can only
// issue non-state-changing GET requests.
package tsunami

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/netip"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"mavscan/internal/httpsim"
	"mavscan/internal/limits"
	"mavscan/internal/mav"
	"mavscan/internal/resilience"
	"mavscan/internal/telemetry"
)

// Target is one endpoint to verify, as classified by the prefilter.
type Target struct {
	IP     netip.Addr
	Port   int
	Scheme string // "http" or "https"
	App    mav.App
}

// URL renders the base URL of the target.
func (t Target) URL() string { return fmt.Sprintf("%s://%s:%d", t.Scheme, t.IP, t.Port) }

// Env is the restricted view of the network a plugin gets. All access goes
// through GET; there is deliberately no method for POST/PUT/DELETE.
type Env struct {
	client *http.Client
	retr   *resilience.Retrier
}

// NewEnv wraps an HTTP client for plugin use.
func NewEnv(client *http.Client) *Env { return &Env{client: client} }

// SetRetrier installs retry/backoff on every Get issued through the env:
// transport errors, body-read errors and transient 5xx responses are
// retried under the retrier's policy. A nil retrier keeps single-attempt
// semantics.
func (e *Env) SetRetrier(r *resilience.Retrier) { e.retr = r }

// Response is a fetched page, pre-read for convenience. Body is capped at
// limits.MaxBody; Truncated reports that the endpoint sent more — a
// substring check on a truncated body is still valid evidence, but exact
// comparisons and hashes of it are not.
type Response struct {
	Status    int
	Body      string
	Header    http.Header
	Truncated bool
}

// Get fetches path (which must start with "/") from the target using a
// non-state-changing GET request. With a retrier installed, transient
// failures are retried; a 5xx that persists past the attempt budget is
// still returned as a Response — plugins inspect status codes themselves —
// but only when every attempt got a real HTTP answer. If any attempt
// failed at the connection level, the error wins, so a transient 5xx can
// never stand in for an endpoint that cannot complete a clean exchange.
func (e *Env) Get(ctx context.Context, t Target, path string) (*Response, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("tsunami: path %q must be absolute", path)
	}
	if e.retr == nil {
		return e.getOnce(ctx, t, path)
	}
	var last *Response
	var connErr bool
	err := e.retr.Do(ctx, func(ctx context.Context) error {
		resp, err := e.getOnce(ctx, t, path)
		if err != nil {
			connErr = true
			return err
		}
		last = resp
		if resp.Status >= 500 {
			return fmt.Errorf("tsunami: transient server status %d", resp.Status)
		}
		return nil
	})
	if err == nil || (last != nil && !connErr) {
		return last, nil
	}
	return nil, err
}

// getOnce is a single fetch attempt.
func (e *Env) getOnce(ctx context.Context, t Target, path string) (*Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.URL()+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("User-Agent", "TsunamiSecurityScanner")
	resp, err := httpsim.Do(e.client, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, truncated, err := limits.ReadBody(resp.Body, limits.MaxBody)
	if err != nil {
		return nil, err
	}
	return &Response{Status: resp.StatusCode, Body: string(body), Header: resp.Header, Truncated: truncated}, nil
}

// Detector is one MAV verification plugin.
type Detector interface {
	// App names the application the plugin covers; the engine routes
	// prefilter matches to it.
	App() mav.App
	// Name identifies the plugin in findings and logs.
	Name() string
	// Detect returns a non-nil finding if the target suffers from the
	// MAV, nil if it does not, and an error only for transport failures.
	Detect(ctx context.Context, env *Env, t Target) (*mav.Finding, error)
}

// Registry holds the installed detection plugins.
type Registry struct {
	mu        sync.RWMutex
	detectors map[mav.App][]Detector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{detectors: make(map[mav.App][]Detector)}
}

// Register installs d.
func (r *Registry) Register(d Detector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.detectors[d.App()] = append(r.detectors[d.App()], d)
}

// DetectorsFor returns the plugins covering app.
func (r *Registry) DetectorsFor(app mav.App) []Detector {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.detectors[app]
}

// Apps lists the applications with at least one plugin, sorted by name.
func (r *Registry) Apps() []mav.App {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]mav.App, 0, len(r.detectors))
	for app := range r.detectors {
		out = append(out, app)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Engine runs detection plugins against targets.
type Engine struct {
	registry *Registry
	env      *Env
	tel      *engineTelemetry
}

// engineTelemetry carries the Stage-III handles: a per-plugin latency
// histogram and verdict counters, plus engine-wide target/finding totals.
// Timestamps come from the telemetry registry's injected clock, so plugin
// latencies recorded under a simulated clock stay deterministic.
type engineTelemetry struct {
	reg      *telemetry.Registry
	targets  *telemetry.Counter
	findings *telemetry.Counter
	plugins  map[string]*pluginTelemetry
}

// pluginTelemetry is one detector's handle set, keyed by plugin name.
type pluginTelemetry struct {
	latency *telemetry.Histogram
	verdict map[string]*telemetry.Counter // finding | clean | error
}

// NewEngine builds an engine using the given plugin registry and client.
func NewEngine(registry *Registry, client *http.Client) *Engine {
	return &Engine{registry: registry, env: NewEnv(client)}
}

// SetRetrier installs retry/backoff on the engine's plugin environment.
func (e *Engine) SetRetrier(r *resilience.Retrier) { e.env.SetRetrier(r) }

// Instrument registers per-plugin metrics with reg (nil = off). Handles
// are resolved for every currently registered detector; plugins installed
// afterwards run uninstrumented.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	tel := &engineTelemetry{
		reg:      reg,
		targets:  reg.Counter("mavscan_tsunami_targets_total"),
		findings: reg.Counter("mavscan_tsunami_findings_total"),
		plugins:  make(map[string]*pluginTelemetry),
	}
	for _, app := range e.registry.Apps() {
		for _, det := range e.registry.DetectorsFor(app) {
			name := det.Name()
			verdict := make(map[string]*telemetry.Counter, 3)
			for _, v := range []string{"finding", "clean", "error"} {
				verdict[v] = reg.Counter(
					telemetry.Labeled("mavscan_tsunami_verdicts_total", "plugin", name, "verdict", v))
			}
			tel.plugins[name] = &pluginTelemetry{
				latency: reg.Histogram(
					telemetry.Labeled("mavscan_tsunami_detect_seconds", "plugin", name), nil),
				verdict: verdict,
			}
		}
	}
	e.tel = tel
}

// Scan runs every plugin registered for the target's application and
// returns the confirmed findings. Transport errors from individual plugins
// are swallowed (an unreachable endpoint is simply not vulnerable *now*),
// matching the scanning pipeline's semantics — but when telemetry is on
// they are counted per plugin, so swallowed failures remain auditable.
// The plugins share one connection to the target: Scan joins the caller's
// httpsim session, or opens one for the call.
func (e *Engine) Scan(ctx context.Context, t Target) []mav.Finding {
	ctx, end := httpsim.WithSession(ctx)
	defer end()
	tel := e.tel
	if tel != nil {
		tel.targets.Inc()
	}
	var findings []mav.Finding
	for _, det := range e.registry.DetectorsFor(t.App) {
		if ctx.Err() != nil {
			break // canceled: stop between plugins, return what is confirmed
		}
		var start time.Time
		if tel != nil {
			start = tel.reg.Now()
		}
		f, err := det.Detect(ctx, e.env, t)
		if tel != nil {
			if pt := tel.plugins[det.Name()]; pt != nil {
				pt.latency.ObserveDuration(tel.reg.Now().Sub(start))
				switch {
				case err != nil:
					pt.verdict["error"].Inc()
				case f == nil:
					pt.verdict["clean"].Inc()
				default:
					pt.verdict["finding"].Inc()
				}
			}
			if err == nil && f != nil {
				tel.findings.Inc()
			}
		}
		if err != nil || f == nil {
			continue
		}
		findings = append(findings, *f)
	}
	return findings
}

// --- Matching helpers shared by the plugins ---

// ValidHTML reports whether body looks like an HTML document, the "is
// valid HTML" step of several plugins.
func ValidHTML(body string) bool {
	low := strings.ToLower(body)
	return strings.Contains(low, "<!doctype html") || strings.Contains(low, "<html")
}

// HasElementWithID reports whether body contains an HTML element of the
// given tag carrying id="id" (the 'form#createItem'-style checks).
func HasElementWithID(body, tag, id string) bool {
	re := regexp.MustCompile(`(?is)<` + regexp.QuoteMeta(tag) + `\b[^>]*\bid="` + regexp.QuoteMeta(id) + `"`)
	return re.MatchString(body)
}

// StripWhitespace removes all whitespace from s; several plugins normalize
// bodies this way because element spacing differs across versions.
func StripWhitespace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch r {
		case ' ', '\t', '\n', '\r':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ParseJSON decodes body into a generic value, reporting ok=false for
// invalid JSON.
func ParseJSON(body string) (interface{}, bool) {
	var v interface{}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		return nil, false
	}
	return v, true
}

// JSONField walks a decoded JSON object along the given keys.
func JSONField(v interface{}, keys ...string) (interface{}, bool) {
	cur := v
	for _, k := range keys {
		obj, ok := cur.(map[string]interface{})
		if !ok {
			return nil, false
		}
		cur, ok = obj[k]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

// Package prefilter implements Stage II of the scanning pipeline.
//
// For every open port found by Stage I it checks whether the endpoint
// speaks HTTP and/or HTTPS (port 80 is only probed as HTTP and port 443
// only as HTTPS, as in the paper), follows redirects until a response body
// is obtained, and matches the body against the hand-crafted signature set
// identifying the 18 studied applications. Everything else is discarded so
// the slower Stage III only sees relevant targets.
package prefilter

import (
	"context"
	"fmt"
	"net/http"
	"net/netip"
	"time"

	"mavscan/internal/httpsim"
	"mavscan/internal/limits"
	"mavscan/internal/mav"
	"mavscan/internal/resilience"
	"mavscan/internal/simnet"
	"mavscan/internal/telemetry"
)

// Result describes one probed (ip, port) endpoint.
type Result struct {
	IP   netip.Addr
	Port int
	// HTTP and HTTPS report whether each protocol produced a response.
	HTTP, HTTPS bool
	// Apps are the applications whose signatures matched, in catalog
	// order. Empty means the endpoint is out of scope.
	Apps []mav.App
	// Scheme is the scheme ("http" or "https") whose body produced the
	// first match; Stage III reuses it.
	Scheme string
}

// Relevant reports whether the endpoint warrants Stage-III scanning.
func (r Result) Relevant() bool { return len(r.Apps) > 0 }

// Prefilter probes endpoints through a simulated network.
type Prefilter struct {
	client *http.Client
	retr   *resilience.Retrier
	tel    *preTelemetry
}

// SetRetrier installs retry/backoff on the prefilter's fetches: transport
// errors, body-read errors and transient 5xx responses are retried under
// the retrier's policy. A nil retrier (the default) keeps single-attempt
// semantics.
func (p *Prefilter) SetRetrier(r *resilience.Retrier) { p.retr = r }

// preTelemetry carries the Stage-II funnel handles: how many open ports
// were probed, how many spoke each protocol, and how many matched which
// application signature. Per-app handles are pre-resolved over the full
// catalog so the probe path never formats a metric name.
type preTelemetry struct {
	probes      *telemetry.Counter
	httpResp    *telemetry.Counter
	httpsResp   *telemetry.Counter
	responders  *telemetry.Counter
	matched     *telemetry.Counter
	fetchErrors *telemetry.Counter
	truncated   *telemetry.Counter
	perApp      map[mav.App]*telemetry.Counter
}

// Instrument registers the Stage-II funnel metrics with reg (nil = off).
func (p *Prefilter) Instrument(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	perApp := make(map[mav.App]*telemetry.Counter)
	for _, info := range mav.Catalog() {
		perApp[info.App] = reg.Counter(
			telemetry.Labeled("mavscan_prefilter_matches_total", "app", string(info.App)))
	}
	p.tel = &preTelemetry{
		probes:      reg.Counter("mavscan_prefilter_probes_total"),
		httpResp:    reg.Counter("mavscan_prefilter_http_total"),
		httpsResp:   reg.Counter("mavscan_prefilter_https_total"),
		responders:  reg.Counter("mavscan_prefilter_responders_total"),
		matched:     reg.Counter("mavscan_prefilter_matched_endpoints_total"),
		fetchErrors: reg.Counter("mavscan_prefilter_fetch_errors_total"),
		truncated:   reg.Counter("mavscan_prefilter_truncated_total"),
		perApp:      perApp,
	}
}

// New returns a prefilter dialing through n.
func New(n *simnet.Network) *Prefilter {
	return &Prefilter{client: httpsim.NewClient(n, httpsim.ClientOptions{
		Timeout:           10 * time.Second,
		MaxRedirects:      5,
		DisableKeepAlives: true,
	})}
}

// NewWithClient returns a prefilter using a caller-supplied client (tests,
// or a future real-network deployment).
func NewWithClient(c *http.Client) *Prefilter { return &Prefilter{client: c} }

// fetch retrieves scheme://ip:port/ following redirects and returns the
// final body, retrying transient failures when a retrier is installed.
// truncated reports that the body was cut at the read cap: a signature
// match on it is still a match, but a hash of it must never be treated as
// the document hash.
func (p *Prefilter) fetch(ctx context.Context, scheme string, ip netip.Addr, port int) (body string, truncated bool, err error) {
	if p.retr == nil {
		body, truncated, _, err := p.fetchOnce(ctx, scheme, ip, port)
		return body, truncated, err
	}
	// A 5xx is retried like a transport error. When failures persist past
	// the attempt budget, the last 5xx body is surfaced only if every
	// attempt got a real HTTP answer: a persistently degraded server is
	// still a protocol responder, and signature matching never depended on
	// the status code. But if any attempt failed at the connection level,
	// the error wins — otherwise a single transient 5xx (injected or not)
	// would promote an endpoint that cannot complete a clean exchange
	// (say, a TLS-only service probed over plain HTTP) into an HTTP
	// responder it never was.
	var fetched, connErr bool
	rerr := p.retr.Do(ctx, func(ctx context.Context) error {
		b, trunc, status, err := p.fetchOnce(ctx, scheme, ip, port)
		if err != nil {
			connErr = true
			return err
		}
		body, truncated, fetched = b, trunc, true
		if status >= 500 {
			return fmt.Errorf("prefilter: transient server status %d", status)
		}
		return nil
	})
	if rerr == nil || (fetched && !connErr) {
		return body, truncated, nil
	}
	return "", false, rerr
}

// fetchOnce is a single fetch attempt. The body read is capped at
// limits.MaxBody with the overflow recorded, never buffered.
func (p *Prefilter) fetchOnce(ctx context.Context, scheme string, ip netip.Addr, port int) (string, bool, int, error) {
	url := fmt.Sprintf("%s://%s:%d/", scheme, ip, port)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", false, 0, err
	}
	req.Header.Set("User-Agent", "mavscan-research-scanner/1.0 (+https://example.org/scan-optout)")
	resp, err := httpsim.Do(p.client, req)
	if err != nil {
		return "", false, 0, err
	}
	defer resp.Body.Close()
	body, truncated, err := limits.ReadBody(resp.Body, limits.MaxBody)
	if err != nil {
		return "", truncated, resp.StatusCode, err
	}
	return string(body), truncated, resp.StatusCode, nil
}

// Probe runs the Stage-II check for one open port. Its fetches share one
// connection per scheme: Probe joins the caller's httpsim session, or opens
// one for the call.
func (p *Prefilter) Probe(ctx context.Context, ip netip.Addr, port int) Result {
	ctx, end := httpsim.WithSession(ctx)
	defer end()
	res := Result{IP: ip, Port: port}
	trySchemes := []string{"http", "https"}
	switch port {
	case 80:
		trySchemes = []string{"http"}
	case 443:
		trySchemes = []string{"https"}
	}
	for _, scheme := range trySchemes {
		if ctx.Err() != nil {
			break // canceled: report only what was already observed
		}
		body, truncated, err := p.fetch(ctx, scheme, ip, port)
		if err != nil {
			if p.tel != nil {
				p.tel.fetchErrors.Inc()
			}
			continue
		}
		if truncated && p.tel != nil {
			p.tel.truncated.Inc()
		}
		if scheme == "http" {
			res.HTTP = true
		} else {
			res.HTTPS = true
		}
		if apps := MatchBody(body); len(apps) > 0 && res.Scheme == "" {
			res.Apps = apps
			res.Scheme = scheme
		}
	}
	if tel := p.tel; tel != nil {
		tel.probes.Inc()
		if res.HTTP {
			tel.httpResp.Inc()
		}
		if res.HTTPS {
			tel.httpsResp.Inc()
		}
		if res.HTTP || res.HTTPS {
			tel.responders.Inc()
		}
		if len(res.Apps) > 0 {
			tel.matched.Inc()
			for _, app := range res.Apps {
				tel.perApp[app].Inc()
			}
		}
	}
	return res
}

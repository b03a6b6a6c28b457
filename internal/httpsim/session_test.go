package httpsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mavscan/internal/limits"
	"mavscan/internal/simnet"
	"mavscan/internal/simtime"
	"mavscan/internal/telemetry"
)

// meteredSession opens a session whose connection events land in a fresh
// registry.
func meteredSession(t *testing.T) (context.Context, func(), *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New(simtime.NewSim(time.Date(2021, 6, 3, 0, 0, 0, 0, time.UTC)))
	ctx, end := WithSession(WithMeter(context.Background(), NewMeter(reg)))
	return ctx, end, reg
}

// get sends one GET through Do and returns the body read under the
// scanner's cap.
func get(ctx context.Context, c *http.Client, url string) (string, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", false, err
	}
	resp, err := Do(c, req)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	body, truncated, err := limits.ReadBody(resp.Body, limits.MaxBody)
	return string(body), truncated, err
}

// waitNoOpenConns fails the test unless every server-side connection of n
// closes within a few seconds (handlers close their side asynchronously,
// once they see the client hang up).
func waitNoOpenConns(t *testing.T, n *simnet.Network) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n.OpenConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d server connections still open", n.OpenConns())
		}
		time.Sleep(time.Millisecond)
	}
}

func counts(reg *telemetry.Registry) (dials, reused, handshakes uint64) {
	return reg.CounterValue("mavscan_httpsim_dials_total"),
		reg.CounterValue("mavscan_httpsim_conns_reused_total"),
		reg.CounterValue("mavscan_httpsim_tls_handshakes_total")
}

func TestSessionSharesOneHandshakePerEndpoint(t *testing.T) {
	ca, err := NewCA()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.CertFor(testIP.String())
	if err != nil {
		t.Fatal(err)
	}
	n := simnet.New()
	h := simnet.NewHost(testIP)
	h.Bind(443, TLSConnHandler(helloHandler("secret"), cert))
	if err := n.AddHost(h); err != nil {
		t.Fatal(err)
	}
	client := NewClient(n, ClientOptions{DisableKeepAlives: true})

	ctx, end, reg := meteredSession(t)
	for i := 0; i < 4; i++ {
		if body, _, err := get(ctx, client, "https://10.0.0.1:443/"); err != nil || body != "secret" {
			t.Fatalf("request %d: %q, %v", i, body, err)
		}
	}
	if n.OpenConns() != 1 {
		t.Errorf("%d server connections open inside the session, want 1", n.OpenConns())
	}
	end()
	waitNoOpenConns(t, n)
	if d, r, hs := counts(reg); d != 1 || r != 3 || hs != 1 {
		t.Errorf("dials=%d reused=%d handshakes=%d, want 1, 3, 1", d, r, hs)
	}

	// Outside a session the client keeps its one-connection-per-request
	// behaviour.
	outside := WithMeter(context.Background(), NewMeter(reg))
	for i := 0; i < 2; i++ {
		if _, _, err := get(outside, client, "https://10.0.0.1:443/"); err != nil {
			t.Fatal(err)
		}
	}
	if d := reg.CounterValue("mavscan_httpsim_dials_total"); d != 3 {
		t.Errorf("dials outside a session = %d, want one per request (3 in all)", d)
	}
}

func TestSessionJoinsEnclosingSession(t *testing.T) {
	ctx, end := WithSession(context.Background())
	defer end()
	inner, innerEnd := WithSession(ctx)
	if inner != ctx {
		t.Fatal("a nested WithSession opened a second session")
	}
	innerEnd() // must not end the enclosing session

	n := simnet.New()
	h := simnet.NewHost(testIP)
	h.Bind(80, ConnHandler(helloHandler("hi")))
	if err := n.AddHost(h); err != nil {
		t.Fatal(err)
	}
	client := NewClient(n, ClientOptions{DisableKeepAlives: true})
	for i := 0; i < 2; i++ {
		if _, _, err := get(inner, client, "http://10.0.0.1:80/"); err != nil {
			t.Fatal(err)
		}
	}
	if n.OpenConns() != 1 {
		t.Errorf("%d server connections, want the enclosing session's one", n.OpenConns())
	}
}

func TestSessionKeepsClientsApart(t *testing.T) {
	n := simnet.New()
	h := simnet.NewHost(testIP)
	seen := make(chan string, 4)
	h.Bind(80, ConnHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.RemoteAddr
	})))
	if err := n.AddHost(h); err != nil {
		t.Fatal(err)
	}
	a := NewClient(n, ClientOptions{SourceIP: netip.MustParseAddr("203.0.113.1")})
	b := NewClient(n, ClientOptions{SourceIP: netip.MustParseAddr("203.0.113.2")})
	ctx, end, reg := meteredSession(t)
	for _, c := range []*http.Client{a, b, a, b} {
		if _, _, err := get(ctx, c, "http://10.0.0.1:80/"); err != nil {
			t.Fatal(err)
		}
	}
	end()
	if got := []string{<-seen, <-seen, <-seen, <-seen}; strings.Join(got, " ") !=
		"203.0.113.1:0 203.0.113.2:0 203.0.113.1:0 203.0.113.2:0" {
		t.Errorf("server saw sources %v", got)
	}
	if d, r, _ := counts(reg); d != 2 || r != 2 {
		t.Errorf("dials=%d reused=%d, want one connection per client (2, 2)", d, r)
	}
	waitNoOpenConns(t, n)
}

// TestSessionByteBudgetIsPerRequest: nine benign 500 KiB bodies add up to
// more than the 4 MiB connection budget, yet each request gets the full
// budget on the kept-alive connection.
func TestSessionByteBudgetIsPerRequest(t *testing.T) {
	body := strings.Repeat("a", 500<<10)
	n := simnet.New()
	h := simnet.NewHost(testIP)
	h.Bind(80, ConnHandler(helloHandler(body)))
	if err := n.AddHost(h); err != nil {
		t.Fatal(err)
	}
	client := NewClient(n, ClientOptions{DisableKeepAlives: true})
	ctx, end, reg := meteredSession(t)
	defer end()
	for i := 0; i < 9; i++ {
		got, truncated, err := get(ctx, client, "http://10.0.0.1:80/")
		if errors.Is(err, limits.ErrConnBudget) {
			t.Fatalf("request %d hit the connection budget", i+1)
		}
		if err != nil || truncated || len(got) != len(body) {
			t.Fatalf("request %d: %d bytes, truncated=%v, %v", i+1, len(got), truncated, err)
		}
	}
	if d, r, _ := counts(reg); d != 1 || r != 8 {
		t.Errorf("dials=%d reused=%d, want all nine on one connection", d, r)
	}
}

// manualClock is a Sleeper whose time moves only on advance; it schedules
// watchdogs through AfterFunc, as the wall clock does.
type manualClock struct {
	mu     sync.Mutex
	now    time.Duration
	timers map[*manualTimer]bool
}

type manualTimer struct {
	at time.Duration
	f  func()
}

func (c *manualClock) Now() time.Time { return time.Time{}.Add(c.elapsed()) }

func (c *manualClock) After(time.Duration) <-chan time.Time { return make(chan time.Time) }

func (c *manualClock) elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) AfterFunc(d time.Duration, f func()) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	tm := &manualTimer{at: c.now + d, f: f}
	if c.timers == nil {
		c.timers = map[*manualTimer]bool{}
	}
	c.timers[tm] = true
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.timers, tm)
	}
}

func (c *manualClock) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// advance moves time forward by d and runs every timer now due.
func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	var due []func()
	for tm := range c.timers {
		if tm.at <= c.now {
			due = append(due, tm.f)
			delete(c.timers, tm)
		}
	}
	c.mu.Unlock()
	for _, f := range due {
		f()
	}
}

// TestSessionSlowLorisCutAtOneBudget: a drip on the second request of a
// kept-alive connection is cut exactly one Budget after that request took
// the connection over — the idle time before it and the first request's
// time do not count against it.
func TestSessionSlowLorisCutAtOneBudget(t *testing.T) {
	const budget = time.Minute
	n := simnet.New()
	h := simnet.NewHost(testIP)
	h.Bind(80, ConnHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/drip" {
			fmt.Fprint(w, "ok")
			return
		}
		w.Header().Set("Content-Length", "1000")
		fmt.Fprint(w, ".")
		w.(http.Flusher).Flush()
		<-r.Context().Done() // the rest of the body never comes
	})))
	if err := n.AddHost(h); err != nil {
		t.Fatal(err)
	}
	clock := &manualClock{}
	client := NewClient(n, ClientOptions{DisableKeepAlives: true, Clock: clock, Budget: budget})
	ctx, end, reg := meteredSession(t)
	defer end()

	if body, _, err := get(ctx, client, "http://10.0.0.1:80/"); err != nil || body != "ok" {
		t.Fatalf("first request: %q, %v", body, err)
	}
	if clock.pending() != 0 {
		t.Fatal("the watchdog stays armed while the connection idles")
	}
	clock.advance(budget * 9 / 10) // idle between requests

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://10.0.0.1:80/drip", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Do(client, req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, r, _ := counts(reg); r != 1 {
		t.Fatalf("the drip did not reuse the connection (reused=%d)", r)
	}
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	clock.advance(budget - time.Nanosecond)
	select {
	case err := <-done:
		t.Fatalf("the drip was cut before one budget elapsed: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	clock.advance(time.Nanosecond)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("the drip delivered a full body")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the drip outlived its budget")
	}
}

// TestSessionTruncatedBodyRetiresConnection: a body its reader cut at
// limits.MaxBody never leaves its connection for the next request — not
// even when the body is exactly one byte over the cap, so the transport
// itself reached its end.
func TestSessionTruncatedBodyRetiresConnection(t *testing.T) {
	for _, size := range []int{limits.MaxBody + 1, 2 * limits.MaxBody} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			n := simnet.New()
			h := simnet.NewHost(testIP)
			h.Bind(80, ConnHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/big" {
					w.Header().Set("Content-Length", fmt.Sprint(size))
					fmt.Fprint(w, strings.Repeat("b", size))
					return
				}
				fmt.Fprint(w, "small")
			})))
			if err := n.AddHost(h); err != nil {
				t.Fatal(err)
			}
			client := NewClient(n, ClientOptions{DisableKeepAlives: true})
			ctx, end, reg := meteredSession(t)
			defer end()
			if _, truncated, err := get(ctx, client, "http://10.0.0.1:80/big"); err != nil || !truncated {
				t.Fatalf("big body: truncated=%v, %v", truncated, err)
			}
			if body, _, err := get(ctx, client, "http://10.0.0.1:80/"); err != nil || body != "small" {
				t.Fatalf("next request: %q, %v", body, err)
			}
			if d, r, _ := counts(reg); d != 2 || r != 0 {
				t.Errorf("dials=%d reused=%d, want the truncated connection retired (2, 0)", d, r)
			}
		})
	}
}

func TestEndedSessionPoolsNothing(t *testing.T) {
	n := simnet.New()
	h := simnet.NewHost(testIP)
	h.Bind(80, ConnHandler(helloHandler("hi")))
	if err := n.AddHost(h); err != nil {
		t.Fatal(err)
	}
	client := NewClient(n, ClientOptions{DisableKeepAlives: true})
	ctx, end := WithSession(context.Background())
	if _, _, err := get(ctx, client, "http://10.0.0.1:80/"); err != nil {
		t.Fatal(err)
	}
	end()
	// A request made with the context after its unit ended falls back to
	// the client's own transport and leaves nothing open.
	if _, _, err := get(ctx, client, "http://10.0.0.1:80/"); err != nil {
		t.Fatal(err)
	}
	waitNoOpenConns(t, n)
}

// slowWriteConn holds every write back from its caller for longer than Go's
// transport waits for its writer goroutine (50ms) before pooling a
// connection, so the transport declines every reuse, as CPU load can make
// it do.
type slowWriteConn struct{ net.Conn }

func (c slowWriteConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	time.Sleep(250 * time.Millisecond)
	return n, err
}

// drawCounter is a fault injector that injects nothing and counts draws.
type drawCounter struct{ dials atomic.Int64 }

func (*drawCounter) ProbeFault(netip.Addr, int) error { return nil }
func (d *drawCounter) DialFault(netip.Addr, int) simnet.Fault {
	d.dials.Add(1)
	return simnet.Fault{}
}

// TestReplacementDialsDrawNoFault: when the transport replaces a connection
// whose exchange ended cleanly, the replacement makes no fault draw, so the
// draws stay a function of server behaviour and not of scheduling.
func TestReplacementDialsDrawNoFault(t *testing.T) {
	n := simnet.New()
	h := simnet.NewHost(testIP)
	h.Bind(80, ConnHandler(helloHandler("hi")))
	if err := n.AddHost(h); err != nil {
		t.Fatal(err)
	}
	draws := &drawCounter{}
	n.SetFaults(draws)
	client := NewClient(n, ClientOptions{DisableKeepAlives: true})
	tr := client.Transport.(*http.Transport)
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return slowWriteConn{c}, nil
	}
	ctx, end, reg := meteredSession(t)
	defer end()
	for i := 0; i < 3; i++ {
		if body, _, err := get(ctx, client, "http://10.0.0.1:80/"); err != nil || body != "hi" {
			t.Fatalf("request %d: %q, %v", i+1, body, err)
		}
	}
	if d, r, _ := counts(reg); d != 3 || r != 0 {
		t.Fatalf("dials=%d reused=%d, want the transport to replace every connection (3, 0)", d, r)
	}
	if got := draws.dials.Load(); got != 1 {
		t.Errorf("%d fault draws for one connection and two replacements, want 1", got)
	}
}

// TestSessionOverForeignTransport: a client whose *http.Transport this
// package did not build still gets connection reuse in a session; its
// connections carry no budgets to re-arm.
func TestSessionOverForeignTransport(t *testing.T) {
	n := simnet.New()
	h := simnet.NewHost(testIP)
	h.Bind(80, ConnHandler(helloHandler("hi")))
	if err := n.AddHost(h); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{DialContext: n.DialContext}}
	ctx, end, reg := meteredSession(t)
	for i := 0; i < 2; i++ {
		if body, _, err := get(ctx, client, "http://10.0.0.1:80/"); err != nil || body != "hi" {
			t.Fatalf("request %d: %q, %v", i+1, body, err)
		}
	}
	end()
	if _, r, _ := counts(reg); r != 1 {
		t.Errorf("reused=%d, want the second request on the first connection", r)
	}
	waitNoOpenConns(t, n)
}

package httpsim

import (
	"context"
	"crypto/tls"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sync"

	"mavscan/internal/limits"
	"mavscan/internal/simnet"
	"mavscan/internal/telemetry"
)

// A session scopes connection reuse to one work unit: one Stage-I hit
// carried through prefilter, Tsunami and the fingerprinter, or one
// observer check. It rides on the context, the way an
// httptrace.ClientTrace does. Requests sent with Do under a session go
// through a keep-alive twin of their client that holds at most one
// connection per endpoint, so the unit's exchanges share one connection
// (and one TLS handshake) and a second dial happens only once the server
// or a budget closed the first. The number of dials per endpoint, and
// with it the keyed fault draws, stays a function of server behaviour.
// Ending the session closes every connection it opened: nothing is reused
// across units, and an observer never carries a connection across ticks.
type session struct {
	mu    sync.Mutex
	ended bool
	twins map[*http.Client]*http.Client
	pools []*http.Transport
}

type sessionKey struct{}

// WithSession returns ctx carrying a new session and the function that
// ends it. It joins an enclosing session: when ctx already carries one,
// it returns ctx and a no-op, so a stage opens a session for standalone
// callers and shares its caller's otherwise.
func WithSession(ctx context.Context) (context.Context, func()) {
	if _, ok := ctx.Value(sessionKey{}).(*session); ok {
		return ctx, func() {}
	}
	s := &session{}
	return context.WithValue(ctx, sessionKey{}, s), s.end
}

// Do sends req with c, through the session on req's context when there is
// one. Outside a session it is c.Do, so ClientOptions.DisableKeepAlives
// keeps its meaning there.
func Do(c *http.Client, req *http.Request) (*http.Response, error) {
	if s, ok := req.Context().Value(sessionKey{}).(*session); ok {
		c = s.twin(c)
	}
	return c.Do(req)
}

// twin returns the session's keep-alive copy of c, made on first use. Twins
// are kept per client, so clients with different dial options (source
// address, budgets) never share a connection. A client whose transport
// this package did not build, or a session already ended, gets c itself.
func (s *session) twin(c *http.Client) *http.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return c
	}
	if tw, ok := s.twins[c]; ok {
		return tw
	}
	tw := c
	if base, ok := c.Transport.(*http.Transport); ok {
		pool := base.Clone()
		pool.DisableKeepAlives = false
		pool.MaxConnsPerHost = 1
		pool.MaxIdleConnsPerHost = 1
		s.pools = append(s.pools, pool)
		copied := *c
		copied.Transport = &sessionTransport{pool: pool}
		tw = &copied
	}
	if s.twins == nil {
		s.twins = make(map[*http.Client]*http.Client, 1)
	}
	s.twins[c] = tw
	return tw
}

// end closes the session's idle connections. CloseIdleConnections also
// makes each pool close any connection that turns idle later (a dial that
// outlived its canceled request), so no connection outlives the unit.
func (s *session) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ended = true
	for _, pool := range s.pools {
		pool.CloseIdleConnections()
	}
}

// sessionTransport sends a session's requests through its pool and keeps
// the budgets per request on pooled connections: a connection handed to a
// new request gets a fresh byte meter and watchdog, and the watchdog is
// parked while the connection idles between requests, so the unit's own
// pace never closes it.
//
// It also keeps the fault draws independent of scheduling. Go's transport
// declines to pool a connection when its writer goroutine has not yet
// reported the request written 50ms after the response ended, which CPU
// load alone can cause, and the next request then dials a replacement.
// clean records the endpoints whose last exchange ended cleanly (body read
// to its end, no side asking to close); a dial made for the next request
// to such an endpoint replaces a healthy connection, so it is made without
// a fault draw (simnet.WithoutFaults).
type sessionTransport struct {
	pool *http.Transport

	mu    sync.Mutex
	clean map[string]bool
}

func (t *sessionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	m := meterFrom(ctx)
	key := endpoint(req.URL)
	if t.takeClean(key) {
		ctx = simnet.WithoutFaults(ctx)
	}
	var conn *guardedConn
	trace := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			conn = guardOf(info.Conn)
			if info.Reused {
				m.reuse()
				conn.arm()
			}
		},
		TLSHandshakeDone: func(_ tls.ConnectionState, err error) {
			if err == nil {
				m.handshake()
			}
		},
	}
	resp, err := t.pool.RoundTrip(req.WithContext(httptrace.WithClientTrace(ctx, trace)))
	if err != nil {
		return nil, err
	}
	resp.Body = &sessionBody{ReadCloser: resp.Body, t: t, key: key, keepAlive: !resp.Close, conn: conn}
	return resp, nil
}

// takeClean reports whether the last exchange with key ended cleanly, and
// forgets it: the connection now belongs to the caller's exchange.
func (t *sessionTransport) takeClean(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	clean := t.clean[key]
	delete(t.clean, key)
	return clean
}

func (t *sessionTransport) markClean(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clean == nil {
		t.clean = make(map[string]bool, 1)
	}
	t.clean[key] = true
}

// retire closes every idle connection of the pool. The transport pools a
// connection before its reader's EOF returns, so a connection whose last
// body was just read is closed too.
func (t *sessionTransport) retire() {
	t.mu.Lock()
	t.clean = nil
	t.mu.Unlock()
	t.pool.CloseIdleConnections()
}

// endpoint keys a URL by scheme and host:port, as the pool keys its
// connections.
func endpoint(u *url.URL) string {
	port := u.Port()
	if port == "" {
		port = "80"
		if u.Scheme == "https" {
			port = "443"
		}
	}
	return u.Scheme + "://" + net.JoinHostPort(u.Hostname(), port)
}

// sessionBody ends an exchange on a pooled connection: it parks the
// watchdog once the reader is done, and retires the connection when the
// reader saw more than limits.MaxBody bytes. Such a body was truncated by
// its reader; even if the transport happened to reach its end and pooled
// the connection, it is closed rather than handed to the next request.
type sessionBody struct {
	io.ReadCloser
	t         *sessionTransport
	key       string
	keepAlive bool // the response did not ask to close the connection
	conn      *guardedConn
	n         int64
	eof       bool
}

func (b *sessionBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *sessionBody) Close() error {
	err := b.ReadCloser.Close()
	switch {
	case b.n > limits.MaxBody:
		b.t.retire()
	case b.eof && b.keepAlive:
		b.t.markClean(b.key)
	}
	b.conn.disarm()
	return err
}

// guardOf returns the hardened connection under c, unwrapping TLS.
func guardOf(c net.Conn) *guardedConn {
	if tc, ok := c.(*tls.Conn); ok {
		c = tc.NetConn()
	}
	g, _ := c.(*guardedConn)
	return g
}

// Meter counts connection events: every dial attempt made under a context
// carrying it (see WithMeter), and, for requests sent in a session, every
// pooled connection handed to a new request and every completed TLS
// handshake. A nil *Meter counts nothing.
type Meter struct {
	dials, reused, handshakes *telemetry.Counter
}

// NewMeter registers the connection counters with reg (nil = off, and a
// nil Meter).
func NewMeter(reg *telemetry.Registry) *Meter {
	if !reg.Enabled() {
		return nil
	}
	return &Meter{
		dials:      reg.Counter("mavscan_httpsim_dials_total"),
		reused:     reg.Counter("mavscan_httpsim_conns_reused_total"),
		handshakes: reg.Counter("mavscan_httpsim_tls_handshakes_total"),
	}
}

type meterKey struct{}

// WithMeter returns ctx counting its connection events into m. A nil m
// returns ctx unchanged.
func WithMeter(ctx context.Context, m *Meter) context.Context {
	if m == nil {
		return ctx
	}
	return context.WithValue(ctx, meterKey{}, m)
}

func meterFrom(ctx context.Context) *Meter {
	m, _ := ctx.Value(meterKey{}).(*Meter)
	return m
}

func (m *Meter) dial() {
	if m != nil {
		m.dials.Inc()
	}
}

func (m *Meter) reuse() {
	if m != nil {
		m.reused.Inc()
	}
}

func (m *Meter) handshake() {
	if m != nil {
		m.handshakes.Inc()
	}
}

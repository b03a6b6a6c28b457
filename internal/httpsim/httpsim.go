// Package httpsim serves real HTTP and HTTPS over simnet connections and
// builds clients that dial through the simulated internet.
//
// Both stages II and III of the scanning pipeline, the honeypot attackers,
// and the commercial-scanner emulations all talk standard net/http through
// the transports constructed here, so the protocol behaviour (redirects,
// chunking, TLS handshakes, certificates) is the real thing. Within one
// work unit the stages share one connection per endpoint through a session
// (see WithSession).
package httpsim

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"mavscan/internal/limits"
	"mavscan/internal/resilience"
	"mavscan/internal/simnet"
	"mavscan/internal/simtime"
)

// oneShotListener yields a single pre-established connection and then
// reports closed, letting http.Server drive exactly one connection.
type oneShotListener struct {
	mu   sync.Mutex
	conn net.Conn
}

func (l *oneShotListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return nil, net.ErrClosed
	}
	c := l.conn
	l.conn = nil
	return c, nil
}

func (l *oneShotListener) Close() error { return nil }
func (l *oneShotListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4zero, Port: 0}
}

// maxHeaderBytes caps request headers on simulated servers and response
// headers on the scanning client. A header bomb from either side of the
// wire must fail the one exchange, not grow the process ("Never Trust
// Your Victim" hardening). The value is the shared cap from
// internal/limits, so servers, clients and the lint rules agree on one
// number.
const maxHeaderBytes = limits.MaxHeaderBytes

// ConnHandler returns a simnet connection handler that serves h as plain
// HTTP, with keep-alive support, on every accepted connection.
func ConnHandler(h http.Handler) simnet.ConnHandler {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	return func(conn net.Conn) {
		// Serve returns once the listener is drained; the connection's own
		// goroutine keeps serving requests until the peer hangs up.
		_ = srv.Serve(&oneShotListener{conn: conn})
	}
}

// TLSConnHandler returns a simnet connection handler that performs a real
// TLS handshake using cert and then serves h.
func TLSConnHandler(h http.Handler, cert tls.Certificate) simnet.ConnHandler {
	cfg := &tls.Config{Certificates: []tls.Certificate{cert}}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	return func(conn net.Conn) {
		tconn := tls.Server(conn, cfg)
		if err := tconn.Handshake(); err != nil {
			conn.Close()
			return
		}
		_ = srv.Serve(&oneShotListener{conn: tconn})
	}
}

// CA is an in-memory certificate authority minting leaf certificates for
// simulated HTTPS hosts. Keys are shared across leaves: the study needs
// certificate *names* (for responsible disclosure), not key hygiene.
type CA struct {
	key    *ecdsa.PrivateKey
	cert   *x509.Certificate
	der    []byte
	mu     sync.Mutex
	leaves map[string]tls.Certificate
}

// NewCA creates a certificate authority. Generation uses crypto/rand; the
// CA is cheap enough to build per test.
func NewCA() (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("httpsim: generating CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "simnet root CA", Organization: []string{"mavscan"}},
		NotBefore:             time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:              time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("httpsim: creating CA certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("httpsim: parsing CA certificate: %w", err)
	}
	return &CA{key: key, cert: cert, der: der, leaves: make(map[string]tls.Certificate)}, nil
}

// Pool returns a certificate pool trusting this CA.
func (ca *CA) Pool() *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(ca.cert)
	return pool
}

// CertFor returns (minting and caching on first use) a leaf certificate for
// the given subject names. Names that parse as IP addresses become IP SANs;
// everything else becomes a DNS SAN. At least one name is required.
func (ca *CA) CertFor(names ...string) (tls.Certificate, error) {
	if len(names) == 0 {
		return tls.Certificate{}, fmt.Errorf("httpsim: CertFor requires at least one name")
	}
	key := fmt.Sprint(names)
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if leaf, ok := ca.leaves[key]; ok {
		return leaf, nil
	}
	var dns []string
	var ips []net.IP
	for _, name := range names {
		if ip, err := netip.ParseAddr(name); err == nil {
			ips = append(ips, ip.AsSlice())
		} else {
			dns = append(dns, name)
		}
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 64))
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("httpsim: serial: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: names[0]},
		NotBefore:    time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2030, 6, 1, 0, 0, 0, 0, time.UTC),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     dns,
		IPAddresses:  ips,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &ca.key.PublicKey, ca.key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("httpsim: creating leaf: %w", err)
	}
	leaf := tls.Certificate{
		Certificate: [][]byte{der, ca.der},
		PrivateKey:  ca.key,
	}
	ca.leaves[key] = leaf
	return leaf, nil
}

// ClientOptions tune the clients built by NewClient.
type ClientOptions struct {
	// Timeout bounds a whole request including redirects. Zero means the
	// package default of 15 seconds.
	Timeout time.Duration
	// MaxRedirects bounds redirect following; the pipeline follows
	// redirects "until a response body" with a safety cap. Zero means the
	// package default of 5.
	MaxRedirects int
	// SourceIP is the address dials appear to come from; attackers set
	// their own IPs here. The zero value uses simnet's default source.
	SourceIP netip.Addr
	// DisableKeepAlives forces one connection per request sent outside a
	// session. Requests sent with Do under a session (WithSession) reuse
	// the unit's connection whatever this says.
	DisableKeepAlives bool
	// Retrier, when non-nil, wraps the transport so bodyless requests are
	// retried on transport errors and transient 5xx responses under the
	// retrier's policy (see internal/resilience).
	Retrier *resilience.Retrier
	// Clock paces the per-request wall budget (nil = the wall clock).
	// Tests inject a fake sleeper to prove tarpits and slow-loris drips
	// terminate without waiting out a real budget.
	Clock simtime.Sleeper
	// Budget is the per-request wall budget: a watchdog off Clock closes
	// any connection that has served one request for longer than Budget,
	// regardless of protocol progress, which is what terminates a drip that
	// delivers one byte per timeout window. Zero means Timeout; negative
	// disables the watchdog.
	Budget time.Duration
	// MaxConnBytes caps the bytes one request reads from its connection,
	// under the protocol layer — the backstop against responders that
	// stream garbage past every header and body cap. Zero means
	// limits.MaxConnBytes; negative disables the cap.
	MaxConnBytes int64
}

// NewClient returns an *http.Client whose connections are dialed through
// the simulated network. TLS verification is disabled, matching how the
// scanning pipeline treats the self-signed certificates that dominate
// admin endpoints.
func NewClient(n *simnet.Network, opts ClientOptions) *http.Client {
	if opts.Timeout == 0 {
		opts.Timeout = 15 * time.Second
	}
	if opts.MaxRedirects == 0 {
		opts.MaxRedirects = 5
	}
	if opts.Budget == 0 {
		opts.Budget = opts.Timeout
	}
	dial := func(ctx context.Context, network, address string) (net.Conn, error) {
		meterFrom(ctx).dial()
		var conn net.Conn
		var err error
		if opts.SourceIP.IsValid() {
			host, portStr, splitErr := net.SplitHostPort(address)
			if splitErr != nil {
				return nil, splitErr
			}
			ip, parseErr := netip.ParseAddr(host)
			if parseErr != nil {
				return nil, fmt.Errorf("httpsim: bad host %q: %w", host, parseErr)
			}
			port, portErr := strconv.Atoi(portStr)
			if portErr != nil || port < 1 || port > 65535 {
				return nil, fmt.Errorf("httpsim: bad port %q", portStr)
			}
			conn, err = n.DialFrom(ctx, opts.SourceIP, ip, port)
		} else {
			conn, err = n.DialContext(ctx, network, address)
		}
		if err != nil {
			return nil, err
		}
		return harden(conn, opts), nil
	}
	transport := &http.Transport{
		DialContext:       dial,
		TLSClientConfig:   &tls.Config{InsecureSkipVerify: true},
		DisableKeepAlives: opts.DisableKeepAlives,
		// This pool only serves requests sent outside a session. Scan
		// stages reuse connections within one work unit through a
		// session's own pool (see WithSession), which is closed when the
		// unit ends; a client used outside sessions talks to few hosts.
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 2,
		// A probed endpoint controls its response headers; cap them so a
		// header bomb fails the request instead of exhausting the scanner.
		MaxResponseHeaderBytes: maxHeaderBytes,
	}
	maxRedirects := opts.MaxRedirects
	var rt http.RoundTripper = transport
	if opts.Retrier != nil {
		rt = opts.Retrier.RoundTripper(transport)
	}
	return &http.Client{
		Transport: rt,
		Timeout:   opts.Timeout,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			// via holds the requests already issued: following the k-th
			// redirect is checked with len(via) == k, so the cap must use a
			// strict comparison — ">=" would stop one hop short of the
			// advertised maximum.
			if len(via) > maxRedirects {
				return fmt.Errorf("httpsim: stopped after %d redirects", maxRedirects)
			}
			return nil
		},
	}
}

// harden applies the shared read budgets from internal/limits to a dialed
// connection: a cumulative byte cap under the protocol layer and a
// wall-clock watchdog, the two enforcement points a weaponized endpoint
// cannot negotiate with. Everything above them — header caps, body caps,
// redirect caps — is protocol-level and already enforced elsewhere. Both
// budgets start at dial; a session re-arms them for every later request
// on the connection (see WithSession).
func harden(conn net.Conn, opts ClientOptions) net.Conn {
	if opts.MaxConnBytes >= 0 {
		conn = limits.Conn(conn, opts.MaxConnBytes)
	}
	g := &guardedConn{Conn: conn, clock: opts.Clock, budget: opts.Budget}
	g.arm()
	return g
}

// guardedConn owns a connection's watchdog. It retires the watchdog when
// the connection closes normally, so an orderly exchange never leaks a
// pending timer goroutine for the rest of the budget.
type guardedConn struct {
	net.Conn
	clock  simtime.Sleeper
	budget time.Duration

	mu     sync.Mutex
	stop   func() // retires the armed watchdog; nil while disarmed
	closed bool
}

// arm starts a request's budgets: a full byte meter and, when the client
// has a wall budget, a fresh watchdog. A nil receiver (a connection this
// package did not dial) has no budgets to arm.
func (c *guardedConn) arm() {
	if c == nil {
		return
	}
	limits.Refill(c.Conn)
	if c.budget <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.stop != nil {
		c.stop()
	}
	c.stop = limits.Watchdog(c.Conn, c.clock, c.budget)
}

// disarm parks the watchdog while the connection idles between requests.
func (c *guardedConn) disarm() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
}

func (c *guardedConn) Close() error {
	c.mu.Lock()
	c.closed = true
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// FetchCertificate performs a TLS handshake against (ip, 443-style port)
// and returns the presented leaf certificate. The responsible-disclosure
// step uses it to recover contactable domain names.
func FetchCertificate(ctx context.Context, n *simnet.Network, ip netip.Addr, port int) (*x509.Certificate, error) {
	conn, err := n.Dial(ctx, ip, port)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	tconn := tls.Client(conn, &tls.Config{InsecureSkipVerify: true})
	if err := tconn.HandshakeContext(ctx); err != nil {
		return nil, fmt.Errorf("httpsim: handshake with %s:%d: %w", ip, port, err)
	}
	defer tconn.Close()
	state := tconn.ConnectionState()
	if len(state.PeerCertificates) == 0 {
		return nil, fmt.Errorf("httpsim: no peer certificate from %s:%d", ip, port)
	}
	return state.PeerCertificates[0], nil
}

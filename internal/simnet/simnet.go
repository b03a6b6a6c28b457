// Package simnet implements an in-process simulated IPv4 internet.
//
// The paper scanned the live IPv4 address space; offline we substitute a
// simulated address space populated with emulated application servers. The
// simulation is deliberately low-level: dialing a host yields a real
// net.Conn (one side of a net.Pipe) served by whatever connection handler
// the host bound on that port, so real HTTP and real TLS flow over it and
// every stage of the scanning pipeline runs unmodified.
//
// simnet models exactly the connect-scan semantics the study needs:
//
//   - open/closed/filtered ports (ProbePort, the Stage-I primitive),
//   - hosts going offline or getting firewalled over time (the longevity
//     study's "offline" outcome),
//   - the "all ports appear open" network artifact the paper excluded
//     (wildcard hosts that accept every SYN but speak no HTTP).
//
// The host table is a two-level atomic page table sharded by the top two
// address bytes (one shard per /16) with a cache-dense presence bitmap in
// front, and per-host state is published through atomic copy-on-write
// snapshots, so the Stage-I probe workers and the Stage-II/III HTTP
// workers never serialize on a lock: a probe costs a couple of atomic
// loads and an array index — no hashing, no locked bus operations, no
// allocations.
package simnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mavscan/internal/simtime"
)

// Connection-level errors. They unwrap to net.ErrClosed-style sentinel
// values so callers can classify failures the way a real scanner would.
var (
	// ErrConnRefused is returned when the host is online but nothing
	// listens on the port (TCP RST).
	ErrConnRefused = errors.New("simnet: connection refused")
	// ErrHostUnreachable is returned when no host owns the address or the
	// host is offline (SYN timeout).
	ErrHostUnreachable = errors.New("simnet: host unreachable")
	// ErrFiltered is returned when a firewall silently drops the probe.
	ErrFiltered = errors.New("simnet: filtered")
)

// ConnHandler serves one accepted connection. Implementations must close
// the connection before returning.
type ConnHandler func(conn net.Conn)

// wildcardHandler is the service every port of a wildcard-open host
// resolves to: a middlebox that completes the handshake and immediately
// hangs up without speaking any protocol. It lives at package level so
// wildcard probes and dials never allocate a closure.
func wildcardHandler(conn net.Conn) { conn.Close() }

// hostState is one immutable snapshot of a host's externally visible
// state. Mutators publish a fresh snapshot; readers load it with a single
// atomic operation and take no locks.
type hostState struct {
	ports        map[int]ConnHandler
	online       bool
	firewalled   bool
	wildcardOpen bool
}

// Host is a single addressable machine in the simulated internet.
type Host struct {
	ip  netip.Addr
	key uint32 // ip as a big-endian word; page-table key

	mu    sync.Mutex // serializes mutators; readers go through state
	state atomic.Pointer[hostState]
}

// NewHost returns an online host with no bound ports.
func NewHost(ip netip.Addr) *Host {
	h := &Host{ip: ip}
	if k, ok := addrKey(ip); ok {
		h.key = k
	}
	st := &hostState{ports: map[int]ConnHandler{}, online: true}
	h.state.Store(st)
	return h
}

// IP returns the host's address.
func (h *Host) IP() netip.Addr { return h.ip }

// mutate publishes a new state snapshot derived from the current one. When
// clonePorts is set the port table is deep-copied first so the previous
// snapshot stays immutable for concurrent readers.
func (h *Host) mutate(clonePorts bool, f func(*hostState)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.state.Load()
	next := &hostState{
		ports:        old.ports,
		online:       old.online,
		firewalled:   old.firewalled,
		wildcardOpen: old.wildcardOpen,
	}
	if clonePorts {
		next.ports = make(map[int]ConnHandler, len(old.ports)+1)
		for p, svc := range old.ports {
			next.ports[p] = svc
		}
	}
	f(next)
	h.state.Store(next)
}

// Bind installs handler as the service on port, replacing any previous
// binding.
func (h *Host) Bind(port int, handler ConnHandler) {
	if handler == nil {
		panic("simnet: Bind with nil handler")
	}
	h.mutate(true, func(st *hostState) { st.ports[port] = handler })
}

// Unbind removes the service on port, if any.
func (h *Host) Unbind(port int) {
	h.mutate(true, func(st *hostState) { delete(st.ports, port) })
}

// Ports returns the currently bound ports in ascending order.
func (h *Host) Ports() []int {
	st := h.state.Load()
	out := make([]int, 0, len(st.ports))
	for p := range st.ports {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// SetOnline marks the host reachable or unreachable (powered off).
func (h *Host) SetOnline(v bool) {
	h.mutate(false, func(st *hostState) { st.online = v })
}

// Online reports whether the host answers probes at all.
func (h *Host) Online() bool { return h.state.Load().online }

// SetFirewalled silently drops all inbound probes when enabled. This models
// the out-of-band provider firewall as well as owners firewalling a
// previously exposed endpoint.
func (h *Host) SetFirewalled(v bool) {
	h.mutate(false, func(st *hostState) { st.firewalled = v })
}

// Firewalled reports whether inbound traffic is dropped.
func (h *Host) Firewalled() bool { return h.state.Load().firewalled }

// SetWildcardOpen makes every port on the host accept connections without
// serving a protocol, reproducing the 3.0M "always all ports open" artifact
// hosts the paper excluded from Table 2.
func (h *Host) SetWildcardOpen(v bool) {
	h.mutate(false, func(st *hostState) { st.wildcardOpen = v })
}

// WildcardOpen reports whether the host answers every SYN.
func (h *Host) WildcardOpen() bool { return h.state.Load().wildcardOpen }

// lookupService classifies a probe to (host, port).
func (h *Host) lookupService(port int) (ConnHandler, error) {
	st := h.state.Load()
	switch {
	case !st.online:
		return nil, ErrHostUnreachable
	case st.firewalled:
		return nil, ErrFiltered
	}
	if handler, ok := st.ports[port]; ok {
		return handler, nil
	}
	if st.wildcardOpen {
		return wildcardHandler, nil
	}
	return nil, ErrConnRefused
}

// addrKey flattens an IPv4 (or IPv4-mapped) address into a map key.
func addrKey(ip netip.Addr) (uint32, bool) {
	if !ip.Is4() && !ip.Is4In6() {
		return 0, false
	}
	b := ip.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), true
}

// The host table is a two-level page table over the 32-bit address space:
// the top two address bytes select a lazily allocated page (so the table is
// sharded 65536 ways, one shard per /16), and the low two bytes index a
// slot inside it. Every slot is an atomic pointer, so lookups are two
// atomic loads and an array index — no hashing, no locks, no locked bus
// operations — and concurrent registration is a slot CAS. A miss in an
// unpopulated /16 costs a single nil check.
const pageBits = 16

type hostPage [1 << pageBits]atomic.Pointer[Host]

// Presence bitmap. Alongside each host page the network keeps one bit per
// address recording whether a host is registered there. Scans probe vastly
// more empty addresses than live ones — the simulated space is sparse like
// the real IPv4 internet — and the bitmap answers those misses with a
// single atomic load against a structure 256× denser than the pointer
// pages (8 KiB per /16), so the miss path stays in L1/L2 cache instead of
// chasing cold pointers. Only probes to present addresses take the exact
// per-host path.
type presencePage [1 << (pageBits - 5)]atomic.Uint32

// Network is the simulated internet: a set of hosts addressable by IPv4
// address. The zero value is not usable; construct with New.
type Network struct {
	pages  [1 << (32 - pageBits)]atomic.Pointer[hostPage]
	bits   [1 << (32 - pageBits)]atomic.Pointer[presencePage]
	nhosts atomic.Int64
	// latency (nanoseconds) is added to every successful dial; zero by
	// default so large scans run at full speed.
	latency atomic.Int64
	// clock paces the latency wait; tests may inject a fake Sleeper so
	// latency runs never block in real time.
	clock atomic.Pointer[simtime.Sleeper]
	// faults, when set, is consulted on every probe and dial that would
	// otherwise succeed, so a fault plan can overlay transient failures on
	// the healthy topology (see internal/faults).
	faults atomic.Pointer[FaultInjector]
	// resolver, when set, is consulted on the page table's miss path: an
	// address with no registered host is materialized on demand (see
	// Resolver). Hits on registered hosts never touch it.
	resolver atomic.Pointer[Resolver]
	// open counts server-side connections not yet closed (see OpenConns).
	open atomic.Int64
}

// Resolver materializes hosts on demand. When a probe, dial, or Host lookup
// misses the page table, the network asks the resolver before declaring the
// address unreachable; a nil result means the address is genuinely empty.
// This is the hook the lazy population generator hangs the simulated world
// on: host state becomes a function of the address, computed on first
// probe, instead of a table populated up front.
//
// Implementations must be safe for concurrent use, must return the same
// *Host for concurrent lookups of the same live address, and — for
// deterministic studies — must derive host state purely from the address
// (so that evicting and re-materializing a host reproduces it exactly).
// Resolved hosts are NOT registered in the page table: the resolver owns
// their lifetime (typically a bounded cache), keeping the network's memory
// independent of the simulated population size. NumHosts, Hosts, and
// RemoveHost therefore see only explicitly registered hosts.
type Resolver interface {
	Resolve(ip netip.Addr) *Host
}

// SetResolver installs (or, with nil, removes) the miss-path resolver.
func (n *Network) SetResolver(r Resolver) {
	if r == nil {
		n.resolver.Store(nil)
		return
	}
	n.resolver.Store(&r)
}

// resolve asks the installed resolver, if any, for the host at ip.
func (n *Network) resolve(ip netip.Addr) *Host {
	p := n.resolver.Load()
	if p == nil {
		return nil
	}
	return (*p).Resolve(ip)
}

// Fault describes one transient failure to apply to a dial that would
// otherwise succeed. The zero value means "no fault". Err aborts the dial
// outright (SYN timeout → ErrHostUnreachable, reset → ErrConnRefused);
// the other fields degrade the connection instead: Latency adds one-off
// connection-setup delay, Status swaps the bound handler for one answering
// every request with that HTTP status, and Truncate cuts the server's
// response stream after that many bytes.
type Fault struct {
	Err      error
	Latency  time.Duration
	Status   int
	Truncate int
}

// FaultInjector decides, per (address, port) attempt, whether to inject a
// transient failure. The network consults it only after the target has been
// found healthy, so injected faults are always transient overlays — never
// confused with genuinely dead or firewalled hosts. Implementations must be
// safe for concurrent use; internal/faults provides the deterministic
// seeded one.
type FaultInjector interface {
	// ProbeFault returns a non-nil error to fail a ProbePort that would
	// have succeeded.
	ProbeFault(ip netip.Addr, port int) error
	// DialFault returns the fault to apply to a dial that would have
	// succeeded; the zero Fault leaves the dial untouched.
	DialFault(ip netip.Addr, port int) Fault
}

// SetFaults installs (or, with nil, removes) the network's fault injector.
func (n *Network) SetFaults(inj FaultInjector) {
	if inj == nil {
		n.faults.Store(nil)
		return
	}
	n.faults.Store(&inj)
}

func (n *Network) injector() FaultInjector {
	p := n.faults.Load()
	if p == nil {
		return nil
	}
	return *p
}

// New returns an empty network.
func New() *Network {
	n := &Network{}
	wall := simtime.Sleeper(simtime.Wall{})
	n.clock.Store(&wall)
	return n
}

// SetClock replaces the sleeper used to pace per-dial latency.
func (n *Network) SetClock(clock simtime.Sleeper) {
	n.clock.Store(&clock)
}

// SetLatency sets a fixed per-connection setup latency (applied on Dial).
func (n *Network) SetLatency(d time.Duration) {
	n.latency.Store(int64(d))
}

// page returns the page owning key k, allocating it (and its presence
// sibling) when create is set.
func (n *Network) page(k uint32, create bool) *hostPage {
	slot := &n.pages[k>>pageBits]
	pg := slot.Load()
	if pg == nil && create {
		// Publish the presence page first so a probe racing AddHost never
		// sees a host page without its bitmap sibling.
		n.bits[k>>pageBits].CompareAndSwap(nil, new(presencePage))
		fresh := new(hostPage)
		if slot.CompareAndSwap(nil, fresh) {
			return fresh
		}
		pg = slot.Load()
	}
	return pg
}

// setPresent flips the presence bit for key k. The owning page always
// exists by the time a host is attached.
func (n *Network) setPresent(k uint32, on bool) {
	bp := n.bits[k>>pageBits].Load()
	if bp == nil {
		return
	}
	w := &bp[(k&(1<<pageBits-1))>>5]
	bit := uint32(1) << (k & 31)
	for {
		old := w.Load()
		next := old | bit
		if !on {
			next = old &^ bit
		}
		if old == next || w.CompareAndSwap(old, next) {
			return
		}
	}
}

// AddHost registers h. Adding a second host with the same address is an
// error: the simulated space has one owner per IP. The simulated internet
// is IPv4-only; non-IPv4 hosts are rejected.
func (n *Network) AddHost(h *Host) error {
	k, ok := addrKey(h.ip)
	if !ok {
		return fmt.Errorf("simnet: host %s is not IPv4", h.ip)
	}
	pg := n.page(k, true)
	if !pg[k&(1<<pageBits-1)].CompareAndSwap(nil, h) {
		return fmt.Errorf("simnet: duplicate host %s", h.ip)
	}
	// The bit is published after the slot, so a probe that observes the
	// bit always finds the host.
	n.setPresent(k, true)
	n.nhosts.Add(1)
	return nil
}

// RemoveHost deletes the host at ip, if present.
func (n *Network) RemoveHost(ip netip.Addr) {
	k, ok := addrKey(ip)
	if !ok {
		return
	}
	pg := n.page(k, false)
	if pg == nil {
		return
	}
	n.setPresent(k, false)
	if old := pg[k&(1<<pageBits-1)].Swap(nil); old != nil {
		n.nhosts.Add(-1)
	}
}

// lookup resolves ip to a registered host.
func (n *Network) lookup(ip netip.Addr) (*Host, bool) {
	k, ok := addrKey(ip)
	if !ok {
		return nil, false
	}
	pg := n.pages[k>>pageBits].Load()
	if pg == nil {
		return nil, false
	}
	h := pg[k&(1<<pageBits-1)].Load()
	return h, h != nil
}

// Host returns the host at ip: a registered one, or — when a resolver is
// installed — a lazily materialized one. Use Hosts to see only registered
// hosts.
func (n *Network) Host(ip netip.Addr) (*Host, bool) {
	if h, ok := n.lookup(ip); ok {
		return h, true
	}
	if h := n.resolve(ip); h != nil {
		return h, true
	}
	return nil, false
}

// NumHosts returns the number of registered hosts.
func (n *Network) NumHosts() int {
	return int(n.nhosts.Load())
}

// Hosts calls fn for every registered host until fn returns false. The
// iteration order is unspecified. fn must not add or remove hosts.
func (n *Network) Hosts(fn func(h *Host) bool) {
	for i := range n.pages {
		pg := n.pages[i].Load()
		if pg == nil {
			continue
		}
		for j := range pg {
			if h := pg[j].Load(); h != nil {
				if !fn(h) {
					return
				}
			}
		}
	}
}

// ProbePort performs a half-open (SYN) probe: it reports open without
// exchanging any application data. This is the Stage-I (masscan)
// primitive, and the hottest call in the pipeline: probes to empty
// addresses — the overwhelming majority of a sparse scan — are answered
// from the presence bitmap with a single atomic load. With a resolver
// installed (a lazy world) every bitmap miss goes on to the resolver,
// whose answer for an empty address is the per-probe cost.
func (n *Network) ProbePort(ip netip.Addr, port int) error {
	k, ok := addrKey(ip)
	if !ok {
		return ErrHostUnreachable
	}
	var h *Host
	bp := n.bits[k>>pageBits].Load()
	if bp != nil && bp[(k&(1<<pageBits-1))>>5].Load()&(1<<(k&31)) != 0 {
		h, _ = n.lookup(ip)
	}
	if h == nil {
		// Page-table miss: give the resolver, if any, a chance to
		// materialize the host. The extra cost on the registered-world
		// miss path is one atomic nil-check.
		if h = n.resolve(ip); h == nil {
			return ErrHostUnreachable
		}
	}
	if _, err := h.lookupService(port); err != nil {
		return err
	}
	if inj := n.injector(); inj != nil {
		return inj.ProbeFault(ip, port)
	}
	return nil
}

// Dial establishes a full connection to (ip, port), returning the client
// side of the stream. The server side is handed to the bound ConnHandler on
// its own goroutine. The server sees an unspecified source address; use
// DialFrom when the source identity matters (honeypot monitoring records
// attacker source IPs from it).
func (n *Network) Dial(ctx context.Context, ip netip.Addr, port int) (net.Conn, error) {
	return n.DialFrom(ctx, netip.AddrFrom4([4]byte{192, 0, 2, 1}), ip, port)
}

// DialFrom is Dial with an explicit source address, visible to the server
// side as the connection's RemoteAddr.
func (n *Network) DialFrom(ctx context.Context, src, ip netip.Addr, port int) (net.Conn, error) {
	h, ok := n.lookup(ip)
	if !ok {
		if h = n.resolve(ip); h == nil {
			return nil, ErrHostUnreachable
		}
	}
	handler, err := h.lookupService(port)
	if err != nil {
		return nil, err
	}
	var fault Fault
	if inj := n.injector(); inj != nil && ctx.Value(noFaultsKey{}) == nil {
		fault = inj.DialFault(ip, port)
		if fault.Err != nil {
			return nil, fault.Err
		}
	}
	if latency := time.Duration(n.latency.Load()) + fault.Latency; latency > 0 {
		clock := *n.clock.Load()
		select {
		case <-clock.After(latency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if fault.Status != 0 {
		handler = statusBlipHandler(fault.Status)
	}
	client, server := net.Pipe()
	// The server observes the caller's source address on an ephemeral
	// port; the client observes the dialed destination.
	n.open.Add(1)
	var sc net.Conn = &serverConn{
		addrConn: addrConn{Conn: server, remote: src, port: 0, local: ip, localPort: port},
		open:     &n.open,
	}
	if fault.Truncate > 0 {
		sc = &truncatedConn{Conn: sc, remaining: fault.Truncate}
	}
	go handler(sc)
	return &addrConn{Conn: client, remote: ip, port: port, local: src, localPort: 0}, nil
}

type noFaultsKey struct{}

// WithoutFaults returns ctx under which dials skip the fault injector: no
// draw is made and no fault applies. A client passes it when it replaces,
// for reasons of its own, a connection whose exchanges all ended cleanly.
// The fault model draws per connection, and the replacement stands for
// the connection it replaces, so it must not consume a new draw.
func WithoutFaults(ctx context.Context) context.Context {
	return context.WithValue(ctx, noFaultsKey{}, true)
}

// OpenConns reports how many dialed connections the server side still
// holds open. A handler closes its side once the client hangs up, so after
// a client has closed everything it dialed the count drains to zero; tests
// use it to prove that no connection outlives its work unit.
func (n *Network) OpenConns() int64 { return n.open.Load() }

// serverConn is the server side of a dialed pipe. Its first Close takes
// the connection off the network's open count.
type serverConn struct {
	addrConn
	open   *atomic.Int64
	closed atomic.Bool
}

func (c *serverConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.open.Add(-1)
	}
	return c.addrConn.Close()
}

// statusBlipHandler answers one exchange with an empty response carrying
// the given status code — the shape of a transient 5xx blip from a healthy
// server. Both ends of a net.Pipe are synchronous, so the handler must read
// the client's opening bytes before answering (or the client's own write
// would never complete), but it must only keep reading when those bytes are
// a cleartext HTTP head: a TLS ClientHello has no request head, and waiting
// for one would deadlock the dialer mid-handshake. A TLS client instead
// gets the plaintext blip, fails the handshake, and surfaces a transport
// error — still a transient, retryable fault.
func statusBlipHandler(status int) ConnHandler {
	return func(conn net.Conn) {
		defer conn.Close()
		buf := make([]byte, 4096)
		n, err := conn.Read(buf)
		head := append([]byte(nil), buf[:n]...)
		for err == nil && n > 0 && head[0] >= 'A' && head[0] <= 'Z' &&
			!bytes.Contains(head, []byte("\r\n\r\n")) {
			n, err = conn.Read(buf)
			head = append(head, buf[:n]...)
		}
		fmt.Fprintf(conn, "HTTP/1.1 %d Transient Fault\r\nContent-Length: 0\r\nConnection: close\r\n\r\n", status)
	}
}

// truncatedConn cuts the server's response stream after a byte budget: the
// connection behaves normally until the budget is spent, then every write
// reports a reset. Reads (the request direction) are unaffected.
type truncatedConn struct {
	net.Conn
	mu        sync.Mutex
	remaining int
}

func (c *truncatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	budget := c.remaining
	if budget > len(p) {
		budget = len(p)
	}
	c.remaining -= budget
	c.mu.Unlock()
	if budget == 0 {
		c.Conn.Close()
		return 0, ErrConnRefused
	}
	n, err := c.Conn.Write(p[:budget])
	if err == nil && n < len(p) {
		c.Conn.Close()
		err = ErrConnRefused
	}
	return n, err
}

// DialContext adapts Dial to the signature of net.Dialer.DialContext so the
// network can be plugged into an http.Transport. Only "tcp" addresses of
// the form "ip:port" are supported.
func (n *Network) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("simnet: unsupported network %q", network)
	}
	hostStr, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return nil, fmt.Errorf("simnet: bad address %q: %w", address, err)
	}
	ip, err := netip.ParseAddr(hostStr)
	if err != nil {
		return nil, fmt.Errorf("simnet: bad host %q: %w", hostStr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 1 || port > 65535 {
		return nil, fmt.Errorf("simnet: bad port %q", portStr)
	}
	return n.Dial(ctx, ip, port)
}

// addrConn decorates a pipe conn with meaningful endpoint addresses so HTTP
// logs and monitoring see real identities.
type addrConn struct {
	net.Conn
	remote    netip.Addr
	port      int
	local     netip.Addr
	localPort int
}

// RemoteAddr returns the simulated peer address.
func (c *addrConn) RemoteAddr() net.Addr {
	return &net.TCPAddr{IP: c.remote.AsSlice(), Port: c.port}
}

// LocalAddr returns the simulated local address.
func (c *addrConn) LocalAddr() net.Addr {
	return &net.TCPAddr{IP: c.local.AsSlice(), Port: c.localPort}
}

package main

import (
	"context"
	"crypto/tls"
	"net/http/httptrace"
	"net/netip"
	"reflect"
	"sync"
	"time"

	"mavscan/internal/fabric"
	"mavscan/internal/orchestrator"
	"mavscan/internal/portscan"
)

// sampleShift sets the Prober wrapper's sampling rate: one (address, port)
// pair in 2^sampleShift is timed.
const sampleShift = 10

// sampledProber times a deterministic 1-in-1024 subset of Stage-I probes.
// The choice hashes the (address, port) pair, so it needs no shared state
// on the probe path and samples the same pairs on every run of a seed.
type sampledProber struct {
	inner portscan.Prober
	tr    *tracer
}

func (p sampledProber) ProbePort(ip netip.Addr, port int) error {
	b := ip.As4()
	x := (uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])) ^ uint32(port)*0x9e3779b1
	x ^= x >> 15
	x *= 0x2c1b3c6d
	x ^= x >> 12
	if x&(1<<sampleShift-1) != 0 {
		return p.inner.ProbePort(ip, port)
	}
	t0 := time.Now()
	err := p.inner.ProbePort(ip, port)
	p.tr.sample("simnet.probe", time.Since(t0))
	return err
}

// withHTTPTrace returns ctx carrying an httptrace.ClientTrace that times
// every HTTP exchange made under it as an httpsim.request span (connection
// acquisition to first response byte) parented to parent, and counts
// connections, reuse and TLS handshakes. One trace serves the sequential
// requests of one stage call; hooks from the dial goroutine are guarded.
func withHTTPTrace(ctx context.Context, tr *tracer, parent uint64) context.Context {
	if tr == nil {
		return ctx
	}
	var mu sync.Mutex
	var getConn, wrote, tlsStart time.Time
	ct := &httptrace.ClientTrace{
		GetConn: func(string) {
			mu.Lock()
			defer mu.Unlock()
			getConn = time.Now()
			tr.add("httpsim.requests", 1)
		},
		GotConn: func(info httptrace.GotConnInfo) {
			mu.Lock()
			defer mu.Unlock()
			tr.sample("httpsim.conn_wait", time.Since(getConn))
			if info.Reused {
				tr.add("httpsim.conns_reused", 1)
			} else {
				tr.add("httpsim.conns_new", 1)
			}
		},
		TLSHandshakeStart: func() {
			mu.Lock()
			defer mu.Unlock()
			tlsStart = time.Now()
		},
		TLSHandshakeDone: func(tls.ConnectionState, error) {
			mu.Lock()
			defer mu.Unlock()
			tr.add("httpsim.tls_handshakes", 1)
			tr.add("httpsim.tls_s", time.Since(tlsStart).Seconds())
		},
		WroteRequest: func(httptrace.WroteRequestInfo) {
			mu.Lock()
			defer mu.Unlock()
			wrote = time.Now()
		},
		GotFirstResponseByte: func() {
			mu.Lock()
			defer mu.Unlock()
			now := time.Now()
			tr.sample("httpsim.ttfb", now.Sub(wrote))
			tr.record(0, parent, "httpsim.request", getConn, now)
		},
	}
	return httptrace.WithClientTrace(ctx, ct)
}

// tracedTransport times every coordinator call one fabric worker makes.
type tracedTransport struct {
	inner  fabric.Transport
	tr     *tracer
	parent *uint64 // the worker's span, set before the worker runs
}

func (t tracedTransport) Call(ctx context.Context, endpoint string, req, resp any) error {
	sp := t.tr.start("fabric."+endpoint, *t.parent)
	ordinal := -1
	if endpoint == "complete" {
		if f := reflect.Indirect(reflect.ValueOf(req)).FieldByName("Ordinal"); f.IsValid() {
			ordinal = int(f.Int())
			t.tr.setInflight(ordinal, sp.id)
		}
	}
	err := t.inner.Call(ctx, endpoint, req, resp)
	t.tr.sample("fabric.call", sp.end())
	t.tr.add("fabric.calls", 1)
	if ordinal >= 0 {
		t.tr.setInflight(ordinal, 0)
	}
	return err
}

// tracedStore times the coordinator's journal appends.
type tracedStore struct {
	inner orchestrator.Store
	tr    *tracer
	root  *uint64 // the run's span, set before the coordinator is called
}

func (s tracedStore) Append(rec orchestrator.Record) error {
	parent := *s.root
	if rec.Kind == orchestrator.KindSegment {
		if id := s.tr.inflightFor(rec.Segment); id != 0 {
			parent = id
		}
	}
	sp := s.tr.start("orchestrator.append", parent)
	err := s.inner.Append(rec)
	s.tr.sample("orchestrator.append", sp.end())
	s.tr.add("orchestrator.appends", 1)
	return err
}

func (s tracedStore) Replay(runID string, fn func(orchestrator.Record) error) error {
	return s.inner.Replay(runID, fn)
}

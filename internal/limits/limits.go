// Package limits is the shared budget ledger of the scanner's read paths.
//
// Every byte a probed endpoint sends is peer-controlled, and the paper's
// pipeline touches millions of endpoints: a single weaponized responder —
// an unbounded body, a header bomb, a compression bomb, a tarpit — must
// cost one bounded exchange, never process memory or wall time ("Never
// Trust Your Victim" hardening). The caps that used to be scattered as
// per-stage constants live here so prefilter, tsunami, fingerprint, the
// attacker, the observer and httpsim's client all enforce the same
// envelope:
//
//   - MaxBody / ReadBody    — per-response body cap, with a truncation bit
//     so a body cut at the cap is distinguishable from one that is exactly
//     the cap (a signature or hash must never half-match a prefix).
//   - DrainBody / Drain     — the small cap for bodies read only to reuse
//     a keep-alive connection.
//   - MaxConnBytes / Conn   — per-request byte budget under the protocol
//     layer: whatever the protocol layer believes, a connection stops
//     yielding bytes here. Refill restores it when a kept-alive
//     connection is handed to its next request.
//   - Watchdog              — per-request wall budget off the injected
//     clock, so tarpits and slow-loris drips terminate even when the
//     protocol layer sees steady progress.
//   - MaxDecompressRatio / Gunzip — decompression-ratio cap: the sanctioned
//     way to expand peer-supplied compressed bytes (the boundedread lint
//     rule flags raw gzip.NewReader/flate.NewReader over network readers).
package limits

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mavscan/internal/simtime"
)

const (
	// MaxBody bounds how much of one response body any stage reads — the
	// former per-stage 512KiB constants of prefilter, tsunami and the
	// fingerprinter, deduplicated.
	MaxBody = 512 << 10
	// DrainBody bounds draining of bodies read only for connection reuse
	// (the attacker's discard path).
	DrainBody = 64 << 10
	// MaxHeaderBytes caps request headers on simulated servers and response
	// headers on scanning clients (httpsim wires it into both sides).
	MaxHeaderBytes = 256 << 10
	// MaxConnBytes is the default per-request read budget enforced under
	// the protocol layer: headers + body + framing of one request on the
	// connection (plus the TLS handshake on its first). It is deliberately
	// far above MaxBody + MaxHeaderBytes so
	// it only trips on endpoints that stream garbage past every
	// protocol-level cap.
	MaxConnBytes = 4 << 20
	// MaxDecompressRatio caps how many bytes Gunzip yields per compressed
	// input byte; a gzip bomb compresses ~1000:1, real pages sit well
	// under 32:1.
	MaxDecompressRatio = 32
)

// ErrConnBudget is returned by a Conn wrapper once the connection has
// yielded its full byte budget.
var ErrConnBudget = errors.New("limits: connection byte budget exhausted")

// ErrRatio is returned by Gunzip when the output exceeds the
// decompression-ratio cap.
var ErrRatio = errors.New("limits: decompression ratio cap exceeded")

// ReadBody reads r through a hard cap of max bytes and reports whether the
// stream had more: it reads max+1 bytes and keeps max, so a body that is
// exactly max long comes back with truncated=false while a longer one is
// flagged. Callers that match signatures or hashes must treat truncated
// bodies as partial evidence, never as the full document.
func ReadBody(r io.Reader, max int64) (body []byte, truncated bool, err error) {
	body, err = io.ReadAll(io.LimitReader(r, max+1))
	if int64(len(body)) > max {
		return body[:max], true, err
	}
	return body, false, err
}

// Drain discards up to DrainBody bytes of r, surfacing the copy error that
// the old per-driver drains dropped. It does not close r.
func Drain(r io.Reader) error {
	_, err := io.Copy(io.Discard, io.LimitReader(r, DrainBody))
	return err
}

// Conn wraps c so cumulative reads beyond max bytes fail with
// ErrConnBudget. max <= 0 applies MaxConnBytes. Writes are not budgeted:
// the scanner controls what it sends.
func Conn(c net.Conn, max int64) net.Conn {
	if max <= 0 {
		max = MaxConnBytes
	}
	b := &budgetConn{Conn: c, max: max}
	b.remaining.Store(max)
	return b
}

// Refill restores the full byte budget of a connection returned by Conn.
// The budget is per request: a kept-alive connection gets a fresh one each
// time it is handed to a new request, so benign exchanges never add up to
// ErrConnBudget however long the connection lives. Any other connection is
// left alone.
func Refill(c net.Conn) {
	if b, ok := c.(*budgetConn); ok {
		b.remaining.Store(b.max)
	}
}

// budgetConn decrements its budget on every Read. The transport owns a
// single read loop per connection, but Refill runs on the goroutine of the
// request taking the connection over, so the counter is atomic.
type budgetConn struct {
	net.Conn
	max       int64
	remaining atomic.Int64
}

func (c *budgetConn) Read(p []byte) (int, error) {
	remaining := c.remaining.Load()
	if remaining <= 0 {
		return 0, ErrConnBudget
	}
	if int64(len(p)) > remaining {
		p = p[:remaining]
	}
	n, err := c.Conn.Read(p)
	c.remaining.Add(-int64(n))
	return n, err
}

// Watchdog closes c once budget has elapsed on clock, unless the returned
// stop function runs first. It is the per-request wall budget: protocol
// timeouts reset on progress, so a slow-loris drip that delivers one byte
// per keep-alive interval evades them — the watchdog does not care about
// progress, only elapsed time. stop is idempotent and must be called when
// the request ends normally; a kept-alive connection arms a new watchdog
// for its next request.
func Watchdog(c io.Closer, clock simtime.Sleeper, budget time.Duration) (stop func()) {
	if clock == nil {
		clock = simtime.Wall{}
	}
	// The wall-clock case is the scan hot path: one watchdog per dialed
	// connection. A clock that can schedule a callback directly (a
	// runtime timer: no goroutine, leaves the timer heap on stop) keeps
	// the benign-path cost to one timer instead of a goroutine plus an
	// unstoppable After channel per connection.
	if af, ok := clock.(interface {
		AfterFunc(time.Duration, func()) func()
	}); ok {
		return af.AfterFunc(budget, func() { c.Close() })
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-clock.After(budget):
			c.Close()
		case <-done:
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Gunzip decompresses peer-supplied bytes with the output re-bounded: at
// most max bytes (MaxBody if max <= 0) and at most MaxDecompressRatio
// bytes per input byte, whichever is smaller. Exceeding either cap is an
// error, not a truncation — expanded-and-clipped bomb output has no
// legitimate consumer. This is the sanctioned decompression path the
// boundedread lint rule points at.
func Gunzip(data []byte, max int64) ([]byte, error) {
	if max <= 0 {
		max = MaxBody
	}
	if ratio := int64(len(data)) * MaxDecompressRatio; ratio < max {
		max = ratio
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("limits: gunzip: %w", err)
	}
	defer zr.Close()
	out, truncated, err := ReadBody(zr, max)
	if err != nil {
		return nil, fmt.Errorf("limits: gunzip: %w", err)
	}
	if truncated {
		return nil, ErrRatio
	}
	return out, nil
}

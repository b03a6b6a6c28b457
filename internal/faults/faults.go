// Package faults provides deterministic, seeded transient-fault injection
// for the simulated internet.
//
// Real Internet scanning is dominated by transient failures — dropped SYNs,
// resets from overloaded middleboxes, slow or truncated responses, 5xx
// blips from servers mid-restart. The paper's longevity study classifies a
// host offline after a failed probe, so a single blip pollutes the Figure-2
// series; LZR and "Never Trust Your Victim" both document how common such
// blips are in the wild. This package lets the simulation reproduce that
// hostile weather on demand: a Plan draws, per (address, port) attempt,
// from a seeded hash chain, so the same seed yields the exact same fault
// sequence on every run — fault-injected experiments stay byte-identical
// and every resilience fix is testable against a repeatable storm.
//
// The draw is keyed on (seed, address, port, attempt-number), not on time:
// a retry of the same endpoint is a fresh draw, which is what makes
// retry/backoff (internal/resilience) able to ride out sub-budget fault
// rates. Burst windows overlay a higher rate on a periodic schedule read
// from the injected simulated clock, modelling correlated outages.
//
// An attempt is a SYN probe or a connection, not a request. The scanning
// stages keep one connection per endpoint for a whole work unit (see
// httpsim.WithSession), so a draw made at dial covers every exchange on
// that connection: a Truncate budget spans all of them, a Latency delay is
// paid once, and a 5xx blip answers one exchange and closes the connection.
// A unit dials again only after the server or a budget closed its
// connection, so the number of draws per endpoint stays a function of
// server behaviour and the same seed still yields the same run.
package faults

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"mavscan/internal/simnet"
	"mavscan/internal/simtime"
	"mavscan/internal/telemetry"
)

// Kind enumerates the injectable transient-failure modes.
type Kind uint8

// The five failure modes, mirroring the taxonomy of scanning mishaps the
// robustness literature reports.
const (
	// SynTimeout drops the connection attempt silently (probe or dial
	// reports the host unreachable).
	SynTimeout Kind = iota
	// Reset refuses the connection as if a RST came back.
	Reset
	// Latency delays connection setup without failing it.
	Latency
	// HTTP5xx completes the connection but answers the request with a
	// transient 503 instead of the bound application handler.
	HTTP5xx
	// Truncate cuts the server's response stream after a byte budget.
	Truncate
	numKinds
)

// String returns the flag-syntax name of the kind (also the metric label).
func (k Kind) String() string {
	switch k {
	case SynTimeout:
		return "syn"
	case Reset:
		return "reset"
	case Latency:
		return "latency"
	case HTTP5xx:
		return "5xx"
	case Truncate:
		return "trunc"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

func kindFromString(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown kind %q (want syn, reset, latency, 5xx or trunc)", s)
}

// AllKinds returns every fault kind, in declaration order.
func AllKinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Config parameterizes a fault Plan. The zero value disables injection.
type Config struct {
	// Seed drives every draw; the same seed reproduces the same faults.
	Seed int64
	// Rate is the per-attempt fault probability in [0, 1].
	Rate float64
	// BurstEvery/BurstLen/BurstRate overlay periodic correlated-outage
	// windows: for BurstLen out of every BurstEvery of simulated time the
	// rate becomes BurstRate instead. Bursts need a simulated clock (see
	// NewPlan); without one they stay inert so wall-clock runs remain
	// reproducible.
	BurstEvery time.Duration
	BurstLen   time.Duration
	BurstRate  float64
	// Kinds restricts which failure modes are drawn (default: all).
	Kinds []Kind
	// Latency is the setup delay injected by Latency faults (default 20ms).
	Latency time.Duration
	// TruncateAfter is the response byte budget of Truncate faults
	// (default 64).
	TruncateAfter int
	// WorkerCrashRate is the probability that an orchestrated shard worker
	// crashes while executing one checkpoint segment (consulted by
	// internal/orchestrator via Plan.WorkerCrash, not by simnet). Crash
	// draws ride an independent hash chain keyed on (seed, shard, segment,
	// attempt), so enabling them never perturbs the per-endpoint fault
	// sequence — scan results stay byte-identical whether or not workers
	// crash, which is what makes the kill/resume acceptance deterministic.
	WorkerCrashRate float64
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.Rate > 0 || (c.BurstEvery > 0 && c.BurstRate > 0) || c.WorkerCrashRate > 0
}

// Validate checks rates and windows for sanity.
func (c Config) Validate() error {
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("faults: rate %v outside [0, 1]", c.Rate)
	}
	if c.WorkerCrashRate < 0 || c.WorkerCrashRate > 1 {
		return fmt.Errorf("faults: crash rate %v outside [0, 1]", c.WorkerCrashRate)
	}
	if c.BurstRate < 0 || c.BurstRate > 1 {
		return fmt.Errorf("faults: burst-rate %v outside [0, 1]", c.BurstRate)
	}
	if c.BurstEvery > 0 && (c.BurstLen <= 0 || c.BurstLen > c.BurstEvery) {
		return fmt.Errorf("faults: burst-len %v outside (0, burst-every=%v]", c.BurstLen, c.BurstEvery)
	}
	return nil
}

// ParseFlag parses the -faults flag syntax:
//
//	seed=7,rate=0.02[,burst-every=6h,burst-len=20m,burst-rate=0.5]
//	      [,latency=50ms][,trunc=64][,kinds=syn+reset+5xx][,crash=0.3]
//
// The empty string yields a disabled Config.
func ParseFlag(s string) (Config, error) {
	var c Config
	if strings.TrimSpace(s) == "" {
		return c, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return c, fmt.Errorf("faults: field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			c.Seed, err = strconv.ParseInt(val, 10, 64)
		case "rate":
			c.Rate, err = strconv.ParseFloat(val, 64)
		case "burst-every":
			c.BurstEvery, err = time.ParseDuration(val)
		case "burst-len":
			c.BurstLen, err = time.ParseDuration(val)
		case "burst-rate":
			c.BurstRate, err = strconv.ParseFloat(val, 64)
		case "latency":
			c.Latency, err = time.ParseDuration(val)
		case "trunc":
			c.TruncateAfter, err = strconv.Atoi(val)
		case "crash":
			c.WorkerCrashRate, err = strconv.ParseFloat(val, 64)
		case "kinds":
			for _, name := range strings.Split(val, "+") {
				var k Kind
				if k, err = kindFromString(name); err != nil {
					break
				}
				c.Kinds = append(c.Kinds, k)
			}
		default:
			return c, fmt.Errorf("faults: unknown field %q", key)
		}
		if err != nil {
			return c, fmt.Errorf("faults: bad %s: %v", key, err)
		}
	}
	return c, c.Validate()
}

// attemptShards spreads the per-endpoint attempt counters so concurrent
// scan workers touching different endpoints rarely contend.
const attemptShards = 64

type attemptShard struct {
	mu sync.Mutex
	n  map[uint64]uint64
}

// Plan is a deterministic fault schedule implementing simnet.FaultInjector.
// Construct with NewPlan and install with Network.SetFaults.
type Plan struct {
	cfg   Config
	kinds []Kind
	// clock gates burst windows; nil disables them (wall time would break
	// run-to-run determinism).
	clock  simtime.Clock
	start  time.Time
	shards [attemptShards]attemptShard
	tel    *planTelemetry
}

type planTelemetry struct {
	attempts *telemetry.Counter
	injected map[Kind]*telemetry.Counter
}

// NewPlan builds a fault plan from cfg. clock, when non-nil, must be the
// experiment's simulated clock: burst windows are positioned relative to
// its time at construction. Pass nil for burst-free injection (e.g. the
// one-shot scan study, which has no meaningful timeline).
func NewPlan(cfg Config, clock simtime.Clock) *Plan {
	if cfg.Latency <= 0 {
		cfg.Latency = 20 * time.Millisecond
	}
	if cfg.TruncateAfter <= 0 {
		cfg.TruncateAfter = 64
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	p := &Plan{cfg: cfg, kinds: kinds, clock: clock}
	if clock != nil {
		p.start = clock.Now()
	}
	for i := range p.shards {
		p.shards[i].n = make(map[uint64]uint64)
	}
	return p
}

// Instrument registers fault-injection metrics with reg (nil = off).
func (p *Plan) Instrument(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	tel := &planTelemetry{
		attempts: reg.Counter("mavscan_faults_attempts_total"),
		injected: make(map[Kind]*telemetry.Counter, numKinds),
	}
	for k := Kind(0); k < numKinds; k++ {
		tel.injected[k] = reg.Counter(
			telemetry.Labeled("mavscan_faults_injected_total", "kind", k.String()))
	}
	p.tel = tel
}

// splitmix64 is the finalizer of the SplitMix64 PRNG: a cheap, high-quality
// 64-bit mixer (same construction the portscan shuffle uses).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pairKey packs an IPv4 (or 4-in-6) address and port into a unique uint64.
func pairKey(ip netip.Addr, port int) uint64 {
	var b [4]byte
	if ip.Is4() || ip.Is4In6() {
		b = ip.As4()
	}
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(uint16(port))
}

// nextAttempt returns the 1-based attempt number for the endpoint. Each
// endpoint is probed by one worker at a time (stage ordering and the
// per-target worker model guarantee it), so the sequence an endpoint
// observes is deterministic even though the map is shared.
func (p *Plan) nextAttempt(key uint64) uint64 {
	sh := &p.shards[key%attemptShards]
	sh.mu.Lock()
	sh.n[key]++
	n := sh.n[key]
	sh.mu.Unlock()
	return n
}

// rate returns the active fault probability, accounting for burst windows.
func (p *Plan) rate() float64 {
	r := p.cfg.Rate
	if p.cfg.BurstEvery > 0 && p.clock != nil {
		if el := p.clock.Now().Sub(p.start); el >= 0 && el%p.cfg.BurstEvery < p.cfg.BurstLen {
			r = p.cfg.BurstRate
		}
	}
	return r
}

// decide draws the fault (if any) for the next attempt on (ip, port).
func (p *Plan) decide(ip netip.Addr, port int) (Kind, bool) {
	key := pairKey(ip, port)
	attempt := p.nextAttempt(key)
	if p.tel != nil {
		p.tel.attempts.Inc()
	}
	rate := p.rate()
	if rate <= 0 {
		return 0, false
	}
	h := splitmix64(uint64(p.cfg.Seed) ^ splitmix64(key) ^ splitmix64(attempt*0x9e3779b97f4a7c15))
	if float64(h>>11)/(1<<53) >= rate {
		return 0, false
	}
	kind := p.kinds[int(splitmix64(h)%uint64(len(p.kinds)))]
	if p.tel != nil {
		p.tel.injected[kind].Inc()
	}
	return kind, true
}

// WorkerCrash draws whether the attempt-th execution (1-based) of the
// given checkpoint segment crashes its shard worker. The chain is
// independent of the per-endpoint draws and stateless (no shared attempt
// counter): the same (seed, shard, segment, attempt) always crashes or
// always survives, so a resumed orchestrator replays the exact crash
// schedule an uninterrupted run would have seen.
func (p *Plan) WorkerCrash(shard, segment, attempt int) bool {
	r := p.cfg.WorkerCrashRate
	if r <= 0 {
		return false
	}
	h := splitmix64(uint64(p.cfg.Seed) ^ 0xc4ceb9fe1a85ec53)
	h = splitmix64(h ^ uint64(uint32(shard)))
	h = splitmix64(h ^ uint64(uint32(segment)))
	h = splitmix64(h ^ uint64(uint32(attempt)))
	return float64(h>>11)/(1<<53) < r
}

// WorkerKill draws whether fabric worker (0-based ordinal) dies while
// holding its lease-th granted lease (1-based). Like WorkerCrash it is a
// stateless, independent hash chain — a distinct salt keeps it from ever
// correlating with segment crashes or endpoint faults — but the subject
// here is the whole worker process: a kill drops every lease the worker
// holds at once, exercising the coordinator's expiry-and-reassign path
// rather than the in-process retry path.
func (p *Plan) WorkerKill(worker, lease int) bool {
	r := p.cfg.WorkerCrashRate
	if r <= 0 {
		return false
	}
	h := splitmix64(uint64(p.cfg.Seed) ^ 0x94d049bb133111eb)
	h = splitmix64(h ^ uint64(uint32(worker)))
	h = splitmix64(h ^ uint64(uint32(lease)))
	return float64(h>>11)/(1<<53) < r
}

// ProbeFault implements simnet.FaultInjector for SYN probes. Only faults
// that break the handshake apply: a dropped SYN or an over-deadline SYN-ACK
// looks like an unreachable host to a masscan-style prober, a reset like a
// closed port. Response-level faults (5xx, truncation) leave the handshake
// intact.
func (p *Plan) ProbeFault(ip netip.Addr, port int) error {
	kind, ok := p.decide(ip, port)
	if !ok {
		return nil
	}
	switch kind {
	case SynTimeout, Latency:
		return simnet.ErrHostUnreachable
	case Reset:
		return simnet.ErrConnRefused
	default:
		return nil
	}
}

// DialFault implements simnet.FaultInjector for full connections.
func (p *Plan) DialFault(ip netip.Addr, port int) simnet.Fault {
	kind, ok := p.decide(ip, port)
	if !ok {
		return simnet.Fault{}
	}
	switch kind {
	case SynTimeout:
		return simnet.Fault{Err: simnet.ErrHostUnreachable}
	case Reset:
		return simnet.Fault{Err: simnet.ErrConnRefused}
	case Latency:
		return simnet.Fault{Latency: p.cfg.Latency}
	case HTTP5xx:
		return simnet.Fault{Status: 503}
	case Truncate:
		return simnet.Fault{Truncate: p.cfg.TruncateAfter}
	default:
		return simnet.Fault{}
	}
}

// Package observer implements the longevity study (RQ3, Figure 2): every
// three hours over four weeks it re-checks each host found vulnerable by
// the initial scan, classifying it as still vulnerable, fixed (reachable
// and identifiable but no longer suffering from the MAV), or offline
// (unreachable or firewalled). It also re-runs the version fingerprinter
// to count hosts that updated during the window.
package observer

import (
	"context"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"mavscan/internal/fingerprint"
	"mavscan/internal/httpsim"
	"mavscan/internal/mav"
	"mavscan/internal/resilience"
	"mavscan/internal/simnet"
	"mavscan/internal/simtime"
	"mavscan/internal/telemetry"
	"mavscan/internal/tsunami"
	"mavscan/internal/tsunami/plugins"
)

// State classifies a host at one observation tick.
type State int

// The three Figure-2 outcomes.
const (
	StateVulnerable State = iota
	StateFixed
	StateOffline
)

// String returns the Figure-2 label of the state, also used as the metric
// label value.
func (s State) String() string {
	switch s {
	case StateVulnerable:
		return "vulnerable"
	case StateFixed:
		return "fixed"
	default:
		return "offline"
	}
}

// Target is one vulnerable host under observation.
type Target struct {
	IP     netip.Addr
	Port   int
	Scheme string
	App    mav.App
	// ByDefault groups the target for Figure 2's right column.
	ByDefault bool
	// InitialVersion is the version fingerprinted by the original scan.
	InitialVersion string
}

// Sample is the aggregate classification at one tick.
type Sample struct {
	T          time.Time
	Vulnerable int
	Fixed      int
	Offline    int
}

// Total returns the number of observed hosts at the tick.
func (s Sample) Total() int { return s.Vulnerable + s.Fixed + s.Offline }

// Result accumulates the whole observation run.
type Result struct {
	Targets []Target
	// Overall is the whole-population time series; ByApp and ByDefault
	// split it the way Figure 2's two columns do.
	Overall    []Sample
	ByApp      map[mav.App][]Sample
	ByCategory map[mav.Category][]Sample
	ByDefault  map[bool][]Sample
	// Updated counts targets whose fingerprinted version changed at least
	// once during the observation window.
	Updated int
}

// FinalSample returns the last overall sample.
func (r *Result) FinalSample() Sample {
	if len(r.Overall) == 0 {
		return Sample{}
	}
	return r.Overall[len(r.Overall)-1]
}

// Observer re-scans vulnerable hosts on a simulated schedule.
type Observer struct {
	net    *simnet.Network
	engine *tsunami.Engine
	fp     *fingerprint.Fingerprinter
	clock  *simtime.Sim
	// FingerprintEvery runs the (crawl-heavy) version fingerprinter only
	// on every n-th tick; the MAV re-check still runs on every tick.
	// Default 8 (once a day at the 3-hour cadence).
	FingerprintEvery int
	// Workers parallelizes the per-tick target checks (default 16).
	Workers int
	// Resilience, when enabled, retries each probe and HTTP request under
	// the policy (backoff waits run on an immediate sleeper — simulated
	// time does not pass during a tick), and bounds every per-target check
	// with a context derived from the policy's budget so a hung host
	// cannot stall the tick. Set before Watch.
	Resilience resilience.Policy
	// OfflineAfter is how many consecutive failed ticks a target needs
	// before it is reported offline; until then it keeps its last
	// reachable classification. Default 1 — the paper's original
	// single-miss rule. Raise it when transient faults are in play: one
	// blip at the wrong moment otherwise pollutes the Figure-2 series
	// forever.
	OfflineAfter int
	retr         *resilience.Retrier
	tel          *obsTelemetry
	conns        *httpsim.Meter
}

// targetKey identifies a target under observation. Both the IP and the
// port matter: two applications on one host are distinct targets, so
// keying per-target state by bare IP would collide them.
type targetKey struct {
	ip   netip.Addr
	port int
}

// obsTelemetry carries the longevity-study handles. Per-state check
// counters accumulate the Figure-2 classification totals across ticks;
// transition counters record every state change between consecutive ticks
// of the same target; the gauges mirror the latest tick's sample.
type obsTelemetry struct {
	reg         *telemetry.Registry
	ticks       *telemetry.Counter
	tickDur     *telemetry.Histogram
	updates     *telemetry.Counter
	checks      map[State]*telemetry.Counter
	transitions map[[2]State]*telemetry.Counter
	current     map[State]*telemetry.Gauge
}

// Instrument registers the longevity-study metrics with reg (nil = off).
// Call before Watch.
func (o *Observer) Instrument(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	states := []State{StateVulnerable, StateFixed, StateOffline}
	tel := &obsTelemetry{
		reg:         reg,
		ticks:       reg.Counter("mavscan_observer_ticks_total"),
		tickDur:     reg.Histogram("mavscan_observer_tick_seconds", nil),
		updates:     reg.Counter("mavscan_observer_updates_total"),
		checks:      make(map[State]*telemetry.Counter, len(states)),
		transitions: make(map[[2]State]*telemetry.Counter, len(states)*len(states)),
		current:     make(map[State]*telemetry.Gauge, len(states)),
	}
	for _, s := range states {
		tel.checks[s] = reg.Counter(
			telemetry.Labeled("mavscan_observer_checks_total", "state", s.String()))
		tel.current[s] = reg.Gauge(
			telemetry.Labeled("mavscan_observer_current", "state", s.String()))
		for _, to := range states {
			if to == s {
				continue
			}
			tel.transitions[[2]State{s, to}] = reg.Counter(
				telemetry.Labeled("mavscan_observer_transitions_total",
					"from", s.String(), "to", to.String()))
		}
	}
	o.tel = tel
	o.conns = httpsim.NewMeter(reg)
}

// New builds an observer on the given network and clock.
func New(n *simnet.Network, clock *simtime.Sim) *Observer {
	client := httpsim.NewClient(n, httpsim.ClientOptions{
		Timeout:           10 * time.Second,
		DisableKeepAlives: true,
	})
	env := tsunami.NewEnv(client)
	return &Observer{
		net:    n,
		engine: tsunami.NewEngine(plugins.NewRegistry(), client),
		fp:     fingerprint.New(env),
		clock:  clock,
	}
}

// classify performs one check of one target. The probe retries under the
// resilience policy (a nil retrier probes once), so a transient SYN drop
// does not read as the host having gone offline.
func (o *Observer) classify(ctx context.Context, t Target) State {
	err := o.retr.Do(ctx, func(context.Context) error {
		return o.net.ProbePort(t.IP, t.Port)
	})
	if err != nil {
		return StateOffline
	}
	target := tsunami.Target{IP: t.IP, Port: t.Port, Scheme: t.Scheme, App: t.App}
	if len(o.engine.Scan(ctx, target)) > 0 {
		return StateVulnerable
	}
	return StateFixed
}

// Watch schedules an observation every interval for the given duration,
// starting one interval after the current simulated time: exactly
// duration/interval ticks, the last one landing on start+duration. The
// returned Result fills in as the simulated clock advances; it is complete
// once the clock has passed start+duration.
func (o *Observer) Watch(targets []Target, interval, duration time.Duration) *Result {
	res := &Result{
		Targets:    targets,
		ByApp:      map[mav.App][]Sample{},
		ByCategory: map[mav.Category][]Sample{},
		ByDefault:  map[bool][]Sample{},
	}
	// Per-target version/update state is keyed by (IP, port): two targets
	// sharing an address (different applications on different ports) are
	// independent and must not suppress each other's fingerprints.
	lastVersion := make(map[targetKey]string, len(targets))
	updated := make(map[targetKey]bool)
	for _, t := range targets {
		lastVersion[targetKey{t.IP, t.Port}] = t.InitialVersion
	}
	fpEvery := o.FingerprintEvery
	if fpEvery <= 0 {
		fpEvery = 8
	}
	workers := o.Workers
	if workers <= 0 {
		workers = 16
	}
	offlineAfter := o.OfflineAfter
	if offlineAfter <= 0 {
		offlineAfter = 1
	}
	if o.retr == nil && o.Resilience.Enabled() {
		// Backoff waits run on an immediate sleeper: within a tick the
		// simulated clock stands still, so the retry loop must not block a
		// real goroutine on it. The nominal delays still land in telemetry.
		o.retr = resilience.New(o.Resilience, simtime.Immediate(o.clock))
		if o.tel != nil {
			o.retr.Instrument(o.tel.reg, "observer")
		}
		o.engine.SetRetrier(o.retr)
		o.fp.SetRetrier(o.retr)
	}
	// Every target enters observation in the vulnerable state: the initial
	// scan put it on the list. Transition counters key off this baseline.
	// grace counts consecutive failed checks; a target is only reported
	// offline once grace reaches offlineAfter, and until then it keeps its
	// last reachable classification (lastGood).
	prev := make([]State, len(targets))
	lastGood := make([]State, len(targets))
	grace := make([]int, len(targets))
	for i := range prev {
		prev[i] = StateVulnerable
		lastGood[i] = StateVulnerable
	}
	start := o.clock.Now()
	tick := 0
	o.clock.EveryN(start.Add(interval), interval, int(duration/interval), func(now time.Time) {
		tick++
		runFP := tick%fpEvery == 0
		tel := o.tel
		var tickStart time.Time
		if tel != nil {
			tickStart = tel.reg.Now()
		}

		states := make([]State, len(targets))
		versions := make([]string, len(targets))
		var wg sync.WaitGroup
		idx := make(chan int, len(targets))
		for i := range targets {
			idx <- i
		}
		close(idx)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					t := targets[i]
					// Each check runs under a context derived from the
					// resilience budget, so one hung simulated host cannot
					// stall the whole tick. The check is one work unit: its
					// httpsim session lets the MAV re-check and the
					// fingerprinter share a connection, and ends with the
					// check, so churn between ticks is always observed on a
					// fresh connection.
					ctx, cancel := o.retr.Context(httpsim.WithMeter(context.Background(), o.conns))
					ctx, end := httpsim.WithSession(ctx)
					raw := o.classify(ctx, t)
					if raw == StateOffline {
						grace[i]++
						if grace[i] < offlineAfter {
							// Not yet confirmed offline: keep the last
							// reachable classification.
							states[i] = lastGood[i]
						} else {
							states[i] = StateOffline
						}
					} else {
						grace[i] = 0
						lastGood[i] = raw
						states[i] = raw
					}
					if runFP && raw != StateOffline && !updated[targetKey{t.IP, t.Port}] {
						fpRes := o.fp.Fingerprint(ctx, tsunami.Target{
							IP: t.IP, Port: t.Port, Scheme: t.Scheme, App: t.App,
						})
						versions[i] = fpRes.Version
					}
					end()
					cancel()
				}
			}()
		}
		wg.Wait()

		overall := Sample{T: now}
		perApp := map[mav.App]*Sample{}
		perCat := map[mav.Category]*Sample{}
		perDefault := map[bool]*Sample{}
		for i, t := range targets {
			bump := func(s *Sample) {
				switch states[i] {
				case StateVulnerable:
					s.Vulnerable++
				case StateFixed:
					s.Fixed++
				default:
					s.Offline++
				}
			}
			bump(&overall)
			if perApp[t.App] == nil {
				perApp[t.App] = &Sample{T: now}
			}
			bump(perApp[t.App])
			cat := mav.MustLookup(t.App).Category
			if perCat[cat] == nil {
				perCat[cat] = &Sample{T: now}
			}
			bump(perCat[cat])
			if perDefault[t.ByDefault] == nil {
				perDefault[t.ByDefault] = &Sample{T: now}
			}
			bump(perDefault[t.ByDefault])

			// Version tracking for the update count (RQ3's 2.4%).
			k := targetKey{t.IP, t.Port}
			if v := versions[i]; v != "" && !updated[k] && lastVersion[k] != "" && v != lastVersion[k] {
				updated[k] = true
				res.Updated++
				if tel != nil {
					tel.updates.Inc()
				}
			}
		}
		if tel != nil {
			tel.ticks.Inc()
			for i := range targets {
				tel.checks[states[i]].Inc()
				if states[i] != prev[i] {
					tel.transitions[[2]State{prev[i], states[i]}].Inc()
				}
			}
			tel.current[StateVulnerable].Set(int64(overall.Vulnerable))
			tel.current[StateFixed].Set(int64(overall.Fixed))
			tel.current[StateOffline].Set(int64(overall.Offline))
			tel.tickDur.ObserveDuration(tel.reg.Now().Sub(tickStart))
			// One event per tick, emitted from this single-threaded callback
			// with the tick's aggregate — under a Sim clock the stream is
			// byte-identical across same-seed runs.
			tel.reg.Event("observer.tick",
				"tick", strconv.Itoa(tick),
				"vulnerable", strconv.Itoa(overall.Vulnerable),
				"fixed", strconv.Itoa(overall.Fixed),
				"offline", strconv.Itoa(overall.Offline))
		}
		copy(prev, states)
		res.Overall = append(res.Overall, overall)
		for app, s := range perApp {
			res.ByApp[app] = append(res.ByApp[app], *s)
		}
		for cat, s := range perCat {
			res.ByCategory[cat] = append(res.ByCategory[cat], *s)
		}
		for d, s := range perDefault {
			res.ByDefault[d] = append(res.ByDefault[d], *s)
		}
	})
	return res
}

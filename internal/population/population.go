// Package population generates the simulated internet the pipeline scans.
//
// The generator encodes the published marginals of the paper's measurement
// (Table 3 per-application host and MAV counts, Table 4 geography, Figure 1
// version-age structure, Table 2 background-port noise) as a *stratified
// sample*: the large secure population is sampled at 1/HostScale, the small
// vulnerable population at 1/VulnScale (default 1, i.e. fully
// materialized). Benches multiply measured counts back by the strata scales
// when comparing against the paper.
package population

import (
	"crypto/tls"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"mavscan/internal/adversary"
	"mavscan/internal/apps"
	"mavscan/internal/geo"
	"mavscan/internal/httpsim"
	"mavscan/internal/mav"
	"mavscan/internal/simnet"
	"mavscan/internal/telemetry"
)

// ScanDate is the paper's Internet-wide scan date (June 03, 2021); version
// recency is sampled relative to it.
var ScanDate = time.Date(2021, 6, 3, 0, 0, 0, 0, time.UTC)

// appTargets holds the paper's Table 3 numbers.
type appTargets struct {
	Hosts int // "# Hosts" column
	MAVs  int // "# MAVs" column
}

// table3 reproduces Table 3 verbatim.
var table3 = map[mav.App]appTargets{
	mav.Jenkins:         {2440, 80},
	mav.GoCD:            {587, 36},
	mav.WordPress:       {1462625, 345},
	mav.Grav:            {2617, 4},
	mav.Joomla:          {50274, 16},
	mav.Drupal:          {65414, 258},
	mav.Kubernetes:      {706235, 495},
	mav.Docker:          {893, 657},
	mav.Consul:          {9447, 190},
	mav.Hadoop:          {923, 556},
	mav.Nomad:           {1231, 729},
	mav.JupyterLab:      {1369, 53},
	mav.JupyterNotebook: {9549, 313},
	mav.Zeppelin:        {1033, 82},
	mav.Polynote:        {8, 8},
	mav.Ajenti:          {1292, 0},
	mav.PhpMyAdmin:      {184968, 396},
	mav.Adminer:         {6621, 3},
}

// Table3Targets returns the paper's Table 3 row for app.
func Table3Targets(app mav.App) (hosts, mavs int) {
	t := table3[app]
	return t.Hosts, t.MAVs
}

// backgroundPorts holds Table 2's open-port counts for noise generation:
// open ports, of which HTTP responders and HTTPS responders.
var backgroundPorts = []struct {
	Port              int
	Open, HTTP, HTTPS int
}{
	{80, 56_800_000, 51_300_000, 0},
	{443, 50_100_000, 0, 35_900_000},
	{2375, 120_000, 11_000, 2_000},
	{4646, 180_000, 24_000, 4_000},
	{6443, 553_000, 304_000, 322_000},
	{8000, 5_500_000, 1_600_000, 293_000},
	{8080, 9_000_000, 7_600_000, 667_000},
	{8088, 2_600_000, 857_000, 943_000},
	{8153, 291_000, 171_000, 3_000},
	{8192, 331_000, 175_000, 7_000},
	{8500, 384_000, 62_000, 107_000},
	{8888, 2_400_000, 1_800_000, 192_000},
}

// Config tunes the generator.
type Config struct {
	// Seed makes the world reproducible.
	Seed int64
	// HostScale divides the secure host counts of Table 3 (default 400).
	HostScale int
	// VulnScale divides the MAV counts of Table 3 (default 1: the full
	// vulnerable population is materialized).
	VulnScale int
	// BackgroundScale divides Table 2's open-port counts for noise hosts
	// (default 20000). Zero uses the default; negative disables noise.
	BackgroundScale int
	// WildcardScale divides the paper's 3.0M all-ports-open artifact hosts
	// (default 20000). Negative disables them.
	WildcardScale int
	// PopScale multiplies every population target (default 1): the Table-3,
	// Table-2 and wildcard numerators all grow PopScale-fold and the
	// address plan widens to match (geo.Scaled), so PopScale 1000 simulates
	// an internet three orders of magnitude beyond the paper's. Values
	// above 2^geo.MaxScaleBits exceed the address plan and fail Generate.
	PopScale int
	// Lazy derives hosts on first probe instead of materializing the world
	// up front: world setup is O(strata) and memory is bounded by
	// CacheHosts, which is what makes PopScale ≫ 1 feasible. Same seed,
	// same hosts — the lazy and eager worlds are the same pure function of
	// (Seed, address).
	Lazy bool
	// CacheHosts bounds the lazy world's resident host count (default
	// 131072). Ignored when Lazy is false.
	CacheHosts int
	// HostileRate is the fraction of the total population made of
	// weaponized responders (internal/adversary archetypes): 0 disables
	// them (the default — and the benign strata are then byte-identical to
	// a hostile-seeded world at the same seed, because the hostile stratum
	// is appended after every benign one). Must be in [0, 1).
	HostileRate float64
	// Clock stamps command executions on the emulated instances.
	Clock apps.Clock
	// Exec receives executed commands (used when honeypots reuse the
	// generator); may be nil.
	Exec apps.ExecSink
}

func (c *Config) fill() {
	if c.HostScale <= 0 {
		c.HostScale = 400
	}
	if c.VulnScale <= 0 {
		c.VulnScale = 1
	}
	if c.BackgroundScale == 0 {
		c.BackgroundScale = 20000
	}
	if c.WildcardScale == 0 {
		c.WildcardScale = 20000
	}
	if c.PopScale <= 0 {
		c.PopScale = 1
	}
	if c.CacheHosts <= 0 {
		c.CacheHosts = 131072
	}
}

// HostSpec is the ground truth for one generated host.
type HostSpec struct {
	IP       netip.Addr
	App      mav.App // empty for background hosts
	Port     int
	TLS      bool
	Domain   string // certificate subject for TLS hosts
	Version  string
	Instance *apps.Instance
	// Vulnerable is the generated ground truth.
	Vulnerable bool
	// ByDefault is true when the vulnerability comes from shipping
	// defaults, false when the owner explicitly misconfigured it.
	ByDefault bool
}

// World is a generated simulated internet plus its ground truth.
//
// In eager mode (the historical behavior) every host exists up front and
// Specs holds the full app-host ground truth. In lazy mode (Config.Lazy)
// the world is the pure function layout.build of (Seed, address): hosts
// materialize on first probe into a bounded cache, Specs stays empty, and
// SpecFor/VulnerableSpecs derive ground truth on demand — identically to
// what the eager walk would have produced, because both modes call the
// same derivation with the same per-address RNG seed.
type World struct {
	Net *simnet.Network
	Geo *geo.DB
	CA  *httpsim.CA
	// Specs is the eager app-host ground truth, in generation order. Empty
	// in lazy mode — use SpecFor and VulnerableSpecs, which work in both.
	Specs []HostSpec
	// Background counts generated noise hosts; Wildcard the artifact
	// hosts; Hostile the weaponized responders.
	Background int
	Wildcard   int
	Hostile    int

	cfg    Config
	layout *layout
	byIP   map[netip.Addr]*HostSpec
	// weights holds the per-app inverse sampling fractions of the two
	// strata (Horvitz-Thompson design weights): how many real-population
	// hosts each generated host represents.
	weights map[mav.App]strataWeights

	// Lazy-mode state: the bounded materialization cache and the memoized
	// pinned vulnerable set.
	cache     *hostCache
	vulnOnce  sync.Once
	vulnSpecs []*HostSpec
	vulnErr   error
}

type strataWeights struct {
	secure float64
	vuln   float64
}

// Weights returns the design weights for app: how many full-population
// hosts one generated secure (respectively vulnerable) host stands for.
// Benches use them to undo the stratified sampling when comparing against
// the paper's absolute numbers.
func (w *World) Weights(app mav.App) (secure, vuln float64) {
	sw := w.weights[app]
	return sw.secure, sw.vuln
}

// HostScale returns the secure-population sampling divisor.
func (w *World) HostScale() int { return w.cfg.HostScale }

// VulnScale returns the vulnerable-population sampling divisor.
func (w *World) VulnScale() int { return w.cfg.VulnScale }

// SpecFor returns the ground truth for ip. In lazy mode it materializes
// the host on demand (and caches it), so callers can ask about any address
// without a prior probe. An IPv4-mapped IPv6 address names the same host
// as its IPv4 form, as it does on the network.
func (w *World) SpecFor(ip netip.Addr) (*HostSpec, bool) {
	ip = ip.Unmap()
	if w.cfg.Lazy {
		e := w.materialize(ip, false)
		if e == nil || e.spec == nil {
			return nil, false
		}
		return e.spec, true
	}
	s, ok := w.byIP[ip]
	return s, ok
}

// VulnerableSpecs returns the specs generated vulnerable, in generation
// order. In lazy mode the vulnerable strata are materialized (once) and
// pinned in the cache: churn mutates these hosts in place, so they must
// survive eviction. The vulnerable population is tiny relative to the
// world — it is the part the paper's follow-up experiments track
// individually — so pinning it does not breach the memory budget in any
// interesting way.
func (w *World) VulnerableSpecs() []*HostSpec {
	if !w.cfg.Lazy {
		var out []*HostSpec
		for i := range w.Specs {
			if w.Specs[i].Vulnerable {
				out = append(out, &w.Specs[i])
			}
		}
		return out
	}
	w.vulnOnce.Do(func() {
		l := w.layout
		for s := range l.strata {
			st := &l.strata[s]
			if st.kind != kindApp || !st.vulnerable {
				continue
			}
			for idx := uint64(0); idx < st.count; idx++ {
				e := w.materialize(l.addrOf(s, idx), true)
				if e == nil {
					continue
				}
				w.vulnSpecs = append(w.vulnSpecs, e.spec)
			}
		}
	})
	return w.vulnSpecs
}

// TotalHosts returns the number of live addresses in the world, whether or
// not they are materialized: app hosts + background noise + wildcard
// artifacts.
func (w *World) TotalHosts() uint64 {
	if w.layout != nil {
		return w.layout.appHosts + w.layout.background + w.layout.wildcard + w.layout.hostile
	}
	return uint64(w.Net.NumHosts())
}

// HostileHost is the ground truth for one weaponized responder.
type HostileHost struct {
	IP        netip.Addr
	Port      int
	Archetype adversary.Archetype
}

// HostileHosts derives the ground truth of every hostile host without
// materializing any of them: each entry replays the same per-host RNG draw
// build performs, so it matches what a probe of that address meets. The
// slice is in stratum order; empty when HostileRate is 0.
func (w *World) HostileHosts() []HostileHost {
	l := w.layout
	if l == nil || l.hostile == 0 {
		return nil
	}
	out := make([]HostileHost, 0, l.hostile)
	for s := range l.strata {
		st := &l.strata[s]
		if st.kind != kindHostile {
			continue
		}
		for idx := uint64(0); idx < st.count; idx++ {
			ip := l.addrOf(s, idx)
			rng := rand.New(rand.NewSource(hostSeed(w.cfg.Seed, ipKey(ip))))
			arch, port := l.hostileDraw(rng)
			out = append(out, HostileHost{IP: ip, Port: port, Archetype: arch})
		}
	}
	return out
}

// MaterializedHosts returns how many hosts currently exist in memory: the
// cache population in lazy mode, the full network otherwise.
func (w *World) MaterializedHosts() int {
	if w.cfg.Lazy {
		return w.cache.len()
	}
	return w.Net.NumHosts()
}

// Instrument registers the world's occupancy gauge
// (mavscan_population_resident_hosts) on reg. In lazy mode the gauge
// tracks the materialization cache live — every insert, eviction and drop
// moves it — which is what makes memory pressure visible on the
// operations plane during a lazy scan; in eager mode it is set once to
// the (static) full host count. A nil registry no-ops.
func (w *World) Instrument(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	g := reg.Gauge("mavscan_population_resident_hosts")
	g.Set(int64(w.MaterializedHosts()))
	if w.cfg.Lazy {
		w.cache.gauge = g
	}
}

// materialize derives the host at ip if the layout places one there,
// returning the cached entry (nil for empty addresses). The network
// accepts IPv4-mapped addresses, so the host is located, keyed and built
// by its IPv4 form: the mapped and plain forms reach the same host, as in
// an eager world.
func (w *World) materialize(ip netip.Addr, pin bool) *cacheEntry {
	ip = ip.Unmap()
	s, idx, ok := w.layout.locate(ip)
	if !ok {
		return nil
	}
	e, err := w.cache.getOrCreate(ipKey(ip), func() (*simnet.Host, *HostSpec, error) {
		return w.layout.build(s, idx, ip)
	}, pin)
	if err != nil {
		// build can only fail on an internally inconsistent app catalog
		// (a version the emulator cannot realize in the requested state).
		// The eager generator surfaces the same error from Generate; the
		// lazy world has no error channel on the probe path, and silently
		// dropping the host would make lazy and eager worlds diverge — so
		// this is a programming error worth stopping for.
		panic(fmt.Sprintf("population: lazy materialization of %s failed: %v", ip, err))
	}
	return e
}

// lazyResolver adapts the world's materialization to simnet's page-table
// miss path.
type lazyResolver struct{ w *World }

func (r *lazyResolver) Resolve(ip netip.Addr) *simnet.Host {
	e := r.w.materialize(ip, false)
	if e == nil {
		return nil
	}
	return e.host
}

// placement weights for vulnerable hosts, shaped after Table 4: the listed
// providers carry the published counts; the remainder spreads across
// residential and smaller networks (~36% non-hosting overall).
type placeWeight struct {
	asn     string
	country string
	weight  int
}

var vulnPlacement = []placeWeight{
	{"AS16509", "United States", 913},
	{"AS37963", "China", 542},
	{"AS14618", "United States", 329},
	{"AS14061", "United States", 150},
	{"AS14061", "Singapore", 94},
	{"AS396982", "United States", 221},
	{"AS24940", "Germany", 172},
	{"AS16276", "France", 96},
	{"AS4134", "China", 458},
	{"AS7922", "United States", 300},
	{"AS7018", "United States", 191},
	{"AS49505", "Russia", 180},
	{"AS211252", "Netherlands", 120},
	{"AS268624", "Brazil", 110},
	{"AS20473", "United Kingdom", 90},
	{"AS12824", "Poland", 80},
	{"AS9829", "India", 75},
	{"AS51395", "Switzerland", 60},
	{"AS200019", "Moldova", 40},
}

// sampleVersion draws a release for a host following the paper's RQ2
// age structure: ~65% of deployments within six months of the scan, ~25%
// from the previous year, ~10% older. For vulnerable hosts of products
// whose defaults changed over time, 80% run pre-cutover (insecure-default)
// releases and 20% are explicitly misconfigured recent ones — Figure 1's
// Jupyter Notebook pattern. Products that never changed their insecure
// defaults keep the plain recency distribution, reproducing Hadoop's
// evenly-spread vulnerable versions.
func sampleVersion(rng *rand.Rand, app mav.App, vulnerable bool) string {
	tl := apps.Timeline(app)
	info := mav.MustLookup(app)
	if vulnerable && info.Default == mav.ChangedOverTime && rng.Float64() < 0.8 {
		// Pre-cutover releases only.
		var old []apps.Release
		for _, rel := range tl {
			if apps.InsecureDefault(app, rel.Version) {
				old = append(old, rel)
			}
		}
		if len(old) > 0 {
			return old[rng.Intn(len(old))].Version
		}
	}
	// Per-category recency mix (RQ2): CMSes are the freshest (WordPress
	// auto-updates; median May 2021), CI and CM follow (median January
	// 2021), notebooks run much older code (median January 2020) and
	// control panels are the most outdated (median September 2019).
	recent, mid := 0.65, 0.25
	switch info.Category {
	case mav.CMS:
		recent, mid = 0.80, 0.15
	case mav.CI, mav.CM:
		recent, mid = 0.70, 0.22
	case mav.NB:
		recent, mid = 0.40, 0.35
	case mav.CP:
		recent, mid = 0.25, 0.35
	}
	r := rng.Float64()
	var pool []apps.Release
	switch {
	case r < recent:
		pool = releasesBetween(tl, ScanDate.AddDate(0, -6, 0), ScanDate)
	case r < recent+mid:
		pool = releasesBetween(tl, ScanDate.AddDate(0, -18, 0), ScanDate.AddDate(0, -6, 0))
	default:
		pool = releasesBetween(tl, time.Time{}, ScanDate.AddDate(0, -18, 0))
	}
	if len(pool) == 0 {
		pool = tl
	}
	return pool[rng.Intn(len(pool))].Version
}

func releasesBetween(tl []apps.Release, from, to time.Time) []apps.Release {
	var out []apps.Release
	for _, rel := range tl {
		if (from.IsZero() || !rel.Date.Before(from)) && rel.Date.Before(to) {
			out = append(out, rel)
		}
	}
	return out
}

// instanceConfig derives the emulator configuration realizing the chosen
// ground truth (vulnerable or secure) for an application at a version.
func instanceConfig(rng *rand.Rand, app mav.App, version string, vulnerable bool, cfg Config) (apps.Config, bool) {
	c := apps.Config{App: app, Version: version, Clock: cfg.Clock, Exec: cfg.Exec, Options: map[string]bool{}}
	byDefault := apps.InsecureDefault(app, version)
	switch app {
	case mav.WordPress, mav.Grav, mav.Joomla, mav.Drupal:
		c.Installed = !vulnerable
		c.AuthRequired = true
	case mav.Consul:
		if vulnerable {
			// Script checks are never on by default.
			if rng.Intn(2) == 0 {
				c.Options["enableScriptChecks"] = true
			} else {
				c.Options["enableRemoteScriptChecks"] = true
			}
		}
		byDefault = false
	case mav.Ajenti:
		c.Options["autologin"] = vulnerable
		byDefault = false
	case mav.PhpMyAdmin:
		c.Options["allowNoPassword"] = vulnerable
		byDefault = false
	case mav.Adminer:
		c.Options["emptyDBPassword"] = vulnerable
		byDefault = byDefault && vulnerable
	default:
		c.AuthRequired = !vulnerable
		byDefault = byDefault && vulnerable
	}
	return c, byDefault
}

// tlsLikelihood returns the probability that a deployment of app serves
// TLS on its admin port, loosely shaped after Table 2's per-port protocol
// ratios.
func tlsLikelihood(app mav.App, port int) float64 {
	switch {
	case app == mav.Kubernetes:
		return 1.0 // kube-apiserver is always TLS
	case port == 443:
		return 1.0
	case port == 80:
		return 0.0
	case app == mav.Consul:
		return 0.5
	default:
		return 0.1
	}
}

// Generate builds the world. Setup work is O(strata): the layout — stratum
// counts, per-allocation quotas, and the address permutations — is all the
// state either mode needs. Eager mode then walks every (stratum, index)
// pair through the same layout.build the lazy resolver uses, so the two
// modes are observationally identical for a given seed; lazy mode instead
// installs a simnet.Resolver and returns immediately, deferring every host
// to its first probe.
func Generate(cfg Config) (*World, error) {
	cfg.fill()
	if cfg.HostileRate < 0 || cfg.HostileRate >= 1 {
		return nil, fmt.Errorf("population: HostileRate %v out of range [0, 1)", cfg.HostileRate)
	}
	db, err := scaledGeo(cfg.PopScale)
	if err != nil {
		return nil, err
	}
	ca, err := httpsim.NewCA()
	if err != nil {
		return nil, err
	}
	l, err := newLayout(cfg, db, ca)
	if err != nil {
		return nil, err
	}
	w := &World{
		Net:        simnet.New(),
		Geo:        db,
		CA:         ca,
		cfg:        cfg,
		layout:     l,
		weights:    l.weights,
		Background: int(l.background),
		Wildcard:   int(l.wildcard),
		Hostile:    int(l.hostile),
	}
	if cfg.Lazy {
		w.cache = newHostCache(cfg.CacheHosts)
		w.Net.SetResolver(&lazyResolver{w: w})
		return w, nil
	}
	// Eager walk. Specs is preallocated to its exact final size so the
	// byIP pointers into it stay valid as it fills.
	w.Specs = make([]HostSpec, 0, l.appHosts)
	w.byIP = make(map[netip.Addr]*HostSpec, l.appHosts)
	for s := range l.strata {
		st := &l.strata[s]
		for idx := uint64(0); idx < st.count; idx++ {
			ip := l.addrOf(s, idx)
			host, spec, err := l.build(s, idx, ip)
			if err != nil {
				return nil, err
			}
			if err := w.Net.AddHost(host); err != nil {
				return nil, err
			}
			if spec != nil {
				w.Specs = append(w.Specs, *spec)
				w.byIP[ip] = &w.Specs[len(w.Specs)-1]
			}
		}
	}
	return w, nil
}

// httpsimPlain and httpsimTLS are small indirection helpers so churn can
// rebind upgraded instances.
func httpsimPlain(inst *apps.Instance) simnet.ConnHandler {
	return httpsim.ConnHandler(inst.Handler())
}

func httpsimTLS(inst *apps.Instance, cert tls.Certificate) simnet.ConnHandler {
	return httpsim.TLSConnHandler(inst.Handler(), cert)
}

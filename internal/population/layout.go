package population

import (
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"sort"
	"sync"

	"mavscan/internal/adversary"
	"mavscan/internal/apps"
	"mavscan/internal/geo"
	"mavscan/internal/httpsim"
	"mavscan/internal/iprange"
	"mavscan/internal/mav"
	"mavscan/internal/portscan"
	"mavscan/internal/simnet"
)

// The layout is the heart of the lazy generator: it makes the simulated
// world a pure function of (cfg.Seed, address) instead of a data structure.
//
// The population is organized as an ordered list of *strata* — for each
// in-scope application a vulnerable and a secure stratum, then one
// background-noise stratum per Table-2 port, then the wildcard-artifact
// stratum. Each stratum's host count follows from Table 3 / Table 2 and the
// sampling divisors alone, and is apportioned across the geo allocations by
// largest-remainder rounding of fixed weights (the Table-4 placement
// weights for vulnerable strata, uniform for everything else). Inside one
// allocation the occupied slots [0, occupied) are scattered over the
// allocation's address block by a seeded BlackRock permutation.
//
// Both directions are O(log strata) arithmetic:
//
//	addrOf(stratum, i):  quota cumsums → (allocation, slot) → Forward(perm)
//	locate(address):     allocation table → InverseBelow(perm) → slot cumsums
//
// so world setup is O(strata), independent of the population size, and any
// probed address classifies as app host / background / wildcard / empty
// without enumerating anything. locate runs once per Stage-I probe and
// almost every probe misses, so its empty answer is kept to plain
// arithmetic: the allocation comes from a direct-indexed table, and the
// inverse permutation stops a round early for nearly every unoccupied
// address (see portscan.Permutation.InverseBelow). Per-host attributes
// (version, port, TLS, instance options) are drawn from a rand.Rand seeded
// with a splitmix64 hash of (cfg.Seed, address), so the eager walk and the
// lazy miss path derive byte-identical hosts.

type stratumKind uint8

const (
	kindApp stratumKind = iota
	kindBackground
	kindWildcard
	kindHostile
)

// stratum is one homogeneous slice of the population.
type stratum struct {
	kind stratumKind
	// kindApp fields.
	info       mav.Info
	vulnerable bool
	// ordBase is the global app-host ordinal of this stratum's first host;
	// TLS hosts derive their certificate domain from it, reproducing the
	// eager generator's generation-order naming.
	ordBase uint64
	// kindBackground fields: the port and the protocol thresholds at this
	// world's scale (r < httpN → HTTP, r < httpN+httpsN → HTTPS, else a
	// non-HTTP TCP service).
	port          int
	httpN, httpsN int

	count uint64
	// quotas spans this stratum's index space [0, count) across the geo
	// allocations.
	quotas iprange.Buckets
}

// allocLayout is the per-allocation view: which span of the allocation's
// occupied slots belongs to which stratum, and the permutation scattering
// slots over the address block.
type allocLayout struct {
	start uint32 // first address of the allocation, host byte order
	size  uint64 // number of addresses
	// slots spans the occupied slot space [0, occupied) by stratum index.
	slots iprange.Buckets
	perm  portscan.Permutation
}

type layout struct {
	cfg    Config
	db     *geo.DB
	ca     *httpsim.CA
	strata []stratum
	allocs []allocLayout
	// allocAt is the allocation table locate reads: the address span from
	// tableBase up to the end of the last allocation, cut into granules of
	// 2^granShift addresses, each entry the index of the allocation holding
	// that granule or -1. Every allocation start and size is a multiple of
	// the granule, so the entry is exact for every address in it.
	allocAt   []int32
	tableBase uint32
	granShift uint
	// kinds caches the background handler palette (stable order).
	kinds []apps.BackgroundKind
	// ports caches the scan-port palette hostile hosts draw from.
	ports   []int
	weights map[mav.App]strataWeights

	appHosts   uint64 // total application hosts (vulnerable + secure)
	background uint64
	wildcard   uint64
	hostile    uint64
}

// splitmix64 is the standard finalizing mixer (the same one the BlackRock
// round keys use); per-host seeds are splitmix64 hashes of (Seed, address).
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hostSeed derives the per-host RNG seed from the world seed and the
// address, the "(seed, address) → host" half of the lazy contract.
func hostSeed(seed int64, key uint32) int64 {
	z := splitmix64(uint64(seed) ^ 0x9e3779b97f4a7c15)
	return int64(splitmix64(z ^ uint64(key)))
}

// ipKey flattens an IPv4 address into its big-endian word.
func ipKey(ip netip.Addr) uint32 {
	b := ip.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func keyAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// roundHalfUp divides n by d rounding half up, so small strata land on the
// nearest integer of their Table-3 share instead of truncating toward zero.
func roundHalfUp(n, d int) int { return (n + d/2) / d }

// apportion splits count across len(weights) buckets proportionally, by
// largest-remainder rounding (floor everything, then hand the leftovers to
// the largest fractional remainders, ties to the lower index). The result
// is exact — it sums to count — and deterministic.
func apportion(count uint64, weights []float64) []uint64 {
	out := make([]uint64, len(weights))
	var total float64
	for _, w := range weights {
		total += w
	}
	if count == 0 || total <= 0 {
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(weights))
	var assigned uint64
	for i, w := range weights {
		exact := float64(count) * w / total
		fl := uint64(exact)
		out[i] = fl
		assigned += fl
		rems[i] = rem{idx: i, frac: exact - float64(fl)}
	}
	sort.SliceStable(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for i := uint64(0); i < count-assigned; i++ {
		out[rems[i%uint64(len(rems))].idx]++
	}
	return out
}

// scaledGeo widens the default address plan to the next power of two at or
// above popScale, so host density never exceeds the 1× plan's.
func scaledGeo(popScale int) (*geo.DB, error) {
	bits := 0
	for 1<<bits < popScale {
		bits++
	}
	return geo.Scaled(bits)
}

// newLayout precomputes the stratum table and the per-allocation quota and
// slot cumsums — O(strata × allocations) work and memory, independent of
// the population size.
func newLayout(cfg Config, db *geo.DB, ca *httpsim.CA) (*layout, error) {
	l := &layout{
		cfg:     cfg,
		db:      db,
		ca:      ca,
		kinds:   apps.BackgroundKinds(),
		ports:   mav.ScanPorts(),
		weights: make(map[mav.App]strataWeights),
	}
	allocs := db.Allocations()

	// Table-4 placement weights, resolved to allocation indices the same
	// way the eager generator resolved them (first matching allocation).
	vulnW := make([]float64, len(allocs))
	for _, pw := range vulnPlacement {
		for i := range allocs {
			if allocs[i].Record.ASN == pw.asn && allocs[i].Record.Country == pw.country {
				vulnW[i] += float64(pw.weight)
				break
			}
		}
	}
	uniformW := make([]float64, len(allocs))
	for i := range uniformW {
		uniformW[i] = 1
	}

	scale := cfg.PopScale
	for _, info := range mav.InScopeApps() {
		targets := table3[info.App]
		nVuln := roundHalfUp(targets.MAVs*scale, cfg.VulnScale)
		if targets.MAVs > 0 && nVuln == 0 {
			nVuln = 1 // keep rare strata (Polynote, Adminer) represented
		}
		nSecure := roundHalfUp((targets.Hosts-targets.MAVs)*scale, cfg.HostScale)
		if nSecure == 0 && targets.Hosts > targets.MAVs {
			nSecure = 1
		}
		// Design weights invert the sampling back to the paper's absolute
		// numbers regardless of PopScale.
		sw := strataWeights{}
		if nSecure > 0 {
			sw.secure = float64(targets.Hosts-targets.MAVs) / float64(nSecure)
		}
		if nVuln > 0 {
			sw.vuln = float64(targets.MAVs) / float64(nVuln)
		}
		l.weights[info.App] = sw
		l.strata = append(l.strata,
			stratum{kind: kindApp, info: info, vulnerable: true, ordBase: l.appHosts, count: uint64(nVuln)})
		l.appHosts += uint64(nVuln)
		l.strata = append(l.strata,
			stratum{kind: kindApp, info: info, vulnerable: false, ordBase: l.appHosts, count: uint64(nSecure)})
		l.appHosts += uint64(nSecure)
	}
	if cfg.BackgroundScale > 0 {
		for _, bp := range backgroundPorts {
			n := bp.Open * scale / cfg.BackgroundScale
			l.strata = append(l.strata, stratum{
				kind:   kindBackground,
				port:   bp.Port,
				httpN:  bp.HTTP * scale / cfg.BackgroundScale,
				httpsN: bp.HTTPS * scale / cfg.BackgroundScale,
				count:  uint64(n),
			})
			l.background += uint64(n)
		}
	}
	if cfg.WildcardScale > 0 {
		n := uint64(3_000_000 * scale / cfg.WildcardScale)
		l.strata = append(l.strata, stratum{kind: kindWildcard, count: n})
		l.wildcard += n
	}
	if cfg.HostileRate > 0 {
		// The hostile stratum sizes itself so hostile hosts make up
		// HostileRate of the total population, and it is appended strictly
		// LAST: every benign stratum keeps its slot starts and its
		// per-allocation permutation draws, so the benign world at a given
		// seed is byte-identical whether or not adversaries are seeded.
		benign := l.appHosts + l.background + l.wildcard
		n := uint64(cfg.HostileRate/(1-cfg.HostileRate)*float64(benign) + 0.5)
		if n > 0 {
			l.strata = append(l.strata, stratum{kind: kindHostile, count: n})
			l.hostile = n
		}
	}

	for s := range l.strata {
		st := &l.strata[s]
		w := uniformW
		if st.kind == kindApp && st.vulnerable {
			w = vulnW
		}
		st.quotas = iprange.NewBuckets(apportion(st.count, w))
	}
	for p := range allocs {
		prefix := allocs[p].Prefix
		size := uint64(1) << (32 - prefix.Bits())
		sizes := make([]uint64, len(l.strata))
		for s := range l.strata {
			sizes[s] = l.strata[s].quotas.Size(p)
		}
		slots := iprange.NewBuckets(sizes)
		if slots.Total() > size {
			return nil, fmt.Errorf("population: allocation %s holds %d addresses but needs %d hosts; raise the scale divisors or PopScale",
				prefix, size, slots.Total())
		}
		l.allocs = append(l.allocs, allocLayout{
			start: ipKey(prefix.Addr()),
			size:  size,
			slots: slots,
			perm:  portscan.NewPermutation(size, splitmix64(uint64(cfg.Seed)+0x9e3779b97f4a7c15*uint64(p+1))),
		})
	}
	if err := l.buildAllocTable(); err != nil {
		return nil, err
	}
	return l, nil
}

// maxAllocTable bounds the allocation table. Every plan Generate builds
// (geo.Default and geo.Scaled) needs one entry per allocation; only a
// plan of tiny allocations scattered far apart could need more.
const maxAllocTable = 1 << 16

// buildAllocTable fills allocAt. The granule is the largest power of two
// dividing every allocation start and size — the smallest allocation, for
// the aligned plans geo builds. Each entry answers, for its granule, the
// question an allocation search would: the last allocation starting at or
// before the address, if the address is inside it.
func (l *layout) buildAllocTable() error {
	if len(l.allocs) == 0 {
		return nil
	}
	l.granShift = 32
	var end uint64
	for _, a := range l.allocs {
		l.granShift = min(l.granShift, uint(bits.TrailingZeros64(a.size)), uint(bits.TrailingZeros32(a.start)))
		end = max(end, uint64(a.start)+a.size)
	}
	l.tableBase = l.allocs[0].start
	n := (end - uint64(l.tableBase)) >> l.granShift
	if n > maxAllocTable {
		return fmt.Errorf("population: address plan spans %d granules of %d addresses; at most %d are supported",
			n, uint64(1)<<l.granShift, maxAllocTable)
	}
	l.allocAt = make([]int32, n)
	p := 0
	for g := range l.allocAt {
		v := uint64(l.tableBase) + uint64(g)<<l.granShift
		for p+1 < len(l.allocs) && uint64(l.allocs[p+1].start) <= v {
			p++
		}
		l.allocAt[g] = -1
		if v-uint64(l.allocs[p].start) < l.allocs[p].size {
			l.allocAt[g] = int32(p)
		}
	}
	return nil
}

// allocFor returns the index of the allocation holding address v.
func (l *layout) allocFor(v uint32) (int, bool) {
	// An address below tableBase wraps to at least the table's span, so
	// one unsigned compare rejects both sides of the plan.
	g := uint64(v-l.tableBase) >> l.granShift
	if g >= uint64(len(l.allocAt)) || l.allocAt[g] < 0 {
		return 0, false
	}
	return int(l.allocAt[g]), true
}

// addrOf returns the address of host (stratum s, index idx), idx in
// [0, strata[s].count).
func (l *layout) addrOf(s int, idx uint64) netip.Addr {
	p, off := l.strata[s].quotas.Find(idx)
	a := &l.allocs[p]
	j := a.slots.Start(s) + off
	return keyAddr(a.start + uint32(a.perm.Forward(j)))
}

// locate is the inverse of addrOf: it classifies an arbitrary address as
// belonging to (stratum, index) or empty, with no locks, no allocation and
// no per-host memory — the occupancy index of the lazy world. An empty
// address costs one table load and three or four Feistel rounds.
func (l *layout) locate(ip netip.Addr) (s int, idx uint64, ok bool) {
	if !ip.Is4() {
		return 0, 0, false
	}
	v := ipKey(ip)
	p, ok := l.allocFor(v)
	if !ok {
		return 0, 0, false
	}
	a := &l.allocs[p]
	j, ok := a.perm.InverseBelow(uint64(v-a.start), a.slots.Total())
	if !ok {
		return 0, 0, false // inside the allocation but unoccupied
	}
	s, local := a.slots.Find(j)
	return s, l.strata[s].quotas.Start(p) + local, true
}

// lazyTLSHandler defers certificate minting to the first accepted
// connection, so Stage-I materialization never pays an ECDSA keygen. The
// CA's leaf cache keys on the names, which makes the certificate stable
// across host eviction and re-materialization.
func lazyTLSHandler(ca *httpsim.CA, h http.Handler, names ...string) simnet.ConnHandler {
	var once sync.Once
	var inner simnet.ConnHandler
	return func(c net.Conn) {
		once.Do(func() {
			cert, err := ca.CertFor(names...)
			if err != nil {
				return
			}
			inner = httpsim.TLSConnHandler(h, cert)
		})
		if inner == nil {
			c.Close()
			return
		}
		inner(c)
	}
}

// closeHandler models an open TCP service that speaks no HTTP (SSH banners
// and the like): accept, hang up.
func closeHandler(c net.Conn) { c.Close() }

// hostileDraw picks a hostile host's archetype and listening port from its
// per-host RNG. It is factored out so build and World.HostileHosts consume
// the draw in the same order and derive the same ground truth.
func (l *layout) hostileDraw(rng *rand.Rand) (adversary.Archetype, int) {
	arch := adversary.Archetype(rng.Intn(int(adversary.NumArchetypes)))
	port := l.ports[rng.Intn(len(l.ports))]
	return arch, port
}

// build derives the host (and, for app strata, the ground-truth spec) at
// (stratum s, index idx, address ip). It is the pure function both world
// modes share: the eager walk calls it for every (s, idx) in order, the
// lazy resolver calls it on first probe — with identical results, because
// every random attribute comes from the (Seed, address)-keyed RNG.
func (l *layout) build(s int, idx uint64, ip netip.Addr) (*simnet.Host, *HostSpec, error) {
	st := &l.strata[s]
	rng := rand.New(rand.NewSource(hostSeed(l.cfg.Seed, ipKey(ip))))
	host := simnet.NewHost(ip)
	switch st.kind {
	case kindWildcard:
		host.SetWildcardOpen(true)
		return host, nil, nil
	case kindHostile:
		arch, port := l.hostileDraw(rng)
		host.Bind(port, adversary.Handler(arch, ip, port, nil))
		return host, nil, nil
	case kindBackground:
		// Protocol per Table 2's response ratios at this stratum's scale;
		// the handler palette draw mirrors the eager generator's.
		r := rng.Intn(int(st.count))
		handler := apps.Background(l.kinds[rng.Intn(len(l.kinds))])
		switch {
		case r < st.httpN:
			host.Bind(st.port, httpsim.ConnHandler(handler))
		case r < st.httpN+st.httpsN:
			host.Bind(st.port, lazyTLSHandler(l.ca, handler, ip.String()))
		default:
			host.Bind(st.port, closeHandler)
		}
		return host, nil, nil
	}

	info := st.info
	vulnerable := st.vulnerable
	version := sampleVersion(rng, info.App, vulnerable)
	// Adminer's MAV needs a pre-4.6.3 release (empty passwords are refused
	// outright after that), and Joomla's install hijack is defeated by the
	// 3.7.4 ownership check — vulnerable hosts must run older releases.
	if vulnerable && (info.App == mav.Adminer || info.App == mav.Joomla) && !apps.InsecureDefault(info.App, version) {
		tl := apps.Timeline(info.App)
		for i := len(tl) - 1; i >= 0; i-- {
			if apps.InsecureDefault(info.App, tl[i].Version) {
				version = tl[i].Version
				break
			}
		}
	}
	instCfg, byDefault := instanceConfig(rng, info.App, version, vulnerable, l.cfg)
	inst, err := apps.New(instCfg)
	if err != nil {
		return nil, nil, err
	}
	if inst.Vulnerable() != vulnerable {
		return nil, nil, fmt.Errorf("population: %s@%s generated state mismatch (want vulnerable=%v)", info.App, version, vulnerable)
	}
	port := info.Ports[rng.Intn(len(info.Ports))]
	useTLS := rng.Float64() < tlsLikelihood(info.App, port)
	if port == 443 {
		useTLS = true
	}
	spec := &HostSpec{
		IP: ip, App: info.App, Port: port, TLS: useTLS,
		Version: version, Instance: inst,
		Vulnerable: vulnerable, ByDefault: byDefault,
	}
	if useTLS {
		// Each deployment owns its own registrable domain so the
		// disclosure workflow derives distinct security@ contacts. The
		// ordinal is the host's global generation-order index.
		spec.Domain = fmt.Sprintf("www.host-%04d.org", st.ordBase+idx)
		host.Bind(port, lazyTLSHandler(l.ca, inst.Handler(), spec.Domain, ip.String()))
	} else {
		host.Bind(port, httpsim.ConnHandler(inst.Handler()))
	}
	return host, spec, nil
}

package population

import (
	"context"
	"errors"
	"net/netip"
	"sort"
	"testing"

	"mavscan/internal/simnet"
)

// refLocate is the straightforward occupancy index locate replaces: a
// binary search for the allocation and the full inverse permutation. It
// is kept as the reference locate must match on every address.
func refLocate(l *layout, ip netip.Addr) (s int, idx uint64, ok bool) {
	if !ip.Is4() {
		return 0, 0, false
	}
	p, ok := refAllocFor(l, ipKey(ip))
	if !ok {
		return 0, 0, false
	}
	a := &l.allocs[p]
	j := a.perm.Inverse(uint64(ipKey(ip) - a.start))
	if j >= a.slots.Total() {
		return 0, 0, false
	}
	s, local := a.slots.Find(j)
	return s, l.strata[s].quotas.Start(p) + local, true
}

// refAllocFor is the allocation search of refLocate: the last allocation
// starting at or before v, if v is inside it.
func refAllocFor(l *layout, v uint32) (int, bool) {
	p := sort.Search(len(l.allocs), func(i int) bool { return l.allocs[i].start > v }) - 1
	if p < 0 || uint64(v-l.allocs[p].start) >= l.allocs[p].size {
		return 0, false
	}
	return p, true
}

func checkLocate(t *testing.T, l *layout, ip netip.Addr) bool {
	t.Helper()
	s, idx, ok := l.locate(ip)
	ws, widx, wok := refLocate(l, ip)
	if s != ws || idx != widx || ok != wok {
		t.Fatalf("locate(%s) = (%d, %d, %v), reference (%d, %d, %v)", ip, s, idx, ok, ws, widx, wok)
	}
	return ok
}

// TestLocateMatchesReference compares locate with the reference on every
// address of whole worlds (one address in 13 under -short), on the edges
// of every allocation, and outside the plan. Every host must be found
// exactly where addrOf put it.
func TestLocateMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"1x", Config{Seed: 43, Lazy: true}},
		{"popscale-2", Config{Seed: 44, Lazy: true, PopScale: 2}},
		{"hostile-0.1", Config{Seed: 45, Lazy: true, HostileRate: 0.1}},
	}
	stride := uint64(1)
	if testing.Short() {
		stride = 13
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := Generate(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := w.layout
			var hits uint64
			for _, a := range l.allocs {
				for off := uint64(0); off < a.size; off += stride {
					if checkLocate(t, l, keyAddr(a.start+uint32(off))) {
						hits++
					}
				}
				for _, v := range []uint32{a.start - 1, a.start, a.start + 1, a.start + uint32(a.size) - 1, a.start + uint32(a.size)} {
					checkLocate(t, l, keyAddr(v))
				}
			}
			if stride == 1 && hits != w.TotalHosts() {
				t.Fatalf("located %d hosts, world has %d", hits, w.TotalHosts())
			}
			last := &l.allocs[len(l.allocs)-1]
			for _, v := range []uint32{0, 1, l.tableBase - 1, last.start + uint32(last.size), 0xfffffffe, 0xffffffff} {
				if checkLocate(t, l, keyAddr(v)) {
					t.Fatalf("address %s outside the plan located a host", keyAddr(v))
				}
			}
			// Every host addrOf places is located back to its coordinates.
			for s := range l.strata {
				for idx := uint64(0); idx < l.strata[s].count; idx += stride {
					ip := l.addrOf(s, idx)
					if gs, gidx, ok := l.locate(ip); !ok || gs != s || gidx != idx {
						t.Fatalf("locate(addrOf(%d, %d) = %s) = (%d, %d, %v)", s, idx, ip, gs, gidx, ok)
					}
				}
			}
			ip := l.addrOf(0, 0)
			for _, other := range []netip.Addr{{}, netip.IPv6Loopback(), netip.AddrFrom16(ip.As16())} {
				if checkLocate(t, l, other) {
					t.Fatalf("non-IPv4 address %s located a host", other)
				}
			}
		})
	}
}

// TestAllocTableMatchesSearch checks the allocation table on plans unlike
// the contiguous, equal-size ones geo builds: mixed sizes, gaps, starts
// aligned more coarsely or more finely than the sizes, and a plan reaching
// the top of the address space. Every address near every allocation edge, and a stride
// through the rest, must resolve as the allocation search does.
func TestAllocTableMatchesSearch(t *testing.T) {
	type span struct {
		start uint32
		bits  int // prefix length
	}
	plans := map[string][]span{
		"gaps":      {{0x0a000000, 16}, {0x0a030000, 20}, {0x0a031000, 24}, {0x0a100000, 12}},
		"coarse":    {{0x40000000, 24}, {0x40010000, 24}, {0x40020000, 24}, {0x40030080, 24}},
		"top":       {{0xc0000000, 8}, {0xffff0000, 16}},
		"one-block": {{0x0a0a0000, 16}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			l := &layout{}
			for _, sp := range plan {
				l.allocs = append(l.allocs, allocLayout{start: sp.start, size: uint64(1) << (32 - sp.bits)})
			}
			if err := l.buildAllocTable(); err != nil {
				t.Fatal(err)
			}
			check := func(v uint32) {
				p, ok := l.allocFor(v)
				wp, wok := refAllocFor(l, v)
				if p != wp || ok != wok {
					t.Fatalf("allocFor(%#x) = (%d, %v), search gives (%d, %v)", v, p, ok, wp, wok)
				}
			}
			for _, a := range l.allocs {
				end := a.start + uint32(a.size-1)
				for d := uint32(0); d < 3; d++ {
					check(a.start - d)
					check(a.start + d)
					check(end - d)
					check(end + 1 + d)
				}
			}
			for v := uint64(0); v < 1<<32; v += 0x10001 {
				check(uint32(v))
			}
		})
	}
	// A plan of tiny allocations far apart would need a huge table.
	l := &layout{allocs: []allocLayout{{start: 0x00000001, size: 1}, {start: 0xf0000000, size: 1}}}
	if err := l.buildAllocTable(); err == nil {
		t.Fatalf("a %d-entry allocation table was built", len(l.allocAt))
	}
}

// TestMappedAddressEagerLazyAgree checks that an IPv4-mapped IPv6 address
// reaches the same host in both world modes: the network accepts the
// mapped form, so the lazy world must resolve it by its IPv4 form.
func TestMappedAddressEagerLazyAgree(t *testing.T) {
	cfg := smallConfig(27)
	eager, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lcfg := cfg
	lcfg.Lazy = true
	lazy, err := Generate(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := eager.VulnerableSpecs()[0]
	mapped := netip.AddrFrom16(spec.IP.As16())
	if !mapped.Is4In6() {
		t.Fatalf("%s is not an IPv4-mapped address", mapped)
	}
	for _, w := range []struct {
		name  string
		world *World
	}{{"eager", eager}, {"lazy", lazy}} {
		if err := w.world.Net.ProbePort(mapped, spec.Port); err != nil {
			t.Errorf("%s: ProbePort(%s, %d): %v", w.name, mapped, spec.Port, err)
		}
		conn, err := w.world.Net.Dial(context.Background(), mapped, spec.Port)
		if err != nil {
			t.Errorf("%s: Dial(%s, %d): %v", w.name, mapped, spec.Port, err)
		} else {
			conn.Close()
		}
		got, ok := w.world.SpecFor(mapped)
		if !ok {
			t.Errorf("%s: SpecFor(%s) found nothing", w.name, mapped)
		} else if fingerprint(got) != fingerprint(spec) {
			t.Errorf("%s: SpecFor(%s) = %s, want %s", w.name, mapped, fingerprint(got), fingerprint(spec))
		}
		if h, ok := w.world.Net.Host(mapped); !ok || h.IP() != spec.IP {
			t.Errorf("%s: Host(%s) = %v, %v; want the host at %s", w.name, mapped, h, ok, spec.IP)
		}
	}
	// An empty address stays empty in its mapped form.
	empty := netip.AddrFrom16(netip.MustParseAddr("10.200.0.1").As16())
	for _, w := range []*World{eager, lazy} {
		if err := w.Net.ProbePort(empty, 80); !errors.Is(err, simnet.ErrHostUnreachable) {
			t.Errorf("ProbePort(%s) = %v, want host unreachable", empty, err)
		}
	}
}

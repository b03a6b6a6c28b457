package population

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
)

// heapInUse forces a collection and returns the live heap, so setup
// benchmarks can report how much world a configuration keeps resident.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// BenchmarkWorldSetup measures Generate: the eager walk materializes every
// host up front, the lazy path only computes the O(strata) layout, so the
// lazy series should stay flat — in both time and the reported heap-bytes
// — as PopScale grows three orders of magnitude.
func BenchmarkWorldSetup(b *testing.B) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"eager-1x", Config{Seed: 41}},
		{"lazy-1x", Config{Seed: 41, Lazy: true}},
		{"lazy-100x", Config{Seed: 41, Lazy: true, PopScale: 100}},
		{"lazy-1000x", Config{Seed: 41, Lazy: true, PopScale: 1000}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			base := heapInUse()
			var w *World
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				w, err = Generate(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := heapInUse()
			if after > base {
				b.ReportMetric(float64(after-base), "heap-bytes")
			} else {
				b.ReportMetric(0, "heap-bytes")
			}
			if w.TotalHosts() == 0 {
				b.Fatal("empty world")
			}
		})
	}
}

// BenchmarkScanProbeThroughput drives the Stage-I hot path — ProbePort
// against addresses scattered across the whole plan — through eager and
// lazy worlds. Eager hits the atomic page table; lazy adds the occupancy
// arithmetic on misses and the cache on hits. Eager variants beyond 1× are
// omitted: at 100× the up-front world alone exceeds the benchmark's
// memory budget, which is the point of the lazy design.
func BenchmarkScanProbeThroughput(b *testing.B) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"eager-1x", Config{Seed: 42}},
		{"lazy-1x", Config{Seed: 42, Lazy: true}},
		{"lazy-100x", Config{Seed: 42, Lazy: true, PopScale: 100}},
		{"lazy-1000x", Config{Seed: 42, Lazy: true, PopScale: 1000}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			w, err := Generate(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			l := w.layout
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := &l.allocs[i%len(l.allocs)]
				ip := keyAddr(a.start + uint32(splitmix64(uint64(i))%a.size))
				_ = w.Net.ProbePort(ip, 80)
			}
			b.StopTimer()
			b.ReportMetric(float64(w.MaterializedHosts()), "resident-hosts")
		})
	}
}

// locateRing draws n in-plan addresses that locate answers with hit (an
// occupied address) or not (an empty one), uniformly over the plan.
func locateRing(l *layout, n int, hit bool) []netip.Addr {
	ring := make([]netip.Addr, 0, n)
	for i := uint64(0); len(ring) < n; i++ {
		a := &l.allocs[splitmix64(i)%uint64(len(l.allocs))]
		ip := keyAddr(a.start + uint32(splitmix64(^i)%a.size))
		if _, _, ok := l.locate(ip); ok == hit {
			ring = append(ring, ip)
		}
	}
	return ring
}

// BenchmarkLocate isolates the pure occupancy index: classifying an
// arbitrary address as (stratum, index) or empty with no locks and no
// allocation. miss is the per-probe overhead a lazy miss adds to Stage I —
// almost every probe — and should stay flat as PopScale grows; hit adds
// the slot and quota lookups of an occupied address. Addresses come from
// a precomputed ring, so the loop times locate alone.
func BenchmarkLocate(b *testing.B) {
	for _, kind := range []string{"miss", "hit"} {
		for _, scale := range []int{1, 2, 100, 1000} {
			b.Run(fmt.Sprintf("%s/scale-%dx", kind, scale), func(b *testing.B) {
				w, err := Generate(Config{Seed: 43, Lazy: true, PopScale: scale})
				if err != nil {
					b.Fatal(err)
				}
				l := w.layout
				hit := kind == "hit"
				ring := locateRing(l, 4096, hit)
				var found int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, ok := l.locate(ring[i&(len(ring)-1)]); ok {
						found++
					}
				}
				b.StopTimer()
				if hit && found != b.N || !hit && found != 0 {
					b.Fatalf("%s: %d of %d addresses located", kind, found, b.N)
				}
			})
		}
	}
}

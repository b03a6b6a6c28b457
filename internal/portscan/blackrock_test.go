package portscan

import (
	"fmt"
	"testing"
)

// checkInverseBelow compares unshuffleBelow(c, n) with its definition,
// (Unshuffle(c), true) when that is below n and (0, false) otherwise.
func checkInverseBelow(t *testing.T, br *blackRock, c, n uint64) {
	t.Helper()
	inv := br.Unshuffle(c)
	want, wantOK := inv, inv < n
	if !wantOK {
		want = 0
	}
	if got, ok := br.unshuffleBelow(c, n); got != want || ok != wantOK {
		t.Fatalf("size %d (a=%d b=%d fast=%v): unshuffleBelow(%d, %d) = (%d, %v), Unshuffle = %d",
			br.rangeSize, br.a, br.b, br.fastRounds, c, n, got, ok, inv)
	}
}

// TestInverseBelowMatchesInverse checks the early-exit inverse against the
// full one on every position of a spread of domains, for thresholds from
// empty to the whole range. 12345, 131000 and 2^17 are cycle-walk domains
// (a*b > size); 2^16 is a perfect square.
func TestInverseBelowMatchesInverse(t *testing.T) {
	for _, size := range []uint64{1, 2, 12345, 131000, 1 << 16, 1 << 17} {
		br := newBlackRock(size, 0xfeed)
		for _, n := range []uint64{0, 1, size / 77, size / 2, size - 1, size} {
			for c := uint64(0); c < size; c++ {
				checkInverseBelow(t, br, c, n)
			}
		}
	}
	// Through the exported API too.
	p := NewPermutation(1000, 3)
	for c := uint64(0); c < 1000; c++ {
		j, ok := p.InverseBelow(c, 10)
		if inv := p.Inverse(c); ok != (inv < 10) || (ok && j != inv) {
			t.Fatalf("InverseBelow(%d, 10) = (%d, %v), Inverse = %d", c, j, ok, inv)
		}
	}
}

// TestInverseBelowFullWidthRounds covers the full-width modulo round path:
// once forced on a small domain, where every position is checked, and on a
// domain too wide for the reciprocal rounds, sampled.
func TestInverseBelowFullWidthRounds(t *testing.T) {
	br := newBlackRock(131000, 0xbeef)
	br.fastRounds, br.fastA = false, false
	for _, n := range []uint64{0, 1700, 65500, 131000} {
		for c := uint64(0); c < br.rangeSize; c++ {
			checkInverseBelow(t, br, c, n)
		}
	}
	wide := newBlackRock(1<<62+12345, 11)
	if wide.fastRounds {
		t.Fatal("a 2^62 domain should use the full-width rounds")
	}
	step := wide.rangeSize / 4099
	for _, n := range []uint64{0, 1 << 40, wide.rangeSize / 2, wide.rangeSize} {
		for c := uint64(0); c < wide.rangeSize-step; c += step {
			checkInverseBelow(t, wide, c, n)
			checkInverseBelow(t, wide, wide.Shuffle(c), n)
		}
	}
}

// TestBlackRockPinnedOutputs pins Shuffle and Unshuffle outputs for fixed
// (size, seed) pairs. The round-trip tests accept any bijection, so they
// would not notice a rewrite that changed the permutation consistently in
// both directions; the lazy world's host placement, and with it every
// report, depends on these exact values.
func TestBlackRockPinnedOutputs(t *testing.T) {
	golden := []struct {
		size, seed   uint64
		fast         bool
		ms, fwd, inv []uint64
	}{
		{2, 0x7, false, []uint64{0, 1, 0, 1, 1}, []uint64{0, 1, 0, 1, 1}, []uint64{0, 1, 0, 1, 1}},
		{12345, 0x2a, true, []uint64{0, 1, 4115, 6172, 12344}, []uint64{8075, 10610, 3030, 8432, 4662}, []uint64{7415, 4468, 11217, 5356, 2194}},
		{131000, 0xfeed, true, []uint64{0, 1, 43666, 65500, 130999}, []uint64{15622, 130239, 40891, 13298, 108243}, []uint64{72114, 91170, 119007, 64922, 91725}},
		{65536, 0x63, true, []uint64{0, 1, 21845, 32768, 65535}, []uint64{26489, 17997, 62303, 25009, 10864}, []uint64{24355, 662, 7220, 49808, 32382}},
		{131072, 0x3, true, []uint64{0, 1, 43690, 65536, 131071}, []uint64{99241, 32451, 125089, 57775, 34018}, []uint64{64617, 71810, 114646, 58398, 29281}},
		{16777216, 0x2a, true, []uint64{0, 1, 5592405, 8388608, 16777215}, []uint64{15556579, 9763407, 5478897, 16435033, 5501234}, []uint64{12340477, 3822791, 6895924, 1067716, 2805665}},
		{4294967296, 0x5, true, []uint64{0, 1, 1431655765, 2147483648, 4294967295}, []uint64{451319433, 1915044898, 2946630788, 2879337945, 167396161}, []uint64{1483652258, 146775939, 3764360659, 1083943300, 1680457328}},
		{4611686018427400249, 0xb, false, []uint64{0, 1, 1537228672809133416, 2305843009213700124, 4611686018427400248}, []uint64{2409328698391147643, 1607369729644241035, 2709717033492453649, 2754581992817284962, 2646757819391849323}, []uint64{1634403262680880665, 1653381869918660755, 4304205866903232336, 3476560535306285349, 3926118506495325434}},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("size-%d", g.size), func(t *testing.T) {
			br := newBlackRock(g.size, g.seed)
			if br.fastRounds != g.fast {
				t.Fatalf("fastRounds = %v, want %v", br.fastRounds, g.fast)
			}
			for i, m := range g.ms {
				if got := br.Shuffle(m); got != g.fwd[i] {
					t.Errorf("Shuffle(%d) = %d, want %d", m, got, g.fwd[i])
				}
				if got := br.Unshuffle(m); got != g.inv[i] {
					t.Errorf("Unshuffle(%d) = %d, want %d", m, got, g.inv[i])
				}
			}
		})
	}
}

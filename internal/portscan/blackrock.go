package portscan

// blackRock is a format-preserving permutation over an arbitrary-size
// integer range, modeled on masscan's BlackRock cipher. It lets the scanner
// visit every address of the target space exactly once in a pseudorandom
// order without materializing the shuffle — the property that spreads probe
// load across /24 blocks instead of flooding one network (the paper's
// ethical-scanning requirement).
//
// The construction is a generalized (possibly unbalanced) Feistel network
// over the mixed radix pair a*b >= range, with cycle-walking to stay inside
// the range.
type blackRock struct {
	rangeSize uint64
	a, b      uint64
	seed      uint64
	rounds    int
	// rk holds one precomputed key per round, derived from the seed with a
	// strong mixer at construction time so the per-probe round function can
	// be a single multiply.
	rk [8]uint64
	// fastRounds enables the division-free round path: the PRF output is
	// truncated to 32 bits and reduced mod a/b with reciprocal multiplies
	// (exact because a, b < 2^31 at IPv4 scale). The Feistel structure is
	// a bijection for any round function, so the fast and slow paths are
	// each valid permutations; they differ only in which one.
	fastRounds bool
	aDiv, bDiv fastDivisor
	// fastA additionally replaces the two hardware divides of the initial
	// left/right split, exact over the whole cycle-walk domain [0, a*b).
	fastA bool
}

// newBlackRock builds a permutation over [0, rangeSize).
func newBlackRock(rangeSize, seed uint64) *blackRock {
	if rangeSize == 0 {
		return &blackRock{rangeSize: 0}
	}
	// Pick a and b around sqrt(rangeSize) with a*b >= rangeSize.
	a := isqrt(rangeSize - 1)
	if a < 1 {
		a = 1
	}
	for a*a < rangeSize {
		a++
	}
	b := a
	for a*(b-1) >= rangeSize && b > 1 {
		b--
	}
	br := &blackRock{rangeSize: rangeSize, a: a, b: b, seed: seed, rounds: 4}
	for r := range br.rk {
		br.rk[r] = splitmix64(seed + uint64(r)*0x9e3779b97f4a7c15)
	}
	br.aDiv = newFastDivisor(a)
	br.bDiv = newFastDivisor(b)
	// Round inputs are truncated to 32 bits, so the reciprocals must be
	// exact for numerators up to 2^32 (this also implies a, b < 2^31).
	br.fastRounds = br.aDiv.usable(1<<32) && br.bDiv.usable(1<<32)
	// Cycle-walking feeds values up to a*b-1 back through encryptOnce, so
	// the split reciprocal must be exact over [0, a*b).
	br.fastA = br.aDiv.usable(a * b)
	return br
}

func isqrt(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	x := uint64(1) << ((bitsLen(n) + 1) / 2)
	for {
		y := (x + n/x) / 2
		if y >= x {
			return x
		}
		x = y
	}
}

func bitsLen(n uint64) int {
	l := 0
	for n > 0 {
		n >>= 1
		l++
	}
	return l
}

// splitmix64 is the finalizing mixer used to derive round keys.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// round is the Feistel round function: any pseudo-random function yields a
// valid permutation, so the hot path spends exactly one multiply — a
// murmur-style finalizer step keyed by a precomputed per-round key. Four
// such rounds spread consecutive indices across the space well enough for
// the /24-burst property (see TestBlackRockSpreadsBlocks).
func (br *blackRock) round(r int, right uint64) uint64 {
	z := (right ^ br.rk[r]) * 0xff51afd7ed558ccd
	return z ^ (z >> 33)
}

// encryptOnce runs one pass of the unbalanced Feistel network.
func (br *blackRock) encryptOnce(m uint64) uint64 {
	var left, right uint64
	if br.fastA {
		right = br.aDiv.div(m)
		left = m - right*br.a
	} else {
		left = m % br.a
		right = m / br.a
	}
	if br.fastRounds {
		// Division-free rounds: truncate the PRF to 32 bits, reduce it
		// mod a/b with a reciprocal multiply, and fold the modular
		// addition into a compare-subtract (left < mod and f < mod, so
		// one subtraction suffices and nothing can overflow).
		for r := 0; r < br.rounds; r++ {
			f := uint64(uint32(br.round(r, right)))
			var mod uint64
			if r&1 == 0 {
				mod = br.a
				f -= br.aDiv.div(f) * mod
			} else {
				mod = br.b
				f -= br.bDiv.div(f) * mod
			}
			tmp := left + f
			if tmp >= mod {
				tmp -= mod
			}
			left, right = right, tmp
		}
	} else {
		for r := 0; r < br.rounds; r++ {
			var tmp uint64
			if r&1 == 0 {
				tmp = (left + br.round(r, right)) % br.a
			} else {
				tmp = (left + br.round(r, right)) % br.b
			}
			left, right = right, tmp
		}
	}
	// After an even number of rounds left is in [0,a) and right in [0,b),
	// so a*right+left enumerates [0, a*b) without collisions.
	return br.a*right + left
}

// Shuffle maps index m in [0, rangeSize) to a unique position in the same
// range. Cycle-walking re-encrypts values that land outside the range
// (possible because a*b may exceed rangeSize).
func (br *blackRock) Shuffle(m uint64) uint64 {
	if br.rangeSize == 0 {
		return 0
	}
	c := br.encryptOnce(m)
	for c >= br.rangeSize {
		c = br.encryptOnce(c)
	}
	return c
}

// split cuts a position of the cycle-walk domain [0, a*b) into the Feistel
// halves: left = m mod a, right = m / a.
func (br *blackRock) split(m uint64) (left, right uint64) {
	if br.fastA {
		right = br.aDiv.div(m)
		return m - right*br.a, right
	}
	return m % br.a, m / br.a
}

// invRounds undoes forward rounds hi-1 down to lo. Each forward round
// replaces (L, R) with (R, (L + F(r, R)) mod m_r), so the inverse recovers
// the pre-round pair as (R' - F(r, L') mod m_r, L'). The round function
// must be reduced exactly the way encryptOnce reduced it — the fast
// (reciprocal, 32-bit-truncated) and slow (full-width modulo) paths
// realize *different* permutations, so the decryptor mirrors the same path
// selection.
//
// The modular subtraction is written as encryptOnce's compare-subtract
// (R' + m_r - F, minus m_r once if that reaches m_r; both operands are
// below m_r, so nothing underflows) rather than as "if R' >= F". The two
// forms agree on every input, but the data-dependent branch mispredicts on
// about half the rounds, while the compare-subtract compiles to a
// conditional move.
func (br *blackRock) invRounds(left, right uint64, hi, lo int) (uint64, uint64) {
	for r := hi - 1; r >= lo; r-- {
		var mod, f uint64
		if r&1 == 0 {
			mod = br.a
		} else {
			mod = br.b
		}
		if br.fastRounds {
			f = uint64(uint32(br.round(r, left)))
			if r&1 == 0 {
				f -= br.aDiv.div(f) * mod
			} else {
				f -= br.bDiv.div(f) * mod
			}
		} else {
			f = br.round(r, left) % mod
		}
		tmp := right + mod - f
		if tmp >= mod {
			tmp -= mod
		}
		left, right = tmp, left
	}
	return left, right
}

// decryptOnce inverts one pass of the Feistel network: encryptOnce's
// rounds, run in reverse.
func (br *blackRock) decryptOnce(c uint64) uint64 {
	left, right := br.split(c)
	left, right = br.invRounds(left, right, br.rounds, 0)
	return br.a*right + left
}

// Unshuffle is the inverse of Shuffle: Unshuffle(Shuffle(m)) == m for every
// m in [0, rangeSize). Cycle-walking inverts the same way it encrypts —
// encryptOnce is a bijection over [0, a*b), so walking the orbit backwards
// from an in-range position reaches the unique in-range preimage.
func (br *blackRock) Unshuffle(c uint64) uint64 {
	if br.rangeSize == 0 {
		return 0
	}
	m := br.decryptOnce(c)
	for m >= br.rangeSize {
		m = br.decryptOnce(m)
	}
	return m
}

// unshuffleBelow is Unshuffle restricted to the question "is the preimage
// of c below n, and if so which is it?". It returns (Unshuffle(c), true)
// when that is below n, else (0, false), exactly.
//
// The last inverse round only rewrites the left half: after rounds-1 of
// them the right half r of decryptOnce's output is fixed, so the output
// lies in [a*r, a*r+a). When that block sits wholly inside [n, rangeSize),
// the output is in range (no cycle-walking follows) and not below n, so
// the answer is known without the last round. For a sparse occupied prefix
// [0, n) of a large range that is almost every c.
func (br *blackRock) unshuffleBelow(c, n uint64) (uint64, bool) {
	if br.rangeSize == 0 {
		return 0, n > 0
	}
	left, right := br.split(c)
	left, right = br.invRounds(left, right, br.rounds, 1)
	if lo := br.a * left; lo >= n && lo+br.a <= br.rangeSize {
		return 0, false
	}
	left, right = br.invRounds(left, right, 1, 0)
	m := br.a*right + left
	for m >= br.rangeSize {
		m = br.decryptOnce(m)
	}
	if m >= n {
		return 0, false
	}
	return m, true
}

// NewShuffler exposes the BlackRock permutation for benchmarking and for
// callers that need the randomized-iteration primitive alone: it returns a
// bijective map over [0, rangeSize).
func NewShuffler(rangeSize, seed uint64) func(uint64) uint64 {
	br := newBlackRock(rangeSize, seed)
	return br.Shuffle
}

// Permutation is the exported two-way view of the BlackRock cipher: a
// seeded bijection over [0, N) with both directions in O(1) and no state
// proportional to N. The lazy population generator is built on it — the
// forward direction scatters the i-th occupied slot of an allocation across
// the allocation's address block, and the inverse answers "which slot, if
// any, is this probed address?" without enumerating the block.
type Permutation struct {
	br *blackRock
}

// NewPermutation builds a permutation over [0, rangeSize) keyed by seed.
func NewPermutation(rangeSize, seed uint64) Permutation {
	return Permutation{br: newBlackRock(rangeSize, seed)}
}

// Forward maps index m in [0, rangeSize) to its shuffled position.
func (p Permutation) Forward(m uint64) uint64 { return p.br.Shuffle(m) }

// Inverse maps a shuffled position back to its index:
// Inverse(Forward(m)) == m.
func (p Permutation) Inverse(c uint64) uint64 { return p.br.Unshuffle(c) }

// InverseBelow reports whether Inverse(c) is below n and, if so, returns
// it: (Inverse(c), true) when Inverse(c) < n, else (0, false). It is exact,
// and cheaper than Inverse for a small n — most positions are then
// rejected without the last Feistel round or any cycle-walking, the case
// of a probe landing on an unoccupied address of a sparse block.
func (p Permutation) InverseBelow(c, n uint64) (uint64, bool) {
	return p.br.unshuffleBelow(c, n)
}

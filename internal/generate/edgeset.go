package generate

import "math/bits"

// edgeSet is the duplicate-edge index of rewiring (see endIndex): the
// canonical keys lo<<32|hi of the current edges in an
// open-addressing table with linear probing. Key 0 marks an empty slot;
// it would be the self-loop (0,0), which never occurs. The capacity is
// the next power of two ≥ 2·M, so the load stays ≤ ½: rewiring never
// changes M, and the table never grows. Deletion shifts the rest of the
// probe chain back instead of leaving tombstones, so the probes of a
// long run stay as short as those of a fresh table.
//
// Go's built-in map measured about twice as slow per accepted swap
// (see docs/PERF.md): the table is probed four to six times per swap,
// at random, far out of cache.
type edgeSet struct {
	slots []uint64
	shift uint // 64 − log2(len(slots)): home slots take the top bits
}

// edgeKey is the canonical key of the edge (u, v). It is branch-free:
// the order of a random pair is a coin flip, which a branch would
// mispredict half the time. Node ids are non-negative, so u − v cannot
// overflow.
func edgeKey(u, v int32) uint64 {
	d := u - v
	d &= d >> 31 // u − v if u < v, else 0
	return uint64(uint32(v+d))<<32 | uint64(uint32(u-d))
}

// newEdgeSet returns an empty set sized for m keys.
func newEdgeSet(m int) *edgeSet {
	size := 2
	for size < 2*m {
		size <<= 1
	}
	return &edgeSet{slots: make([]uint64, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// home is the first slot probed for key k (Fibonacci hashing).
func (s *edgeSet) home(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> s.shift) }

// slot returns the slot holding k, or the empty slot that ends its probe
// chain, and whether k is present.
func (s *edgeSet) slot(k uint64) (int, bool) {
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// has reports whether k is in the set.
func (s *edgeSet) has(k uint64) bool {
	_, ok := s.slot(k)
	return ok
}

// insert adds k and reports whether it was new.
func (s *edgeSet) insert(k uint64) bool {
	i, ok := s.slot(k)
	if ok {
		return false
	}
	s.slots[i] = k
	return true
}

// remove deletes k and reports whether it was present. Every later key
// of the probe chain whose home does not lie cyclically in (hole, slot]
// moves back into the hole, so no key ends up behind an empty slot.
func (s *edgeSet) remove(k uint64) bool {
	hole, ok := s.slot(k)
	if !ok {
		return false
	}
	mask := len(s.slots) - 1
	for i := (hole + 1) & mask; s.slots[i] != 0; i = (i + 1) & mask {
		if (i-s.home(s.slots[i]))&mask >= (i-hole)&mask {
			s.slots[hole] = s.slots[i]
			hole = i
		}
	}
	s.slots[hole] = 0
	return true
}

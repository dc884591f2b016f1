package generate

import "testing"

// FuzzEdgeSet checks the open-addressing edge set against a map
// reference. Each pair of input bytes is one operation, insert, remove
// or lookup, on a key from a small universe, so keys recur. Tables hold
// 2 to 16 slots and may fill to one short of capacity, above the
// rewiring load of ½, so that probe chains cluster, wrap past the end
// of the table and get shifted back by removals. After every operation
// the result must match the reference, and every key the reference
// holds must still be found.
func FuzzEdgeSet(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 1, 0, 4})
	f.Add(uint8(8), []byte{0, 17, 0, 33, 0, 49, 0, 65, 1, 33, 2, 49, 2, 65, 0, 33})
	f.Add(uint8(1), []byte{0, 255, 0, 254, 1, 255, 2, 254})
	f.Add(uint8(5), []byte{})

	f.Fuzz(func(t *testing.T, m uint8, ops []byte) {
		s := newEdgeSet(int(m % 9))
		ref := map[uint64]bool{}
		key := func(b byte) uint64 {
			// Nodes 0–15; key 0 would be the self-loop (0,0).
			u, v := int32(b>>4), int32(b&15)
			if u == 0 && v == 0 {
				v = 1
			}
			return edgeKey(u, v)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			k := key(ops[i+1])
			switch ops[i] % 3 {
			case 0:
				if !ref[k] && len(ref) == len(s.slots)-1 {
					continue // keep one empty slot, or probing never ends
				}
				if got := s.insert(k); got != !ref[k] {
					t.Fatalf("op %d: insert(%#x) = %v with the key present=%v", i/2, k, got, ref[k])
				}
				ref[k] = true
			case 1:
				if got := s.remove(k); got != ref[k] {
					t.Fatalf("op %d: remove(%#x) = %v with the key present=%v", i/2, k, got, ref[k])
				}
				delete(ref, k)
			case 2:
				if got := s.has(k); got != ref[k] {
					t.Fatalf("op %d: has(%#x) = %v, want %v", i/2, k, got, ref[k])
				}
			}
			live := 0
			for _, x := range s.slots {
				if x != 0 {
					live++
				}
			}
			if live != len(ref) {
				t.Fatalf("op %d: table holds %d keys, reference %d", i/2, live, len(ref))
			}
			for k := range ref {
				if !s.has(k) {
					t.Fatalf("op %d: key %#x lost from its probe chain", i/2, k)
				}
			}
		}
	})
}

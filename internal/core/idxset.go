package core

// idxSet is the set of dense host indexes of a membership's indexed
// neighbors: a small open-addressing table, one multiply, one mask and
// about one 4-byte probe per lookup, sized by the sliver (128 slots to
// start with, doubled to stay under half load). It answers discovery's
// "already a neighbor?" for view slots that carry no verdict yet.
//
// There is no delete: Refresh, the only caller that removes neighbors,
// rebuilds the set from the neighbor list it has just compacted.
type idxSet struct {
	// slots holds index+1; 0 is an empty slot. The length is zero or a
	// power of two.
	slots []uint32
	n     int
}

const idxMinSlots = 128

// has reports whether yi is in the set.
func (s *idxSet) has(yi int32) bool {
	if len(s.slots) == 0 {
		return false
	}
	key, mask := uint32(yi+1), uint32(len(s.slots))-1
	for i := (uint32(yi) * 2654435761) & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return true
		case 0:
			return false
		}
	}
}

// add inserts yi, growing the table when it would pass half load.
func (s *idxSet) add(yi int32) {
	if (s.n+1)*2 > len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]uint32, max(2*len(old), idxMinSlots)), 0
		for _, v := range old {
			if v != 0 {
				s.add(int32(v - 1))
			}
		}
	}
	key, mask := uint32(yi+1), uint32(len(s.slots))-1
	for i := (uint32(yi) * 2654435761) & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return
		case 0:
			s.slots[i] = key
			s.n++
			return
		}
	}
}

// reset empties the set, keeping its table.
func (s *idxSet) reset() {
	clear(s.slots)
	s.n = 0
}

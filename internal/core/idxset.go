package core

// idxSet is a small open-addressing table keyed by dense host index,
// each key carrying one of two tags. It replaces a Go map on the indexed
// discovery path: one multiply, one mask and (at the load it is kept
// under) about one 4-byte probe per lookup, no hashing of wide keys and
// no allocation after the table exists.
//
// Deletions leave tombstones, which only reset reclaims. The table does
// not grow on its own: put reports a full table and the owner rebuilds
// it (reset, then re-put what must survive).
type idxSet struct {
	// slots holds (index+1)<<1 | tag; 0 is an empty slot, idxTomb a
	// deleted one. The length is zero or a power of two.
	slots []uint32
	// used counts non-empty slots, tombstones included; neighbors counts
	// keys currently tagged idxNeighbor.
	used      int
	neighbors int
}

// Tags find reports; idxAbsent is find's answer for a missing key.
const (
	idxNeighbor uint32 = 0
	idxRejected uint32 = 1
	idxAbsent   uint32 = 2

	idxTomb     uint32 = 1 // key 0 never occurs, so 0<<1|1 is free
	idxMinSlots        = 512
)

// home returns the first probe position of index yi.
func (s *idxSet) home(yi int32) uint32 {
	return (uint32(yi) * 2654435761) & (uint32(len(s.slots)) - 1)
}

// find returns yi's tag, or idxAbsent.
func (s *idxSet) find(yi int32) uint32 {
	if len(s.slots) == 0 {
		return idxAbsent
	}
	key := uint32(yi+1) << 1
	mask := uint32(len(s.slots)) - 1
	for i := s.home(yi); ; i = (i + 1) & mask {
		switch v := s.slots[i]; {
		case v&^1 == key:
			return v & 1
		case v == 0:
			return idxAbsent
		}
	}
}

// put tags yi, inserting it if absent. It returns false, changing
// nothing, when an insert would push the table past 3/4 load.
func (s *idxSet) put(yi int32, tag uint32) bool {
	if len(s.slots) == 0 {
		s.reset(0)
	}
	key := uint32(yi+1) << 1
	mask := uint32(len(s.slots)) - 1
	free := -1
	for i := s.home(yi); ; i = (i + 1) & mask {
		v := s.slots[i]
		if v&^1 == key {
			s.neighbors += int(v&1) - int(tag)
			s.slots[i] = key | tag
			return true
		}
		if v == idxTomb && free < 0 {
			free = int(i)
		}
		if v != 0 {
			continue
		}
		if free < 0 {
			if (s.used+1)*4 >= len(s.slots)*3 {
				return false
			}
			free = int(i)
			s.used++
		}
		s.slots[free] = key | tag
		s.neighbors += 1 - int(tag)
		return true
	}
}

// del removes yi, leaving a tombstone.
func (s *idxSet) del(yi int32) {
	if len(s.slots) == 0 {
		return
	}
	key := uint32(yi+1) << 1
	mask := uint32(len(s.slots)) - 1
	for i := s.home(yi); ; i = (i + 1) & mask {
		switch v := s.slots[i]; {
		case v&^1 == key:
			s.neighbors -= 1 - int(v&1)
			s.slots[i] = idxTomb
			return
		case v == 0:
			return
		}
	}
}

// reset empties the table, sizing it so that n keys stay under half
// load (and never below idxMinSlots). The backing array is reused when
// the size does not change.
func (s *idxSet) reset(n int) {
	size := max(len(s.slots), idxMinSlots)
	for n*2 > size {
		size *= 2
	}
	if size == len(s.slots) {
		clear(s.slots)
	} else {
		s.slots = make([]uint32, size)
	}
	s.used, s.neighbors = 0, 0
}

package gpu

// lineSet is a grow-on-demand open-addressing hash set of line addresses in
// [0, 2^31) (see WarpAccess), stored in 32-bit slots. The simulator inserts
// every sampled trace line once per run to measure the sample's working
// set; Go's built-in map costs ~3x more per operation for this access
// pattern.
type lineSet struct {
	slots []uint32
	used  int
}

const lineSetEmpty = ^uint32(0)

func newLineSet(capacityHint int) *lineSet {
	size := 1 << 10
	for size < capacityHint*2 {
		size <<= 1
	}
	s := &lineSet{slots: make([]uint32, size)}
	for i := range s.slots {
		s.slots[i] = lineSetEmpty
	}
	return s
}

// Add inserts v (must be in [0, 2^31)) and reports whether it was new.
func (s *lineSet) Add(v int64) bool {
	if s.used*2 >= len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	h := uint64(v) * 0x9e3779b97f4a7c15
	for i := h & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case uint32(v):
			return false
		case lineSetEmpty:
			s.slots[i] = uint32(v)
			s.used++
			return true
		}
	}
}

// reset empties the set, keeping its capacity.
func (s *lineSet) reset() {
	if s.used == 0 {
		return
	}
	for i := range s.slots {
		s.slots[i] = lineSetEmpty
	}
	s.used = 0
}

// Len returns the number of distinct values inserted.
func (s *lineSet) Len() int { return s.used }

func (s *lineSet) grow() {
	old := s.slots
	s.slots = make([]uint32, len(old)*2)
	for i := range s.slots {
		s.slots[i] = lineSetEmpty
	}
	s.used = 0
	for _, v := range old {
		if v != lineSetEmpty {
			s.Add(int64(v))
		}
	}
}

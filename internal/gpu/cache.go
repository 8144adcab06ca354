package gpu

// Cache is a set-associative LRU cache over line addresses. It tracks only
// presence (no data), which is all the performance model needs.
type Cache struct {
	sets int
	ways int
	// tags[set*ways+way] holds the line address or -1 if invalid.
	tags []int64
	// stamps[set*ways+way] is the last-access tick for LRU replacement.
	stamps []int64
	tick   int64

	accesses int64
	hits     int64
}

// NewCache builds a cache of capacityBytes with the given line size and
// associativity. Capacity is rounded down to a whole number of sets; a
// capacity smaller than one way per set still yields a functional (tiny)
// cache.
func NewCache(capacityBytes, lineBytes, ways int) *Cache {
	lines := capacityBytes / lineBytes
	if lines < 1 {
		lines = 1
	}
	if ways < 1 {
		ways = 1
	}
	sets := lines / ways
	if sets < 1 {
		sets = 1
		if ways > lines {
			ways = lines
		}
	}
	c := &Cache{
		sets:   sets,
		ways:   ways,
		tags:   make([]int64, sets*ways),
		stamps: make([]int64, sets*ways),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// Access touches a line address and reports whether it hit. A miss installs
// the line, evicting the set's LRU way (the lowest way among equally old
// ones, so invalid ways fill in order).
//
// Hits dominate, so the tags are scanned alone first and the stamps only on
// a miss.
func (c *Cache) Access(line int64) bool {
	c.tick++
	c.accesses++
	set := int(uint64(line) % uint64(c.sets))
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	for w, tag := range tags {
		if tag == line {
			c.stamps[base+w] = c.tick
			c.hits++
			return true
		}
	}
	stamps := c.stamps[base : base+c.ways]
	lru, oldest := 0, stamps[0]
	for w := 1; w < len(stamps); w++ {
		if st := stamps[w]; st < oldest {
			lru, oldest = w, st
		}
	}
	tags[lru] = line
	stamps[lru] = c.tick
	return false
}

// Stats returns (accesses, hits) so far.
func (c *Cache) Stats() (accesses, hits int64) { return c.accesses, c.hits }

// HitRate returns hits/accesses, or 0 before any access.
func (c *Cache) HitRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.accesses)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = -1
		c.stamps[i] = 0
	}
	c.tick, c.accesses, c.hits = 0, 0, 0
}

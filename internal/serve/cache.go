package serve

import (
	"sync"

	"repro/internal/program"
	"repro/internal/telemetry"
)

// The compile cache: a model forward pass is compiled once per
// (model × dataset × backend × shards) and the CompiledProgram reused for
// every request thereafter. Compilation is the expensive step (record →
// fuse → schedule → buffer-plan; on CO at the default feat 16, about 60 ms
// for GCN and 220 ms for GAT on a 2-CPU x86 host, nearly all of it grid
// search, which a host's second program reuses) and the compiled
// artifact is immutable apart from its arena, so the cache is the boundary
// between "startup cost" and "steady state". Concurrent Get calls for the
// same key singleflight: one caller compiles, the rest block on the entry's
// once and share the result (including a compile error, which is sticky —
// a program that failed to compile will fail identically on retry).

// cacheKey identifies one compiled program.
type cacheKey struct {
	Model   string
	Dataset string
	Backend string
	Shards  int
}

type cacheEntry struct {
	once sync.Once
	prog *program.CompiledProgram
	err  error
}

// programCache memoises compiled programs by key.
type programCache struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
}

func newProgramCache() *programCache {
	return &programCache{m: make(map[cacheKey]*cacheEntry)}
}

// Get returns the cached program for key, compiling it with build on first
// use. Exactly one build runs per key regardless of concurrency.
func (c *programCache) Get(key cacheKey, build func() (*program.CompiledProgram, error)) (*program.CompiledProgram, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &cacheEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		telemetry.Default().Counter(metricCompiles).Inc()
		e.prog, e.err = build()
	})
	return e.prog, e.err
}

// Len reports how many keys the cache holds (compiled or failed).
func (c *programCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

package gpu

import (
	"container/heap"
	"fmt"
	"math"
)

// Metrics reports what the paper collects with nvprof (Figs. 3 and 16) plus
// the raw quantities behind them. Cycles is the primary figure of merit.
type Metrics struct {
	Cycles float64

	// Achieved occupancy: time-weighted active warps per SM over the warp
	// capacity, in [0, 1].
	Occupancy float64
	// SMEfficiency: fraction of SM-time spent busy (load balance), in [0, 1].
	SMEfficiency float64
	// L1HitRate and L2HitRate come from the sampled cache simulation.
	L1HitRate float64
	L2HitRate float64

	Insts              float64
	Transactions       float64
	L1Requests         float64
	AtomicTransactions float64
	L2Accesses         float64
	DRAMBytes          float64

	NumBlocks     int
	WarpsPerBlock int
	SampledBlocks int

	// BoundBy names the resource that determined Cycles: "sm-makespan"
	// (per-SM issue/LSU/latency work, including load imbalance), "l2-bw",
	// "dram-bw", "atomic-bw" or "launch".
	BoundBy string
}

// InstLatencyCycles is the dependent-issue latency charged per warp
// instruction when estimating exposed latency.
const InstLatencyCycles = 4

// simConfig tunes the simulation fidelity / cost trade-off.
type simConfig struct {
	maxSampledBlocks int
	maxWorkBlocks    int
	maxTraceLines    int
	l1Ways           int
	l2Ways           int
}

// Option adjusts simulator fidelity.
type Option func(*simConfig)

// WithMaxSampledBlocks overrides how many blocks feed the cache model.
func WithMaxSampledBlocks(n int) Option {
	return func(c *simConfig) {
		if n > 0 {
			c.maxSampledBlocks = n
		}
	}
}

// WithMaxWorkBlocks overrides the threshold above which per-block work
// accounting switches to stride sampling with scaling. Launches that large
// have thousands of blocks per SM, so per-block variance averages out and
// sampling loses almost no load-balance fidelity.
func WithMaxWorkBlocks(n int) Option {
	return func(c *simConfig) {
		if n > 0 {
			c.maxWorkBlocks = n
		}
	}
}

// Simulate runs kernel k on device d and returns its metrics.
//
// The model (DESIGN.md §4):
//  1. A deterministic stride-sample of blocks is traced through per-SM L1
//     caches and a shared L2 whose capacity is scaled to the sample's share
//     of the kernel's working set, yielding hit rates.
//  2. Every block's exact BlockWork is converted to a block cost in cycles —
//     the max of its issue demand, L1 throughput demand and exposed-latency
//     demand given the resident-warp count — and blocks are greedily
//     list-scheduled onto SMs.
//  3. Kernel time is the makespan, floored by device-wide L2, DRAM and
//     atomic bandwidth demands.
func Simulate(d *Device, k Kernel, opts ...Option) Metrics {
	return new(Simulator).Simulate(d, k, opts...)
}

// Simulator runs Simulate with trace buffers it keeps between calls, so a
// sequence of simulations (one worker's share of a grid search) reuses one
// another's grown storage instead of regrowing it each call. Results are
// identical to Simulate's. The zero value is ready to use; a Simulator must
// not run two simulations at once, and frees its buffers only when it is
// itself garbage.
type Simulator struct {
	trace     []uint32
	blockEnds []int
	distinct  *lineSet
	// l1s are the simulated L1s of the last call, reset for reuse when the
	// next call asks for the same geometry (l1Geom: bytes, line, ways).
	l1s    []*Cache
	l1Geom [3]int
}

// Simulate is the package-level Simulate on s's buffers.
func (s *Simulator) Simulate(d *Device, k Kernel, opts ...Option) Metrics {
	cfg := simConfig{maxSampledBlocks: 192, maxWorkBlocks: 16384, maxTraceLines: 1 << 20, l1Ways: 4, l2Ways: 16}
	for _, o := range opts {
		o(&cfg)
	}

	numBlocks := k.NumBlocks()
	warpsPerBlock := k.WarpsPerBlock()
	m := Metrics{NumBlocks: numBlocks, WarpsPerBlock: warpsPerBlock}
	if numBlocks == 0 {
		m.Cycles = d.LaunchOverheadCycles
		return m
	}

	// --- Pass 1: sampled cache simulation. ---
	sampled := numBlocks
	if sampled > cfg.maxSampledBlocks {
		sampled = cfg.maxSampledBlocks
	}
	stride := numBlocks / sampled
	if stride < 1 {
		stride = 1
	}
	// The sampled trace exercises only part of the kernel's working set, so
	// it must also see only a proportional share of the L2: first measure
	// the sample's distinct lines, then size the simulated L2 to
	// L2Bytes x (sample working set / kernel footprint). Compulsory misses
	// then occur at the same rate as in the full kernel, with no warmup
	// pass needed.
	// The trace is generated once and recorded, because generating it is
	// the expensive part: the first walk measures the working set (to size
	// the L2), the replay feeds the caches. Each traced line is one 32-bit
	// trace word, its top bit set for atomics; blockEnds marks the trace
	// position where each block ends so the replay keeps each block on one
	// L1.
	if s.distinct == nil {
		s.distinct = newLineSet(1 << 12)
	}
	distinct := s.distinct
	distinct.reset()
	trace, blockEnds := s.trace[:0], s.blockEnds[:0]
	for i := 0; i < sampled && len(trace) < cfg.maxTraceLines; i++ {
		k.TraceBlock(i*stride, func(a WarpAccess) {
			var flag uint32
			if a.Atomic {
				flag = traceAtomic
			}
			for _, line := range a.Lines {
				if uint64(line) >= traceAtomic {
					// Invariant: Kernel implementations address lines
					// below 2^31 (core's eight 1 GiB segments use 2^26).
					panic(fmt.Sprintf("gpu: trace line %d outside [0, 2^31)", line))
				}
				distinct.Add(line)
				trace = append(trace, uint32(line)|flag)
			}
		})
		blockEnds = append(blockEnds, len(trace))
	}
	s.trace, s.blockEnds = trace, blockEnds
	sampled = len(blockEnds) // blocks actually traced within the line budget
	sampleWS := float64(distinct.Len()) * float64(d.LineBytes)
	footprint := float64(k.Footprint())
	share := 1.0
	if footprint > 0 && sampleWS < footprint {
		share = sampleWS / footprint
	}
	l2 := NewCache(int(float64(d.L2Bytes)*share), d.LineBytes, cfg.l2Ways)
	// Sampled blocks round-robin over a pool of simulated SM L1s. The pool is
	// sized to the lesser of the SM count and the sample so each simulated L1
	// sees a realistic (not over-diluted) share of blocks.
	l1Pool := d.NumSMs
	if l1Pool > sampled {
		l1Pool = sampled
	}
	l1s := s.l1Caches(l1Pool, [3]int{d.L1Bytes, d.LineBytes, cfg.l1Ways})
	// Replay the recorded trace block by block, each block pinned to one
	// simulated L1.
	var l1Acc, l1Hit, l2Acc, l2Hit int64
	pos := 0
	for i, end := range blockEnds {
		l1 := l1s[i%l1Pool]
		for _, word := range trace[pos:end] {
			line := int64(word &^ traceAtomic)
			l1Acc++
			if word&traceAtomic != 0 {
				// Atomics bypass L1 and resolve at L2.
				l2Acc++
				if l2.Access(line) {
					l2Hit++
				}
				continue
			}
			if l1.Access(line) {
				l1Hit++
				continue
			}
			l2Acc++
			if l2.Access(line) {
				l2Hit++
			}
		}
		pos = end
	}
	m.SampledBlocks = sampled
	l1HitRate := 0.0
	if l1Acc > 0 {
		l1HitRate = float64(l1Hit) / float64(l1Acc)
	}
	l2HitRate := 0.0
	if l2Acc > 0 {
		l2HitRate = float64(l2Hit) / float64(l2Acc)
	}
	m.L1HitRate = l1HitRate
	m.L2HitRate = l2HitRate

	// --- Pass 2: exact work accounting and SM scheduling. ---

	// Collect (sampled) per-block work first: residency and latency hiding
	// must be computed from blocks that actually have work — an over-tiled
	// launch's empty blocks retire immediately and hide nothing.
	workBlocks := numBlocks
	workStride := 1
	if numBlocks > cfg.maxWorkBlocks {
		workBlocks = cfg.maxWorkBlocks
		workStride = numBlocks / workBlocks
	}
	workScale := float64(numBlocks) / float64(workBlocks)

	works := make([]BlockWork, workBlocks)
	activeBlocks := 0
	var total BlockWork
	for i := 0; i < workBlocks; i++ {
		works[i] = k.BlockWork(i * workStride)
		total.Add(works[i])
		if works[i].ActiveWarps > 0 {
			activeBlocks++
		}
	}
	launchedActive := int(float64(activeBlocks) * workScale)
	if launchedActive < 1 {
		launchedActive = 1
	}

	// Resident blocks per SM: limited by the block slots and the warp budget;
	// cannot exceed the active blocks that exist per SM on average.
	residentBlocks := d.MaxBlocksPerSM
	if byWarps := d.MaxWarpsPerSM / warpsPerBlock; byWarps < residentBlocks {
		residentBlocks = byWarps
	}
	if residentBlocks < 1 {
		residentBlocks = 1
	}
	avgBlocksPerSM := (launchedActive + d.NumSMs - 1) / d.NumSMs
	if avgBlocksPerSM < residentBlocks {
		residentBlocks = avgBlocksPerSM
	}
	residentWarps := float64(residentBlocks * warpsPerBlock)
	hiding := residentWarps
	if hiding > d.HidingWarps {
		hiding = d.HidingWarps
	}
	if hiding < 1 {
		hiding = 1
	}

	missL1 := 1 - l1HitRate
	missL2 := 1 - l2HitRate
	avgAccessLatency := l1HitRate*d.L1Latency +
		missL1*l2HitRate*d.L2Latency +
		missL1*missL2*d.DRAMLatency

	// Greedy list scheduling onto SMs (least-loaded first). Very large
	// launches were stride-sampled above and are scaled back afterwards:
	// with thousands of blocks per SM, aggregate loads dominate any single
	// block's contribution.
	sms := makeSMHeap(d.NumSMs)
	var busyWeighted float64 // sum over blocks of cost x effective warps
	for i := 0; i < workBlocks; i++ {
		w := works[i]

		l1req := w.L1Requests
		if l1req < w.Transactions {
			l1req = w.Transactions
		}
		issue := w.Insts / d.IssuePerSM
		l1t := l1req / d.L1PerSM
		// Exposed latency is charged per load instruction — the misses of
		// one warp load overlap with each other — with replay throughput in
		// the l1t term. Kernels that do not report MemInsts fall back to
		// per-transaction charging.
		memInsts := w.MemInsts
		if memInsts == 0 {
			memInsts = w.Transactions
		}
		latency := (w.Insts*InstLatencyCycles +
			memInsts*avgAccessLatency +
			w.SerialRounds*d.L2Latency) / hiding
		cost := issue
		if l1t > cost {
			cost = l1t
		}
		if latency > cost {
			cost = latency
		}
		// Divergence tail: the block cannot finish before its longest warp's
		// serial instruction stream drains.
		if w.MaxWarpCycles > cost {
			cost = w.MaxWarpCycles
		}
		// The SM runs residentBlocks concurrently sharing its pipelines, so a
		// block's own cost is its resource demand; queuing onto the same SM
		// serialises demands, which the heap accumulation models.
		sm := &sms[0]
		sm.load += cost
		heap.Fix(&sms, 0)
		// Time-weighted warp activity. A warp stays active for the share of
		// the block's duration proportional to its stream length, so the
		// effective concurrently-active warp count is the ratio of total to
		// longest warp streams — 8 for a balanced block, approaching 1 when
		// one hot warp dominates (the divergence tail).
		effWarps := float64(w.ActiveWarps)
		if w.MaxWarpCycles > 0 {
			if r := w.BusyWarpCycles / w.MaxWarpCycles; r < effWarps {
				effWarps = r
			}
		}
		busyWeighted += cost * effWarps
	}

	// Scale the sampled aggregates back to the full launch.
	total.Insts *= workScale
	total.Transactions *= workScale
	total.L1Requests *= workScale
	total.AtomicTransactions *= workScale
	busyWeighted *= workScale
	for i := range sms {
		sms[i].load *= workScale
	}

	m.Insts = total.Insts
	m.Transactions = total.Transactions
	m.L1Requests = total.L1Requests
	if m.L1Requests < m.Transactions {
		m.L1Requests = m.Transactions
	}
	m.AtomicTransactions = total.AtomicTransactions

	// Blend the replayed (guaranteed-hit) requests into the reported L1 hit
	// rate; the trace-measured rate applies to the line-level traffic only.
	if m.L1Requests > 0 {
		m.L1HitRate = (l1HitRate*total.Transactions + (m.L1Requests - total.Transactions)) / m.L1Requests
	}

	var maxLoad, sumLoad float64
	for _, sm := range sms {
		if sm.load > maxLoad {
			maxLoad = sm.load
		}
		sumLoad += sm.load
	}

	// Device-wide bandwidth floors.
	l2Accesses := total.Transactions * missL1
	dramBytes := l2Accesses * missL2 * float64(d.LineBytes)
	m.L2Accesses = l2Accesses
	m.DRAMBytes = dramBytes
	l2Floor := l2Accesses * float64(d.LineBytes) / d.L2BytesPerCycle
	dramFloor := dramBytes / d.DRAMBytesPerCycle
	// Atomics move 32-byte sectors through the L2's read-modify-write path.
	atomicFloor := total.AtomicTransactions * float64(d.LineBytes) / 4 / d.AtomicBytesPerCycle

	cycles := maxLoad
	m.BoundBy = "sm-makespan"
	if l2Floor > cycles {
		cycles = l2Floor
		m.BoundBy = "l2-bw"
	}
	if dramFloor > cycles {
		cycles = dramFloor
		m.BoundBy = "dram-bw"
	}
	if atomicFloor > cycles {
		cycles = atomicFloor
		m.BoundBy = "atomic-bw"
	}
	if cycles < d.LaunchOverheadCycles {
		m.BoundBy = "launch"
	}
	cycles += d.LaunchOverheadCycles
	m.Cycles = cycles

	// SM efficiency: busy SM-time over total SM-time.
	m.SMEfficiency = sumLoad / (float64(d.NumSMs) * cycles)
	if m.SMEfficiency > 1 {
		m.SMEfficiency = 1
	}

	// Achieved occupancy: time-weighted active warps per SM over capacity.
	// The block-cost accounting serialises co-resident blocks, so scale by
	// the residency factor (R blocks share the SM concurrently), then cap by
	// the residency limit.
	occ := busyWeighted * float64(residentBlocks) /
		(cycles * float64(d.NumSMs) * float64(d.MaxWarpsPerSM))
	residencyCap := residentWarps / float64(d.MaxWarpsPerSM)
	occ = math.Min(occ, residencyCap)
	m.Occupancy = math.Min(occ, 1)
	return m
}

// l1Caches returns n empty L1 caches of the given geometry, reusing the
// previous call's caches where they match.
func (s *Simulator) l1Caches(n int, geom [3]int) []*Cache {
	if geom != s.l1Geom {
		s.l1s, s.l1Geom = s.l1s[:0], geom
	}
	for _, c := range s.l1s[:min(n, len(s.l1s))] {
		c.Reset()
	}
	for len(s.l1s) < n {
		s.l1s = append(s.l1s, NewCache(geom[0], geom[1], geom[2]))
	}
	return s.l1s[:n]
}

// traceAtomic flags an atomic access in a recorded trace word; the low 31
// bits hold the line address.
const traceAtomic = 1 << 31

// smHeap is a min-heap of SM loads for greedy list scheduling.
type smHeap []smLoad

type smLoad struct {
	id   int
	load float64
}

func makeSMHeap(n int) smHeap {
	h := make(smHeap, n)
	for i := range h {
		h[i].id = i
	}
	return h
}

func (h smHeap) Len() int            { return len(h) }
func (h smHeap) Less(i, j int) bool  { return h[i].load < h[j].load }
func (h smHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *smHeap) Push(x interface{}) { *h = append(*h, x.(smLoad)) }
func (h *smHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

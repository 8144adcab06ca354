package gpu

// Kernel is the simulator-facing view of a compiled graph-operator kernel.
// Implementations live in internal/core (one per parallelization strategy);
// the simulator never sees strategy details, only this interface — mirroring
// how the paper's CUDA templates present uniform launches to the GPU.
//
// Two granularities are exposed:
//
//   - BlockWork(b): exact scalar work summary for every block. Cheap
//     (O(block's edges)) and computed for all blocks, so SM scheduling and
//     load imbalance are exact.
//   - TraceBlock(b): the warp-level coalesced memory trace of one block,
//     replayed only for a deterministic sample of blocks to drive the cache
//     model.
type Kernel interface {
	// NumBlocks is the launch grid size.
	NumBlocks() int
	// WarpsPerBlock is the block shape (threads-per-block / warp size).
	WarpsPerBlock() int
	// BlockWork summarises the work of block b.
	BlockWork(b int) BlockWork
	// TraceBlock replays block b's warp-level memory accesses in program
	// order. Each visit receives one warp access: the set of distinct cache
	// lines touched (post-coalescing) and whether it is an atomic RMW.
	TraceBlock(b int, visit func(WarpAccess))
	// Footprint is the total bytes of memory the whole kernel touches
	// (operand tensors plus graph index arrays). The simulator scales the
	// L2 capacity seen by the sampled trace to the sample's share of this
	// working set.
	Footprint() int64
}

// BlockWork is the exact per-block work summary.
type BlockWork struct {
	// Insts is the number of warp-instructions the block issues (a warp
	// instruction covers all 32 lanes; divergent lanes still consume it).
	Insts float64
	// Transactions is the number of global-memory transactions at cache-line
	// granularity after coalescing and intra-warp reuse — the traffic the
	// cache hierarchy sees.
	Transactions float64
	// L1Requests is the load/store-unit request count including the
	// replayed, uncoalesced per-element accesses of thread-mapped
	// strategies. Always >= Transactions; the surplus hits the L1 but
	// occupies its port (the locality penalty of Table 6's thread mapping).
	L1Requests float64
	// AtomicTransactions is the subset of Transactions that are atomic
	// read-modify-write operations (resolved at the L2).
	AtomicTransactions float64
	// MemInsts counts warp-level LOAD instructions. A load's exposed
	// latency is charged once per instruction — a scattered 32-line load is
	// one instruction whose misses overlap — while its replay cost is in
	// L1Requests and its traffic in Transactions. Stores and atomics are
	// fire-and-forget and charge no latency.
	MemInsts float64
	// SerialRounds counts extra serialised replay rounds caused by
	// intra-warp atomic address conflicts (lanes updating the same word).
	SerialRounds float64
	// ActiveWarps is the number of warps in the block that have any work.
	ActiveWarps int
	// MaxWarpCycles lower-bounds the block's duration by its longest warp's
	// serial instruction stream (a single warp issues at most one
	// instruction per cycle). Degree skew makes one warp's stream much
	// longer than its siblings' — the divergence tail behind the paper's
	// Fig. 2b/Fig. 3 occupancy collapse.
	MaxWarpCycles float64
	// BusyWarpCycles sums each warp's own busy duration; the gap between
	// BusyWarpCycles and ActiveWarps x block duration is idle warp time,
	// which depresses achieved occupancy.
	BusyWarpCycles float64
}

// Add accumulates other into w.
func (w *BlockWork) Add(other BlockWork) {
	w.Insts += other.Insts
	w.Transactions += other.Transactions
	w.L1Requests += other.L1Requests
	w.MemInsts += other.MemInsts
	w.AtomicTransactions += other.AtomicTransactions
	w.SerialRounds += other.SerialRounds
	w.ActiveWarps += other.ActiveWarps
	if other.MaxWarpCycles > w.MaxWarpCycles {
		w.MaxWarpCycles = other.MaxWarpCycles
	}
	w.BusyWarpCycles += other.BusyWarpCycles
}

// WarpAccess is one warp-level memory operation in a trace: the distinct
// line addresses the 32 lanes touch after coalescing. Line addresses lie in
// [0, 2^31), which lets Simulate record a trace at 4 bytes per line.
type WarpAccess struct {
	Lines  []int64
	Atomic bool
}

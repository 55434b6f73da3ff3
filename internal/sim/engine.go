package sim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lbcast/internal/dualgraph"
	"lbcast/internal/xrand"
)

// Driver selects how many workers step each round's phases. Every driver
// runs the same round path and produces the same execution.
type Driver int

const (
	// DriverSequential steps every phase in the calling goroutine, one
	// full-range call per phase. The reference implementation.
	DriverSequential Driver = iota + 1
	// DriverWorkerPool splits each phase's node range over a persistent
	// worker pool, with barriers between the transmit and receive phases.
	// The scatter itself is sharded across the workers when the transmitter
	// set is large enough to pay for the fan-out.
	DriverWorkerPool
)

// Config assembles an execution: the paper's "configuration" is a dual
// graph, a process assignment, a link scheduler and an environment; the
// seed resolves the processes' coin flips.
type Config struct {
	Dual  *dualgraph.Dual
	Procs []Process
	// Bank, when non-nil, executes the transmit and receive phases in
	// contiguous node ranges (see ProcessBank). Procs must still hold the
	// per-node handles of the same protocol state, Init runs through them,
	// unless the bank implements BankInit: then Procs may be nil. When
	// nil, the engine steps Procs through the same range calls (procBank).
	// Incompatible with ReplaceProc (a bank owns all nodes' state; see
	// lifecycle.go).
	Bank ProcessBank
	// Sched may be nil: no unreliable edges are ever included.
	Sched LinkScheduler
	// Reception, when non-nil, replaces the dual-graph scatter as the
	// physical layer (see ReceptionModel). Mutually exclusive with Sched.
	Reception ReceptionModel
	// Env may be nil: no environment inputs or outputs.
	Env Environment
	// Seed derives every node's private randomness stream.
	Seed uint64
	// Driver defaults to DriverSequential; any other value than the two
	// drivers is an error.
	Driver Driver
	// Workers bounds DriverWorkerPool concurrency; ≤ 0 means GOMAXPROCS.
	// DriverSequential uses one worker.
	Workers int
	// Trace may be nil; a fresh Trace is then created.
	Trace *Trace
}

// inclusionMode describes how the current round's unreliable-edge inclusion
// is resolved during the scatter.
type inclusionMode uint8

const (
	// incNone: no unreliable edge is included this round.
	incNone inclusionMode = iota
	// incAll: every unreliable edge is included this round.
	incAll
	// incMask: e.included holds the round's full inclusion mask.
	incMask
	// incSparse: query e.sparse.IncludedFor on transmitter-incident edges.
	incSparse
)

// parallelScatterMinTx is the transmitter count below which the sharded
// parallel scatter is not worth its fan-out and merge overhead. Derived
// from BenchmarkPoolDispatch: one pool fan-out costs ≈ 1.1µs at 2 workers
// and ≈ 2.5µs at 4, while a transmitter's scatter work is ≈ 100–200ns at
// typical degrees (Δ′ ≈ 20–40), so the parallel saving (1−1/w)·tx·cost only
// clears the dispatch-plus-merge bar from roughly 25–30 transmitters at 4
// workers (≈ 15 at 2). The threshold only picks the execution strategy —
// the deterministic shard merge keeps traces byte-identical either way.
const parallelScatterMinTx = 32

// scatterBlock is the number of transmitters whose row bounds the scatter
// reads before it walks their rows (see scatterInto).
const scatterBlock = 64

// rowBounds is one transmitter's reliable and unreliable row bounds,
// [g0, g1) in the G CSR and [u0, u1) in the unreliable one.
type rowBounds struct{ g0, g1, u0, u1 int32 }

// scatterShard is one worker's private reception state for the parallel
// scatter: reception slots over all nodes, all zero between rounds, plus
// the list of nodes this worker reached this round (so the merge visits
// only Σ-degree many entries, never all n) and its row-bounds scratch.
type scatterShard struct {
	rx      []RxSlot
	touched []int32
	incBuf  []bool
	rows    []rowBounds
}

// Engine executes rounds of a configuration.
type Engine struct {
	dual   *dualgraph.Dual
	procs  []Process
	bank   ProcessBank  // Config.Bank, or a *procBank over procs
	flush  RoundFlusher // non-nil when bank also bulk-records (see batch.go)
	sched  LinkScheduler
	batch  BatchLinkScheduler  // non-nil when sched supports batch fills
	sparse SparseLinkScheduler // non-nil when sched supports subset queries
	recv   ReceptionModel      // non-nil when a model replaces the scatter
	env    Environment
	wrk    int
	trace  *Trace
	n      int

	round int // last executed round; rounds are 1-indexed as in the paper

	// Lifecycle state (see lifecycle.go). down is nil until the first
	// SetDown, so churn-free executions take one nil-check per node and stay
	// byte-identical to pre-lifecycle traces. seed/delta/deltaPrime are
	// retained from New so ReplaceProc can initialise restarted processes;
	// incarn salts each restart's RNG stream away from its predecessor's.
	down   []bool
	incarn []uint32
	seed   uint64
	delta  int
	deltaP int

	// Flattened topology (shared with dual, read-only): the scatter kernel
	// walks these instead of per-node adjacency slices.
	gCSR dualgraph.CSR
	uCSR dualgraph.UnreliableCSR

	// Per-round scratch, reused across rounds. The payload slot table keeps
	// one slot per node; transmitters' Transmit results land in their own
	// slot and are read at delivery, so no per-round payload allocation
	// happens in the engine. transmit is RoundView.Transmit: all zero
	// between rounds, 1 at the round's transmitters while it runs.
	payloads []any
	transmit []uint8
	included []bool   // unreliable edge inclusion mask (incMask rounds only)
	txList   []int32  // this round's transmitters, ascending
	rx       []RxSlot // per-node reception state written by the scatter
	// recs holds one event recorder per node; nil for a BankInit bank that
	// records nothing.
	recs []nodeRecorder

	// view is the RoundView handed to the bank; its slice headers alias the
	// round scratch above, and Down is refreshed each Step (it may appear
	// mid-run).
	view RoundView

	maxUDeg int                   // max unreliable degree, sizes IncludedFor scratch
	incBuf  []bool                // sequential-path IncludedFor scratch
	rows    []rowBounds           // sequential-path row-bounds scratch, allocated at the first scatter
	recvOut []int32               // ReceptionModel per-node outcome scratch
	sharded ShardedReceptionModel // non-nil when recv supports range resolution

	// touched lists the nodes reached by this round's scatter or reception
	// model (slot nonzero), so stats and the slot reset run over O(Σ deg)
	// entries, not all n.
	touched []int32

	// shards holds the per-worker scatter state, allocated lazily on the
	// first round that shards the scatter.
	shards []*scatterShard

	// pool is the persistent worker pool of the worker-pool driver, started
	// lazily on the first parallel phase and stopped by Close. The range
	// phases, the sharded scatter and the sharded reception model dispatch
	// onto it, so the steady state spawns no goroutines at all.
	pool *workerPool

	// poolBankFn, poolScatterFn and poolResolveFn are the cached per-worker
	// bodies dispatched to the pool, built once so parallel rounds allocate
	// nothing; their per-call inputs travel through the poolChunk/bankTx,
	// scatterChunk/scatterMode and resolveChunk fields.
	poolBankFn    func(w int)
	poolScatterFn func(w int)
	poolResolveFn func(w int)
	poolChunk     int
	bankTx        bool // poolBankFn phase selector: transmit vs receive
	scatterChunk  int
	scatterMode   inclusionMode
	resolveChunk  int

	// dirty is the set of nodes with buffered recorder events since the
	// last drain: dirtyIdx[:dirtyLen] holds their indices in arbitrary
	// order (recorders push concurrently), sorted at drain time. Like recs,
	// dirtyIdx is nil when nothing can record.
	dirtyIdx []int32
	dirtyLen atomic.Int32
}

// New validates the configuration and prepares an engine positioned before
// round 1.
func New(cfg Config) (*Engine, error) {
	if cfg.Dual == nil {
		return nil, fmt.Errorf("sim: Config.Dual is nil")
	}
	bi, _ := cfg.Bank.(BankInit)
	if len(cfg.Procs) != cfg.Dual.N() && !(bi != nil && cfg.Procs == nil) {
		return nil, fmt.Errorf("sim: %d processes for %d vertices", len(cfg.Procs), cfg.Dual.N())
	}
	if cfg.Reception != nil && cfg.Sched != nil {
		return nil, fmt.Errorf("sim: Config.Sched and Config.Reception are mutually exclusive")
	}
	workers := 1
	switch cfg.Driver {
	case 0, DriverSequential:
	case DriverWorkerPool:
		workers = cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	default:
		return nil, fmt.Errorf("sim: unknown Config.Driver %d", cfg.Driver)
	}
	n := cfg.Dual.N()
	bank := cfg.Bank
	var pb *procBank
	if bank == nil {
		pb = &procBank{procs: cfg.Procs, asleep: make([]bool, n)}
		bank = pb
	}
	trace := cfg.Trace
	if trace == nil {
		trace = &Trace{}
	}
	e := &Engine{
		dual:     cfg.Dual,
		procs:    cfg.Procs,
		bank:     bank,
		sched:    cfg.Sched,
		env:      cfg.Env,
		wrk:      workers,
		trace:    trace,
		n:        n,
		gCSR:     cfg.Dual.ReliableCSR(),
		uCSR:     cfg.Dual.UnreliableCSR(),
		payloads: make([]any, n),
		transmit: make([]uint8, n),
		txList:   make([]int32, 0, n),
		rx:       make([]RxSlot, n),
	}
	e.view = RoundView{Payloads: e.payloads, Transmit: e.transmit, Rx: e.rx,
		Reached: make([]uint64, (n+63)/64)}
	e.seed = cfg.Seed
	if f, ok := bank.(RoundFlusher); ok {
		e.flush = f
	}
	if cfg.Reception != nil {
		e.recv = cfg.Reception
		e.recvOut = make([]int32, n)
		if s, ok := cfg.Reception.(ShardedReceptionModel); ok {
			e.sharded = s
		}
	}
	for u := 0; u < n; u++ {
		if d := int(e.uCSR.Off[u+1] - e.uCSR.Off[u]); d > e.maxUDeg {
			e.maxUDeg = d
		}
	}
	if s, ok := cfg.Sched.(SparseLinkScheduler); ok {
		// Sparse schedulers usually skip the full mask: uniform rounds skip
		// per-edge resolution entirely, non-uniform rounds resolve
		// transmitter-incident subsets into incBuf. The batch mask is kept
		// as the dense-round fallback (see Step).
		e.sparse = s
		e.incBuf = make([]bool, e.maxUDeg)
	}
	if b, ok := cfg.Sched.(BatchLinkScheduler); ok {
		e.batch = b
	}
	if e.sparse == nil || e.batch != nil {
		e.included = make([]bool, len(cfg.Dual.UnreliableEdges()))
	}
	// A per-node process or a recording bank may record events; a bank
	// that initialises its own rows and records nothing never does.
	if bi == nil || bi.RecordsEvents() {
		e.recs = make([]nodeRecorder, n)
		e.dirtyIdx = make([]int32, n)
		for u := 0; u < n; u++ {
			e.recs[u].eng = e
			e.recs[u].node = int32(u)
		}
	}
	e.poolBankFn = func(w int) {
		lo := w * e.poolChunk
		hi := min(lo+e.poolChunk, n)
		if lo >= hi {
			return
		}
		if e.bankTx {
			e.bank.TransmitRange(e.round, lo, hi, &e.view)
		} else {
			e.bank.ReceiveRange(e.round, lo, hi, &e.view)
		}
	}
	e.poolScatterFn = func(w int) {
		lo := w * e.scatterChunk
		hi := min(lo+e.scatterChunk, len(e.txList))
		if lo >= hi {
			return
		}
		sh := e.shards[w]
		e.scatterInto(e.round, e.scatterMode, e.txList[lo:hi],
			sh.rx, &sh.touched, sh.incBuf, sh.rows)
	}
	e.poolResolveFn = func(w int) {
		lo := w * e.resolveChunk
		hi := min(lo+e.resolveChunk, n)
		if lo < hi {
			e.sharded.ResolveRange(e.round, e.txList, e.recvOut, lo, hi)
		}
	}
	delta, deltaPrime := cfg.Dual.Delta(), cfg.Dual.DeltaPrime()
	e.delta, e.deltaP = delta, deltaPrime
	root := xrand.New(cfg.Seed)
	for u := 0; u < n; u++ {
		if bi != nil {
			var rec Recorder
			if e.recs != nil {
				rec = &e.recs[u]
			}
			bi.InitRow(u, root.NodeStream(u), rec)
			continue
		}
		rng := root.NodeStream(u)
		env := &NodeEnv{
			ID:         u,
			Delta:      delta,
			DeltaPrime: deltaPrime,
			R:          cfg.Dual.R,
			Rng:        &rng,
			Rec:        &e.recs[u],
		}
		if pb != nil {
			env.asleep = &pb.asleep[u]
		}
		cfg.Procs[u].Init(env)
	}
	e.drainRecorders(0)
	return e, nil
}

// Trace returns the engine's trace.
func (e *Engine) Trace() *Trace { return e.trace }

// Round returns the last executed round (0 before the first).
func (e *Engine) Round() int { return e.round }

// Run executes the given number of additional rounds.
func (e *Engine) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		e.Step()
	}
}

// Step executes one round.
func (e *Engine) Step() {
	t := e.round + 1
	e.round = t

	// Step 1: environment inputs.
	if e.env != nil {
		e.env.BeforeRound(t)
	}

	// Step 2: transmit decisions. The down mask may have appeared since the
	// last round (SetDown allocates it lazily), so the bank's view is
	// refreshed here before any range call reads it.
	e.view.Down = e.down
	e.rangePhase(true)
	e.drainRecorders(t)

	// Adaptive adversaries observe the fixed decisions before the topology
	// is resolved (explicit model violation, see TransmitterAware).
	if ta, ok := e.sched.(TransmitterAware); ok {
		ta.ObserveTransmitters(t, e.transmit)
	}

	// Collect this round's transmitters (ascending): both the inclusion-
	// mode choice below and the scatter consume the list.
	e.txList = appendTransmitters(e.txList[:0], e.transmit)

	// Resolve how the round topology's unreliable part is decided. Sparse
	// schedulers collapse uniform rounds (Always/Never/Periodic/AntiDecay,
	// and quiet Adaptive rounds) to a single flag — no mask is written at
	// all — and defer non-uniform rounds to transmitter-incident subset
	// queries inside the scatter, costing O(Σ u-deg over transmitters).
	// When the transmitter set is so dense that subset queries would
	// exceed one pass over the mask (an edge between two transmitters is
	// queried from both endpoints), the batch fill is the cheaper path and
	// the engine falls back to it. Batch-capable schedulers without subset
	// queries fill the whole mask in one call; the shim queries the mask
	// once per edge per round.
	// A reception model bypasses the whole dual-graph path: no link schedule
	// is resolved and no scatter runs; the model fills the per-node outcome
	// slots directly (see resolveModel).
	if e.recv != nil {
		e.resolveModel(t)
		e.finishRound(t)
		return
	}

	mode := incNone
	if e.sparse != nil {
		if v, ok := e.sparse.Uniform(t); ok {
			if v {
				mode = incAll
			}
		} else {
			mode = incSparse
			if e.batch != nil {
				uDegSum := 0
				for _, v := range e.txList {
					uDegSum += int(e.uCSR.Off[v+1] - e.uCSR.Off[v])
				}
				if uDegSum > len(e.included) {
					e.batch.IncludedBatch(t, e.included)
					mode = incMask
				}
			}
		}
	} else if e.batch != nil {
		e.batch.IncludedBatch(t, e.included)
		mode = incMask
	} else if e.sched != nil {
		for i := range e.included {
			e.included[i] = e.sched.Included(t, i)
		}
		mode = incMask
	}

	// Step 3: receptions under the collision rule. Scatter from the
	// (typically sparse) transmitter set: each transmitter bumps the
	// reception count of its reliable neighbors and its included unreliable
	// peers, costing O(Σ deg over transmitters) and yielding collision
	// counts as a by-product. Listeners never scan their neighborhoods.
	e.scatter(t, mode)
	e.finishRound(t)
}

// finishRound runs the delivery, statistics, trace-drain and environment-
// output steps shared by the dual-graph scatter and reception-model paths.
// It expects the per-node reception state (rx slots, touched)
// for round t to be fully resolved.
func (e *Engine) finishRound(t int) {
	// The bank finds the reached nodes of its ranges in the Reached bits,
	// which fit in the first-level cache at n = 10⁵, so setting them costs
	// far less than the slot reads a range scan would take instead.
	reached := e.view.Reached
	for _, u := range e.touched {
		reached[u>>6] |= 1 << (u & 63)
	}

	// Delivery mutates process state; each node resolves its own reception
	// outcome from the reception slots as it receives (see
	// procBank.ReceiveRange), so no separate O(n) pass runs.
	e.rangePhase(false)

	// Stats fall out of the reception slots over the touched-node list: a
	// listener that heard one transmitter received, one whose slot collided
	// lost the round to interference. Only nodes the scatter reached are
	// visited, so this costs O(Σ deg over transmitters). The same pass
	// resets every reached slot, transmitters' and down nodes' included,
	// and its Reached word, and the loop after it clears the transmitters'
	// Transmit and Payloads entries, for the next round.
	txBefore, delBefore, colBefore := e.trace.Transmissions, e.trace.Deliveries, e.trace.Collisions
	e.trace.Transmissions += len(e.txList)
	for _, u := range e.touched {
		s := e.rx[u]
		e.rx[u], reached[u>>6] = 0, 0
		if e.transmit[u] != 0 || (e.down != nil && e.down[u]) {
			continue
		}
		if s > 0 {
			e.trace.Deliveries++
		} else {
			e.trace.Collisions++
		}
	}
	for _, u := range e.txList {
		e.transmit[u], e.payloads[u] = 0, nil
	}
	if e.trace.SampleRounds {
		e.trace.PerRound = append(e.trace.PerRound, RoundStat{
			Round:         t,
			Transmissions: e.trace.Transmissions - txBefore,
			Deliveries:    e.trace.Deliveries - delBefore,
			Collisions:    e.trace.Collisions - colBefore,
		})
	}
	if e.flush != nil {
		e.flush.FlushRound(t, e.trace)
	}
	e.drainRecorders(t)
	e.trace.RoundsRun++

	// Step 4: environment outputs.
	if e.env != nil {
		e.env.AfterRound(t)
	}
}

// appendTransmitters appends the nodes whose transmit byte is set to txs,
// in ascending order, and returns the extended slice. It reads eight nodes
// per load and takes one entry per nonzero byte. Transmitters are sparse,
// so it first ORs eight loads together and skips 64 silent nodes at once;
// the last len(transmit) mod 64 nodes are tested one by one.
func appendTransmitters(txs []int32, transmit []uint8) []int32 {
	le := binary.LittleEndian
	u := 0
	for rest := transmit; len(rest) >= 64; rest = rest[64:] {
		if le.Uint64(rest)|le.Uint64(rest[8:])|le.Uint64(rest[16:])|le.Uint64(rest[24:])|
			le.Uint64(rest[32:])|le.Uint64(rest[40:])|le.Uint64(rest[48:])|le.Uint64(rest[56:]) != 0 {
			for k := 0; k < 64; k += 8 {
				for w := le.Uint64(rest[k:]); w != 0; {
					b := bits.TrailingZeros64(w) >> 3
					txs = append(txs, int32(u+k+b))
					w &^= 0xff << (b << 3)
				}
			}
		}
		u += 64
	}
	for ; u < len(transmit); u++ {
		if transmit[u] != 0 {
			txs = append(txs, int32(u))
		}
	}
	return txs
}

// scatter walks the round's transmitters (txList, built in Step) and
// records in every node they reach through the round topology which
// transmitter reached it, or that two or more did. Under the worker-pool
// driver with enough transmitters the scatter is sharded across workers and
// merged deterministically.
func (e *Engine) scatter(t int, mode inclusionMode) {
	e.touched = e.touched[:0]
	if e.wrk > 1 && len(e.txList) >= parallelScatterMinTx {
		e.scatterParallel(t, mode)
		return
	}
	if e.rows == nil {
		e.rows = make([]rowBounds, scatterBlock)
	}
	e.scatterInto(t, mode, e.txList, e.rx, &e.touched, e.incBuf, e.rows)
}

// scatterInto walks the given transmitters and accumulates their receptions
// into the supplied slots, which start the round at 0: a node's first
// reach writes Heard(v) and appends the node to *touched, any later one
// RxCollision. incBuf is the IncludedFor scratch for incSparse rounds, and
// rows holds scatterBlock row bounds: the scatter reads the bounds of a
// block of transmitters before it walks their rows, so the cache misses of
// those reads overlap instead of each waiting behind the previous
// transmitter's row walk.
func (e *Engine) scatterInto(t int, mode inclusionMode, txs []int32,
	rx []RxSlot, touched *[]int32, incBuf []bool, rows []rowBounds) {

	gOff, gTgt := e.gCSR.Off, e.gCSR.Targets
	uOff, uPeers, uEdges := e.uCSR.Off, e.uCSR.Peers, e.uCSR.Edges
	reached := *touched
	bump := func(u int32, s RxSlot) {
		if rx[u] == 0 {
			rx[u] = s
			reached = append(reached, u)
		} else {
			rx[u] = RxCollision
		}
	}
	for len(txs) > 0 {
		blk := txs[:min(len(txs), len(rows))]
		txs = txs[len(blk):]
		for i, v := range blk {
			rows[i] = rowBounds{gOff[v], gOff[v+1], uOff[v], uOff[v+1]}
		}
		for i, v := range blk {
			r, s := rows[i], Heard(v)
			for _, u := range gTgt[r.g0:r.g1] {
				bump(u, s)
			}
			if mode == incNone || r.u0 == r.u1 {
				continue
			}
			switch mode {
			case incAll:
				for _, u := range uPeers[r.u0:r.u1] {
					bump(u, s)
				}
			case incMask:
				for i := r.u0; i < r.u1; i++ {
					if e.included[uEdges[i]] {
						bump(uPeers[i], s)
					}
				}
			case incSparse:
				buf := incBuf[:r.u1-r.u0]
				e.sparse.IncludedFor(t, uEdges[r.u0:r.u1], buf)
				for i, u := range uPeers[r.u0:r.u1] {
					if buf[i] {
						bump(u, s)
					}
				}
			}
		}
	}
	*touched = reached
}

// scatterParallel shards the transmitter list across the persistent worker
// pool. Each worker scatters its contiguous txList range into a private
// shard; the shards are then merged into the engine's reception slots in
// worker order. Because shard w's transmitters all precede shard w+1's in
// txList order, "the first worker to reach u gives its slot, a second
// reach collides" reproduces the sequential left-to-right scatter exactly,
// so traces stay byte-identical. The merge resets every shard slot it
// reads, so the shards start the next round all zero.
func (e *Engine) scatterParallel(t int, mode inclusionMode) {
	workers := e.wrk
	if workers > len(e.txList) {
		workers = len(e.txList)
	}
	e.ensureShards(workers)
	chunk := (len(e.txList) + workers - 1) / workers
	active := (len(e.txList) + chunk - 1) / chunk
	for w := 0; w < active; w++ {
		e.shards[w].touched = e.shards[w].touched[:0]
	}
	e.scatterChunk, e.scatterMode = chunk, mode
	e.ensurePool()
	e.pool.run(active, e.poolScatterFn)

	for w := 0; w < active; w++ {
		sh := e.shards[w]
		for _, u := range sh.touched {
			s := sh.rx[u]
			sh.rx[u] = 0
			if e.rx[u] == 0 {
				e.rx[u] = s
				e.touched = append(e.touched, u)
			} else {
				e.rx[u] = RxCollision
			}
		}
	}
}

// resolveModel asks the reception model for the round's per-node outcomes
// and translates them into the engine's reception slots, so delivery and
// the trace statistics run unchanged: a clean reception becomes
// Heard(transmitter), a Blocked outcome RxCollision (indistinguishable from
// a dual-graph collision downstream), and silence leaves the slot 0.
func (e *Engine) resolveModel(t int) {
	e.touched = e.touched[:0]
	if e.sharded != nil && e.wrk > 1 &&
		e.n >= parallelResolveMinListeners && e.sharded.PrepareRound(t, e.txList) {
		e.resolveSharded()
	} else {
		e.recv.Resolve(t, e.txList, e.recvOut)
	}
	for u, v := range e.recvOut {
		if e.transmit[u] != 0 || (e.down != nil && e.down[u]) {
			continue
		}
		switch {
		case v >= 0:
			e.rx[u] = Heard(v)
			e.touched = append(e.touched, int32(u))
		case v == Blocked:
			e.rx[u] = RxCollision
			e.touched = append(e.touched, int32(u))
		}
	}
}

// ensureShards lazily grows the per-worker scatter shards to the given count.
func (e *Engine) ensureShards(workers int) {
	n := e.n
	for len(e.shards) < workers {
		e.shards = append(e.shards, &scatterShard{
			rx:     make([]RxSlot, n),
			incBuf: make([]bool, e.maxUDeg),
			rows:   make([]rowBounds, scatterBlock),
		})
	}
}

// rangePhase runs the current round's transmit (tx) or receive phase
// through the bank: one full-range call at one worker, otherwise one
// contiguous range per worker on the persistent pool.
func (e *Engine) rangePhase(tx bool) {
	n := e.n
	workers := min(e.wrk, n)
	if workers <= 1 {
		if tx {
			e.bank.TransmitRange(e.round, 0, n, &e.view)
		} else {
			e.bank.ReceiveRange(e.round, 0, n, &e.view)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	active := (n + chunk - 1) / chunk
	e.poolChunk, e.bankTx = chunk, tx
	e.ensurePool()
	e.pool.run(active, e.poolBankFn)
}

// workerPool is the persistent pool owned by the worker-pool driver: one
// goroutine per configured worker, started once and parked on a private
// command channel between phases. run dispatches one body per active worker
// and waits for all of them; the channel operations provide the
// happens-before edges that make the engine's shared round state safe to
// touch from the workers.
type workerPool struct {
	cmd     []chan func(w int)
	done    chan struct{}
	stopped sync.Once
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		cmd:  make([]chan func(w int), workers),
		done: make(chan struct{}, workers),
	}
	for w := range p.cmd {
		p.cmd[w] = make(chan func(w int), 1)
		go p.loop(w)
	}
	return p
}

func (p *workerPool) loop(w int) {
	for fn := range p.cmd[w] {
		fn(w)
		p.done <- struct{}{}
	}
}

// run executes fn(w) on workers 0..active-1 and blocks until every one of
// them finishes.
func (p *workerPool) run(active int, fn func(w int)) {
	for w := 0; w < active; w++ {
		p.cmd[w] <- fn
	}
	for w := 0; w < active; w++ {
		<-p.done
	}
}

// stop releases the pool's goroutines. Idempotent: Close and the GC cleanup
// below may both reach it.
func (p *workerPool) stop() {
	p.stopped.Do(func() {
		for _, c := range p.cmd {
			close(c)
		}
	})
}

// ensurePool lazily starts the persistent worker pool at the engine's full
// worker count (phases activate only the prefix they need). A GC cleanup
// stops the pool when the engine becomes unreachable, so callers written
// against the old spawn-per-phase driver — for which Close was documented
// as a no-op — do not leak parked workers for the process lifetime. Close
// remains the deterministic release path.
func (e *Engine) ensurePool() {
	if e.pool == nil {
		e.pool = newWorkerPool(e.wrk)
		runtime.AddCleanup(e, (*workerPool).stop, e.pool)
	}
}

// Close releases the worker pool's goroutines, if the engine started
// them. It is a no-op for the sequential driver and safe to call multiple
// times.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.stop()
		e.pool = nil
	}
}

// drainRecorders appends buffered events to the trace in node order,
// producing a deterministic global order regardless of driver. Only nodes on
// the dirty list are visited — the list is filled concurrently in arbitrary
// order by the recorders, so it is sorted here to restore node order.
func (e *Engine) drainRecorders(t int) {
	m := int(e.dirtyLen.Load())
	if m == 0 {
		return
	}
	dirty := e.dirtyIdx[:m]
	slices.Sort(dirty)
	for _, u := range dirty {
		r := &e.recs[u]
		e.trace.recordAll(r.buf, t)
		r.buf = r.buf[:0]
		r.listed = false
	}
	e.dirtyLen.Store(0)
}

// Package device is the cycle-approximate timing simulator — this
// reproduction's stand-in for the physical GTX 285. Every experiment's
// "measured" number comes from here.
//
// The simulator executes kernels functionally (through the barra
// warp executor, so memory addresses and control flow are real) and
// attaches timing through a small set of structural mechanisms, each
// of which corresponds to a phenomenon the paper's model captures:
//
//   - per-SM functional-unit servers per instruction class, with
//     occupancy warpSize/units(class) shader cycles per warp
//     instruction → the four Table 1 throughput tiers;
//   - a register scoreboard plus class-dependent pipeline latency →
//     throughput that climbs with warp count and saturates around 6
//     warps for Type II instructions (paper Fig. 2 left);
//   - a per-SM shared-memory pipeline whose occupancy scales with
//     the serialized (bank-conflict) transaction count and whose
//     latency exceeds the ALU's → Fig. 2 right and the cyclic-
//     reduction slowdown;
//   - per-cluster global-memory pipelines (3 SMs share one) with a
//     fixed round-trip latency and a bandwidth-limited service rate
//     → Fig. 3's saturation curve and its period-10 sawtooth;
//   - block dispatch onto SMs constrained by occupancy, with
//     round-robin initial placement and refill on completion.
//
// Allocation contract: a run allocates per run and per block, never
// per event. The event queue is a min-heap of FIFO buckets of warps
// keyed by (cycle, issued), found through a fixed slot index; its
// heap, bucket pool and free list are sized for the initial dispatch
// and hold at most one bucket per live warp. The per-event path
// (sim.stepWarp, eventQueue.push, eventQueue.pop) is made of
// //gpuperf:noalloc roots. TestRunAllocsIndependentOfEvents pins it:
// allocs/run stay flat when a launch's event count grows 16-fold.
package device

import (
	"context"
	"fmt"
	"math"

	"gpuperf/internal/bank"
	"gpuperf/internal/barra"
	"gpuperf/internal/coalesce"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/occupancy"
)

// Result is the outcome of a timed run.
type Result struct {
	// Cycles is the total execution time in shader cycles; Seconds
	// converts by the core clock.
	Cycles  float64
	Seconds float64

	// WarpInstrs is the number of warp instructions issued, split
	// by class in ByClass.
	WarpInstrs int64
	ByClass    [isa.NumClasses]int64

	// SharedBytes / GlobalBytes are the bytes moved (global at the
	// device's transaction granularity, i.e. including coalescing
	// overfetch).
	SharedBytes int64
	GlobalBytes int64
	// GlobalTransactions is the hardware transaction count.
	GlobalTransactions int64

	// BusyInstr, BusyShared, BusyGlobal are server busy-cycle sums
	// (across SMs / clusters), used to identify the observed
	// dominant component. NumSMs/NumClusters record the server
	// counts needed to normalize them into utilizations.
	BusyInstr   float64
	BusyShared  float64
	BusyGlobal  float64
	NumSMs      int
	NumClusters int

	// Occupancy echoes the resident-block computation used for
	// dispatch.
	Occupancy occupancy.Result
}

// InstrThroughput returns achieved warp-instructions per second.
func (r Result) InstrThroughput() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.WarpInstrs) / r.Seconds
}

// SharedBandwidth returns achieved shared-memory bytes per second.
func (r Result) SharedBandwidth() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.SharedBytes) / r.Seconds
}

// GlobalBandwidth returns achieved global-memory bytes per second
// (useful + overfetch, as a bandwidth benchmark measures).
func (r Result) GlobalBandwidth() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.GlobalBytes) / r.Seconds
}

// DominantComponent names the component whose servers were busiest
// — "instruction", "shared" or "global" — normalizing each busy sum
// by its server count (30 SMs vs 10 memory clusters on the GTX 285).
func (r Result) DominantComponent() string {
	sms, clus := r.NumSMs, r.NumClusters
	if sms == 0 {
		sms = 1
	}
	if clus == 0 {
		clus = 1
	}
	instr := r.BusyInstr / float64(sms)
	shared := r.BusyShared / float64(sms)
	global := r.BusyGlobal / float64(clus)
	switch {
	case global >= instr && global >= shared:
		return "global"
	case shared >= instr:
		return "shared"
	default:
		return "instruction"
	}
}

// key orders pending events: the cycle t at which a warp tries to
// issue, then the warp's issued count when the event was scheduled.
// A warp has exactly one queued event and issues only after that
// event is popped, so the copy always equals the live count and the
// ordering key needs no pointer chase.
type key struct {
	t      float64
	issued int64
}

// slot hashes k into eventQueue.index: a multiplicative hash of the
// cycle's bits and the issued count, top byte.
func (k key) slot() uint8 {
	return uint8((math.Float64bits(k.t) ^ uint64(k.issued)) * 0x9e3779b97f4a7c15 >> 56)
}

// entry is one heap element: a key, the creation count of the bucket
// that holds its warps, and that bucket. A key has more than one live
// bucket only after a slot collision; seq pops the older one first.
type entry struct {
	key
	seq int64
	b   int32
}

// before orders by time, then by warp progress (fewest instructions
// issued first — the hardware's fair round-robin selection; without
// this, greedy ordering forms convoys that leave issue slots idle),
// then by bucket age.
func (e entry) before(o entry) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	if e.issued != o.issued {
		return e.issued < o.issued
	}
	return e.seq < o.seq
}

// bucket is a FIFO list of the warps queued under one key, threaded
// through simWarp.next. A drained bucket has a nil head.
type bucket struct {
	key
	head, tail *simWarp
}

// eventQueue pops warps in (t, issued, schedule order) order. It is a
// binary min-heap of buckets ordered by (key, creation count); each
// bucket receives the warps pushed under its key in schedule order.
// index[k.slot()] is 1 + the newest bucket made for a key in that
// slot (0: none). A push whose slot names a live bucket of its key
// appends to it, and any other push makes a bucket. All of a key's
// older buckets were made before and stopped receiving pushes before
// its newest, and each bucket is FIFO, so the pop sequence is fixed
// by the pushes alone, not by the heap's layout or by collisions. A
// warp must not be queued twice: the second push would corrupt its
// bucket list.
type eventQueue struct {
	heap    []entry
	buckets []bucket // pool, indexed by entry.b
	free    []int32  // drained buckets
	index   [256]int32

	pops, made int64 // warps popped and buckets made in this run
}

// newEventQueue returns a queue sized for n warps.
func newEventQueue(n int) eventQueue {
	return eventQueue{
		heap:    make([]entry, 0, n),
		buckets: make([]bucket, 0, n),
		free:    make([]int32, 0, n),
	}
}

// push queues w to try to issue at cycle t, keyed by its issued
// count.
//
//gpuperf:noalloc
func (q *eventQueue) push(w *simWarp, t float64) {
	k := key{t, w.issued}
	i := k.slot()
	b := q.index[i] - 1
	if b < 0 || q.buckets[b].head == nil || q.buckets[b].key != k {
		b = q.newBucket(k)
		q.index[i] = b + 1
	}
	bk := &q.buckets[b]
	if bk.tail == nil {
		bk.head = w
	} else {
		bk.tail.next = w
	}
	bk.tail = w
}

// newBucket takes an empty bucket for k and queues it in the heap.
func (q *eventQueue) newBucket(k key) int32 {
	q.made++
	var b int32
	if n := len(q.free); n > 0 {
		b = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		b = int32(len(q.buckets))
		q.buckets = append(q.buckets, bucket{}) //gpuperf:alloc-ok amortized growth; one bucket per queued warp at most
	}
	q.buckets[b].key = k
	e := entry{k, q.made, b}
	h := append(q.heap, e) //gpuperf:alloc-ok amortized growth; one entry per live bucket
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.heap = h
	return b
}

// pop removes and returns the earliest warp and its cycle; the queue
// must not be empty.
//
//gpuperf:noalloc
func (q *eventQueue) pop() (*simWarp, float64) {
	q.pops++
	top := q.heap[0]
	bk := &q.buckets[top.b]
	w := bk.head
	bk.head, w.next = w.next, nil
	if bk.head != nil {
		return w, top.t
	}
	bk.tail = nil
	q.free = append(q.free, top.b) //gpuperf:alloc-ok amortized growth; one slot per bucket in the pool
	h := q.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	q.heap = h
	return w, top.t
}

// simWarp wraps a functional warp with scoreboard state.
type simWarp struct {
	fw    *barra.Warp
	block *simBlock

	regReady  []float64 // per architectural register
	predReady [isa.NumPreds]float64
	nextIssue float64 // in-order issue constraint
	smemReady float64 // no intra-warp shared-memory pipelining: the
	// GT200's small in-warp instruction window means a warp's next
	// shared-memory access waits for the previous one's completion
	// (paper §4.1: latency hiding is inter-warp). Global memory is
	// exempt — its memory-level parallelism is real (paper Fig. 3's
	// transactions-per-thread axis).
	issued int64 // instructions issued (scheduler fairness key)

	// in, class and ready cache the next instruction, its class and
	// the cycle its dependencies allow it to issue; ready < 0 marks
	// them stale. Only the warp's own issue and a barrier release
	// write the state depsReady reads.
	in    *isa.Instruction
	class isa.Class
	ready float64

	waiting bool     // parked at a barrier; has no queued event
	next    *simWarp // successor in its eventQueue bucket
}

type simBlock struct {
	sm        *simSM
	warps     []*simWarp
	atBarrier int
	live      int
}

type simSM struct {
	unitFree [isa.NumClasses]float64
	smemFree float64
	cluster  *simCluster
}

type simCluster struct {
	free float64
}

type sim struct {
	cfg     gpu.Config
	launch  barra.Launch
	code    *barra.Decoded // launch.Prog predecoded once for every block
	mem     *barra.Memory
	banks   *bank.Sim
	coal    *coalesce.Sim
	sms     []*simSM
	clus    []*simCluster
	queue   eventQueue
	nextBlk int
	res     Result
	info    barra.StepInfo
	txBuf   []coalesce.Transaction // reusable coalescer output

	occ          [isa.NumClasses]float64 // issue occupancy per class
	lat          [isa.NumClasses]float64 // result latency per class
	smemTxCycles float64
	smemLat      float64
	gmemRate     float64 // bytes per cycle per cluster
	gmemLat      float64

	budget int64
	issued int64
}

// Run executes the launch with timing and returns the result.
func Run(cfg gpu.Config, l barra.Launch, mem *barra.Memory) (Result, error) {
	return RunContext(context.Background(), cfg, l, mem)
}

// RunContext is Run with cancellation: the event loop observes ctx
// every few thousand events, so a service can abort a long timing
// simulation promptly.
func RunContext(ctx context.Context, cfg gpu.Config, l barra.Launch, mem *barra.Memory) (Result, error) {
	return RunBudget(ctx, cfg, l, mem, 0)
}

// RunBudget is RunContext with a warp-instruction budget (0 = default
// 4e9) guarding against runaway kernels.
func RunBudget(ctx context.Context, cfg gpu.Config, l barra.Launch, mem *barra.Memory, budget int64) (Result, error) {
	s, err := simulate(ctx, cfg, l, mem, budget)
	if err != nil {
		return Result{}, err
	}
	return s.res, nil
}

// simulate is RunBudget returning the finished simulator, whose queue
// counters the package's tests and benchmarks read.
func simulate(ctx context.Context, cfg gpu.Config, l barra.Launch, mem *barra.Memory, budget int64) (*sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := l.Validate(cfg); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, fmt.Errorf("device: nil memory")
	}
	occRes, err := occupancy.Compute(cfg, occupancy.Usage{
		ThreadsPerBlock:   l.Block,
		RegsPerThread:     l.Prog.RegsPerThread,
		SharedMemPerBlock: l.Prog.SharedMemBytes,
	})
	if err != nil {
		return nil, err
	}
	bsim, err := bank.ForGPU(cfg)
	if err != nil {
		return nil, err
	}
	csim, err := coalesce.ForGPU(cfg)
	if err != nil {
		return nil, err
	}

	s := &sim{
		cfg: cfg, launch: l, code: barra.Predecode(l.Prog), mem: mem, banks: bsim, coal: csim,
		budget: budget,
		txBuf:  make([]coalesce.Transaction, 0, gpu.HalfWarp),
		queue:  newEventQueue(min(l.Grid, cfg.NumSMs*occRes.Blocks) * l.WarpsPerBlock()),
	}
	if s.budget <= 0 {
		s.budget = 4e9
	}
	s.res.Occupancy = occRes
	s.res.NumSMs = cfg.NumSMs
	s.res.NumClusters = cfg.NumClusters()

	// Pipeline latency is (approximately) the same wall-clock depth
	// for every class, so classes with fewer units — longer issue
	// occupancy — need fewer warps to cover it: Type IV saturates
	// with 1 warp, Type III around 3, Types I/II around 6-8
	// (paper Fig. 2 left).
	alatency := float64(cfg.ALUPipelineDepth) * float64(gpu.WarpSize) / float64(cfg.SPsPerSM)
	for c := isa.Class(0); int(c) < isa.NumClasses; c++ {
		s.occ[c] = float64(gpu.WarpSize) / float64(c.Units())
		s.lat[c] = alatency
	}
	// One half-warp shared-memory transaction per 2 cycles sustains
	// the 8 SP × 4 B/cycle peak.
	s.smemTxCycles = 2
	s.smemLat = float64(cfg.SharedPipelineDepth) * 4
	s.gmemRate = cfg.PeakGlobalBandwidth() / float64(cfg.NumClusters()) / cfg.CoreClockHz
	s.gmemLat = float64(cfg.GlobalLatencyCycles)

	// Build SMs and clusters.
	s.clus = make([]*simCluster, cfg.NumClusters())
	for i := range s.clus {
		s.clus[i] = &simCluster{}
	}
	s.sms = make([]*simSM, cfg.NumSMs)
	for i := range s.sms {
		s.sms[i] = &simSM{cluster: s.clus[i/cfg.SMsPerCluster]}
	}

	// Initial dispatch: round-robin waves across SMs, up to each
	// SM's resident-block slots.
	for wave := 0; wave < occRes.Blocks; wave++ {
		for _, sm := range s.sms {
			if s.nextBlk >= l.Grid {
				break
			}
			if err := s.startBlock(sm, 0); err != nil {
				return nil, err
			}
		}
	}

	// Main loop. The cancellation check amortizes over a batch of
	// events to stay off the per-event path.
	const ctxCheckEvery = 8192
	for n := 0; len(s.queue.heap) > 0; n++ {
		if n%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		w, t := s.queue.pop()
		exited, err := s.stepWarp(w, t)
		if err != nil {
			return nil, err
		}
		if exited {
			// Block dispatch builds the successor's warps, so it runs
			// here, off the allocation-free per-event path. Nothing is
			// queued between the exit and the dispatch, so the
			// successor's warps reach their buckets in the order an
			// in-step dispatch would give them.
			if err := s.warpExit(w, w.nextIssue); err != nil {
				return nil, err
			}
		}
	}

	s.res.Seconds = s.res.Cycles / cfg.CoreClockHz
	return s, nil
}

func (s *sim) startBlock(sm *simSM, t float64) error {
	l := s.launch
	blockID := s.nextBlk
	s.nextBlk++
	nw := l.WarpsPerBlock()
	shared := make([]uint32, l.Prog.SharedMemBytes/4)
	blk := &simBlock{sm: sm, live: nw}
	for wi := 0; wi < nw; wi++ {
		lanes := l.Block - wi*gpu.WarpSize
		if lanes > gpu.WarpSize {
			lanes = gpu.WarpSize
		}
		fw, err := barra.NewWarp(s.code, blockID, wi, l.Block, l.Grid, lanes, shared, s.mem)
		if err != nil {
			return err
		}
		w := &simWarp{
			fw:       fw,
			block:    blk,
			regReady: make([]float64, l.Prog.RegsPerThread),
			ready:    -1,
		}
		blk.warps = append(blk.warps, w)
		s.queue.push(w, t)
	}
	return nil
}

func touchesShared(in *isa.Instruction) bool {
	if isa.IsShared(in.Op) {
		return true
	}
	return in.SrcA.Kind == isa.KindSmem || in.SrcB.Kind == isa.KindSmem || in.SrcC.Kind == isa.KindSmem
}

// depsReady returns the earliest cycle the instruction at the warp's
// PC may issue, considering the in-order constraint, source
// registers, the guard predicate, and the one-outstanding-access
// shared-memory constraint.
func (s *sim) depsReady(w *simWarp, in *isa.Instruction) float64 {
	t := w.nextIssue
	if touchesShared(in) && w.smemReady > t {
		t = w.smemReady
	}
	double := isa.IsDouble(in.Op)
	t = w.srcReady(t, in.SrcA, double)
	t = w.srcReady(t, in.SrcB, double)
	t = w.srcReady(t, in.SrcC, double)
	if in.Guard != isa.PT {
		if r := w.predReady[in.Guard]; r > t {
			t = r
		}
	}
	return t
}

// srcReady returns the later of t and the cycle source operand o's
// register (and, for double-precision ops, its pair) is ready.
func (w *simWarp) srcReady(t float64, o isa.Operand, double bool) float64 {
	if o.Kind != isa.KindReg {
		return t
	}
	if r := w.regReady[o.Reg]; r > t {
		t = r
	}
	if double {
		if r := w.regReady[o.Reg+1]; r > t {
			t = r
		}
	}
	return t
}

// stepWarp handles one popped event: it re-queues the warp if a
// dependency or its functional unit is not ready at now, and
// otherwise issues one instruction. It reports whether the warp
// exited; the caller then runs warpExit at w.nextIssue.
//
//gpuperf:noalloc
func (s *sim) stepWarp(w *simWarp, now float64) (exited bool, err error) {
	if s.issued >= s.budget {
		return false, fmt.Errorf("device: instruction budget exhausted (%d) — runaway kernel %q?",
			s.budget, s.launch.Prog.Name)
	}
	if w.ready < 0 {
		pc := w.fw.PC()
		if pc >= len(s.launch.Prog.Code) {
			// The warp ran past its last instruction; Step reports it.
			return false, w.fw.Step(&s.info)
		}
		w.in = &s.launch.Prog.Code[pc]
		w.class = isa.ClassOf(w.in.Op)
		w.ready = s.depsReady(w, w.in)
	}
	in, class := w.in, w.class
	sm := w.block.sm

	// Dependency and server availability; reschedule if not yet.
	if w.ready > now {
		s.queue.push(w, w.ready)
		return false, nil
	}
	if free := sm.unitFree[class]; free > now {
		s.queue.push(w, free)
		return false, nil
	}

	// Issue: execute functionally.
	w.ready = -1
	if err := w.fw.Step(&s.info); err != nil {
		return false, err
	}
	s.issued++
	w.issued++
	info := &s.info
	t := now
	occ := s.occ[class]
	sm.unitFree[class] = t + occ
	w.nextIssue = t + occ
	s.res.WarpInstrs++
	s.res.ByClass[class]++
	s.res.BusyInstr += occ
	if end := t + occ; end > s.res.Cycles {
		s.res.Cycles = end
	}

	switch {
	case info.Barrier:
		s.arriveBarrier(w, t+occ)
		return false, nil
	case info.Done:
		return true, nil
	case isa.IsShared(in.Op):
		s.timeShared(w, in, info, t)
	case isa.IsGlobal(in.Op):
		s.timeGlobal(w, in, info, t)
	default:
		done := t + s.lat[class]
		if info.SmemOperand {
			// The shared-memory ALU operand occupies the shared
			// pipeline for one broadcast transaction per active
			// half-warp and adds its latency to the result.
			sm := w.block.sm
			halves := 0
			for half := 0; half < gpu.WarpSize/gpu.HalfWarp; half++ {
				if info.HalfMask(half) != 0 {
					halves++
				}
			}
			start := max(t, sm.smemFree)
			busy := float64(s.smemTxCycles * float64(halves))
			sm.smemFree = start + busy
			s.res.BusyShared += busy
			s.res.SharedBytes += int64(halves) * 4
			if d := start + busy + s.smemLat; d > done {
				done = d
			}
			w.smemReady = start + busy + s.smemLat
		}
		if isa.HasDst(in.Op) {
			w.regReady[in.Dst] = done
			if isa.IsDouble(in.Op) {
				w.regReady[in.Dst+1] = done
			}
		} else if isa.WritesPredicate(in.Op) {
			w.predReady[in.PDst] = t + s.lat[class]
		}
	}

	if !w.fw.Done() {
		s.queue.push(w, w.nextIssue)
	}
	return false, nil
}

// timeShared serializes the access's bank transactions through the
// SM's shared-memory pipeline.
func (s *sim) timeShared(w *simWarp, in *isa.Instruction, info *barra.StepInfo, t float64) {
	sm := w.block.sm
	totalTx, halves := 0, 0
	var buf [gpu.HalfWarp]uint32
	for half := 0; half < gpu.WarpSize/gpu.HalfWarp; half++ {
		addrs := info.GatherHalf(half, &buf)
		if len(addrs) > 0 {
			totalTx += s.banks.Transactions(addrs)
			halves++
		}
	}
	if totalTx == 0 {
		return
	}
	start := max(t, sm.smemFree)
	busy := float64(s.smemTxCycles * float64(totalTx))
	sm.smemFree = start + busy
	s.res.BusyShared += busy
	s.res.SharedBytes += int64(info.ActiveCount) * 4
	// Bank-conflict replays re-traverse the shared-memory pipeline
	// sequentially from the warp's point of view: a k-way conflicted
	// access costs the warp k pipeline passes, which is why the
	// paper's cyclic reduction loses a full factor per conflict
	// doubling. The SM-level server above still charges only the
	// bandwidth (2 cycles/transaction).
	degree := float64(totalTx) / float64(halves)
	done := start + busy + float64(s.smemLat*degree)
	w.smemReady = done
	if in.Op == isa.OpSLD {
		w.regReady[in.Dst] = done
	}
	if done > s.res.Cycles {
		s.res.Cycles = done
	}
}

// timeGlobal pushes the access's coalesced transactions through the
// SM's cluster memory pipeline.
func (s *sim) timeGlobal(w *simWarp, in *isa.Instruction, info *barra.StepInfo, t float64) {
	cl := w.block.sm.cluster
	var lastDone float64
	var buf [gpu.HalfWarp]uint32
	for half := 0; half < gpu.WarpSize/gpu.HalfWarp; half++ {
		addrs := info.GatherHalf(half, &buf)
		if len(addrs) == 0 {
			continue
		}
		s.txBuf = s.coal.HalfWarpInto(s.txBuf[:0], addrs, 4)
		for _, tx := range s.txBuf {
			start := max(t, cl.free)
			busy := float64(tx.Size) / s.gmemRate
			cl.free = start + busy
			s.res.BusyGlobal += busy
			s.res.GlobalBytes += int64(tx.Size)
			s.res.GlobalTransactions++
			if d := start + busy; d > lastDone {
				lastDone = d
			}
		}
	}
	if lastDone == 0 {
		return
	}
	done := lastDone + s.gmemLat
	if in.Op == isa.OpGLD {
		w.regReady[in.Dst] = done
	} else {
		// Stores retire without blocking the warp; account time for
		// the tail only.
		done = lastDone
	}
	if done > s.res.Cycles {
		s.res.Cycles = done
	}
}

func (s *sim) arriveBarrier(w *simWarp, t float64) {
	blk := w.block
	w.waiting = true
	blk.atBarrier++
	if blk.atBarrier < blk.live {
		return
	}
	// Release: all waiting warps resume.
	blk.atBarrier = 0
	for _, ww := range blk.warps {
		if !ww.waiting {
			continue
		}
		ww.waiting = false
		ww.ready = -1
		if ww.nextIssue < t {
			ww.nextIssue = t
		}
		s.queue.push(ww, ww.nextIssue)
	}
}

func (s *sim) warpExit(w *simWarp, t float64) error {
	blk := w.block
	blk.live--
	if blk.atBarrier > 0 && blk.atBarrier >= blk.live {
		return fmt.Errorf("device: %q: warps wait at a barrier after others exited", s.launch.Prog.Name)
	}
	// A block hands its resident slot to exactly one successor: when
	// its last warp exits or, with EarlyRelease, as soon as half of
	// its warps have (an approximation of releasing resources warp
	// by warp).
	release := len(blk.warps)
	if s.cfg.EarlyRelease && release > 1 {
		release /= 2
	}
	if len(blk.warps)-blk.live == release && s.nextBlk < s.launch.Grid {
		return s.startBlock(blk.sm, t)
	}
	return nil
}

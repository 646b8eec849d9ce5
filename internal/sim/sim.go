// Package sim is a discrete-event execution simulator for a built
// schedule: frame sets stream through the scheduled units with true
// chiplet contention (a chiplet serializes the units mapped to it) and
// NoP transfer latencies between dependent units. It validates the
// analytical pipelining latency of the scheduler — the steady-state
// inter-completion interval should match sched/pipeline's figure — and
// measures realized utilization and the busiest NoP link's load.
//
// Engine: Run is event-driven. Each step runs the schedulable task with
// the least (feasible start, seq), where the feasible start is the later
// of the task's dependency-ready time and the free time of every chiplet
// in its gang — the order RunGreedy defines by rescanning every task.
// Tasks carry dependency counters and a global min-heap holds entries
// keyed by (start, seq). Chiplet occupancy only ever pushes a start
// later, so keys are lower bounds. The invariant: every schedulable task
// that has not run is covered by a heap entry whose (key, seq) is at
// most the task's (true start, seq), and a popped entry runs a task only
// when the task's current start equals the key — so every decision is
// the global minimum and results are bit-for-bit those of RunGreedy
// (same task order, same floating-point accumulation order).
// TestEventDrivenMatchesGreedy and FuzzRunMatchesGreedy hold the two
// engines together, and TestRunMatchesGreedyAtWindowSize does at the
// depth of a 64-frame streaming window's backlog.
//
// A step handles the heap's root in place: most steps push at least
// one entry (a successor, a parked task's representative, a re-keyed
// representative), and the first push takes the root's slot with one
// sift-down. Only a step that pushes nothing removes the root.
//
// Two devices keep the heap small under backlog:
//
//   - Frame release. A frame's source tasks enter the heap only when a
//     frame not yet released could hold the next event: before each
//     pop, frames are released in frame order while the heap is empty
//     or the earliest ready time among all unreleased frames (a suffix
//     minimum, since jittered arrivals need not be monotone) is at most
//     the heap top's key. The heap holds in-flight frames, not the
//     whole window.
//   - Wait queues. A task found blocked by a busy chiplet — when it
//     becomes schedulable, or when its entry pops with a start that
//     moved past the key — is parked on the chiplet that now sets its
//     start. Each chiplet keeps its parked tasks as bare seqs (a
//     waiter's start is its chiplet's) in a min-heap, because waiters
//     do not arrive in seq order, and one live representative entry in
//     the global heap: (the chiplet's free time at push, its smallest
//     parked seq). When the chiplet is granted, only the
//     representative is re-keyed, not every waiter. A representative
//     that pops at the chiplet's free time hands its task the same test
//     as a task's own entry: run it if its start equals the key, else
//     park it on the chiplet that now blocks it. Superseded
//     representatives are dropped when they pop.
//
// Representation: every frame executes the same task DAG (dependencies
// never cross frames; arrivals only gate starts), so Prepare compiles
// the schedule once into a per-frame template — flat task definitions
// with CSR dependency/successor lists, gangs as chiplet ordinals
// (chiplet.MCM.Ord) and the per-frame busiest NoP link — and Run
// instantiates `frames` copies of it arithmetically: global task seq =
// frame<<shift | template index, where 2^shift is the least power of
// two at least the template size T. That is the order of frame*T +
// index, the original frame-major construction order, and a shift and
// a mask split a seq without dividing; the per-task scratch holds
// 2^shift slots per frame, fewer than 2*T. The event loop itself runs
// on pooled flat arrays (no per-task objects, no map lookups, no
// interface boxing in the heap), so a streaming run allocates almost
// nothing beyond its Result.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"mcmnpu/internal/nop"
	"mcmnpu/internal/sched"
	"mcmnpu/internal/trace"
)

// taskDef is one unit execution slot of the per-frame template. Deps,
// successors and gang chiplets are ranges into the Graph's shared CSR
// arrays.
type taskDef struct {
	unit  *sched.Unit
	durMs float64 // unit.PerShardMs at Prepare time

	depOff, depEnd   int32 // into Graph.depList / Graph.depExtra
	succOff, succEnd int32 // into Graph.succList
	gangOff, gangEnd int32 // into Graph.gangList
}

// Graph is a schedule compiled for simulation: the per-frame task
// template plus everything Run needs that does not depend on the frame
// count. A Graph is immutable after Prepare and safe for concurrent
// Run calls — the scenario runner prepares once and fans trace windows
// across a worker pool.
type Graph struct {
	s    *sched.Schedule
	defs []taskDef

	depList  []int32   // template-local dependency indices
	depExtra []float64 // NoP latency charged on top of each dependency
	succList []int32   // template-local successor indices
	lastTmpl []int32   // template indices of the frame's terminal tasks
	gangList []int32   // per-def chiplet ordinals (MCM.Ord)
	pes      []float64 // PEs per chiplet ordinal

	// maxLink is the busiest NoP link's bytes per frame over the XY
	// routes of every inter-unit transfer. Every frame moves the same
	// bytes, so a run's total is one multiplication away.
	maxLink int64
}

// Result summarizes a simulation run.
type Result struct {
	Frames     int
	MakespanMs float64
	// SteadyIntervalMs is the average inter-completion interval over the
	// second half of the run: the realized pipelining latency.
	SteadyIntervalMs float64
	ThroughputFPS    float64
	UtilPct          float64 // busy-PE-time / (PEs * makespan)
	FrameLatenciesMs []float64

	// The busiest NoP link's traffic over the whole run (XY routes of
	// every inter-unit transfer) and its realized bandwidth demand —
	// evidence for the paper's claim that the NoP never becomes the
	// bottleneck.
	BusiestLinkBytes   int64
	LinkUtilizationPct float64 // busiest link bytes / makespan / link bandwidth
}

// Prepare compiles the schedule's per-frame task template: the
// schedule's chains (sched.StageSchedule.Chains) become serial task
// chains, and its transfers (sched.Schedule.TransferMs and
// sched.AppendFanOut) the latencies and link bytes of their edges. The
// returned Graph snapshots unit latencies and placements, so it must be
// rebuilt if the schedule is modified.
func Prepare(s *sched.Schedule) (*Graph, error) {
	m := s.MCM
	g := &Graph{s: s, pes: make([]float64, 0, m.Chiplets())}
	for _, c := range m.Coords() {
		g.pes = append(g.pes, float64(m.At(c).PEs))
	}

	type tpl struct {
		unit  *sched.Unit
		deps  []int32
		extra []float64
	}
	var tpls []tpl
	var prevTerminals []int32
	for _, ss := range s.Stages[:len(s.Pipeline.Stages)] {
		var terminals []int32
		for chain := range ss.Chains() {
			for k, u := range chain {
				t := tpl{unit: u}
				if k > 0 {
					t.deps = append(t.deps, int32(len(tpls)-1))
					t.extra = append(t.extra, s.TransferMs(chain[k-1], u))
				} else {
					// The stage boundary waits for every upstream
					// chain terminal plus that terminal's own
					// transfer (each terminal is a distinct unit
					// with its own placement, so latencies genuinely
					// differ per dependency).
					for _, pt := range prevTerminals {
						t.deps = append(t.deps, pt)
						t.extra = append(t.extra, s.TransferMs(tpls[pt].unit, u))
					}
				}
				tpls = append(tpls, t)
			}
			terminals = append(terminals, int32(len(tpls)-1))
		}
		if len(terminals) > 0 {
			prevTerminals = terminals
		}
	}
	if len(tpls) == 0 {
		return nil, fmt.Errorf("sim: schedule has no units")
	}
	g.lastTmpl = prevTerminals

	// Flatten to CSR and charge each dependency's transfers to the links
	// of their XY routes.
	linkBytes := make(map[nop.Link]int64)
	var fanOut []nop.Transfer
	succs := make([][]int32, len(tpls))
	g.defs = make([]taskDef, len(tpls))
	for i, t := range tpls {
		d := &g.defs[i]
		d.unit = t.unit
		d.durMs = t.unit.PerShardMs
		d.depOff = int32(len(g.depList))
		for k, dep := range t.deps {
			g.depList = append(g.depList, dep)
			g.depExtra = append(g.depExtra, t.extra[k])
			succs[dep] = append(succs[dep], int32(i))
			fanOut = sched.AppendFanOut(fanOut[:0], tpls[dep].unit, t.unit)
			for _, tr := range fanOut {
				for l := range nop.Route(tr.Src, tr.Dst) {
					linkBytes[l] += tr.Bytes
				}
			}
		}
		d.depEnd = int32(len(g.depList))
		d.gangOff = int32(len(g.gangList))
		for _, c := range t.unit.Chiplets {
			g.gangList = append(g.gangList, int32(m.Ord(c)))
		}
		d.gangEnd = int32(len(g.gangList))
	}
	for i := range g.defs {
		g.defs[i].succOff = int32(len(g.succList))
		g.succList = append(g.succList, succs[i]...)
		g.defs[i].succEnd = int32(len(g.succList))
	}
	for _, b := range linkBytes {
		g.maxLink = max(g.maxLink, b)
	}
	return g, nil
}

// startEvent is one heap entry keyed by a lower bound on a feasible
// start: a task's own entry (ci < 0), or the representative of chiplet
// ci's wait queue, carrying that queue's smallest parked seq.
type startEvent struct {
	start float64
	seq   int
	ci    int32
}

// before orders events by (start, seq). The seq tie-break reproduces
// the greedy scan's lowest-index-wins rule.
func (e startEvent) before(o startEvent) bool {
	if e.start != o.start {
		return e.start < o.start
	}
	return e.seq < o.seq
}

// eventHeap is a typed binary min-heap of startEvents ordered by
// (start, seq) — container/heap's algorithm without the interface
// boxing, moving a hole instead of swapping entries. Entries can share
// a (start, seq) only when a chiplet re-pushes a representative equal
// to a superseded one still in the heap; such twins are
// interchangeable.
type eventHeap []startEvent

func (h *eventHeap) push(e startEvent) {
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !e.before(s[i]) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = e
}

// fill places e in the hole at i, moving smaller children up into it.
func (h eventHeap) fill(i int, e startEvent) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			j = r
		}
		if !h[j].before(e) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = e
}

// dropRoot removes the minimum.
func (h *eventHeap) dropRoot() {
	s := *h
	n := len(s) - 1
	*h = s[:n]
	if n > 0 {
		s[:n].fill(0, s[n])
	}
}

// seqHeap is a binary min-heap of bare task seqs: one chiplet's wait
// queue. Waiters do not arrive in seq order.
type seqHeap []int

func (q *seqHeap) push(seq int) {
	*q = append(*q, seq)
	s := *q
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if seq >= s[i] {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = seq
}

// dropMin removes the smallest seq.
func (q *seqHeap) dropMin() {
	s := *q
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*q = s
	if n == 0 {
		return
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && s[r] < s[l] {
			j = r
		}
		if last <= s[j] {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = last
}

// runScratch is the pooled flat working state of one Run: everything
// sized by task, frame or chiplet count, so streaming windows reuse one
// warm allocation set instead of rebuilding per-task objects and maps.
type runScratch struct {
	waiting []int32
	ready   []float64
	end     []float64
	free    []float64
	busy    []float64
	h       eventHeap
	// held is set while a step processes h's root in place: the step's
	// first push takes the root's slot, and a step that pushes nothing
	// removes the root.
	held bool

	// sufMin[f] is the earliest set-ready time among frames >= f.
	sufMin []float64

	// Per-chiplet wait queues of parked seqs. repSeq[c] is the seq of
	// chiplet c's live representative in h (-1: none; between steps,
	// exactly when wq[c] is empty) and repKey[c] its key.
	wq     []seqHeap
	repKey []float64
	repSeq []int
}

var scratchPool = sync.Pool{New: func() any { return &runScratch{} }}

// grab sizes the scratch for n task slots in the given frames over m
// chiplets. Only the per-chiplet state needs resetting: waiting is
// written when a frame is released, ready/end entries before any read
// (dependency counters gate every read behind the writer), and sufMin
// by Run's backward pass.
func (sc *runScratch) grab(n, frames, m int) {
	if cap(sc.waiting) < n {
		sc.waiting = make([]int32, n)
		sc.ready = make([]float64, n)
		sc.end = make([]float64, n)
	}
	sc.waiting = sc.waiting[:n]
	sc.ready = sc.ready[:n]
	sc.end = sc.end[:n]
	if cap(sc.sufMin) < frames {
		sc.sufMin = make([]float64, frames)
	}
	sc.sufMin = sc.sufMin[:frames]
	if cap(sc.free) < m {
		sc.free = make([]float64, m)
		sc.busy = make([]float64, m)
		sc.repKey = make([]float64, m)
		sc.repSeq = make([]int, m)
		sc.wq = make([]seqHeap, m)
	}
	sc.free = sc.free[:m]
	sc.busy = sc.busy[:m]
	sc.repKey = sc.repKey[:m]
	sc.repSeq = sc.repSeq[:m]
	sc.wq = sc.wq[:m]
	for i := range sc.free {
		sc.free[i] = 0
		sc.busy[i] = 0
		sc.repSeq[i] = -1
		sc.wq[i] = sc.wq[i][:0]
	}
	sc.h = sc.h[:0]
	sc.held = false
}

// push adds e to the event heap, into the root's slot if a step still
// holds it: one sift-down in place of a pop and a push.
func (sc *runScratch) push(e startEvent) {
	if sc.held {
		sc.held = false
		sc.h.fill(0, e)
		return
	}
	sc.h.push(e)
}

// pushRep pushes a fresh representative for chiplet c's non-empty wait
// queue, superseding any earlier one.
func (sc *runScratch) pushRep(c int32) {
	sc.repKey[c], sc.repSeq[c] = sc.free[c], sc.wq[c][0]
	sc.push(startEvent{start: sc.repKey[c], seq: sc.repSeq[c], ci: c})
}

// Run streams `frames` frame sets (arriving per the trace generator)
// through the compiled schedule and returns realized metrics.
//
//perf:hot — the per-event simulator loop; PR 5 de-allocated it and rule P1 keeps it that way
func (g *Graph) Run(frames int, gen *trace.Generator) (Result, error) {
	if frames <= 0 {
		return Result{}, fmt.Errorf("sim: non-positive frame count %d", frames)
	}
	if gen == nil {
		gen = trace.NewGenerator(1)
	}
	arrivals := gen.FrameSets(frames)

	// Task seqs are frame<<shift | template index: the frame-major order
	// of frame*T + index, split with a shift and a mask.
	T := len(g.defs)
	shift := bits.Len(uint(T - 1))
	mask := 1<<shift - 1
	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	sc.grab(frames<<shift, frames, g.s.MCM.Chiplets())

	sc.sufMin[frames-1] = arrivals[frames-1].ReadyMs
	for f := frames - 2; f >= 0; f-- {
		sc.sufMin[f] = min(arrivals[f].ReadyMs, sc.sufMin[f+1])
	}

	// startOf: a task's feasible start is its dependency-readiness
	// pushed later by the occupancy of its gang's chiplets.
	startOf := func(seq, li int) float64 {
		d := &g.defs[li]
		start := sc.ready[seq]
		for _, ci := range g.gangList[d.gangOff:d.gangEnd] {
			if f := sc.free[ci]; f > start {
				start = f
			}
		}
		return start
	}

	// park queues a task blocked by a busy chiplet on the gang chiplet
	// whose free time is its start. A seq below the live
	// representative's needs a new representative, which would otherwise
	// sort after the task's (start, seq).
	park := func(seq int, gang []int32, start float64) {
		p := gang[0]
		for _, ci := range gang {
			if sc.free[ci] == start {
				p = ci
				break
			}
		}
		sc.wq[p].push(seq)
		if sc.repSeq[p] < 0 || seq < sc.repSeq[p] {
			sc.pushRep(p)
		}
	}
	// enqueue places a task that just became schedulable: its own heap
	// entry if it can start when ready, else a wait queue.
	enqueue := func(seq, li int) {
		d := &g.defs[li]
		if start := startOf(seq, li); start > sc.ready[seq] {
			park(seq, g.gangList[d.gangOff:d.gangEnd], start)
		} else {
			sc.push(startEvent{start: start, seq: seq, ci: -1})
		}
	}

	next, remaining := 0, frames*T
	for {
		if sc.held {
			// The last step pushed nothing: its root is still there.
			sc.held = false
			sc.h.dropRoot()
		}
		// Release frames in order while one of them could hold the next
		// event.
		for next < frames && (len(sc.h) == 0 || sc.sufMin[next] <= sc.h[0].start) {
			off := next << shift
			for li := range g.defs {
				d := &g.defs[li]
				sc.waiting[off+li] = d.depEnd - d.depOff
				if d.depOff == d.depEnd {
					sc.ready[off+li] = arrivals[next].ReadyMs
					enqueue(off+li, li)
				}
			}
			next++
		}
		if len(sc.h) == 0 {
			break
		}

		// The step works on the heap's root in place (see push).
		ev := sc.h[0]
		sc.held = true
		c := ev.ci
		if c >= 0 {
			if ev.start != sc.repKey[c] || ev.seq != sc.repSeq[c] {
				continue // superseded representative
			}
			if ev.start < sc.free[c] {
				// The chiplet was granted since the push: re-key the
				// whole queue through its representative.
				sc.pushRep(c)
				continue
			}
			sc.wq[c].dropMin() // ev.seq, the queue's smallest
			sc.repSeq[c] = -1
		}

		seq := ev.seq
		li := seq & mask
		d := &g.defs[li]
		gang := g.gangList[d.gangOff:d.gangEnd]
		if cur := startOf(seq, li); cur > ev.start {
			// Stale: a chiplet of the gang was granted since the push
			// (cur > key >= ready).
			park(seq, gang, cur)
		} else {
			endMs := ev.start + d.durMs
			sc.end[seq] = endMs
			for _, ci := range gang {
				sc.free[ci] = endMs
				sc.busy[ci] += d.durMs
			}
			remaining--
			base := seq - li
			for _, si := range g.succList[d.succOff:d.succEnd] {
				gs := base + int(si)
				sc.waiting[gs]--
				if sc.waiting[gs] == 0 {
					sd := &g.defs[si]
					ready := arrivals[seq>>shift].ReadyMs
					for k := sd.depOff; k < sd.depEnd; k++ {
						if e := sc.end[base+int(g.depList[k])] + g.depExtra[k]; e > ready {
							ready = e
						}
					}
					sc.ready[gs] = ready
					enqueue(gs, int(si))
				}
			}
		}
		// The queue's next waiter needs a representative, unless a
		// successor parked on c has already pushed one.
		if c >= 0 && sc.repSeq[c] < 0 && len(sc.wq[c]) > 0 {
			sc.pushRep(c)
		}
	}
	if remaining > 0 {
		return Result{}, fmt.Errorf("sim: deadlock with %d tasks remaining", remaining)
	}

	return g.summarize(frames, 1<<shift, arrivals, sc.end, sc.busy), nil
}

// Run compiles the schedule and streams `frames` frame sets through it;
// see Graph.Run. Callers running many windows over one schedule should
// Prepare once and share the Graph.
func Run(s *sched.Schedule, frames int, gen *trace.Generator) (Result, error) {
	if frames <= 0 {
		return Result{}, fmt.Errorf("sim: non-positive frame count %d", frames)
	}
	g, err := Prepare(s)
	if err != nil {
		return Result{}, err
	}
	return g.Run(frames, gen)
}

// summarize assembles the Result shared by both engines from the flat
// end-time and per-ordinal busy arrays: summary metrics plus the
// whole-run busiest-link accounting (the per-frame load times the
// frame count). Frame f's tasks sit at end[f*stride:], in template
// order.
func (g *Graph) summarize(frames, stride int, arrivals []trace.SetArrival, end, busy []float64) Result {
	r := Result{Frames: frames}

	completions := make([]float64, frames)
	r.FrameLatenciesMs = make([]float64, 0, frames)
	for f := 0; f < frames; f++ {
		var e float64
		for _, li := range g.lastTmpl {
			if v := end[f*stride+int(li)]; v > e {
				e = v
			}
		}
		completions[f] = e
		r.FrameLatenciesMs = append(r.FrameLatenciesMs, e-arrivals[f].ReadyMs)
		if e > r.MakespanMs {
			r.MakespanMs = e
		}
	}

	// Steady-state interval: average completion gap over the back half.
	sort.Float64s(completions)
	half := frames / 2
	if frames >= 4 && completions[frames-1] > completions[half] {
		r.SteadyIntervalMs = (completions[frames-1] - completions[half]) / float64(frames-1-half)
	} else if frames > 1 {
		r.SteadyIntervalMs = (completions[frames-1] - completions[0]) / float64(frames-1)
	} else {
		r.SteadyIntervalMs = r.MakespanMs
	}
	if r.SteadyIntervalMs > 0 {
		r.ThroughputFPS = 1e3 / r.SteadyIntervalMs
	}

	// Busy accounting in ordinal (row-major) order: float addition is
	// not associative, so the fixed order keeps UtilPct identical
	// between runs. A chiplet without work adds exactly zero.
	var busyPE float64
	for o, b := range busy {
		busyPE += b * g.pes[o]
	}
	r.BusiestLinkBytes = g.maxLink * int64(frames)
	if r.MakespanMs > 0 {
		r.UtilPct = busyPE / (float64(g.s.MCM.TotalPEs()) * r.MakespanMs) * 100
		gbps := float64(r.BusiestLinkBytes) / (r.MakespanMs * 1e-3) / 1e9
		r.LinkUtilizationPct = gbps / g.s.MCM.NoP.LinkBWGBs * 100
	}
	return r
}

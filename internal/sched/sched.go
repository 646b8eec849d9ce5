package sched

import (
	"fmt"
	"slices"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/workloads"
)

// Options tunes Algorithm 1.
type Options struct {
	// Tolerance is the allowed fractional excess of a stage's pipelining
	// latency over the base latency before it counts as a bottleneck
	// (the paper's tolerance coefficient); a value <= 0 selects
	// DefaultTolerance.
	Tolerance float64
	// Cache memoizes layer costs, sharded layer costs and per-graph
	// node-cost vectors across builds (and, when shared, across the
	// schedules of a sweep). Within one Build, Algorithm 1's repeated
	// unit costings hit the build's unit-cost rows first; the cache serves
	// first sightings and cross-build reuse. nil evaluates uncached;
	// results are bit-identical either way.
	Cache *costmodel.Cache
}

// DefaultTolerance is the paper's tolerance coefficient. dse.Space.Best
// applies it to its latency constraint as well.
const DefaultTolerance = 0.05

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{Tolerance: DefaultTolerance}
}

const (
	// maxIters caps the greedy iterations (safety net).
	maxIters = 256
	// baseStage is the stage whose pipelining latency anchors the
	// throughput matching (the paper chooses FE+BFPN; see §IV-A).
	baseStage = workloads.StageFE
)

// Step records one greedy action for the Fig 10 style trace.
type Step struct {
	Action       string
	Stage        string
	PipeLatMs    float64 // whole-schedule pipelining latency after the step
	BaseMs       float64
	ChipletsFree int
}

// Schedule is the result of Algorithm 1.
type Schedule struct {
	MCM      *chiplet.MCM
	Pipeline *workloads.Pipeline
	Opts     Options
	Stages   []*StageSchedule
	Steps    []Step
	BaseMs   float64

	// InterStage transfers connect consecutive stages' boundary units.
	InterStage []nop.Transfer

	// shared marks a package too small to partition: every stage's pool
	// is the whole mesh, so borrowing a chiplet cannot add capacity.
	shared bool
	// ws is the build's scratch, held from newSchedule or copyOnto until
	// release returns it to the pool.
	ws *workspace
}

// Build runs Algorithm 1: quadrant allocation, initial per-layer
// placement, then nested greedy throughput matching with recursive
// sharding and surplus-chiplet reallocation. Safe for concurrent use,
// also on one pipeline: every call works on its own pools and units,
// and the pipeline is only read.
//
//perf:hot — runs once per sweep candidate; its improvement loops dominate sweep time
func Build(p *workloads.Pipeline, m *chiplet.MCM, opts Options) (*Schedule, error) {
	s, err := newSchedule(p, m, opts)
	if err != nil {
		return nil, err
	}
	out, err := s.solve()
	s.release()
	return out, err
}

// newSchedule allocates the stage pools and decomposes every stage into
// its initial units. It takes a pooled workspace, the build-scoped
// scratch solve works in, which the caller hands back with release.
func newSchedule(p *workloads.Pipeline, m *chiplet.MCM, opts Options) (*Schedule, error) {
	pools, shared, err := allocatePools(m, len(p.Stages))
	if err != nil {
		return nil, err
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = DefaultTolerance
	}
	s := &Schedule{MCM: m, Pipeline: p, Opts: opts, shared: shared, ws: takeWorkspace(m, len(pools)),
		Stages: make([]*StageSchedule, 0, len(pools))}
	s.Steps = s.ws.steps[:0]
	for i, st := range p.Stages {
		s.Stages = append(s.Stages, newStageSchedule(i, st, pools[i], m, opts.Cache, s.ws))
	}
	if len(pools) > len(p.Stages) {
		// Unassigned surplus partition (e.g. the trunks quadrant in a
		// 3-stage run): modeled as a stage without units whose idle
		// chiplets borrowChiplet can raid.
		s.Stages = append(s.Stages, newStageSchedule(len(p.Stages),
			workloads.Stage{Name: "surplus"}, pools[len(p.Stages)], m, opts.Cache, s.ws))
	}
	return s, nil
}

// solve runs Algorithm 1 on freshly instantiated stages: balance, then
// finish.
func (s *Schedule) solve() (*Schedule, error) {
	if err := s.balance(); err != nil {
		return nil, err
	}
	return s.finish()
}

// balance is the NoP-free half of Algorithm 1: the initial refresh and
// the outer greedy loop, which matches every stage's pipelining latency
// to the base stage's. Its steps compare only PipeLatMs and per-shard
// latencies, which placement and the cost model give without a
// transfer, so nothing it decides reads the package's NoP.
func (s *Schedule) balance() error {
	if err := s.refreshAll(); err != nil {
		return err
	}
	s.record("init", "")

	// Outer loop: alleviate bottleneck stages until throughput matches.
	skip := s.ws.skip
	for iter := 0; iter < maxIters; iter++ {
		base := s.Stages[baseStage].PipeLatMs
		s.BaseMs = base
		bn := s.worstStage(base)
		if bn == nil {
			// All stages matched: push the base down while idle
			// chiplets remain (Fig 10).
			if !s.improveBase(skip) {
				break
			}
			continue
		}
		if !s.relieve(bn, skip) {
			// Saturated: try pulling an idle chiplet from another stage.
			if !s.borrowChiplet(bn) {
				break
			}
			if err := bn.refresh(); err != nil {
				return err
			}
			clearStageSkips(skip, bn.Index)
			s.record("borrow-chiplet", bn.Name)
		}
	}
	return nil
}

// finish is the half of Algorithm 1 that reads the NoP: the additional
// sharding step, whose stage E2E includes the intra-stage transfers,
// then the final refresh, every stage's chain metrics and the
// stage-boundary transfers.
func (s *Schedule) finish() (*Schedule, error) {
	s.useIdleChiplets()
	if err := s.refreshAll(); err != nil {
		return nil, err
	}
	for _, ss := range s.Stages {
		ss.computeMetrics()
	}
	s.buildInterStage()
	return s, nil
}

// useIdleChiplets performs the paper's "additional sharding step": once
// throughput is matched, stages that still own idle chiplets keep
// sharding their end-to-end-dominant units — it costs nothing and
// shortens the stage critical path (Fig 6 shards the spatial FFN from
// 4-fold to 8-fold this way). It is the one greedy loop that reads
// E2EMs, so it runs computeMetrics on entering a stage with idle
// chiplets and after each refresh.
func (s *Schedule) useIdleChiplets() {
	skip := s.ws.skip
	for i := range s.Pipeline.Stages {
		ss := s.Stages[i]
		clear(skip)
		if ss.idle > 0 {
			ss.computeMetrics()
		}
		for guard := 0; guard < 4*len(ss.Pool); guard++ {
			if ss.idle == 0 {
				break
			}
			u := ss.bottleneckUnit(skip)
			if u == nil {
				break
			}
			if u.canSegment() {
				skip[u] = true // segmentation here would add NoP for no throughput gain
				continue
			}
			beforeE2E := ss.E2EMs
			ss.snapshot(&s.ws.snap)
			if _, _, ok := s.applyImprovement(ss, u); !ok {
				skip[u] = true
				continue
			}
			if err := ss.refresh(); err == nil {
				ss.computeMetrics()
				if ss.E2EMs < beforeE2E-1e-9 {
					//lint:allow hotpathalloc -- one trace row per accepted sharding step, retained in Steps: the label is the product
					s.record(fmt.Sprintf("idle-shard %s", u.Label()), ss.Name)
					continue
				}
			}
			// Restore the E2E too; the rejected step's transfers stay
			// until the next computeMetrics, and nothing reads them before.
			ss.restore(&s.ws.snap)
			ss.E2EMs = beforeE2E
			skip[u] = true
		}
	}
}

// allocatePools carves the mesh into per-stage chiplet pools: one
// contiguous partition per stage when the package is large enough
// (quadrants for the 6x6 package), otherwise all stages share the full
// pool (the monolithic / few-chip baselines) and the bool reports it.
func allocatePools(m *chiplet.MCM, nStages int) ([][]nop.Coord, bool, error) {
	coords := m.Coords()
	if len(coords) < 2*nStages {
		// Too few chiplets for meaningful per-stage partitions (the
		// monolithic and few-chip baselines): every stage shares the
		// full pool and the packing is global.
		pools := make([][]nop.Coord, nStages)
		for i := range pools {
			pools[i] = coords
		}
		return pools, true, nil
	}
	// Prefer the quadrant split of the paper: 4 partitions for a
	// 4-stage pipeline. A 3-stage view still uses 4 partitions, with
	// the last one left as a surplus pool that borrowChiplet can raid
	// (borrowing only takes idle chiplets, and surplus ones are idle).
	parts := nStages
	if m.Chiplets()%parts != 0 && m.Chiplets()%4 == 0 {
		parts = 4
	}
	if m.Chiplets()%parts != 0 {
		// Uneven split: round-robin the remainder.
		per := m.Chiplets() / parts
		pools := make([][]nop.Coord, nStages)
		for i := 0; i < nStages; i++ {
			lo := i * per
			hi := lo + per
			if i == nStages-1 {
				hi = len(coords)
			}
			pools[i] = coords[lo:hi]
		}
		return pools, false, nil
	}
	split, err := m.Partitions(parts)
	if err != nil {
		return nil, false, err
	}
	pools := make([][]nop.Coord, nStages)
	for i := 0; i < nStages; i++ {
		pools[i] = split[i]
	}
	// Extra partitions (e.g. the trunks quadrant in a 3-stage run)
	// augment the last stage's reachable surplus via a shared tail pool:
	// they stay unassigned; borrowChiplet finds them through the spare
	// list.
	if parts > nStages {
		total := 0
		for i := nStages; i < parts; i++ {
			total += len(split[i])
		}
		spare := make([]nop.Coord, 0, total)
		for i := nStages; i < parts; i++ {
			spare = append(spare, split[i]...)
		}
		pools = append(pools, spare) // sentinel surplus pool
	}
	return pools, false, nil
}

// refreshAll recomputes every stage.
func (s *Schedule) refreshAll() error {
	for _, ss := range s.Stages {
		if err := ss.refresh(); err != nil {
			return err
		}
	}
	return nil
}

// worstStage returns the stage (other than base) whose pipelining
// latency exceeds base*(1+tol) by the most, or nil.
func (s *Schedule) worstStage(base float64) *StageSchedule {
	limit := base * (1 + s.Opts.Tolerance)
	var worst *StageSchedule
	for i, ss := range s.Stages {
		if i == baseStage {
			continue
		}
		if ss.PipeLatMs > limit && (worst == nil || ss.PipeLatMs > worst.PipeLatMs) {
			worst = ss
		}
	}
	return worst
}

// relieve performs one inner-loop step on stage ss: shard or segment its
// bottleneck unit. Returns false when the stage is saturated. A step
// that fails to reduce the stage's pipelining latency is reverted.
func (s *Schedule) relieve(ss *StageSchedule, skip map[*Unit]bool) bool {
	for {
		u := ss.bottleneckUnit(skip)
		if u == nil {
			return false
		}
		before := ss.PipeLatMs
		beforeUnit := u.PerShardMs
		ss.snapshot(&s.ws.snap)
		first, second, applied := s.applyImprovement(ss, u)
		if !applied {
			skip[u] = true
			continue
		}
		if err := ss.refresh(); err == nil {
			unitAfter := first.PerShardMs
			if second != nil {
				unitAfter = maxf(unitAfter, second.PerShardMs)
			}
			// Accept when the stage didn't regress and either the stage
			// bottleneck or the targeted unit got faster (with replicated
			// models, one instance's split doesn't move the stage max
			// until its twin splits too).
			if ss.PipeLatMs <= before+1e-9 &&
				(ss.PipeLatMs < before-1e-9 || unitAfter < beforeUnit-1e-9) {
				//lint:allow hotpathalloc -- runs once per accepted improvement just before returning; the label lands in Steps
				s.record(fmt.Sprintf("shard %s", u.Label()), ss.Name)
				return true
			}
		}
		// Regression (pool saturated for this unit): roll back.
		ss.restore(&s.ws.snap)
		skip[u] = true
	}
}

// applyImprovement shards a single-layer unit one efficient step further
// or splits a multi-layer unit into two pipeline segments. It returns
// the units carrying the work afterwards: u and nil after sharding, the
// two segments after a split. A rejected step is undone by restoring a
// snapshot, which also puts back the units list it splices in place.
func (s *Schedule) applyImprovement(ss *StageSchedule, u *Unit) (first, second *Unit, ok bool) {
	if u.canSegment() {
		a := s.MCM.At(ss.Pool[0])
		first, second, err := u.segment(a, ss.cache, ss.rows)
		if err != nil {
			return nil, nil, false
		}
		if i := slices.Index(ss.Units, u); i >= 0 {
			ss.Units = slices.Replace(ss.Units, i, i+1, first, second)
			return first, second, true
		}
		return nil, nil, false
	}
	next := u.nextShards(len(ss.Pool))
	if next <= u.Shards {
		return nil, nil, false
	}
	u.Shards = next
	return u, nil, true
}

// improveBase tries to reduce the base stage's pipelining latency when
// every other stage has already matched it and idle chiplets remain
// anywhere on the package (Fig 10's dual-NPU behaviour: the FE models
// split into two pipeline segments, halving the base).
func (s *Schedule) improveBase(skip map[*Unit]bool) bool {
	base := s.Stages[baseStage]
	idleTotal := s.idleChiplets()
	if idleTotal == 0 {
		return false
	}
	// Splitting every FE replica needs one extra chiplet per replica.
	splittable := make([]*Unit, 0, len(base.Units))
	for _, u := range base.Units {
		if u.canSegment() && !skip[u] {
			splittable = append(splittable, u)
		}
	}
	if len(splittable) == 0 || idleTotal < len(splittable) {
		// Fall back to improving one base unit at a time (splitting the
		// replicas one by one — the stage max only moves once the last
		// twin splits, so per-unit progress counts).
		if base.idle == 0 && s.borrowChiplet(base) {
			clearStageSkips(skip, base.Index)
			if err := base.refresh(); err != nil {
				return false
			}
		}
		return s.relieve(base, skip)
	}
	// Grow the base pool with borrowed idle chiplets, then split.
	for i := 0; i < len(splittable); i++ {
		if base.idle == 0 && !s.borrowChiplet(base) {
			return false
		}
	}
	clearStageSkips(skip, base.Index)
	before := base.PipeLatMs
	for _, u := range splittable {
		if _, _, ok := s.applyImprovement(base, u); !ok {
			skip[u] = true
		}
	}
	if err := base.refresh(); err != nil {
		return false
	}
	if base.PipeLatMs >= before-1e-9 {
		for _, u := range splittable {
			skip[u] = true
		}
		return false
	}
	s.record("segment-base-models", base.Name)
	return true
}

// clearStageSkips unmarks a stage's units after its pool grows: a unit
// that could not shard into a saturated pool may fit now.
func clearStageSkips(skip map[*Unit]bool, stageIdx int) {
	for u := range skip {
		if u.StageIdx == stageIdx {
			delete(skip, u)
		}
	}
}

// borrowChiplet moves one idle chiplet from the donor stage with the
// most idle chiplets (or the surplus pool) into ss's pool: the donor's
// last idle pool entry. On shared pools ss already holds every chiplet,
// so it borrows nothing.
func (s *Schedule) borrowChiplet(ss *StageSchedule) bool {
	if s.shared {
		return false
	}
	var donor *StageSchedule
	for _, other := range s.Stages {
		if other != ss && other.idle > 0 && (donor == nil || other.idle > donor.idle) {
			donor = other
		}
	}
	if donor == nil {
		return false
	}
	i := len(donor.Pool) - 1
	for donor.scratch.busy[s.MCM.Ord(donor.Pool[i])] {
		i--
	}
	c := donor.Pool[i]
	donor.Pool = append(donor.Pool[:i], donor.Pool[i+1:]...)
	donor.idle--
	ss.Pool = append(ss.Pool, c)
	ss.idle++
	return true
}

// idleChiplets counts the pool chiplets without work over every stage.
func (s *Schedule) idleChiplets() int {
	n := 0
	for _, ss := range s.Stages {
		n += ss.idle
	}
	return n
}

// record appends a trace step with the current global state. On a
// partitioned package each chiplet lies in one stage's pool, so the
// largest stage PipeLatMs is PipeLatMs bit for bit, without the
// per-chiplet pass over every stage that shared pools need.
func (s *Schedule) record(action, stage string) {
	var pipe float64
	if s.shared {
		pipe = s.pipeLat(s.ws.load)
	} else {
		for _, ss := range s.Stages[:len(s.Pipeline.Stages)] {
			pipe = maxf(pipe, ss.PipeLatMs)
		}
	}
	s.Steps = append(s.Steps, Step{
		Action:       action,
		Stage:        stage,
		PipeLatMs:    pipe,
		BaseMs:       s.BaseMs,
		ChipletsFree: s.idleChiplets(),
	})
}

// release returns the build's workspace to the pool — the unit-cost
// rows, the stages' working state, the step snapshot, record's load
// slice, the skip set and the buffers — and drops every pointer into
// it: the stages' and the units' own, and Steps, which it replaces with
// an exact copy. So a retained schedule pins none of it, and the next
// build to take the workspace shares nothing with this schedule.
func (s *Schedule) release() {
	steps := slices.Clone(s.Steps)
	s.ws.steps, s.Steps = s.Steps[:0], steps
	for _, ss := range s.Stages {
		ss.rows, ss.scratch = nil, nil
		for _, u := range ss.Units {
			u.row = nil
		}
	}
	workspaces.Put(s.ws)
	s.ws = nil
}

// PipeLatMs returns the schedule's layerwise pipelining latency: the
// maximum per-chiplet busy time, accumulated globally so that chiplets
// shared between stages (the few-chip baselines) carry the sum of their
// stage loads. Each call allocates its own load slice, so several
// goroutines may read one built schedule.
func (s *Schedule) PipeLatMs() float64 {
	return s.pipeLat(make([]float64, s.MCM.Chiplets()))
}

// pipeLat is PipeLatMs accumulated into a caller-owned per-ordinal
// load slice, which must be all zero and is left all zero.
func (s *Schedule) pipeLat(load []float64) float64 {
	stages := s.Stages[:len(s.Pipeline.Stages)] // without the surplus sentinel
	for _, ss := range stages {
		addLoads(load, s.MCM, ss.Units)
	}
	var v float64
	for _, ss := range stages {
		v = drainMaxLoad(load, s.MCM, ss.Units, v)
	}
	return v
}

// TransferMs returns the NoP latency unit v waits for u's output: the
// slowest of u's shard transfers to v (AppendFanOut), evaluated in
// place.
func (s *Schedule) TransferMs(u, v *Unit) float64 {
	var worst float64
	for i := range fanOutLen(u, v) {
		worst = maxf(worst, s.MCM.NoP.Eval(fanOut(u, v, i)).LatencyMs)
	}
	return worst
}

// buildInterStage creates the stage-boundary transfers: the terminal of
// each of a stage's chains fans its output out to the next stage's
// first unit. Chains come in a total (model, replica) order, which
// fixes the order of InterStage and from there pipeline.Compute's float
// sums (rules D1/D4).
//
// The discrete-event simulator (sim.Prepare) draws the boundary wider:
// it charges every terminal to every chain head of the next stage. The
// two agree where the next stage has one chain and differ at the
// boundary into a multi-model stage. On the 6x6 OS package the
// T_FUSE->Trunks boundary has 5 heads, so over all boundaries the
// schedule carries 10 transfers against the simulator's 14, and 3.024
// against 3.102 mJ of NoP energy, with the same worst latency
// (0.287 ms).
//
// The transfers grow in the workspace, and the schedule keeps an exact
// copy (nil for none).
func (s *Schedule) buildInterStage() {
	buf := s.ws.transfers[:0]
	for i := 0; i+1 < len(s.Pipeline.Stages); i++ {
		next := s.Stages[i+1]
		if len(next.Units) == 0 {
			continue
		}
		ss := s.Stages[i]
		ss.scratch.chains = byInstance(ss.scratch.chains, ss.Units)
		for chain := range chainRuns(ss.scratch.chains) {
			buf = AppendFanOut(buf, chain[len(chain)-1], next.Units[0])
		}
	}
	s.ws.transfers, s.InterStage = buf, nil
	if len(buf) > 0 {
		s.InterStage = slices.Clone(buf)
	}
}

// FindUnit returns the unit of stage idx containing the named layer
// (nil if absent); a convenience for tests and reports.
func (s *Schedule) FindUnit(stageIdx int, layerName string) *Unit {
	if stageIdx >= len(s.Stages) {
		return nil
	}
	for _, u := range s.Stages[stageIdx].Units {
		for _, n := range u.Nodes {
			if n.Layer.Name == layerName {
				return u
			}
		}
	}
	return nil
}

package sched

import (
	"fmt"
	"slices"
	"sync"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/workloads"
)

// Plan is a design's balanced state: Algorithm 1 run through balance,
// its NoP-free half, on one package. Build finishes it on that package
// under any NoP, so a design evaluated under several NoP settings
// balances once. Nothing mutates a plan after NewPlan returns it.
type Plan struct {
	s *Schedule
}

// NewPlan runs balance on p and m and releases the build scratch.
func NewPlan(p *workloads.Pipeline, m *chiplet.MCM, opts Options) (*Plan, error) {
	s, err := newSchedule(p, m, opts)
	if err != nil {
		return nil, err
	}
	err = s.balance()
	s.release()
	if err != nil {
		return nil, err
	}
	return &Plan{s: s}, nil
}

// Build finishes the plan on m with the given layer-cost cache: it
// copies the balanced state onto m and runs finish there. m must have
// the plan's grid and an equivalent accelerator at every position; its
// NoP may differ. The schedule equals Build of the plan's pipeline on
// m with the plan's tolerance, since nothing before finish reads the
// NoP. Safe for concurrent use: every call finishes its own copy.
func (pl *Plan) Build(m *chiplet.MCM, cache *costmodel.Cache) (*Schedule, error) {
	if err := sameChiplets(pl.s.MCM, m); err != nil {
		return nil, err
	}
	s := pl.s.copyOnto(m, cache)
	out, err := s.finish()
	s.release()
	return out, err
}

// sameChiplets reports an error unless b has a's grid and an
// accelerator equivalent to a's at every position.
func sameChiplets(a, b *chiplet.MCM) error {
	if a.GridW != b.GridW || a.GridH != b.GridH {
		return fmt.Errorf("sched: a plan for the %dx%d package %s cannot build on the %dx%d package %s",
			a.GridW, a.GridH, a.Name, b.GridW, b.GridH, b.Name)
	}
	for y := 0; y < a.GridH; y++ {
		for x := 0; x < a.GridW; x++ {
			c := nop.Coord{X: x, Y: y}
			if !costmodel.AccelEquivalent(a.At(c), b.At(c)) {
				return fmt.Errorf("sched: package %s has another chiplet at %v than the plan's package %s", b.Name, c, a.Name)
			}
		}
	}
	return nil
}

// copyOnto copies a balanced schedule onto m, ready for finish: the
// units with their placements, the pools and idle counts, each stage's
// PipeLatMs, EnergyJ and MACs, the steps and the base. Units share
// their node slices and graphs with b. The copy takes a pooled
// workspace, as newSchedule's schedules do, and each copied unit finds
// its row there on its first costing.
func (b *Schedule) copyOnto(m *chiplet.MCM, cache *costmodel.Cache) *Schedule {
	s := &Schedule{MCM: m, Pipeline: b.Pipeline, Opts: b.Opts, BaseMs: b.BaseMs, shared: b.shared,
		ws: takeWorkspace(m, len(b.Stages))}
	s.Opts.Cache = cache
	s.Steps = append(s.ws.steps[:0], b.Steps...)
	nu, nc := 0, 0
	for _, bs := range b.Stages {
		nu += len(bs.Units)
		for _, u := range bs.Units {
			nc += len(u.Chiplets)
		}
	}
	// One block holds every unit and one every placement: a unit's
	// chiplets are capped at their length, so a placement that grows
	// them moves to an array of its own.
	units := make([]Unit, 0, nu)
	coords := make([]nop.Coord, 0, nc)
	s.Stages = make([]*StageSchedule, len(b.Stages))
	for i, bs := range b.Stages {
		ss := &StageSchedule{Name: bs.Name, Index: bs.Index, Pool: slices.Clone(bs.Pool),
			Units: make([]*Unit, len(bs.Units)), PipeLatMs: bs.PipeLatMs, EnergyJ: bs.EnergyJ, MACs: bs.MACs,
			mcm: m, cache: cache, rows: &s.ws.rows, idle: bs.idle, scratch: &s.ws.stages[i]}
		for k, u := range bs.Units {
			units = append(units, *u)
			c := &units[len(units)-1]
			c.row = nil // a row belongs to one build's workspace
			n := len(coords)
			coords = append(coords, u.Chiplets...)
			c.Chiplets = coords[n:len(coords):len(coords)]
			ss.Units[k] = c
		}
		s.Stages[i] = ss
	}
	return s
}

// MaxPlans bounds a Plans store. A plan retains its units and pools:
// 7.6 KB of heap on the 6x6 package, 25.8 KB on 12x6 and 59.5 KB on a
// 32x32 mesh, so a full store holds under 4 MB.
const MaxPlans = 64

// Plans is a bounded, concurrency-safe store of plans, one per design
// without its NoP: the compiled pipeline, a name of the package's
// chiplets and the resolved tolerance. Each key is balanced once, by
// its first Build; once the store holds MaxPlans keys, a new one
// builds directly. The zero value is not useful; use NewPlans.
type Plans struct {
	mu    sync.Mutex
	plans map[planKey]*keptPlan
}

type planKey struct {
	p         *workloads.Pipeline
	chiplets  string
	tolerance float64
}

// keptPlan is one key's plan, made once under once.
type keptPlan struct {
	once sync.Once
	plan *Plan
	err  error
}

// NewPlans returns an empty store.
func NewPlans() *Plans {
	return &Plans{plans: make(map[planKey]*keptPlan)}
}

// Build returns Build(p, m, opts) through the plan the store keeps for
// p, chiplets and opts' resolved tolerance, making it on first use.
// chiplets must name m's grid and accelerators, and nothing of its
// NoP: every package a key names finishes the same plan (Plan.Build
// refuses one whose chiplets differ). A plan that failed fails every
// later Build of its key with the same error, as Build would.
func (ps *Plans) Build(chiplets string, p *workloads.Pipeline, m *chiplet.MCM, opts Options) (*Schedule, error) {
	k := planKey{p: p, chiplets: chiplets, tolerance: opts.Tolerance}
	if k.tolerance <= 0 {
		k.tolerance = DefaultTolerance
	}
	ps.mu.Lock()
	kp, ok := ps.plans[k]
	if !ok && len(ps.plans) < MaxPlans {
		kp = &keptPlan{}
		ps.plans[k] = kp
	}
	ps.mu.Unlock()
	if kp == nil {
		return Build(p, m, opts)
	}
	kp.once.Do(func() { kp.plan, kp.err = NewPlan(p, m, opts) })
	if kp.err != nil {
		return nil, kp.err
	}
	return kp.plan.Build(m, opts.Cache)
}

// Len returns the number of keys the store holds.
func (ps *Plans) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.plans)
}

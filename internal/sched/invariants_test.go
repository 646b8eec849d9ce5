package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/workloads"
)

// simbaMesh builds a w x h mesh of the paper's chiplet.
func simbaMesh(t testing.TB, w, h int) *chiplet.MCM {
	t.Helper()
	m, err := chiplet.NewTyped(fmt.Sprintf("simba-%dx%d", w, h), w, h, nop.DefaultParams(), dataflow.OS, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// repeated returns a coordinate cs holds more than once.
func repeated(cs []nop.Coord) (nop.Coord, bool) {
	seen := make(map[nop.Coord]bool, len(cs))
	for _, c := range cs {
		if seen[c] {
			return c, true
		}
		seen[c] = true
	}
	return nop.Coord{}, false
}

// TestFewChipPoolsHoldEachChipletOnce builds the default pipeline on
// packages with fewer than two chiplets per stage, where every stage
// shares the whole mesh. Borrowing cannot add capacity there, so no
// pool and no unit may end up holding a chiplet twice.
func TestFewChipPoolsHoldEachChipletOnce(t *testing.T) {
	for _, d := range [][2]int{{1, 6}, {2, 3}, {1, 7}} {
		t.Run(fmt.Sprintf("%dx%d", d[0], d[1]), func(t *testing.T) {
			s, err := Build(perception(t), simbaMesh(t, d[0], d[1]), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, ss := range s.Stages {
				if c, ok := repeated(ss.Pool); ok {
					t.Errorf("stage %s pool holds %v twice: %v", ss.Name, c, ss.Pool)
				}
				for _, u := range ss.Units {
					if c, ok := repeated(u.Chiplets); ok {
						t.Errorf("stage %s unit %s holds %v twice: %v", ss.Name, u.Label(), c, u.Chiplets)
					}
				}
			}
		})
	}
}

// TestThreeStageSurplusDrained builds the first three stages on a 4x4
// mesh. The mesh splits into four quadrants and the fourth becomes the
// surplus pool, which borrowing can empty: Build must still succeed,
// and the pools must cover the mesh exactly once.
func TestThreeStageSurplusDrained(t *testing.T) {
	m := simbaMesh(t, 4, 4)
	s, err := Build(perception(t).FirstThreeStages(), m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[nop.Coord]int)
	for _, ss := range s.Stages {
		for _, c := range ss.Pool {
			covered[c]++
		}
	}
	for _, c := range m.Coords() {
		if covered[c] != 1 {
			t.Errorf("chiplet %v is in %d pools, want 1", c, covered[c])
		}
	}
	if len(covered) != m.Chiplets() {
		t.Errorf("pools cover %d positions of a %d-chiplet mesh", len(covered), m.Chiplets())
	}
}

// stageState is a deep copy of everything refresh, applyImprovement
// and placement write to a stage: the units list, each unit's shard
// count, placement and costs, the stage's pool, metrics, idle count
// and the pool's busy flags.
type stageState struct {
	Units              []*Unit
	Shards             []int64
	Chiplets           [][]nop.Coord
	PerShardMs, Energy []float64
	MACs               []int64
	Pool               []nop.Coord
	Busy               []bool
	PipeLatMs, EnergyJ float64
	StageMACs          int64
	Idle               int
}

func captureStage(ss *StageSchedule) stageState {
	st := stageState{Units: slices.Clone(ss.Units), Pool: slices.Clone(ss.Pool),
		PipeLatMs: ss.PipeLatMs, EnergyJ: ss.EnergyJ, StageMACs: ss.MACs, Idle: ss.idle}
	for _, u := range ss.Units {
		st.Shards = append(st.Shards, u.Shards)
		st.Chiplets = append(st.Chiplets, slices.Clone(u.Chiplets))
		st.PerShardMs = append(st.PerShardMs, u.PerShardMs)
		st.Energy = append(st.Energy, u.EnergyJ)
		st.MACs = append(st.MACs, u.MACs)
	}
	for _, c := range ss.Pool {
		st.Busy = append(st.Busy, ss.scratch.busy[ss.mcm.Ord(c)])
	}
	return st
}

// TestStageRestore checks the rollback of a rejected greedy step. On a
// solved schedule, still holding its build scratch, it applies to each
// unit of each stage its next shard or segment step, refreshes, and
// restores the snapshot taken before the step. The stage must then
// equal a deep copy taken before the step, and still equal it after a
// fresh refresh: the restore is exactly what the second refresh it
// replaces would compute. The packages cover partitioned pools, a
// mixed-type pool (heterogeneous probes), pools every stage shares
// (2x3) and a surplus pool (three stages on 4x4).
func TestStageRestore(t *testing.T) {
	cases := []struct {
		name string
		p    *workloads.Pipeline
		m    *chiplet.MCM
	}{
		{"simba36", perception(t), chiplet.Simba36(dataflow.OS)},
		{"mixed-6x6", perception(t), mixedMesh(t, 6, 6)},
		{"shared-2x3", perception(t), simbaMesh(t, 2, 3)},
		{"three-stage-4x4", perception(t).FirstThreeStages(), simbaMesh(t, 4, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newSchedule(tc.p, tc.m, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.solve(); err != nil {
				t.Fatal(err)
			}
			steps := 0
			for _, ss := range s.Stages {
				for _, u := range slices.Clone(ss.Units) {
					want := captureStage(ss)
					ss.snapshot(&s.ws.snap)
					if _, _, ok := s.applyImprovement(ss, u); !ok {
						continue
					}
					steps++
					if err := ss.refresh(); err != nil {
						t.Fatalf("stage %s, step on %s: %v", ss.Name, u.Label(), err)
					}
					ss.restore(&s.ws.snap)
					if got := captureStage(ss); !reflect.DeepEqual(got, want) {
						t.Errorf("stage %s, step on %s: restored state differs from the state before the step", ss.Name, u.Label())
					}
					if err := ss.refresh(); err != nil {
						t.Fatalf("stage %s, refresh after restoring %s: %v", ss.Name, u.Label(), err)
					}
					if got := captureStage(ss); !reflect.DeepEqual(got, want) {
						t.Errorf("stage %s, step on %s: a fresh refresh after the restore differs from the state before the step", ss.Name, u.Label())
					}
				}
			}
			if steps == 0 {
				t.Fatal("no unit could take a step")
			}
		})
	}
}

// FuzzBuildInvariants builds the perception pipeline on a fuzzed
// package, W and H in 1..8 with a library type per chiplet (none: the
// paper's chiplet everywhere), OS or WS, on 3 or 4 stages, and checks
// the schedule's structural contract.
func FuzzBuildInvariants(f *testing.F) {
	f.Add(uint8(5), uint8(5), false, false, []byte(nil))         // the paper's 6x6 package
	f.Add(uint8(1), uint8(2), false, false, []byte(nil))         // 2x3: stages share the mesh
	f.Add(uint8(0), uint8(6), true, false, []byte{1, 2})         // 1x7, WS, mixed
	f.Add(uint8(3), uint8(3), false, true, []byte(nil))          // 4x4, 3 stages: surplus drained
	f.Add(uint8(3), uint8(3), true, false, []byte{0, 1, 2, 3})   // mixed 4x4
	f.Add(uint8(7), uint8(7), false, true, []byte{3, 3, 0, 2})   // 8x8, 3 stages
	f.Add(uint8(4), uint8(4), true, true, []byte{2, 0, 0, 1, 3}) // uneven 5x5 split
	f.Add(uint8(1), uint8(2), false, false, []byte{3, 1, 2})     // mixed 2x3: shared pools
	f.Add(uint8(3), uint8(3), false, true, []byte{2, 0, 3, 1})   // mixed 4x4, 3 stages: surplus pool
	// mixedMesh(6, 6): TypeNames indices of simba, eco, big, bwopt,
	// shifted by one per row.
	f.Add(uint8(5), uint8(5), false, false, []byte{
		0, 2, 1, 3, 0, 2, 3, 0, 2, 1, 3, 0, 1, 3, 0, 2, 1, 3,
		2, 1, 3, 0, 2, 1, 0, 2, 1, 3, 0, 2, 3, 0, 2, 1, 3, 0})
	full := perception(f)
	three := full.FirstThreeStages()
	f.Fuzz(func(t *testing.T, w, h uint8, ws, threeStages bool, types []byte) {
		p, m := fuzzPackage(t, full, three, w, h, ws, threeStages, types)
		s, err := Build(p, m, DefaultOptions())
		if err != nil {
			t.Fatalf("%dx%d ws=%v %d stages: %v", m.GridW, m.GridH, ws, len(p.Stages), err)
		}
		checkBuildInvariants(t, s)
	})
}

// fuzzPackage decodes the fuzz targets' package space: a W x H mesh, W
// and H in 1..8, with a library type per chiplet cycling through types
// (none: the paper's chiplet everywhere), OS or WS, and the full
// pipeline or its first three stages.
func fuzzPackage(t testing.TB, full, three *workloads.Pipeline, w, h uint8, ws, threeStages bool, types []byte) (*workloads.Pipeline, *chiplet.MCM) {
	t.Helper()
	gw, gh := 1+int(w%8), 1+int(h%8)
	var assign []string
	if len(types) > 0 {
		names := chiplet.TypeNames()
		assign = make([]string, gw*gh)
		for i := range assign {
			assign[i] = names[int(types[i%len(types)])%len(names)]
		}
	}
	style, p := dataflow.OS, full
	if ws {
		style = dataflow.WS
	}
	if threeStages {
		p = three
	}
	m, err := chiplet.NewTyped("fuzz", gw, gh, nop.DefaultParams(), style, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

// checkBuildInvariants asserts the structural contract of a built
// schedule: every unit sits in its own stage's pool on strictly
// increasing ordinals, one chiplet per shard as far as the pool
// allows; no pool repeats a chiplet, and partitioned pools are
// pairwise disjoint and cover the mesh exactly once; idle counts and
// pipelining latencies match a recount over coordinate-keyed maps, bit
// for bit, and on partitioned packages the schedule's pipelining
// latency is the largest stage's (the identity record relies on);
// every stage's metrics match a recount from the final placement
// (checkStageMetrics); every unit's nodes are its graph's nodes at
// their IDs, the index its node-cost vectors are read at; every stage
// keeps the chain contract (checkChains).
func checkBuildInvariants(t *testing.T, s *Schedule) {
	t.Helper()
	m := s.MCM
	covered := make(map[nop.Coord]int)
	load := make(map[nop.Coord]float64)
	var stageMax float64
	for i, ss := range s.Stages {
		if c, ok := repeated(ss.Pool); ok {
			t.Errorf("stage %s pool holds %v twice: %v", ss.Name, c, ss.Pool)
		}
		pool := make(map[nop.Coord]bool, len(ss.Pool))
		for _, c := range ss.Pool {
			pool[c] = true
			covered[c]++
		}
		busy := make(map[nop.Coord]bool)
		stageLoad := make(map[nop.Coord]float64)
		for _, u := range ss.Units {
			for _, n := range u.Nodes {
				if u.graph == nil || n.ID >= u.graph.Len() || u.graph.Nodes()[n.ID] != n {
					t.Errorf("stage %s unit %s: node %d (%s) is not its graph's node at that ID",
						ss.Name, u.Label(), n.ID, n.Layer.Name)
				}
			}
			if want := min(int(u.Shards), len(ss.Pool)); len(u.Chiplets) != want {
				t.Errorf("stage %s unit %s: %d chiplets, want %d", ss.Name, u.Label(), len(u.Chiplets), want)
			}
			for k, c := range u.Chiplets {
				if !pool[c] {
					t.Errorf("stage %s unit %s: %v is not in the stage's pool", ss.Name, u.Label(), c)
				}
				if k > 0 && m.Ord(u.Chiplets[k-1]) >= m.Ord(c) {
					t.Errorf("stage %s unit %s: chiplets %v not in strictly increasing row-major order",
						ss.Name, u.Label(), u.Chiplets)
				}
				busy[c] = true
				stageLoad[c] += u.PerShardMs
				if i < len(s.Pipeline.Stages) {
					load[c] += u.PerShardMs
				}
			}
		}
		idle := 0
		for _, c := range ss.Pool {
			if !busy[c] {
				idle++
			}
		}
		if ss.idle != idle {
			t.Errorf("stage %s: idle count %d, recount %d", ss.Name, ss.idle, idle)
		}
		if want := maxLoad(stageLoad); ss.PipeLatMs != want {
			t.Errorf("stage %s: PipeLatMs %v, recount %v", ss.Name, ss.PipeLatMs, want)
		}
		if i < len(s.Pipeline.Stages) {
			stageMax = maxf(stageMax, ss.PipeLatMs)
		}
		checkStageMetrics(t, s, ss)
		checkChains(t, ss)
	}
	if want := maxLoad(load); s.PipeLatMs() != want {
		t.Errorf("PipeLatMs %v, recount %v", s.PipeLatMs(), want)
	}
	if s.shared {
		return
	}
	if s.PipeLatMs() != stageMax {
		t.Errorf("partitioned package: PipeLatMs %v, largest stage PipeLatMs %v", s.PipeLatMs(), stageMax)
	}
	for _, c := range m.Coords() {
		if covered[c] != 1 {
			t.Errorf("chiplet %v is in %d pools, want 1", c, covered[c])
		}
	}
	if len(covered) != m.Chiplets() {
		t.Errorf("pools cover %d positions of a %d-chiplet mesh", len(covered), m.Chiplets())
	}
}

// checkStageMetrics recounts a stage's energy, MACs, E2E and
// intra-stage NoP traffic from its final placement, through the
// exported chain and fan-out contract, and asserts the stage's fields
// match bit for bit: none of them may be left stale by a path that
// computes them lazily. Sums run in the order the scheduler's do, which
// fixes their last bits.
func checkStageMetrics(t *testing.T, s *Schedule, ss *StageSchedule) {
	t.Helper()
	var energy float64
	var macs int64
	for _, u := range ss.Units {
		energy += u.EnergyJ
		macs += u.MACs
	}
	var transfers []nop.Transfer
	var e2e float64
	for chain := range ss.Chains() {
		var ms float64
		for k, u := range chain {
			if k > 0 {
				transfers = AppendFanOut(transfers, chain[k-1], u)
				ms += s.TransferMs(chain[k-1], u)
			}
			ms += u.PerShardMs
		}
		e2e = maxf(e2e, ms)
	}
	e2e = maxf(e2e, ss.PipeLatMs)
	var nopMs, nopJ float64
	for _, tr := range transfers {
		c := s.MCM.NoP.Eval(tr)
		nopMs += c.LatencyMs
		nopJ += c.EnergyJ
	}
	if ss.EnergyJ != energy || ss.MACs != macs {
		t.Errorf("stage %s: EnergyJ/MACs %v/%d, recount %v/%d", ss.Name, ss.EnergyJ, ss.MACs, energy, macs)
	}
	if ss.E2EMs != e2e {
		t.Errorf("stage %s: E2EMs %v, recount %v", ss.Name, ss.E2EMs, e2e)
	}
	if !slices.Equal(ss.Transfers, transfers) {
		t.Errorf("stage %s: %d transfers differ from the %d of a recount", ss.Name, len(ss.Transfers), len(transfers))
	}
	if ss.NoPLatMs != nopMs || ss.NoPEnergyJ != nopJ {
		t.Errorf("stage %s: NoP %v ms / %v J, recount %v ms / %v J", ss.Name, ss.NoPLatMs, ss.NoPEnergyJ, nopMs, nopJ)
	}
}

// checkChains asserts the contract of ss.Chains(), which the stage
// metrics, the stage-boundary transfers and the simulator's task graph
// share: every unit lies in exactly one chain, chains strictly increase
// in (model, replica), node IDs strictly increase along each chain, and
// each chain's tail holds its instance's largest node ID.
func checkChains(t *testing.T, ss *StageSchedule) {
	t.Helper()
	type instance struct {
		model   string
		replica int
	}
	lastID := make(map[instance]int)
	for _, u := range ss.Units {
		k := instance{u.Model, u.Replica}
		if id, ok := lastID[k]; !ok || u.Nodes[len(u.Nodes)-1].ID > id {
			lastID[k] = u.Nodes[len(u.Nodes)-1].ID
		}
	}
	inChains := make(map[*Unit]int)
	var prev *Unit
	for chain := range ss.Chains() {
		head := chain[0]
		if prev != nil && (head.Model < prev.Model || head.Model == prev.Model && head.Replica <= prev.Replica) {
			t.Errorf("stage %s: chain %s[%d] follows %s[%d]", ss.Name, head.Model, head.Replica, prev.Model, prev.Replica)
		}
		prev = head
		id := -1
		for _, u := range chain {
			inChains[u]++
			if u.Model != head.Model || u.Replica != head.Replica {
				t.Errorf("stage %s: unit %s in the chain of %s[%d]", ss.Name, u.Label(), head.Model, head.Replica)
			}
			for _, n := range u.Nodes {
				if n.ID <= id {
					t.Errorf("stage %s: node %d follows node %d in the chain of %s[%d]", ss.Name, n.ID, id, head.Model, head.Replica)
				}
				id = n.ID
			}
		}
		if want := lastID[instance{head.Model, head.Replica}]; id != want {
			t.Errorf("stage %s: chain %s[%d] ends at node %d, the instance's last is %d", ss.Name, head.Model, head.Replica, id, want)
		}
	}
	for _, u := range ss.Units {
		if inChains[u] != 1 {
			t.Errorf("stage %s: unit %s lies in %d chains, want 1", ss.Name, u.Label(), inChains[u])
		}
	}
	if len(inChains) != len(ss.Units) {
		t.Errorf("stage %s: chains hold %d units, the stage %d", ss.Name, len(inChains), len(ss.Units))
	}
}

func maxLoad(load map[nop.Coord]float64) float64 {
	var v float64
	for _, l := range load {
		v = maxf(v, l)
	}
	return v
}

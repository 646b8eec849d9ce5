package sched

import (
	"cmp"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/nop"
)

// referenceLeastLoaded is the selection placement used before rank was
// kept: the n pool indices with minimal load (loads holds one per pool
// index, n <= len(loads)), in (load, pool index) order, kept by bounded
// insertion in pool order, O(pool·n). A later index displaces a kept
// one only on a strictly smaller load, so ties go to the earlier index.
func referenceLeastLoaded(loads []float64, n int) []int32 {
	var cands []int32
	for i, l := range loads {
		if len(cands) == n {
			if n == 0 || l >= loads[cands[n-1]] {
				continue
			}
			cands = cands[:n-1]
		}
		j := len(cands)
		cands = append(cands, 0)
		for ; j > 0 && l < loads[cands[j-1]]; j-- {
			cands[j] = cands[j-1]
		}
		cands[j] = int32(i)
	}
	return cands
}

// referencePlace is the LPT placement computed from scratch with
// referenceLeastLoaded and a comparator sort of each unit's
// coordinates: every unit's chiplets, in units order, and the number
// of pool chiplets left idle.
func referencePlace(m *chiplet.MCM, pool []nop.Coord, units []*Unit) ([][]nop.Coord, int) {
	loads := make([]float64, len(pool))
	used := make(map[nop.Coord]bool)
	placed := make(map[*Unit][]nop.Coord, len(units))
	order := slices.Clone(units)
	slices.SortStableFunc(order, func(a, b *Unit) int {
		return cmp.Compare(b.PerShardMs*float64(b.Shards), a.PerShardMs*float64(a.Shards))
	})
	for _, u := range order {
		idxs := referenceLeastLoaded(loads, min(int(u.Shards), len(pool)))
		cs := []nop.Coord{}
		for _, ix := range idxs {
			cs = append(cs, pool[ix])
			used[pool[ix]] = true
		}
		slices.SortFunc(cs, func(a, b nop.Coord) int { return cmp.Compare(m.Ord(a), m.Ord(b)) })
		placed[u] = cs
		for _, ix := range idxs {
			loads[ix] += u.PerShardMs
		}
	}
	out := make([][]nop.Coord, len(units))
	for i, u := range units {
		out[i] = placed[u]
	}
	return out, len(pool) - len(used)
}

// placeLoads are the per-shard latencies the random stages draw from:
// few enough that units share values and loads tie exactly, and close
// enough that a chiplet at 1 and one at the next float above 1 both
// read 3 once 2 is added: rounding makes a tie that no load had.
var placeLoads = []float64{0, 0.1, 0.2, 0.3, 1, math.Nextafter(1, 2), 2, 3, 7}

// randomPool draws a pool of 1 to m.Chiplets() chiplets: a row-major
// subset of the mesh, as a stage's partition or a donor that lost
// chiplets holds, or, half the time, that subset with chiplets
// appended out of order, as borrowChiplet leaves a receiving pool.
func randomPool(rng *rand.Rand, m *chiplet.MCM) []nop.Coord {
	all := m.Coords()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	size := 1 + rng.IntN(len(all))
	borrowed := 0
	if rng.IntN(2) == 0 {
		borrowed = rng.IntN(min(size, 8))
	}
	pool := all[:size]
	slices.SortFunc(pool[:size-borrowed], func(a, b nop.Coord) int { return cmp.Compare(m.Ord(a), m.Ord(b)) })
	return pool
}

// randomUnits draws 1 to 40 units with shard counts up to one past the
// pool size (place clamps them) and per-shard loads from placeLoads.
func randomUnits(rng *rand.Rand, pool int) []*Unit {
	units := make([]*Unit, 1+rng.IntN(40))
	for i := range units {
		units[i] = &Unit{
			Shards:     int64(1 + rng.IntN(pool+1)),
			PerShardMs: placeLoads[rng.IntN(len(placeLoads))],
		}
	}
	return units
}

// checkPlaceMatchesReference places random units on a random pool of
// m three times, redrawing the units' shards and loads between rounds
// so the stage's scratch and the units' coordinate slices are reused,
// and compares every unit's chiplets and the idle count with
// referencePlace.
func checkPlaceMatchesReference(t *testing.T, m *chiplet.MCM, rng *rand.Rand) {
	t.Helper()
	pool := randomPool(rng, m)
	ss := &StageSchedule{Name: "place", Pool: pool, mcm: m, scratch: new(stageScratch)}
	ss.scratch.grab(m.Chiplets())
	ss.Units = randomUnits(rng, len(pool))
	for round := 0; round < 3; round++ {
		if round > 0 {
			for _, u := range ss.Units {
				u.Shards = int64(1 + rng.IntN(len(pool)+1))
				u.PerShardMs = placeLoads[rng.IntN(len(placeLoads))]
			}
		}
		wantChiplets, wantIdle := referencePlace(m, pool, ss.Units)
		ss.place()
		for i, u := range ss.Units {
			if !reflect.DeepEqual(u.Chiplets, wantChiplets[i]) {
				t.Fatalf("%d-chiplet pool, round %d, unit %d (%d shards, %v ms): chiplets %v, reference %v",
					len(pool), round, i, u.Shards, u.PerShardMs, u.Chiplets, wantChiplets[i])
			}
		}
		if ss.idle != wantIdle {
			t.Fatalf("%d-chiplet pool, round %d: %d idle chiplets, reference %d", len(pool), round, ss.idle, wantIdle)
		}
	}
}

// TestPlaceMatchesReference checks the kept-rank LPT placement against
// the bounded-insertion selection it replaced, on random pools of a
// 12x12 mesh. The race detector's instrumentation makes each case
// about ten times slower and finds nothing in this single-goroutine
// test, so a -race run checks the first 200 cases; without the re-sort
// of rounding ties, the placement first differs at case 72.
func TestPlaceMatchesReference(t *testing.T) {
	m := simbaMesh(t, 12, 12)
	rng := rand.New(rand.NewPCG(1, 2))
	cases := 2000
	if raceEnabled {
		cases = 200
	}
	for range cases {
		checkPlaceMatchesReference(t, m, rng)
	}
}

// FuzzPlaceMatchesReference is TestPlaceMatchesReference with the
// random stream's seed fuzzed.
func FuzzPlaceMatchesReference(f *testing.F) {
	m := simbaMesh(f, 12, 12)
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, s1, s2 uint64) {
		checkPlaceMatchesReference(t, m, rand.New(rand.NewPCG(s1, s2)))
	})
}

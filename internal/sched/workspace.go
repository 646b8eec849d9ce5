package sched

import (
	"slices"
	"sync"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/nop"
)

// workspace is the scratch of one build, recycled through workspaces:
// the unit-cost rows, each stage's working state, the step snapshot,
// record's load slice, the greedy loops' skip set, and the buffers the
// step trace and the stage-boundary transfers grow in before the
// schedule keeps an exact copy. A schedule holds its build's workspace
// from newSchedule or copyOnto until release puts it back, so only one
// build uses a workspace at a time.
type workspace struct {
	rows   unitRows
	stages []stageScratch
	// snap holds the stage state a greedy step may be rolled back to
	// (relieve, useIdleChiplets), reused across steps.
	snap stageSnapshot
	// load is record's per-ordinal scratch (see pipeLat), all zero
	// between calls; only shared packages read it.
	load []float64
	// skip holds the units a greedy loop no longer tries; balance and
	// useIdleChiplets each start from an empty set.
	skip map[*Unit]bool
	// steps and transfers keep the storage Schedule.Steps grew in
	// during the last build (release copies them out) and that
	// buildInterStage built the stage-boundary transfers in.
	steps     []Step
	transfers []nop.Transfer
}

var workspaces = sync.Pool{New: func() any { return &workspace{skip: make(map[*Unit]bool)} }}

// takeWorkspace returns a workspace reset for a build of the given
// number of stages on m.
func takeWorkspace(m *chiplet.MCM, stages int) *workspace {
	ws := workspaces.Get().(*workspace)
	ws.reset(m, stages)
	//lint:allow pooldiscipline -- the schedule holds its build's workspace until release puts it back
	return ws
}

// reset empties ws for a build of the given number of stages on m: it
// empties the rows and sizes and zeroes every stage's scratch and the
// load slice as fresh ones would be, keeping their storage.
func (ws *workspace) reset(m *chiplet.MCM, stages int) {
	n := m.Chiplets()
	ws.rows.reset()
	if len(ws.stages) < stages {
		ws.stages = append(ws.stages, make([]stageScratch, stages-len(ws.stages))...)
	}
	for i := range ws.stages[:stages] {
		ws.stages[i].grab(n)
	}
	ws.load = slices.Grow(ws.load[:0], n)[:n]
	clear(ws.load)
	clear(ws.skip)
}

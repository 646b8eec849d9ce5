package sim

import (
	"fmt"
	"io"
)

// RenderTemplate writes g's per-frame task template: each task's unit,
// duration, dependencies with their NoP latencies, and gang as mesh
// coordinates, then the terminal tasks and the per-frame busiest-link
// bytes. Floats print at round-trip precision, so the rendering pins
// every bit Run reads. It is exported for TestTemplateGolden, which
// lives in package sim_test because the scenario registry imports sim.
func RenderTemplate(w io.Writer, g *Graph) {
	coords := g.s.MCM.Coords()
	for i, d := range g.defs {
		fmt.Fprintf(w, "task %d s%d %s dur=%v gang=[", i, d.unit.StageIdx, d.unit.Label(), d.durMs)
		for k, o := range g.gangList[d.gangOff:d.gangEnd] {
			if k > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprint(w, coords[o])
		}
		fmt.Fprintln(w, "]")
		for k := d.depOff; k < d.depEnd; k++ {
			fmt.Fprintf(w, "  dep %d nop=%v\n", g.depList[k], g.depExtra[k])
		}
	}
	fmt.Fprintf(w, "terminals %v\n", g.lastTmpl)
	fmt.Fprintf(w, "busiest link %d B/frame\n", g.maxLink)
}

package sched

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/workloads"
)

// fingerprint renders every decision the greedy solver made — unit
// boundaries, shard counts, placements, trace steps — so two schedules
// can be asserted bit-for-bit identical.
func fingerprint(s *Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "base=%.9g pipe=%.9g\n", s.BaseMs, s.PipeLatMs())
	for _, ss := range s.Stages {
		fmt.Fprintf(&b, "stage %d %s pipe=%.9g e2e=%.9g energy=%.9g pool=%v\n",
			ss.Index, ss.Name, ss.PipeLatMs, ss.E2EMs, ss.EnergyJ, ss.Pool)
		for _, u := range ss.Units {
			fmt.Fprintf(&b, "  unit %s shards=%d per=%.9g chips=%v nodes=%d\n",
				u.Label(), u.Shards, u.PerShardMs, u.Chiplets, len(u.Nodes))
		}
	}
	for _, st := range s.Steps {
		fmt.Fprintf(&b, "step %s/%s %.9g %.9g %d\n", st.Action, st.Stage, st.PipeLatMs, st.BaseMs, st.ChipletsFree)
	}
	for _, tr := range s.InterStage {
		fmt.Fprintf(&b, "xfer %v->%v %d %s\n", tr.Src, tr.Dst, tr.Bytes, tr.Label)
	}
	return b.String()
}

func TestTemplateBuildMatchesBuild(t *testing.T) {
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := chiplet.Simba36(dataflow.OS)
	direct, err := Build(p, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := NewTemplate(p, m)
	if err != nil {
		t.Fatal(err)
	}
	// Two builds from one template: both must equal the one-shot Build
	// (the second proves a Build leaves the template reusable).
	for i := 0; i < 2; i++ {
		s, err := tmpl.Build(m, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprint(s), fingerprint(direct); got != want {
			t.Fatalf("template build %d diverged from Build:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestTemplateConcurrentBuilds runs eight Builds of one template at
// once. The mixed-type mesh with a shared cache takes the heterogeneous
// probe path through each Build's unit-cost memo, so under the race
// detector a memo shared across builds would surface here.
func TestTemplateConcurrentBuilds(t *testing.T) {
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		m     *chiplet.MCM
		cache *costmodel.Cache
	}{
		{"simba-6x6-uncached", chiplet.Simba36(dataflow.OS), nil},
		{"mixed-6x6-shared-cache", mixedMesh(t, 6, 6), costmodel.NewCache()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tmpl, err := NewTemplate(p, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Cache = tc.cache
			ref, err := tmpl.Build(tc.m, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(ref)
			const n = 8
			got := make([]string, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				go func(i int) {
					defer wg.Done()
					s, err := tmpl.Build(tc.m, opts)
					if err != nil {
						errs[i] = err
						return
					}
					got[i] = fingerprint(s)
				}(i)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("build %d: %v", i, errs[i])
				}
				if got[i] != want {
					t.Errorf("concurrent build %d diverged from serial reference", i)
				}
			}
		})
	}
}

func TestTemplateBuildOnDifferentMCMSameGeometry(t *testing.T) {
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := NewTemplate(p, chiplet.Simba36(dataflow.OS))
	if err != nil {
		t.Fatal(err)
	}
	// Same geometry, different NoP parameters: the template must build
	// and the NoP change must show up in the metrics.
	m2 := chiplet.Simba36(dataflow.OS)
	m2.NoP.LinkBWGBs = 25
	m2.NoP.HopLatencyNs = 140
	s2, err := tmpl.Build(m2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Build(p, m2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(s2), fingerprint(direct); got != want {
		t.Fatalf("template build on re-parameterized mesh diverged from direct Build")
	}
}

func TestTemplateRejectsGeometryMismatch(t *testing.T) {
	p, err := workloads.Perception(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := NewTemplate(p, chiplet.Simba36(dataflow.OS))
	if err != nil {
		t.Fatal(err)
	}
	small, err := chiplet.New("simba-4x4", 4, 4, nop.DefaultParams(),
		func(nop.Coord) *costmodel.Accel { return costmodel.SimbaChiplet(dataflow.OS) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.Build(small, DefaultOptions()); err == nil {
		t.Fatal("expected geometry mismatch error, got nil")
	}
}

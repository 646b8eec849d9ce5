package sched

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/workloads"
)

// reuseCase is one build of the workspace-reuse tests: Build of p on
// m, or, when plan is set, the plan finished on m. golden names the
// schedules.golden section that pins the build, if one does.
type reuseCase struct {
	name, golden string
	p            *workloads.Pipeline
	m            *chiplet.MCM
	plan         *Plan
}

// reuseCases are builds whose workspaces differ in every dimension a
// reset must cover: mesh size (a 1x1 baseline before a 2x1 and a 2x2
// one, and back), stage count, shared and partitioned pools, mixed
// chiplet types, replicated trunks, and a plan finished under another
// NoP.
func reuseCases(t testing.TB) []reuseCase {
	t.Helper()
	dual := perception(t)
	dual.Stages[workloads.StageTrunks].Replicas = 2
	three := perception(t).FirstThreeStages()
	simba := chiplet.Simba36(dataflow.OS)
	pl, err := NewPlan(perception(t), simba, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	slow := nop.DefaultParams()
	slow.LinkBWGBs = 25
	return []reuseCase{
		{name: "mixed-6x6", golden: "mixed-6x6", p: perception(t), m: mixedMesh(t, 6, 6)},
		{name: "mixed-4x4", golden: "mixed-4x4", p: perception(t), m: mixedMesh(t, 4, 4)},
		{name: "mono1-3stage", golden: "mono1-3stage", p: three, m: chiplet.Baseline(1, dataflow.OS)},
		{name: "mono2-3stage", golden: "mono2-3stage", p: three, m: chiplet.Baseline(2, dataflow.OS)},
		{name: "mono4-3stage", golden: "mono4-3stage", p: three, m: chiplet.Baseline(4, dataflow.OS)},
		{name: "dual72-trunks-x2", golden: "dual72-trunks-x2", p: dual, m: chiplet.DualSimba72(dataflow.OS)},
		{name: "simba-2x3", p: perception(t), m: simbaMesh(t, 2, 3)},
		{name: "plan-simba36-25GBs", m: withNoP(simba, slow), plan: pl},
	}
}

// build runs the case with the given layer-cost cache. For a Build it
// also returns the workspace the build took.
func (rc reuseCase) build(cache *costmodel.Cache) (*Schedule, *workspace, error) {
	if rc.plan != nil {
		s, err := rc.plan.Build(rc.m, cache)
		return s, nil, err
	}
	opts := DefaultOptions()
	opts.Cache = cache
	s, err := newSchedule(rc.p, rc.m, opts)
	if err != nil {
		return nil, nil, err
	}
	ws := s.ws
	out, err := s.solve()
	s.release()
	return out, ws, err
}

// goldenSections returns schedules.golden's fingerprint per case name.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "schedules.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, sec := range strings.Split(string(data), "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		out[name] = body
	}
	return out
}

// TestBuildReuseMatchesFresh builds reuseCases back to back on one
// goroutine and one P, so every build takes the workspace the build
// before it put back, then builds them again in reverse order. Each
// schedule must equal the same case's build from the other order
// whole, and match its schedules.golden section where one pins it: a
// recycled workspace must carry nothing from the builds it served.
func TestBuildReuseMatchesFresh(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cases := reuseCases(t)
	golden := goldenSections(t)
	cache := costmodel.NewCache()
	taken := make(map[*workspace]bool)
	builds := 0
	run := func(order []int) []*Schedule {
		out := make([]*Schedule, len(cases))
		for _, i := range order {
			s, ws, err := cases[i].build(cache)
			if err != nil {
				t.Fatalf("%s: %v", cases[i].name, err)
			}
			if ws != nil {
				taken[ws] = true
				builds++
			}
			out[i] = s
		}
		return out
	}
	order := make([]int, len(cases))
	for i := range order {
		order[i] = i
	}
	fwd := run(order)
	slices.Reverse(order)
	rev := run(order)
	if len(taken) >= builds {
		t.Fatalf("%d builds took %d workspaces: none was reused", builds, len(taken))
	}
	for i, tc := range cases {
		if !reflect.DeepEqual(fwd[i], rev[i]) {
			t.Errorf("%s: the schedule differs between the two build orders:\nforward %s\nreverse %s",
				tc.name, fingerprint(fwd[i]), fingerprint(rev[i]))
		}
		if tc.golden == "" {
			continue
		}
		want, ok := golden[tc.golden]
		if !ok {
			t.Fatalf("schedules.golden has no section %s", tc.golden)
		}
		if got := fingerprint(fwd[i]); got != want {
			t.Errorf("%s: the schedule differs from schedules.golden:\n got %s\nwant %s", tc.name, got, want)
		}
	}
}

// TestBuildReuseMatchesFreshConcurrent builds reuseCases from eight
// goroutines at once, each in its own shuffled order and then in
// reverse, so workspaces move between goroutines and between packages
// of every size. Every schedule must equal a serial build of its case;
// under the race detector a workspace shared by two builds at once
// would surface here too.
func TestBuildReuseMatchesFreshConcurrent(t *testing.T) {
	cases := reuseCases(t)
	cache := costmodel.NewCache()
	want := make([]*Schedule, len(cases))
	for i, tc := range cases {
		s, _, err := tc.build(cache)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want[i] = s
	}
	var wg sync.WaitGroup
	for g := range 8 {
		order := rand.New(rand.NewPCG(uint64(g), 29)).Perm(len(cases))
		back := slices.Clone(order)
		slices.Reverse(back)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range slices.Concat(order, back) {
				s, _, err := cases[i].build(cache)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, cases[i].name, err)
					return
				}
				if !reflect.DeepEqual(s, want[i]) {
					t.Errorf("goroutine %d, %s: the schedule differs from a serial build:\n got %s\nwant %s",
						g, cases[i].name, fingerprint(s), fingerprint(want[i]))
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzBuildReuseMatchesFresh builds two fuzzed packages (fuzzPackage)
// back to back in both orders: each package's schedule must be the
// same whether it was built first or after the other.
func FuzzBuildReuseMatchesFresh(f *testing.F) {
	f.Add(uint8(0), uint8(0), false, true, []byte(nil), uint8(1), uint8(0), false, true, []byte(nil)) // 1x1 then 2x1
	f.Add(uint8(5), uint8(5), false, false, []byte{0, 1, 2, 3}, uint8(3), uint8(3), true, true, []byte(nil))
	f.Add(uint8(1), uint8(2), false, false, []byte{3, 1, 2}, uint8(7), uint8(7), false, false, []byte{2})
	f.Add(uint8(4), uint8(4), true, true, []byte{2, 0, 0, 1, 3}, uint8(0), uint8(6), true, false, []byte{1, 2})
	full := perception(f)
	three := full.FirstThreeStages()
	cache := costmodel.NewCache()
	f.Fuzz(func(t *testing.T, w1, h1 uint8, ws1, three1 bool, types1 []byte, w2, h2 uint8, ws2, three2 bool, types2 []byte) {
		pa, ma := fuzzPackage(t, full, three, w1, h1, ws1, three1, types1)
		pb, mb := fuzzPackage(t, full, three, w2, h2, ws2, three2, types2)
		opts := DefaultOptions()
		opts.Cache = cache
		build := func(p *workloads.Pipeline, m *chiplet.MCM) *Schedule {
			s, err := Build(p, m, opts)
			if err != nil {
				t.Fatalf("%s on %dx%d: %v", m.Name, m.GridW, m.GridH, err)
			}
			return s
		}
		a1, b1 := build(pa, ma), build(pb, mb)
		b2, a2 := build(pb, mb), build(pa, ma)
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("the first package's schedule depends on the build order:\nfirst %s\n last %s", fingerprint(a1), fingerprint(a2))
		}
		if !reflect.DeepEqual(b1, b2) {
			t.Errorf("the second package's schedule depends on the build order:\nlast %s\nfirst %s", fingerprint(b1), fingerprint(b2))
		}
	})
}

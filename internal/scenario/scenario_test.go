package scenario

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mcmnpu/internal/nop"
	"mcmnpu/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

func TestRegistryShape(t *testing.T) {
	reg := Registry()
	if len(reg) < 8 {
		t.Fatalf("registry has %d scenarios; want >= 8", len(reg))
	}
	seen := map[string]bool{}
	for _, s := range reg {
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", s.Name, err)
		}
		if _, _, err := s.instantiate(); err != nil {
			t.Errorf("scenario %s does not instantiate: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("scenario %s has no description", s.Name)
		}
	}
}

func TestRegistryMutationIsolated(t *testing.T) {
	Registry()[0].Name = "clobbered"
	if Registry()[0].Name == "clobbered" {
		t.Fatal("mutating a returned registry slice must not affect later calls")
	}
}

// TestLookupAllocatesNothing: Lookup reads the registry table built at
// init instead of rebuilding the library per call.
func TestLookupAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var sp Spec
	var err error
	if n := testing.AllocsPerRun(100, func() { sp, err = Lookup("deep-temporal-16") }); n != 0 {
		t.Errorf("Lookup allocates %v times per call; want 0", n)
	}
	if err != nil || sp.Name != "deep-temporal-16" {
		t.Fatalf("Lookup(deep-temporal-16) = %q, %v", sp.Name, err)
	}
}

// TestLookupReturnsCopy: editing a looked-up spec, its slices and
// pointers included, leaves the registry table unchanged.
func TestLookupReturnsCopy(t *testing.T) {
	for _, name := range Names() {
		want, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := Lookup(name)
		got.Workload.Cameras++
		if len(got.ChipletTypes) > 0 {
			got.ChipletTypes[0] = "eco"
		} else {
			got.ChipletTypes = append(got.ChipletTypes, "eco")
		}
		if got.NoP != nil {
			got.NoP.LinkBWGBs++
		} else {
			got.NoP = &nop.Params{LinkBWGBs: 1}
		}
		if again, _ := Lookup(name); !reflect.DeepEqual(again, want) {
			t.Errorf("%s: editing a looked-up spec changed the registry:\n got %+v\nwant %+v", name, again, want)
		}
	}
	// The registry entries set neither field, so clone's copies are
	// checked on a spec that sets both.
	sp := Spec{Name: "typed", ChipletTypes: []string{"big", "eco"}, NoP: &nop.Params{LinkBWGBs: 100}}
	c := sp.clone()
	c.ChipletTypes[0] = "simba"
	c.NoP.LinkBWGBs = 1
	if sp.ChipletTypes[0] != "big" || sp.NoP.LinkBWGBs != 100 {
		t.Errorf("clone shares state with the original: %+v / %+v", sp.ChipletTypes, *sp.NoP)
	}
}

func TestLookupAndFilter(t *testing.T) {
	s, err := Lookup("urban-8cam")
	if err != nil || s.Name != "urban-8cam" {
		t.Fatalf("Lookup(urban-8cam) = %+v, %v", s.Name, err)
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("unknown scenario should error")
	}
	if got := Filter("mono"); len(got) != 2 {
		t.Errorf("Filter(mono) = %d scenarios; want 2", len(got))
	}
	if got := Filter(""); len(got) != len(Registry()) {
		t.Error("empty filter should return everything")
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{Name: "x"}.WithDefaults()
	if s.Workload != workloads.DefaultConfig() {
		t.Error("zero workload should default to the paper config")
	}
	if s.Package != "simba36" || s.Dataflow != "OS" {
		t.Errorf("defaults: package %q dataflow %q", s.Package, s.Dataflow)
	}
	if s.CameraFPS != 10 || s.Frames != 32 || s.Seed != 1 {
		t.Errorf("defaults: fps %v frames %d seed %d", s.CameraFPS, s.Frames, s.Seed)
	}
	if s.DeadlineMs != DefaultDeadlinePeriods*100 {
		t.Errorf("deadline = %v; want %v camera periods", s.DeadlineMs, DefaultDeadlinePeriods)
	}
}

func TestValidateRejects(t *testing.T) {
	base := Spec{Name: "ok"}.WithDefaults()
	cases := []struct {
		label  string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"comma in name", func(s *Spec) { s.Name = "a,b" }},
		{"bad workload", func(s *Spec) { s.Workload.Cameras = -1 }},
		{"bad package", func(s *Spec) { s.Package = "tpu-pod" }},
		{"bad mesh", func(s *Spec) { s.Package = "mesh:0x4" }},
		{"huge mesh", func(s *Spec) { s.Package = "mesh:64x64" }},
		{"bad dataflow", func(s *Spec) { s.Dataflow = "RS" }},
		{"bad nop", func(s *Spec) { s.NoP = &nopBad }},
		{"NaN nop bandwidth", func(s *Spec) { s.NoP = &nop.Params{LinkBWGBs: math.NaN()} }},
		{"infinite nop bandwidth", func(s *Spec) { s.NoP = &nop.Params{LinkBWGBs: math.Inf(1)} }},
		{"negative tolerance", func(s *Spec) { s.Tolerance = -1 }},
		{"NaN tolerance", func(s *Spec) { s.Tolerance = math.NaN() }},
		{"infinite tolerance", func(s *Spec) { s.Tolerance = math.Inf(1) }},
		{"zero fps", func(s *Spec) { s.CameraFPS = 0 }},
		{"NaN fps", func(s *Spec) { s.CameraFPS = math.NaN() }},
		{"infinite fps", func(s *Spec) { s.CameraFPS = math.Inf(1) }},
		{"negative jitter", func(s *Spec) { s.JitterMs = -1 }},
		{"NaN jitter", func(s *Spec) { s.JitterMs = math.NaN() }},
		{"infinite jitter", func(s *Spec) { s.JitterMs = math.Inf(1) }},
		{"zero frames", func(s *Spec) { s.Frames = 0 }},
		{"absurd frames", func(s *Spec) { s.Frames = 1 << 30 }},
		{"negative deadline", func(s *Spec) { s.DeadlineMs = -5 }},
		{"NaN deadline", func(s *Spec) { s.DeadlineMs = math.NaN() }},
		{"infinite deadline", func(s *Spec) { s.DeadlineMs = math.Inf(1) }},
	}
	for _, c := range cases {
		s := base
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.label, s)
		}
	}
}

func TestParsePackageMesh(t *testing.T) {
	w, h, err := parsePackage("mesh:12x6")
	if err != nil || w != 12 || h != 6 {
		t.Fatalf("mesh:12x6 = (%d,%d,%v)", w, h, err)
	}
	for _, bad := range []string{"mesh:", "mesh:x", "mesh:3", "mesh:3x", "mesh:ax4", "mesh:4xb", "mesh:-1x4"} {
		if _, _, err := parsePackage(bad); err == nil {
			t.Errorf("parsePackage(%q) should fail", bad)
		}
	}
}

func TestParseSpec(t *testing.T) {
	valid := `{"name":"custom","package":"mesh:4x4","camera_fps":15,"frames":8}`
	s, err := ParseSpec([]byte(valid))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.Package != "mesh:4x4" || s.CameraFPS != 15 || s.Frames != 8 {
		t.Errorf("parsed spec = %+v", s)
	}
	if s.Workload != workloads.DefaultConfig() {
		t.Error("parse should default the workload")
	}
	if _, _, err := s.instantiate(); err != nil {
		t.Errorf("parsed spec should instantiate: %v", err)
	}

	for _, bad := range []string{
		``, `{`, `[]`, `"str"`, `{"name":""}`,
		`{"name":"x","package":"nope"}`,
		`{"name":"x","typo_field":1}`,
		`{"name":"x","frames":-3}`,
		`{"name":"x"} {"name":"y"}`, // trailing content (botched merge)
		`{"name":"x"} garbage`,
	} {
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}

	// Trailing whitespace is not "content".
	if _, err := ParseSpec([]byte("{\"name\":\"x\"}\n\t ")); err != nil {
		t.Errorf("trailing whitespace should be accepted: %v", err)
	}
}

// TestJitterZeroIsJitterFree: an explicit jitter_ms of 0 must survive
// defaulting (0 means jitter-free arrivals, not "use the default").
func TestJitterZeroIsJitterFree(t *testing.T) {
	s, err := ParseSpec([]byte(`{"name":"x","jitter_ms":0}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.JitterMs != 0 {
		t.Fatalf("jitter_ms 0 rewritten to %v by defaulting", s.JitterMs)
	}
	if g := s.Generator(1); g.JitterMs != 0 {
		t.Fatalf("generator jitter %v; want jitter-free", g.JitterMs)
	}
	sets := s.Generator(1).FrameSets(4)
	period := 1e3 / s.CameraFPS
	for i, set := range sets {
		if set.ReadyMs != float64(i)*period {
			t.Errorf("jitter-free set %d ready at %v; want %v", i, set.ReadyMs, float64(i)*period)
		}
	}
	// The registry keeps the paper's bounded jitter explicitly.
	reg, err := Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	if reg.JitterMs != 1.5 {
		t.Errorf("registry jitter %v; want the paper's 1.5 ms", reg.JitterMs)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, s := range Registry() {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Name, err)
		}
		back, err := ParseSpec(b)
		if err != nil {
			t.Fatalf("%s: reparse: %v", s.Name, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("%s: round-trip mismatch:\n  got %+v\n want %+v", s.Name, back, s)
		}
	}
}

func TestGeneratorFollowsSpec(t *testing.T) {
	s, err := Lookup("robotaxi-12cam-hires")
	if err != nil {
		t.Fatal(err)
	}
	g := s.Generator(7)
	if g.Cameras != 12 || g.FPS != 3 {
		t.Errorf("generator cameras=%d fps=%v", g.Cameras, g.FPS)
	}
	if want := int64(1920 * 1080 * 3 / 2); g.FrameSize != want {
		t.Errorf("frame size %d; want %d (1080p YUV420)", g.FrameSize, want)
	}
}

// TestListTableGolden locks the registry listing: adding, renaming or
// re-parametrizing a scenario must be a conscious change (regenerate
// with -update).
func TestListTableGolden(t *testing.T) {
	got := ListTable(Registry()).String()
	path := filepath.Join("testdata", "registry_list.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("registry listing drifted from %s (run with -update to accept):\n%s",
			path, diffHint(string(want), got))
	}
}

// diffHint returns the first differing line pair — enough to see what
// changed without a full diff dependency.
func diffHint(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i+1, w, g)
		}
	}
	return "(no line difference found)"
}

var nopBad = nop.Params{LinkBWGBs: -1}

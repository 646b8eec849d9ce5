// Package scenario is the declarative workload layer on top of the
// analytic engines: a Spec names one complete AV perception scenario —
// sensor suite, workload parameters, package/dataflow choice, NoP
// parameters, trace model, frame budget — and Prepare compiles it to a
// design point, a *Prepared holding the defaulted spec, its Algorithm 1
// schedule and the schedule's layerwise pipelining metrics (PrepareOn
// does it on a sweep.Engine, whose plan store lets NoP variants of one
// design share its balancing, and Spec.Design names the design a spec
// builds without building it). A registry
// of named scenarios (urban, highway, robotaxi, degraded rigs,
// baselines) turns the single-operating-point paper reproduction into
// a many-workload evaluation system; the streaming runner in runner.go
// drives each prepared design through the event-driven simulator.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"mcmnpu/internal/chiplet"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
	"mcmnpu/internal/trace"
	"mcmnpu/internal/workloads"
)

// Spec declares one scenario. The zero value is not runnable; construct
// specs from the registry, from ParseSpec, or start from a registry
// entry and override fields. All fields are plain data so specs
// round-trip through JSON.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Workload is the full perception-pipeline parametrization. A zero
	// Workload is replaced by workloads.DefaultConfig() at
	// defaulting/parse time.
	Workload workloads.Config `json:"workload"`

	// Package selects the chiplet package: "simba36" (default),
	// "dual72", "mono1", "mono2", "mono4", or "mesh:WxH" for a custom
	// W x H mesh of 256-PE Simba chiplets (1 <= W,H <= 32).
	Package string `json:"package,omitempty"`

	// Dataflow is "OS" (default) or "WS", applied package-wide.
	Dataflow string `json:"dataflow,omitempty"`

	// ChipletTypes assigns heterogeneous chiplet types from the built-in
	// library (chiplet.TypeNames) across the package's mesh: empty keeps
	// the homogeneous simba default, a single bare name applies that type
	// uniformly, and run-length tokens ("big*3", "eco") must cover every
	// chiplet row-major. Only Simba-grid packages (simba36, dual72,
	// mesh:WxH) accept type assignments.
	ChipletTypes []string `json:"chiplet_types,omitempty"`

	// NoP, when non-nil, overrides the package's interconnect
	// parameters.
	NoP *nop.Params `json:"nop,omitempty"`

	// Tolerance overrides the scheduler's tolerance coefficient when
	// positive (0 keeps sched.DefaultTolerance).
	Tolerance float64 `json:"tolerance,omitempty"`

	// Trace model: camera rate, bounded arrival jitter, and the
	// deterministic seed the frame streams derive from. JitterMs is NOT
	// defaulted — 0 is a meaningful value (jitter-free arrivals), so an
	// unset field stays jitter-free; the registry scenarios set the
	// paper's 1.5 ms explicitly.
	CameraFPS float64 `json:"camera_fps,omitempty"` // default 10
	JitterMs  float64 `json:"jitter_ms,omitempty"`  // 0 = jitter-free
	Seed      uint64  `json:"seed,omitempty"`       // default 1

	// Frames is the default streamed frame-set count (overridable per
	// run).
	Frames int `json:"frames,omitempty"` // default 32

	// DeadlineMs is the per-frame latency budget for deadline-miss
	// counting. 0 derives the budget from the camera rate
	// (DefaultDeadlinePeriods camera periods).
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

// DefaultDeadlinePeriods is the camera-rate budget used when a spec
// leaves DeadlineMs at 0: a frame must clear the pipeline within this
// many camera periods.
const DefaultDeadlinePeriods = 4

// maxMeshDim bounds custom "mesh:WxH" packages (keeps fuzzed specs from
// allocating absurd meshes).
const maxMeshDim = 32

// WithDefaults returns the spec with unset fields replaced by their
// defaults (zero workload -> paper config, empty package -> simba36,
// empty dataflow -> OS, zero trace parameters -> 10 FPS / seed 1 / 32
// frames). JitterMs is left alone: 0 means jitter-free, not "default".
func (s Spec) WithDefaults() Spec {
	if s.Workload == (workloads.Config{}) {
		s.Workload = workloads.DefaultConfig()
	}
	if s.Package == "" {
		s.Package = "simba36"
	}
	if s.Dataflow == "" {
		s.Dataflow = "OS"
	}
	if s.CameraFPS == 0 {
		s.CameraFPS = 10
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Frames == 0 {
		s.Frames = 32
	}
	if s.DeadlineMs == 0 {
		s.DeadlineMs = DefaultDeadlinePeriods * 1e3 / s.CameraFPS
	}
	return s
}

// Validate reports spec errors. Call on a defaulted spec (WithDefaults
// or ParseSpec output); a zero-valued field that WithDefaults would fill
// is reported as invalid here.
func (s Spec) Validate() error {
	if s.Name == "" || strings.ContainsAny(s.Name, "\n\r,") {
		return fmt.Errorf("scenario: invalid name %q", s.Name)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, err := s.style(); err != nil {
		return err
	}
	if _, _, err := parsePackage(s.Package); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if len(s.ChipletTypes) > 0 {
		w, h, ok := packageGrid(s.Package)
		if !ok {
			return fmt.Errorf("scenario %s: package %q does not accept chiplet type assignments", s.Name, s.Package)
		}
		if _, err := chiplet.ExpandTypes(s.ChipletTypes, w*h); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.NoP != nil {
		if err := s.NoP.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	// Each range check is written so that NaN fails it.
	if !(s.Tolerance >= 0 && s.Tolerance <= 10) {
		return fmt.Errorf("scenario %s: tolerance %v out of range", s.Name, s.Tolerance)
	}
	if !(s.CameraFPS > 0 && s.CameraFPS <= 1000) {
		return fmt.Errorf("scenario %s: camera rate %v FPS out of range", s.Name, s.CameraFPS)
	}
	if !(s.JitterMs >= 0 && s.JitterMs <= 1e3) {
		return fmt.Errorf("scenario %s: jitter %v ms out of range", s.Name, s.JitterMs)
	}
	if s.Frames <= 0 || s.Frames > 1<<20 {
		return fmt.Errorf("scenario %s: frame count %d out of range", s.Name, s.Frames)
	}
	if !(s.DeadlineMs > 0 && s.DeadlineMs <= 1e6) {
		return fmt.Errorf("scenario %s: deadline %v ms out of range", s.Name, s.DeadlineMs)
	}
	return nil
}

func (s Spec) style() (dataflow.Style, error) {
	switch s.Dataflow {
	case "OS", "os", "":
		return dataflow.OS, nil
	case "WS", "ws":
		return dataflow.WS, nil
	default:
		return dataflow.OS, fmt.Errorf("scenario %s: unknown dataflow %q", s.Name, s.Dataflow)
	}
}

// parsePackage validates a package selector; for "mesh:WxH" it also
// returns the mesh dimensions (w, h are 0 for presets).
func parsePackage(pkg string) (w, h int, err error) {
	switch pkg {
	case "simba36", "dual72", "mono1", "mono2", "mono4":
		return 0, 0, nil
	}
	rest, ok := strings.CutPrefix(pkg, "mesh:")
	if !ok {
		return 0, 0, fmt.Errorf("unknown package %q", pkg)
	}
	ws, hs, ok := strings.Cut(rest, "x")
	if !ok {
		return 0, 0, fmt.Errorf("malformed mesh package %q (want mesh:WxH)", pkg)
	}
	w, werr := strconv.Atoi(ws)
	h, herr := strconv.Atoi(hs)
	if werr != nil || herr != nil || w < 1 || h < 1 || w > maxMeshDim || h > maxMeshDim {
		return 0, 0, fmt.Errorf("mesh package %q dimensions out of range (1..%d)", pkg, maxMeshDim)
	}
	return w, h, nil
}

// packageGrid returns the Simba-grid dimensions of packages that accept
// per-chiplet type assignments. Monolithic baselines (mono*) are not
// grids of library chiplets, so they report ok=false.
func packageGrid(pkg string) (w, h int, ok bool) {
	switch pkg {
	case "simba36":
		return 6, 6, true
	case "dual72":
		return 12, 6, true
	}
	if w, h, err := parsePackage(pkg); err == nil && w > 0 {
		return w, h, true
	}
	return 0, 0, false
}

// instantiate defaults and validates the spec and builds its chiplet
// package with the spec's NoP override applied. It returns the
// defaulted spec and the package.
func (s Spec) instantiate() (Spec, *chiplet.MCM, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, nil, err
	}
	style, _ := s.style() // Validate checked the dataflow
	m, err := buildMCM(s.Package, style, s.ChipletTypes)
	if err != nil {
		return Spec{}, nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.NoP != nil {
		m.NoP = *s.NoP
	}
	return s, m, nil
}

// buildMCM builds the package of a validated selector and type
// assignment: a preset for dual72 without an assignment and for the
// monolithic baselines, a typed mesh (chiplet.NewTyped) for every other
// Simba-grid package. Both Simba-grid presets are typed meshes of the
// library's shared accelerators too: simba36 builds chiplet.Simba36's
// 6x6 mesh, and dual72 differs from mesh:12x6 only in its name, so
// Spec.chiplets can name a package by this split.
func buildMCM(pkg string, style dataflow.Style, types []string) (*chiplet.MCM, error) {
	switch pkg {
	case "dual72":
		if len(types) == 0 {
			return chiplet.DualSimba72(style), nil
		}
	case "mono1":
		return chiplet.Baseline(1, style), nil
	case "mono2":
		return chiplet.Baseline(2, style), nil
	case "mono4":
		return chiplet.Baseline(4, style), nil
	}
	w, h, ok := packageGrid(pkg)
	if !ok {
		return nil, fmt.Errorf("unknown package %q", pkg)
	}
	assignment, err := chiplet.ExpandTypes(types, w*h)
	if err != nil {
		return nil, err
	}
	return chiplet.NewTyped(meshName(w, h, assignment), w, h, nop.DefaultParams(), style, assignment)
}

// chiplets names the package a defaulted, validated spec builds, without
// its NoP and without building it: the dataflow, the expanded chiplet
// type assignment and, for a typed mesh, its dimensions, since its name
// and chiplets follow from them (simba36 and mesh:6x6 name one package,
// and so do dual72 and mesh:12x6 under one assignment), or else the
// preset's selector.
func (s Spec) chiplets() string {
	style, _ := s.style()
	w, h, grid := packageGrid(s.Package) // 0x0 for a baseline, which takes no types
	types, _ := chiplet.ExpandTypes(s.ChipletTypes, w*h)
	pkg := s.Package
	if grid && (pkg != "dual72" || len(types) > 0) {
		pkg = fmt.Sprintf("mesh:%dx%d", w, h)
	}
	return pkg + "/" + style.String() + "/" + strings.Join(types, ",")
}

// meshName labels a typed mesh package: the legacy simba-WxH for the
// homogeneous default, TYPE-WxH for a uniform non-simba assignment, and
// het-WxH for a genuinely mixed one.
func meshName(w, h int, assignment []string) string {
	uniform := "simba"
	for i, t := range assignment {
		if i == 0 {
			uniform = t
			continue
		}
		if t != uniform {
			return fmt.Sprintf("het-%dx%d", w, h)
		}
	}
	return fmt.Sprintf("%s-%dx%d", uniform, w, h)
}

// Generator builds the scenario's deterministic trace generator for the
// given seed (the runner derives one seed per trace window).
func (s Spec) Generator(seed uint64) *trace.Generator {
	g := trace.NewGenerator(seed)
	g.Cameras = int(s.Workload.Cameras)
	g.FPS = s.CameraFPS
	g.JitterMs = s.JitterMs
	g.FrameSize = s.Workload.InputH * s.Workload.InputW * 3 / 2 // YUV420
	return g
}

// WindowGenerator builds the generator of the runner's trace window i
// (from 0).
func (s Spec) WindowGenerator(i int) *trace.Generator {
	return s.Generator(s.Seed + windowSeedStride*uint64(i+1))
}

// ParseSpec decodes and validates a JSON scenario spec, applying
// defaults to unset fields. Unknown JSON fields and trailing content
// after the spec object are rejected so typos and botched merges in
// hand-written specs fail loudly.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	var extra any
	if err := dec.Decode(&extra); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: trailing content after spec object")
	}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Registry --------------------------------------------------------------

// registry is the named scenario library in canonical order, built
// and defaulted once at package init. Every entry is validated by
// construction (the package test prepares each one). Read it in place;
// Registry, Lookup and Filter hand out clones.
var registry = func() []Spec {
	urban := workloads.DefaultConfig()

	highway := urban
	highway.Cameras = 5

	robotaxi := urban
	robotaxi.Cameras = 12
	robotaxi.InputH = 1080
	robotaxi.InputW = 1920

	degraded := urban
	degraded.Cameras = 6

	lowlat := urban
	lowlat.GridH = 100
	lowlat.GridW = 40
	lowlat.AttnWindow = 48
	lowlat.TemporalFrames = 6

	deepq := urban
	deepq.TemporalFrames = 16

	specs := []Spec{
		{
			Name:        "urban-8cam",
			Description: "paper operating point: 8x720p rig, 6x6 Simba MCM, OS dataflow",
			Workload:    urban,
			CameraFPS:   4,
		},
		{
			Name:        "highway-5cam",
			Description: "front-biased highway rig: 5 cameras at a higher camera rate",
			Workload:    highway,
			CameraFPS:   5,
		},
		{
			Name:        "robotaxi-12cam-hires",
			Description: "12x1080p robotaxi suite on the dual-NPU 12x6 package",
			Workload:    robotaxi,
			Package:     "dual72",
			CameraFPS:   3,
			Frames:      24,
		},
		{
			Name:        "degraded-camera-dropout",
			Description: "urban rig with two failed cameras (6 of 8 live), same deadline budget",
			Workload:    degraded,
			CameraFPS:   4,
			DeadlineMs:  DefaultDeadlinePeriods * 1e3 / 4, // keep the 8-cam budget
		},
		{
			Name:        "lowlatency-smallgrid",
			Description: "reduced 100x40 BEV grid and shallow temporal queue for a tight deadline",
			Workload:    lowlat,
			CameraFPS:   12,
			DeadlineMs:  450,
		},
		{
			Name:        "bigpackage-12x6",
			Description: "default workload with both NPUs active (72-chiplet 12x6 mesh)",
			Workload:    urban,
			Package:     "dual72",
			CameraFPS:   6,
		},
		{
			Name:        "deep-temporal-16",
			Description: "16-frame temporal fusion queue (paper uses 12)",
			Workload:    deepq,
			CameraFPS:   4,
		},
		{
			Name:        "ws-dataflow-8cam",
			Description: "dataflow ablation: the urban scenario on an all-WS package",
			Workload:    urban,
			Dataflow:    "WS",
			CameraFPS:   4,
		},
		{
			Name:        "mono-baseline-1x9216",
			Description: "monolithic baseline: one 9216-PE die at the same PE budget",
			Workload:    urban,
			Package:     "mono1",
			CameraFPS:   2,
		},
		{
			Name:        "mono-baseline-4x2304",
			Description: "few-chip baseline: four 2304-PE dies at the same PE budget",
			Workload:    urban,
			Package:     "mono4",
			CameraFPS:   4,
		},
	}
	for i := range specs {
		specs[i].JitterMs = 1.5 // the paper's bounded arrival jitter
		specs[i] = specs[i].WithDefaults()
	}
	return specs
}()

// clone returns a copy of s that shares no slice or pointer with s.
func (s Spec) clone() Spec {
	s.ChipletTypes = slices.Clone(s.ChipletTypes)
	if s.NoP != nil {
		n := *s.NoP
		s.NoP = &n
	}
	return s
}

// Registry returns the named scenario library in its canonical order,
// freshly allocated so callers may mutate entries.
func Registry() []Spec {
	out := make([]Spec, len(registry))
	for i, s := range registry {
		out[i] = s.clone()
	}
	return out
}

// Lookup returns the registry scenario with the given name.
func Lookup(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s.clone(), nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have: %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns the registry scenario names in canonical order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// Filter returns the registry scenarios whose name contains the
// substring (all of them for an empty filter).
func Filter(substr string) []Spec {
	var out []Spec
	for _, s := range registry {
		if strings.Contains(s.Name, substr) {
			out = append(out, s.clone())
		}
	}
	return out
}

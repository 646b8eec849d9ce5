// Heterogeneous chiplet types: a small built-in library of chiplet
// profiles (per-type compute density, energy-per-MAC and GLB capacity)
// and the validated construction of mixed-type packages. Each library
// entry instantiates one shared, immutable *costmodel.Accel per
// dataflow style at package init, so every Simba-grid MCM in a process,
// typed or not (Simba36 and DualSimba72 included), points at the same
// accelerator objects — the cost cache's pointer-keyed interning then
// resolves a whole sweep through a handful of accel IDs.
package chiplet

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
)

// ChipType couples a library name with its chiplet profile.
type ChipType struct {
	Name    string
	Profile costmodel.ChipProfile
}

// builtinTypes is the type library in canonical order, built once.
// "simba" is the paper's calibrated chiplet; the others bracket it on
// the density/efficiency/bandwidth axes so a heterogeneous search has
// real trade-offs to exploit. Read it in place; BuiltinTypes hands out
// copies.
var builtinTypes = []ChipType{
	{Name: "simba", Profile: costmodel.SimbaProfile()},
	// big: double-density die (512 PEs, 4 MiB GLB). More of the layer
	// fits on one chiplet, but the denser datapath pays more energy per
	// MAC and the port widens only fractionally.
	{Name: "big", Profile: costmodel.ChipProfile{
		Name: "big", PEs: 512, ArrayH: 16, ArrayW: 32, FreqGHz: 2.0,
		GLBReadBW: 24, PsumBW: 8, DRAMBW: 16, GLBBytes: 4 << 20,
		VectorLanes: 32, MACpJ: 0.34,
	}},
	// eco: half-size efficiency die (128 PEs at 1.6 GHz) with the
	// lowest per-MAC energy in the library.
	{Name: "eco", Profile: costmodel.ChipProfile{
		Name: "eco", PEs: 128, ArrayH: 16, ArrayW: 8, FreqGHz: 1.6,
		GLBReadBW: 16, PsumBW: 8, DRAMBW: 16, GLBBytes: 1 << 20,
		VectorLanes: 8, MACpJ: 0.22,
	}},
	// bwopt: simba-sized array behind a double-width GLB port — trades
	// per-MAC energy for streaming bandwidth, the knob the paper's
	// Table II says monolithic dies lack.
	{Name: "bwopt", Profile: costmodel.ChipProfile{
		Name: "bwopt", PEs: 256, ArrayH: 16, ArrayW: 16, FreqGHz: 2.0,
		GLBReadBW: 41.2, PsumBW: 16, DRAMBW: 16, GLBBytes: 3 << 20,
		VectorLanes: 16, MACpJ: 0.36,
	}},
}

// BuiltinTypes returns a copy of the type library in canonical order,
// so callers cannot change the library.
func BuiltinTypes() []ChipType {
	return slices.Clone(builtinTypes)
}

// typeAccels holds the shared accelerator instance per (type, style),
// built once at init. Accels are immutable after construction, so
// sharing them across packages and goroutines is safe — and keeps the
// cost cache's pointer-keyed intern maps from growing per candidate.
var typeAccels = func() map[string]*costmodel.Accel {
	m := make(map[string]*costmodel.Accel)
	for _, t := range builtinTypes {
		for _, st := range []dataflow.Style{dataflow.OS, dataflow.WS} {
			m[t.Name+"/"+st.String()] = t.Profile.Chiplet(st)
		}
	}
	return m
}()

// LookupType returns the library entry with the given name.
func LookupType(name string) (ChipType, error) {
	for _, t := range builtinTypes {
		if t.Name == name {
			return t, nil
		}
	}
	return ChipType{}, fmt.Errorf("chiplet: unknown chiplet type %q (have: %s)",
		name, strings.Join(TypeNames(), ", "))
}

// TypeNames returns the library's type names in canonical order.
func TypeNames() []string {
	out := make([]string, len(builtinTypes))
	for i, t := range builtinTypes {
		out[i] = t.Name
	}
	return out
}

// TypeChiplet returns the shared accelerator instance of a library type
// under the given dataflow style.
func TypeChiplet(name string, style dataflow.Style) (*costmodel.Accel, error) {
	a, ok := typeAccels[name+"/"+style.String()]
	if !ok {
		if _, err := LookupType(name); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("chiplet: type %q has no %v instance", name, style)
	}
	return a, nil
}

// ExpandTypes expands a per-chiplet type assignment into exactly n
// row-major entries. Tokens are library type names with an optional
// run-length count ("eco", "big*3"); a single bare token assigns that
// type uniformly. Empty input returns nil (the caller's homogeneous
// default). Counts must sum to n — a mismatched assignment is the
// validated-mixing error this function exists to catch.
func ExpandTypes(tokens []string, n int) ([]string, error) {
	if len(tokens) == 0 {
		return nil, nil
	}
	if n <= 0 {
		return nil, fmt.Errorf("chiplet: type assignment over %d chiplets", n)
	}
	if len(tokens) == 1 && !strings.Contains(tokens[0], "*") {
		name := strings.TrimSpace(tokens[0])
		if _, err := LookupType(name); err != nil {
			return nil, err
		}
		out := make([]string, n)
		for i := range out {
			out[i] = name
		}
		return out, nil
	}
	out := make([]string, 0, n)
	for _, tok := range tokens {
		tok = strings.TrimSpace(tok)
		name, cnt := tok, 1
		if base, rep, ok := strings.Cut(tok, "*"); ok {
			k, err := strconv.Atoi(rep)
			if err != nil || k < 1 {
				return nil, fmt.Errorf("chiplet: malformed type run %q (want name*count)", tok)
			}
			name, cnt = base, k
		}
		if _, err := LookupType(name); err != nil {
			return nil, err
		}
		if len(out)+cnt > n {
			return nil, fmt.Errorf("chiplet: type assignment exceeds %d chiplets", n)
		}
		for i := 0; i < cnt; i++ {
			out = append(out, name)
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("chiplet: type assignment covers %d of %d chiplets", len(out), n)
	}
	return out, nil
}

// CompressTypes is ExpandTypes' inverse: a per-chiplet assignment
// rendered as run-length tokens ("big*3,simba*13" style). A uniform
// assignment compresses to its bare type name; nil compresses to nil.
func CompressTypes(assignment []string) []string {
	if len(assignment) == 0 {
		return nil
	}
	uniform := true
	for _, t := range assignment[1:] {
		if t != assignment[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return []string{assignment[0]}
	}
	var out []string
	for i := 0; i < len(assignment); {
		j := i
		for j < len(assignment) && assignment[j] == assignment[i] {
			j++
		}
		if j-i == 1 {
			out = append(out, assignment[i])
		} else {
			out = append(out, fmt.Sprintf("%s*%d", assignment[i], j-i))
		}
		i = j
	}
	return out
}

// NewTyped builds a W x H mesh with a per-chiplet type assignment:
// nil assigns the paper's simba type everywhere, otherwise assignment
// must hold exactly gridW*gridH row-major library type names (the
// ExpandTypes output). Every chiplet of one type shares the library's
// accel instance.
func NewTyped(name string, gridW, gridH int, p nop.Params, style dataflow.Style, assignment []string) (*MCM, error) {
	if len(assignment) == 0 {
		a, err := TypeChiplet("simba", style)
		if err != nil {
			return nil, err
		}
		return New(name, gridW, gridH, p, func(nop.Coord) *costmodel.Accel { return a })
	}
	if len(assignment) != gridW*gridH {
		return nil, fmt.Errorf("chiplet: %d type entries for a %dx%d mesh", len(assignment), gridW, gridH)
	}
	accels := make([]*costmodel.Accel, len(assignment))
	for i, t := range assignment {
		a, err := TypeChiplet(t, style)
		if err != nil {
			return nil, err
		}
		accels[i] = a
	}
	return New(name, gridW, gridH, p, func(c nop.Coord) *costmodel.Accel {
		return accels[c.Y*gridW+c.X]
	})
}

// TypeCounts summarizes an MCM's chiplet population by accelerator
// name in sorted order ("eco-128-OS:4 simba-256-OS:12") — the
// rendering layers' compact heterogeneity descriptor.
func (m *MCM) TypeCounts() string {
	counts := map[string]int{}
	for _, a := range m.accels {
		counts[a.Name]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s:%d", n, counts[n])
	}
	return strings.Join(parts, " ")
}

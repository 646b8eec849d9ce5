package chiplet

import (
	"testing"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
)

func TestSimba36(t *testing.T) {
	m := Simba36(dataflow.OS)
	if m.Chiplets() != 36 {
		t.Fatalf("chiplets = %d", m.Chiplets())
	}
	if m.TotalPEs() != 9216 {
		t.Errorf("total PEs = %d, want 9216 (Tesla NPU budget)", m.TotalPEs())
	}
	if m.PeakMACs() != 9216*2e9 {
		t.Errorf("peak = %v", m.PeakMACs())
	}
	a := m.At(nop.Coord{X: 0, Y: 0})
	if a == nil || a.PEs != 256 || a.Style != dataflow.OS {
		t.Errorf("chiplet at origin: %+v", a)
	}
}

func TestDualSimba72(t *testing.T) {
	m := DualSimba72(dataflow.OS)
	if m.Chiplets() != 72 || m.GridW != 12 || m.GridH != 6 {
		t.Errorf("dual package: %d chiplets, %dx%d", m.Chiplets(), m.GridW, m.GridH)
	}
}

func TestBaselines(t *testing.T) {
	for _, parts := range []int{1, 2, 4} {
		m := Baseline(parts, dataflow.OS)
		if m.Chiplets() != parts {
			t.Errorf("baseline %d: chiplets = %d", parts, m.Chiplets())
		}
		if m.TotalPEs() != 9216 {
			t.Errorf("baseline %d: PEs = %d, want 9216", parts, m.TotalPEs())
		}
	}
}

func TestBaselinePanicsOnBadSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsupported split should panic")
		}
	}()
	Baseline(3, dataflow.OS)
}

func TestCoordsRowMajorDeterministic(t *testing.T) {
	m := Simba36(dataflow.OS)
	cs := m.Coords()
	if len(cs) != 36 {
		t.Fatal("coord count")
	}
	if cs[0] != (nop.Coord{X: 0, Y: 0}) || cs[1] != (nop.Coord{X: 1, Y: 0}) {
		t.Errorf("row-major order violated: %v %v", cs[0], cs[1])
	}
	if cs[35] != (nop.Coord{X: 5, Y: 5}) {
		t.Errorf("last coord: %v", cs[35])
	}
}

func TestQuadrantPartitions(t *testing.T) {
	m := Simba36(dataflow.OS)
	parts, err := m.Partitions(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("partitions = %d", len(parts))
	}
	for i, p := range parts {
		if len(p) != 9 {
			t.Errorf("partition %d size = %d, want 9 (3x3 quadrant)", i, len(p))
		}
	}
	// Quadrant 0 must be the top-left 3x3 block.
	want := map[nop.Coord]bool{}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			want[nop.Coord{X: x, Y: y}] = true
		}
	}
	for _, c := range parts[0] {
		if !want[c] {
			t.Errorf("coord %v not in top-left quadrant", c)
		}
	}
	// All partitions disjoint and covering.
	seen := map[nop.Coord]bool{}
	for _, p := range parts {
		for _, c := range p {
			if seen[c] {
				t.Errorf("coord %v in two partitions", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != 36 {
		t.Errorf("partitions cover %d coords", len(seen))
	}
}

func TestPartitionsErrors(t *testing.T) {
	m := Simba36(dataflow.OS)
	if _, err := m.Partitions(5); err == nil {
		t.Error("non-dividing partition count should error")
	}
	if _, err := m.Partitions(0); err == nil {
		t.Error("zero partitions should error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", 0, 3, nop.DefaultParams(),
		func(nop.Coord) *costmodel.Accel { return costmodel.SimbaChiplet(dataflow.OS) }); err == nil {
		t.Error("zero grid should error")
	}
	bad := costmodel.SimbaChiplet(dataflow.OS)
	bad.ArrayH = 7 // inconsistent
	if _, err := New("bad2", 2, 2, nop.DefaultParams(),
		func(nop.Coord) *costmodel.Accel { return bad }); err == nil {
		t.Error("invalid chiplet should error")
	}
}

func TestOrdRowMajorAndOffMesh(t *testing.T) {
	m, err := NewTyped("simba-4x3", 4, 3, nop.DefaultParams(), dataflow.OS, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range m.Coords() {
		if got := m.Ord(c); got != i || got != c.Y*m.GridW+c.X {
			t.Errorf("Ord(%v) = %d, want Coords index %d = Y*GridW+X", c, got, i)
		}
	}
	for _, c := range []nop.Coord{{X: -1, Y: 0}, {X: m.GridW, Y: 0}, {X: 0, Y: m.GridH}} {
		if got := m.Ord(c); got != -1 {
			t.Errorf("Ord(%v) = %d off the mesh, want -1", c, got)
		}
		if a := m.At(c); a != nil {
			t.Errorf("At(%v) = %v off the mesh, want nil", c, a.Name)
		}
	}
}

// TestConstructorsShareAccelerators checks over every pair of chiplets
// that two share an accelerator pointer exactly when their
// accelerators are equivalent, on the presets and a mixed-type mesh:
// each constructor builds one accelerator per chiplet configuration.
func TestConstructorsShareAccelerators(t *testing.T) {
	mixed, err := NewTyped("mixed-3x2", 3, 2, nop.DefaultParams(), dataflow.OS,
		[]string{"simba", "eco", "big", "eco", "simba", "big"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		m      *MCM
		accels int
	}{
		{"simba36", Simba36(dataflow.OS), 1},
		{"dual72", DualSimba72(dataflow.WS), 1},
		{"baseline4", Baseline(4, dataflow.OS), 1},
		{"mixed", mixed, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ptrs := map[*costmodel.Accel]bool{}
			for _, ci := range tc.m.Coords() {
				a := tc.m.At(ci)
				ptrs[a] = true
				for _, cj := range tc.m.Coords() {
					b := tc.m.At(cj)
					if same, eq := a == b, costmodel.AccelEquivalent(a, b); same != eq {
						t.Errorf("%v/%v: same pointer %v, AccelEquivalent %v", ci, cj, same, eq)
					}
				}
			}
			if len(ptrs) != tc.accels {
				t.Errorf("%d accelerators, want %d", len(ptrs), tc.accels)
			}
		})
	}
}

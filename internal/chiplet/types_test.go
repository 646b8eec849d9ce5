package chiplet

import (
	"strings"
	"testing"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/nop"
)

func TestBuiltinTypesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, ct := range BuiltinTypes() {
		if seen[ct.Name] {
			t.Fatalf("duplicate type name %q", ct.Name)
		}
		seen[ct.Name] = true
		for _, st := range []dataflow.Style{dataflow.OS, dataflow.WS} {
			a, err := TypeChiplet(ct.Name, st)
			if err != nil {
				t.Fatalf("TypeChiplet(%s, %v): %v", ct.Name, st, err)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("type %s/%v invalid: %v", ct.Name, st, err)
			}
			if a.Style != st {
				t.Fatalf("type %s/%v carries style %v", ct.Name, st, a.Style)
			}
			// The shared instance is stable across lookups.
			b, _ := TypeChiplet(ct.Name, st)
			if a != b {
				t.Fatalf("type %s/%v not shared across lookups", ct.Name, st)
			}
		}
	}
}

func TestSimbaProfileMatchesPreset(t *testing.T) {
	want := *costmodel.SimbaChiplet(dataflow.OS)
	got, err := TypeChiplet("simba", dataflow.OS)
	if err != nil {
		t.Fatal(err)
	}
	if *got != want {
		t.Fatalf("simba profile drifted from SimbaChiplet:\n got %+v\nwant %+v", *got, want)
	}
}

func TestLookupTypeUnknown(t *testing.T) {
	if _, err := LookupType("nosuch"); err == nil {
		t.Fatal("want error for unknown type")
	}
	if _, err := TypeChiplet("nosuch", dataflow.OS); err == nil {
		t.Fatal("want error for unknown type chiplet")
	}
}

func TestExpandTypes(t *testing.T) {
	cases := []struct {
		tokens []string
		n      int
		want   string // comma-joined expansion; "ERR" = must fail
	}{
		{nil, 4, ""},
		{[]string{"eco"}, 3, "eco,eco,eco"},
		{[]string{"big*2", "simba"}, 3, "big,big,simba"},
		{[]string{"simba*4"}, 4, "simba,simba,simba,simba"},
		{[]string{"eco*2", "bwopt*2"}, 4, "eco,eco,bwopt,bwopt"},
		{[]string{"eco*2"}, 3, "ERR"},  // undercovers
		{[]string{"eco*5"}, 3, "ERR"},  // overflows
		{[]string{"nosuch"}, 2, "ERR"}, // unknown type
		{[]string{"eco*0"}, 2, "ERR"},  // zero run
		{[]string{"eco*-1"}, 2, "ERR"}, // negative run
		{[]string{"eco*x"}, 2, "ERR"},  // non-numeric run
		{[]string{"eco", "big"}, 3, "ERR"},
		{[]string{"eco"}, 0, "ERR"},
	}
	for _, c := range cases {
		got, err := ExpandTypes(c.tokens, c.n)
		if c.want == "ERR" {
			if err == nil {
				t.Errorf("ExpandTypes(%v, %d): want error, got %v", c.tokens, c.n, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ExpandTypes(%v, %d): %v", c.tokens, c.n, err)
			continue
		}
		if strings.Join(got, ",") != c.want {
			t.Errorf("ExpandTypes(%v, %d) = %v, want %s", c.tokens, c.n, got, c.want)
		}
	}
}

// TestExpandTypesAllocatesOnlyItsResult: type lookups read the library
// in place, so expanding an 8-token assignment over 36 chiplets
// allocates the result slice and nothing else.
func TestExpandTypesAllocatesOnlyItsResult(t *testing.T) {
	tokens := []string{"big*4", "eco*6", "simba*5", "bwopt*3", "big*2", "eco*8", "simba*4", "bwopt*4"}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ExpandTypes(tokens, 36); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("ExpandTypes allocated %v times per call, want 1", allocs)
	}
}

// TestBuiltinTypesIsACopy: a caller that edits the returned library
// changes neither later lookups nor later copies.
func TestBuiltinTypesIsACopy(t *testing.T) {
	types := BuiltinTypes()
	want := types[0]
	types[0].Name = "edited"
	types[0].Profile.PEs = 1
	if got, err := LookupType(want.Name); err != nil || got != want {
		t.Errorf("LookupType(%q) = %+v, %v after editing a copy; want %+v", want.Name, got, err, want)
	}
	if again := BuiltinTypes(); again[0] != want {
		t.Errorf("BuiltinTypes()[0] = %+v after editing a copy; want %+v", again[0], want)
	}
}

func TestCompressTypesRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{"eco", "eco", "eco"},
		{"big", "big", "simba"},
		{"eco", "big", "eco"},
		{"simba", "simba", "simba", "simba"},
	}
	for _, assign := range cases {
		tokens := CompressTypes(assign)
		got, err := ExpandTypes(tokens, len(assign))
		if err != nil {
			t.Fatalf("round trip of %v via %v: %v", assign, tokens, err)
		}
		if strings.Join(got, ",") != strings.Join(assign, ",") {
			t.Fatalf("round trip of %v via %v = %v", assign, tokens, got)
		}
	}
}

func TestNewTypedMixing(t *testing.T) {
	assign, err := ExpandTypes([]string{"big*2", "eco", "simba"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewTyped("het-2x2", 2, 2, nop.DefaultParams(), dataflow.OS, assign)
	if err != nil {
		t.Fatal(err)
	}
	// Row-major placement: (0,0)=big (1,0)=big (0,1)=eco (1,1)=simba.
	wantPEs := map[nop.Coord]int64{
		{X: 0, Y: 0}: 512, {X: 1, Y: 0}: 512,
		{X: 0, Y: 1}: 128, {X: 1, Y: 1}: 256,
	}
	for c, pes := range wantPEs {
		if got := m.At(c).PEs; got != pes {
			t.Errorf("chiplet %v: %d PEs, want %d", c, got, pes)
		}
	}
	if got := m.TotalPEs(); got != 512+512+128+256 {
		t.Errorf("TotalPEs = %d", got)
	}
	// Same-type chiplets share one accel instance.
	if m.At(nop.Coord{X: 0, Y: 0}) != m.At(nop.Coord{X: 1, Y: 0}) {
		t.Error("same-type chiplets not shared")
	}
	if tc := m.TypeCounts(); !strings.Contains(tc, "big-512-OS:2") {
		t.Errorf("TypeCounts = %q", tc)
	}

	if _, err := NewTyped("bad", 2, 2, nop.DefaultParams(), dataflow.OS, assign[:3]); err == nil {
		t.Fatal("want error for short assignment")
	}
	if _, err := NewTyped("bad", 2, 2, nop.DefaultParams(), dataflow.OS,
		[]string{"nosuch", "nosuch", "nosuch", "nosuch"}); err == nil {
		t.Fatal("want error for unknown type")
	}
}

func TestNewTypedNilIsSimba(t *testing.T) {
	m, err := NewTyped("plain-2x2", 2, 2, nop.DefaultParams(), dataflow.OS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TotalPEs(); got != 4*256 {
		t.Errorf("TotalPEs = %d, want %d", got, 4*256)
	}
}

func FuzzExpandTypes(f *testing.F) {
	f.Add("eco", 4)
	f.Add("big*2,simba", 3)
	f.Add("eco*2,bwopt*2", 4)
	f.Add("simba*36", 36)
	f.Add("", 1)
	f.Add("nosuch*3", 3)
	f.Add("eco*99999999999999999999", 4)
	f.Add("eco*1,eco*1,eco*1", 2)
	f.Fuzz(func(t *testing.T, csv string, n int) {
		if n > 1<<12 {
			n = 1 << 12 // mirror the mesh-dimension bound upstream callers enforce
		}
		var tokens []string
		for _, tok := range strings.Split(csv, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				tokens = append(tokens, tok)
			}
		}
		out, err := ExpandTypes(tokens, n)
		if err != nil {
			return
		}
		if len(tokens) == 0 {
			if out != nil {
				t.Fatalf("empty tokens expanded to %v", out)
			}
			return
		}
		// Accepted expansions are exactly n known types and must both
		// round-trip through CompressTypes and build a real mesh row.
		if len(out) != n {
			t.Fatalf("ExpandTypes(%v, %d) returned %d entries", tokens, n, len(out))
		}
		for _, name := range out {
			if _, err := LookupType(name); err != nil {
				t.Fatalf("expansion leaked unknown type %q", name)
			}
		}
		back, err := ExpandTypes(CompressTypes(out), n)
		if err != nil {
			t.Fatalf("compress round trip: %v", err)
		}
		if strings.Join(back, ",") != strings.Join(out, ",") {
			t.Fatalf("compress round trip drifted: %v vs %v", back, out)
		}
	})
}

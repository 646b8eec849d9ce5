package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes through the scenario-spec parser:
// garbage must error (never panic), and any spec the parser accepts
// must instantiate a package (no schedule is built here).
func FuzzParseSpec(f *testing.F) {
	for _, s := range Registry() {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x"}`))
	f.Add([]byte(`{"name":"x","package":"mesh:4x4"}`))
	f.Add([]byte(`{"name":"x","package":"mesh:999x999"}`))
	f.Add([]byte(`{"name":"x","nop":{"LinkBWGBs":-1}}`))
	f.Add([]byte(`{"name":"x","camera_fps":1e308}`))
	f.Add([]byte(`{"name":"x","frames":-1}`))
	f.Add([]byte(`{"name":"a,b"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`{"name":"x"} {"name":"y"}`))
	f.Add([]byte(`{"name":"x","jitter_ms":0}`))
	f.Add([]byte(`{"name":"x","package":"mesh:2x2","chiplet_types":["eco"]}`))
	f.Add([]byte(`{"name":"x","package":"mesh:2x2","chiplet_types":["big*2","eco","simba"]}`))
	f.Add([]byte(`{"name":"x","package":"simba36","chiplet_types":["bwopt*36"]}`))
	f.Add([]byte(`{"name":"x","package":"mono1","chiplet_types":["eco"]}`))
	f.Add([]byte(`{"name":"x","package":"mesh:2x2","chiplet_types":["eco*999"]}`))
	f.Add([]byte(`{"name":"x","package":"mesh:2x2","chiplet_types":["nosuch"]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return // rejected: fine, as long as no panic
		}
		// Parsed specs are defaulted+validated; they must instantiate.
		_, m, err := sp.instantiate()
		if err != nil {
			t.Fatalf("ParseSpec accepted a spec instantiate rejects: %v (%s)", err, data)
		}
		if m == nil || m.Chiplets() < 1 {
			t.Fatalf("instantiated spec has no package: %+v", sp)
		}
		// The trace generator must be constructible for any valid spec.
		if g := sp.Generator(sp.Seed); g.Cameras < 1 || g.FPS <= 0 {
			t.Fatalf("generator degenerate for valid spec: %+v", g)
		}
	})
}

package api

import (
	"math"
	"strings"
	"testing"
)

func TestDecodeStrict(t *testing.T) {
	cases := []struct {
		name string
		data string
		req  Request
		ok   bool
	}{
		{"valid run", `{"scenarios":["urban-8cam"]}`, &RunScenarioRequest{}, true},
		{"unknown field", `{"scenarios":["urban-8cam"],"framez":4}`, &RunScenarioRequest{}, false},
		{"trailing content", `{"scenarios":["urban-8cam"]} {}`, &RunScenarioRequest{}, false},
		{"malformed", `{"scenarios":`, &RunScenarioRequest{}, false},
		{"both selectors", `{"scenarios":["urban-8cam"],"spec":{"name":"x","package":"mesh:4x4","camera_fps":15}}`, &RunScenarioRequest{}, false},
		{"neither selector", `{}`, &RunScenarioRequest{}, false},
		{"negative frames", `{"scenarios":["urban-8cam"],"frames":-1}`, &RunScenarioRequest{}, false},
		{"valid sweep", `{"scenarios":["cameras"]}`, &GridSweepRequest{}, true},
		{"unknown grid scenario", `{"scenarios":["nope"]}`, &GridSweepRequest{}, false},
		{"valid dse", `{"lcstr_ms":90}`, &DSERequest{}, true},
		{"dse out of range", `{"lcstr_ms":-3}`, &DSERequest{}, false},
		{"valid pareto", `{"scenarios":["urban-8cam"]}`, &ParetoRequest{}, true},
		{"pareto no scenarios", `{"meshes":["4x4"]}`, &ParetoRequest{}, false},
		{"pareto bad dataflow", `{"scenarios":["urban-8cam"],"dataflows":["XY"]}`, &ParetoRequest{}, false},
		{"valid evolve", `{"scenarios":["urban-8cam"],"evolve":true,"chiplet_types":["simba","eco"],"seed":7}`, &ParetoRequest{}, true},
		{"evolve unknown type", `{"scenarios":["urban-8cam"],"evolve":true,"chiplet_types":["nosuch"]}`, &ParetoRequest{}, false},
		{"evolve params without evolve", `{"scenarios":["urban-8cam"],"generations":5}`, &ParetoRequest{}, false},
		{"evolve population of one", `{"scenarios":["urban-8cam"],"evolve":true,"population":1}`, &ParetoRequest{}, false},
	}
	for _, tc := range cases {
		err := Decode([]byte(tc.data), tc.req)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: decode accepted invalid input", tc.name)
		}
	}
}

// TestValidateRejectsNonFinite: JSON carries no NaN or infinity, but a
// Go caller can (the CLIs parse flags with strconv), and a NaN slips
// through any ordered comparison. The cache key is made before the
// work starts and cannot encode a non-finite number, so Validate must
// refuse one.
func TestValidateRejectsNonFinite(t *testing.T) {
	withBW := func(bw float64, evolve bool) *ParetoRequest {
		return &ParetoRequest{Scenarios: []string{"urban-8cam"}, LinkBWGBs: []float64{bw}, Evolve: evolve}
	}
	cases := []struct {
		name string
		req  Request
	}{
		{"dse NaN constraint", &DSERequest{LcstrMs: math.NaN()}},
		{"pareto NaN bandwidth", withBW(math.NaN(), false)},
		{"evolve NaN bandwidth", withBW(math.NaN(), true)},
		{"evolve +Inf bandwidth", withBW(math.Inf(1), true)},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: Validate returned %v, want an out-of-range error", tc.name, err)
		}
	}
}

// FuzzDecodeRequest throws arbitrary bytes at the strict decoder for
// every request kind: decoding must never panic, and any input the
// decoder accepts must survive a marshal → decode round trip (the
// canonicalization path the result cache depends on).
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"scenarios":["urban-8cam"]}`), byte(0))
	f.Add([]byte(`{"scenarios":["cameras"],"stream":true}`), byte(1))
	f.Add([]byte(`{"lcstr_ms":85}`), byte(2))
	f.Add([]byte(`{"scenarios":["all"],"top":3}`), byte(3))
	f.Add([]byte(`{"spec":{"name":"z","package":"mesh:4x4","camera_fps":15}}`), byte(0))
	f.Add([]byte(`{"seed":18446744073709551615,"scenarios":["urban-8cam"]}`), byte(0))
	f.Add([]byte(`{"scenarios":["urban-8cam"],"evolve":true,"chiplet_types":["eco*2","simba"],"generations":5,"population":8}`), byte(3))
	f.Add([]byte(`{`), byte(0))
	f.Add([]byte(`[]`), byte(2))

	f.Fuzz(func(t *testing.T, data []byte, kind byte) {
		var req Request
		switch kind % 4 {
		case 0:
			req = &RunScenarioRequest{}
		case 1:
			req = &GridSweepRequest{}
		case 2:
			req = &DSERequest{}
		case 3:
			req = &ParetoRequest{}
		}
		if err := Decode(data, req); err != nil {
			return
		}
		// Accepted input: the canonical form must hash, and the re-encoded
		// request must decode and hash identically.
		key, err := RequestKey(req, "fuzz")
		if err != nil {
			t.Fatalf("accepted request is unhashable: %v\ninput: %q", err, data)
		}
		b, err := CanonicalJSON(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		fresh := newOfSameKind(req)
		if err := Decode(b, fresh); err != nil {
			if !strings.Contains(err.Error(), "api:") {
				t.Fatalf("re-decode failed oddly: %v\ncanonical: %s", err, b)
			}
			t.Fatalf("canonical form rejected: %v\ncanonical: %s", err, b)
		}
		key2, err := RequestKey(fresh, "fuzz")
		if err != nil {
			t.Fatalf("round-tripped request is unhashable: %v", err)
		}
		if key != key2 {
			t.Fatalf("round trip changed the key: %s vs %s\ninput: %q", key, key2, data)
		}
	})
}

func newOfSameKind(req Request) Request {
	switch req.(type) {
	case *RunScenarioRequest:
		return &RunScenarioRequest{}
	case *GridSweepRequest:
		return &GridSweepRequest{}
	case *DSERequest:
		return &DSERequest{}
	default:
		return &ParetoRequest{}
	}
}

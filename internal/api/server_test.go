package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"mcmnpu/internal/nop"
	"mcmnpu/internal/scenario"
	"mcmnpu/internal/sweep"
)

// smallRun is the fast request the handler tests share.
const smallRun = `{"scenarios":["urban-8cam"],"frames":8,"window_frames":4}`

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(NewService(sweep.New(2)), cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

func checkEnvelope(t *testing.T, payload []byte, kind string) RunResult {
	t.Helper()
	var env RunResult
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, payload)
	}
	if env.Version != Version {
		t.Errorf("envelope version %q, want %q", env.Version, Version)
	}
	if env.Kind != kind {
		t.Errorf("envelope kind %q, want %q", env.Kind, kind)
	}
	if len(env.Key) != 64 {
		t.Errorf("envelope key %q is not a sha256 hex digest", env.Key)
	}
	return env
}

func TestRunEndpoint(t *testing.T) {
	_, hs := newTestServer(t, ServerConfig{})
	resp, payload := post(t, hs.URL+"/v1/run", smallRun)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	if got := resp.Header.Get(VersionHeader); got != Version {
		t.Errorf("%s header %q, want %q", VersionHeader, got, Version)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache %q on first request, want miss", got)
	}
	checkEnvelope(t, payload, "run")
	var full RunScenarioResponse
	if err := json.Unmarshal(payload, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Results) != 1 || full.Results[0].Scenario != "urban-8cam" {
		t.Errorf("unexpected results: %+v", full.Results)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, hs := newTestServer(t, ServerConfig{})
	resp, payload := post(t, hs.URL+"/v1/sweep", `{"scenarios":["tolerance"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	checkEnvelope(t, payload, "sweep")
	var full GridSweepResponse
	if err := json.Unmarshal(payload, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Results) != 1 || full.Results[0].Scenario != "tolerance" || full.Results[0].Err != "" {
		t.Errorf("unexpected results: %+v", full.Results)
	}
	if full.Results[0].TableData == nil || len(full.Results[0].TableData.Rows) == 0 {
		t.Error("grid result table missing")
	}
}

func TestDSEEndpoint(t *testing.T) {
	_, hs := newTestServer(t, ServerConfig{})
	resp, payload := post(t, hs.URL+"/v1/dse", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	checkEnvelope(t, payload, "dse")
	var full DSEResponse
	if err := json.Unmarshal(payload, &full); err != nil {
		t.Fatal(err)
	}
	if full.LcstrMs != DefaultLcstrMs {
		t.Errorf("lcstr %v, want default %v", full.LcstrMs, DefaultLcstrMs)
	}
	if full.TableData == nil || len(full.TableData.Rows) == 0 {
		t.Error("DSE table missing")
	}
}

func TestParetoEndpoint(t *testing.T) {
	_, hs := newTestServer(t, ServerConfig{})
	resp, payload := post(t, hs.URL+"/v1/pareto",
		`{"scenarios":["urban-8cam"],"frames":8,"window_frames":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	checkEnvelope(t, payload, "pareto")
	var full ParetoResponse
	if err := json.Unmarshal(payload, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Report.Frontier) == 0 {
		t.Error("empty frontier")
	}
}

// TestParetoEvolveEndpoint drives the evolutionary explorer through
// the daemon: a heterogeneous space far too large to enumerate, served
// with evolution stats and a content-address key distinct from the
// exhaustive request's.
func TestParetoEvolveEndpoint(t *testing.T) {
	_, hs := newTestServer(t, ServerConfig{})
	body := `{"scenarios":["urban-8cam"],"frames":4,"window_frames":2,` +
		`"meshes":["4x4"],"dataflows":["OS"],"chiplet_types":["simba","eco"],` +
		`"evolve":true,"generations":3,"population":6,"seed":7}`
	resp, payload := post(t, hs.URL+"/v1/pareto", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	env := checkEnvelope(t, payload, "pareto")
	var full ParetoResponse
	if err := json.Unmarshal(payload, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Report.Frontier) == 0 {
		t.Error("empty evolved frontier")
	}
	ev := full.Report.Evolution
	if ev == nil || ev.Generations != 3 || ev.Population != 6 || ev.Seed != 7 {
		t.Fatalf("evolution stats: %+v", ev)
	}
	if ev.SpaceSize != 65536 { // 2 types ^ 16 chiplets
		t.Errorf("space size %g, want 65536", ev.SpaceSize)
	}
	if env.Key == "unhashable" {
		t.Error("evolve request did not hash")
	}
	// Same space without evolve is a different result identity.
	shared := ParetoRequest{Scenarios: []string{"urban-8cam"}, Frames: 4, WindowFrames: 2,
		Meshes: []string{"4x4"}, Dataflows: []string{"OS"}, ChipletTypes: []string{"simba", "eco"}}
	evolved := shared
	evolved.Evolve, evolved.Generations, evolved.Population, evolved.Seed = true, 3, 6, 7
	if mustKey(t, &shared) == mustKey(t, &evolved) {
		t.Error("evolve and exhaustive requests share a cache key")
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, hs := newTestServer(t, ServerConfig{})
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	post(t, hs.URL+"/v1/run", smallRun)
	resp, err = http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted < 1 {
		t.Errorf("stats admitted %d, want >= 1", st.Admitted)
	}
	if st.ResultCache.Misses < 1 {
		t.Errorf("stats result-cache misses %d, want >= 1", st.ResultCache.Misses)
	}
}

// TestBadRequests pins each 400 body's error to the one Decode returns
// for the same bytes. A request with two faults reports the one its
// kind checks first, as clients have always seen it.
func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, ServerConfig{})
	cases := []struct {
		name string
		path string
		body string
		req  Request
		want string
	}{
		{"malformed json", "/v1/run", `{"scenarios":`, new(RunScenarioRequest), "parsing run request"},
		{"unknown field", "/v1/run", `{"scenarios":["urban-8cam"],"framez":1}`, new(RunScenarioRequest), `unknown field "framez"`},
		{"unknown scenario", "/v1/run", `{"scenarios":["no-such"]}`, new(RunScenarioRequest), `unknown scenario "no-such"`},
		{"unknown grid scenario", "/v1/sweep", `{"scenarios":["no-such"]}`, new(GridSweepRequest), `no scenario matches "no-such"`},
		{"no pareto scenarios", "/v1/pareto", `{}`, new(ParetoRequest), "needs at least one scenario"},
		{"unknown scenario before bad frames", "/v1/pareto", `{"scenarios":["no-such"],"frames":-1}`,
			new(ParetoRequest), `unknown scenario "no-such"`},
		{"trailing mesh input", "/v1/pareto", `{"scenarios":["urban-8cam"],"meshes":["6x6","8x8trailing"]}`,
			new(ParetoRequest), `malformed mesh "8x8trailing"`},
		{"two meshes in one element", "/v1/pareto", `{"scenarios":["urban-8cam"],"meshes":["4x4,6x6"]}`,
			new(ParetoRequest), `mesh list element "4x4,6x6"`},
		{"empty mesh element", "/v1/pareto", `{"scenarios":["urban-8cam"],"meshes":["","4x4"," 6x6 "]}`,
			new(ParetoRequest), `mesh list element ""`},
		{"blank mesh element", "/v1/pareto", `{"scenarios":["urban-8cam"],"meshes":["4x4"," "]}`,
			new(ParetoRequest), `mesh list element " "`},
		{"empty objective element", "/v1/pareto", `{"scenarios":["urban-8cam"],"objectives":[""]}`,
			new(ParetoRequest), `objective list element ""`},
		{"two objectives in one element", "/v1/pareto", `{"scenarios":["urban-8cam"],"objectives":["p99,energy"]}`,
			new(ParetoRequest), `objective list element "p99,energy"`},
	}
	for _, tc := range cases {
		resp, payload := post(t, hs.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, payload)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(payload, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body missing: %s", tc.name, payload)
			continue
		}
		want := Decode([]byte(tc.body), tc.req)
		if want == nil || e.Error != want.Error() {
			t.Errorf("%s: error %q, Decode returns %v", tc.name, e.Error, want)
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q does not report %s", tc.name, e.Error, tc.want)
		}
	}
}

// TestEnvelopeKeyIsCacheKey: a reply's envelope carries the key its
// result is cached under. For every kind, a /v1 reply's key is
// RequestKey of its body under the server's build version, on the
// computed reply and on the cached replay, and a direct Service call's
// key is Service.Key of its request.
func TestEnvelopeKeyIsCacheKey(t *testing.T) {
	ctx := context.Background()
	srv, hs := newTestServer(t, ServerConfig{})
	svc := srv.svc
	cases := []struct {
		path, body string
		req        Request
		call       func(Request) (response, error)
	}{
		{"/v1/run", smallRun, new(RunScenarioRequest), func(r Request) (response, error) {
			return svc.RunScenario(ctx, r.(*RunScenarioRequest))
		}},
		{"/v1/sweep", `{"scenarios":["tolerance"]}`, new(GridSweepRequest), func(r Request) (response, error) {
			return svc.GridSweep(ctx, r.(*GridSweepRequest))
		}},
		{"/v1/dse", `{"lcstr_ms":90}`, new(DSERequest), func(r Request) (response, error) {
			return svc.DSE(ctx, r.(*DSERequest))
		}},
		{"/v1/pareto", `{"scenarios":["urban-8cam"],"meshes":["4x4"],"frames":8,"window_frames":4}`,
			new(ParetoRequest), func(r Request) (response, error) {
				return svc.Pareto(ctx, r.(*ParetoRequest))
			}},
	}
	for _, tc := range cases {
		if err := Decode([]byte(tc.body), tc.req); err != nil {
			t.Fatal(err)
		}
		want, err := RequestKey(tc.req, svc.version)
		if err != nil {
			t.Fatal(err)
		}
		for _, cache := range []string{"miss", "hit"} {
			resp, payload := post(t, hs.URL+tc.path, tc.body)
			if got := resp.Header.Get("X-Cache"); got != cache {
				t.Errorf("%s: X-Cache %q, want %s", tc.path, got, cache)
			}
			if env := checkEnvelope(t, payload, tc.req.Kind()); env.Key != want {
				t.Errorf("%s (%s): envelope key %s, cache key %s", tc.path, cache, env.Key, want)
			}
		}
		resp, err := tc.call(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if key, err := svc.Key(tc.req); err != nil || resp.head().Key != key {
			t.Errorf("%s: direct call's envelope key %s, Service.Key %s (%v)", tc.req.Kind(), resp.head().Key, key, err)
		}
	}
}

func TestVersionHeaderMismatch(t *testing.T) {
	_, hs := newTestServer(t, ServerConfig{})
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/run", strings.NewReader(smallRun))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(VersionHeader, "v99")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version mismatch: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "v99") {
		t.Errorf("error should name the offending version: %s", body)
	}
}

// TestSaturation429 drives the watermark scheme deterministically: with
// HighWatermark=1 and one request parked in flight, the next request is
// rejected with 429 + Retry-After; once the first drains, admission
// reopens.
func TestSaturation429(t *testing.T) {
	srv, hs := newTestServer(t, ServerConfig{HighWatermark: 1}) // low defaults to 0

	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	srv.admittedHook = func() {
		entered <- struct{}{}
		<-gate
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(hs.URL+"/v1/run", "application/json", strings.NewReader(smallRun))
		if err != nil {
			t.Errorf("parked request: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			payload, _ := io.ReadAll(resp.Body)
			t.Errorf("parked request failed: %d %s", resp.StatusCode, payload)
		}
	}()
	<-entered

	resp, payload := post(t, hs.URL+"/v1/run", `{"scenarios":["highway-5cam"],"frames":4,"window_frames":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429 (%s)", resp.StatusCode, payload)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	close(gate)
	<-done
	srv.admittedHook = nil

	resp, payload = post(t, hs.URL+"/v1/run", smallRun)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("drained server still rejecting: %d %s", resp.StatusCode, payload)
	}
}

// TestResultCacheHit: identical requests replay byte-identical bodies
// with X-Cache: hit; a semantically identical request spelled
// differently (explicit default window) hits the same entry.
func TestResultCacheHit(t *testing.T) {
	_, hs := newTestServer(t, ServerConfig{})
	first, firstBody := post(t, hs.URL+"/v1/run", smallRun)
	if first.StatusCode != http.StatusOK || first.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: %d, X-Cache %q", first.StatusCode, first.Header.Get("X-Cache"))
	}
	second, secondBody := post(t, hs.URL+"/v1/run", smallRun)
	if second.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache %q, want hit", second.Header.Get("X-Cache"))
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Errorf("cached body differs:\n first: %s\n second: %s", firstBody, secondBody)
	}

	respelled := `{"frames":8,"window_frames":4,"scenarios":["urban-8cam"]}`
	third, thirdBody := post(t, hs.URL+"/v1/run", respelled)
	if third.Header.Get("X-Cache") != "hit" {
		t.Errorf("respelled request X-Cache %q, want hit", third.Header.Get("X-Cache"))
	}
	if !bytes.Equal(firstBody, thirdBody) {
		t.Error("respelled request returned different bytes")
	}

	// A different seed is a different result.
	fourth, _ := post(t, hs.URL+"/v1/run",
		`{"scenarios":["urban-8cam"],"frames":8,"window_frames":4,"seed":9}`)
	if fourth.Header.Get("X-Cache") != "miss" {
		t.Errorf("seeded request X-Cache %q, want miss", fourth.Header.Get("X-Cache"))
	}
}

// TestStreamingSweep: stream=true returns NDJSON progress — one
// scenario event per grid scenario, then a done event whose aggregate
// matches the batch endpoint's results.
func TestStreamingSweep(t *testing.T) {
	_, hs := newTestServer(t, ServerConfig{})
	resp, err := http.Post(hs.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"scenarios":["tolerance","cameras"],"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}

	var scenarios []string
	var done *GridSweepResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev struct {
			Type     string              `json:"type"`
			Scenario *GridScenarioResult `json:"scenario"`
			Response *GridSweepResponse  `json:"response"`
			Error    string              `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		switch ev.Type {
		case "scenario":
			scenarios = append(scenarios, ev.Scenario.Scenario)
		case "done":
			done = ev.Response
		case "error":
			t.Fatalf("stream error: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Grid order, not request order.
	if want := []string{"cameras", "tolerance"}; fmt.Sprint(scenarios) != fmt.Sprint(want) {
		t.Errorf("streamed scenarios %v, want %v", scenarios, want)
	}
	if done == nil || len(done.Results) != 2 {
		t.Fatalf("done event missing or incomplete: %+v", done)
	}

	// The batch path must agree bit-for-bit on the per-scenario tables.
	_, batchBody := post(t, hs.URL+"/v1/sweep", `{"scenarios":["tolerance","cameras"]}`)
	var batch GridSweepResponse
	if err := json.Unmarshal(batchBody, &batch); err != nil {
		t.Fatal(err)
	}
	for i := range batch.Results {
		sj, err := json.Marshal(done.Results[i].TableData)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(batch.Results[i].TableData)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, bj) {
			t.Errorf("scenario %s: streamed table differs from batch", batch.Results[i].Scenario)
		}
	}
}

// TestConcurrentClientsMatchSerial is the determinism acceptance lock
// for the service layer (run with -race by `make race`): concurrent
// clients hammering one server get results bit-for-bit identical to a
// serial in-process run.
func TestConcurrentClientsMatchSerial(t *testing.T) {
	var serial []scenario.Result
	for _, sp := range mustSpecs(t, "urban-8cam") {
		r, err := scenario.Run(context.Background(), sp, scenario.RunOptions{Frames: 8, WindowFrames: 4})
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, r)
	}
	want := scenario.ResultsTable(serial).JSON()

	_, hs := newTestServer(t, ServerConfig{HighWatermark: 16})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/run", "application/json", strings.NewReader(smallRun))
			if err != nil {
				errs <- err
				return
			}
			payload, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, payload)
				return
			}
			var full RunScenarioResponse
			if err := json.Unmarshal(payload, &full); err != nil {
				errs <- err
				return
			}
			if got := scenario.ResultsTable(full.Results).JSON(); got != want {
				errs <- fmt.Errorf("concurrent result diverged from serial:\n got: %s\nwant: %s", got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentDSEMatchesFreshService: concurrent /v1/dse requests
// with distinct constraints all explore views of the one Table I space
// the server's Service keeps, racing on its lazily scored pins (run
// under -race by make race). Each table must be byte-identical to the
// one a fresh Service computes for the same request.
func TestConcurrentDSEMatchesFreshService(t *testing.T) {
	// 60.597 and 60.598 straddle the feasibility boundary of the OS,
	// Het(2) and Het(4) rows (a 63.6274 ms pipe over the 5% tolerance).
	lcstrs := []float64{5, 60, 60.597, 60.598, 70, 85, 100, 150}
	_, hs := newTestServer(t, ServerConfig{HighWatermark: 16})
	var wg sync.WaitGroup
	errs := make(chan error, len(lcstrs))
	for _, l := range lcstrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fresh, err := NewService(nil).DSE(context.Background(), &DSERequest{LcstrMs: l})
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(hs.URL+"/v1/dse", "application/json",
				strings.NewReader(fmt.Sprintf(`{"lcstr_ms":%v}`, l)))
			if err != nil {
				errs <- err
				return
			}
			payload, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("lcstr %v: status %d: %s", l, resp.StatusCode, payload)
				return
			}
			var full DSEResponse
			if err := json.Unmarshal(payload, &full); err != nil {
				errs <- err
				return
			}
			if got, want := full.TableData.JSON(), fresh.TableData.JSON(); got != want {
				errs <- fmt.Errorf("lcstr %v: shared-space table differs from a fresh service's:\n got: %s\nwant: %s", l, got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentRunMatchesFreshService: concurrent /v1/run requests
// with distinct seeds, frame budgets and windows stream through the
// designs one server's Service keeps for two registry scenarios,
// racing on their first build and graph compile (run under -race by
// make race), beside an inline copy of one of them, which is never
// kept. Each reply's results must be byte-identical to the ones a
// fresh Service computes for the same request.
func TestConcurrentRunMatchesFreshService(t *testing.T) {
	urban, err := scenario.Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	inline, err := json.Marshal(urban)
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		`{"scenarios":["urban-8cam"],"frames":8,"window_frames":4,"seed":11}`,
		`{"scenarios":["urban-8cam"],"frames":12,"window_frames":5,"seed":12}`,
		`{"scenarios":["urban-8cam"],"frames":6}`,
		`{"scenarios":["highway-5cam"],"frames":8,"window_frames":4,"seed":14}`,
		`{"scenarios":["highway-5cam"],"frames":10,"window_frames":3,"seed":15}`,
		`{"scenarios":["highway-5cam","urban-8cam"],"frames":4,"window_frames":2,"seed":16}`,
		fmt.Sprintf(`{"spec":%s,"frames":8,"window_frames":4,"seed":17}`, inline),
		fmt.Sprintf(`{"spec":%s,"frames":9,"window_frames":16}`, inline),
	}
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		var req RunScenarioRequest
		if err := Decode([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewService(nil).RunScenario(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(fresh.Results); err != nil {
			t.Fatal(err)
		}
	}

	_, hs := newTestServer(t, ServerConfig{HighWatermark: 16})
	var wg sync.WaitGroup
	errs := make(chan error, len(bodies))
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			payload, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("body %d: status %d: %s", i, resp.StatusCode, payload)
				return
			}
			var got struct {
				Results json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(payload, &got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got.Results, want[i]) {
				errs <- fmt.Errorf("body %d: kept-design results differ from a fresh service's:\n got: %s\nwant: %s", i, got.Results, want[i])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentParetoMatchesFreshService: eight concurrent /v1/pareto
// requests of the serve-mixed shape, each with its own link bandwidth,
// finish the plans one server's engine keeps for the default space's
// eight designs, racing on their first balance (run under -race by
// make race), beside an inline /v1/run spec with a NoP override, whose
// design without the NoP is the space's 6x6 OS design. Each reply's
// report, and the run's results, must be byte-identical to a fresh
// Service's, and the engine must keep eight plans.
func TestConcurrentParetoMatchesFreshService(t *testing.T) {
	urban, err := scenario.Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	urban.NoP = &nop.Params{LinkBWGBs: 60, HopLatencyNs: 50, EnergyPJBit: 2.04}
	inline, err := json.Marshal(urban)
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		path, body, field string
		want              []byte
	}
	var calls []call
	for _, bw := range []float64{25, 50, 60, 75, 150, 200, 300, 400} {
		body := fmt.Sprintf(`{"scenarios":["urban-8cam"],"link_bw_gbs":[%g],"frames":8,"window_frames":4}`, bw)
		var req ParetoRequest
		if err := Decode([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewService(nil).Pareto(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(fresh.Report)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{"/v1/pareto", body, "report", want})
	}
	body := fmt.Sprintf(`{"spec":%s,"frames":8,"window_frames":4}`, inline)
	var req RunScenarioRequest
	if err := Decode([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewService(nil).RunScenario(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fresh.Results)
	if err != nil {
		t.Fatal(err)
	}
	calls = append(calls, call{"/v1/run", body, "results", want})

	srv, hs := newTestServer(t, ServerConfig{HighWatermark: 16})
	var wg sync.WaitGroup
	errs := make(chan error, len(calls))
	for i, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(hs.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				errs <- err
				return
			}
			payload, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("body %d: status %d: %s", i, resp.StatusCode, payload)
				return
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(payload, &got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got[c.field], c.want) {
				errs <- fmt.Errorf("body %d: %s differs from a fresh service's:\n got: %s\nwant: %s", i, c.field, got[c.field], c.want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := srv.svc.Engine().Plans().Len(); n != 8 {
		t.Errorf("the engine keeps %d plans, want one per design of the default space, 8", n)
	}
}

// TestKeptDesignReadsNoLayerCosts: a warm Service streams a registry
// scenario's later runs through the design its first run built. They
// read no layer costs, so the envelope's cost_cache counters stay where
// the first run left them, and each run's results equal a fresh
// Service's, whatever seed the first run brought. An inline copy of
// the scenario is prepared anew: it reads the cache, and under the same
// seed it streams the same results as the kept design.
func TestKeptDesignReadsNoLayerCosts(t *testing.T) {
	run := func(svc *Service, req RunScenarioRequest) *RunScenarioResponse {
		t.Helper()
		resp, err := svc.RunScenario(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	svc := NewService(nil)
	var first CacheCounters
	var last *RunScenarioResponse
	for i, seed := range []uint64{5, 0, 6} {
		req := RunScenarioRequest{Scenarios: []string{"urban-8cam"}, Frames: 8, WindowFrames: 4, Seed: seed}
		last = run(svc, req)
		if fresh := run(NewService(nil), req); !slices.Equal(last.Results, fresh.Results) {
			t.Errorf("run %d (seed %d): kept design %+v, fresh service %+v", i+1, seed, last.Results, fresh.Results)
		}
		if i == 0 {
			first = last.CostCache
			if first.Misses == 0 {
				t.Fatalf("first run read no layer costs: %+v", first)
			}
		} else if last.CostCache != first {
			t.Errorf("run %d (seed %d) moved the cost cache: %+v, want %+v", i+1, seed, last.CostCache, first)
		}
	}

	urban, err := scenario.Lookup("urban-8cam")
	if err != nil {
		t.Fatal(err)
	}
	inline := run(svc, RunScenarioRequest{Spec: &urban, Frames: 8, WindowFrames: 4, Seed: 6})
	if inline.CostCache.Hits <= first.Hits {
		t.Errorf("inline spec read no layer costs (%+v after %+v): it must not reuse the kept design", inline.CostCache, first)
	}
	if !slices.Equal(inline.Results, last.Results) {
		t.Errorf("inline copy %+v, kept design %+v under the same seed", inline.Results, last.Results)
	}
}

func mustSpecs(t *testing.T, names ...string) []scenario.Spec {
	t.Helper()
	specs := make([]scenario.Spec, len(names))
	for i, n := range names {
		sp, err := scenario.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = sp
	}
	return specs
}

package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"mcmnpu/internal/api"
	"mcmnpu/internal/pareto"
	"mcmnpu/internal/scenario"
)

// Output checks. Every op's typed result is reduced to a digest: the
// response JSON with the envelope fields (version, kind, key — which
// embeds the VCS build version — timings, cost_cache) and the
// host-dependent fields work_ms and workers removed, canonicalized, and
// hashed. Three checks then apply:
//
//   - for seeds 1 and 2 the per-op digests must equal the committed
//     ones in testdata/digests.json;
//   - for every seed, seed-independent parts of a result (the grid, the
//     analytic schedule metrics of a streamed scenario) must equal their
//     committed digests, and structural invariants must hold;
//   - the same request must give the same digest every time it runs:
//     the warm-up op against the timed op, the set-up probes against each
//     other, the traced pass against the untraced one.

//go:embed testdata/digests.json
var committedJSON []byte

// digestFile is the committed digest store. Refreshing it (go test
// -run TestRecordDigests -update) is a benchmark change of its own.
type digestFile struct {
	// Ops maps workload -> seed -> per-op digests, op 0 first.
	Ops map[string]map[string][]string `json:"ops"`
	// Invariant maps a seed-independent result key to its digest.
	Invariant map[string]string `json:"invariant"`
}

func loadCommitted() (*digestFile, error) {
	var f digestFile
	if err := json.Unmarshal(committedJSON, &f); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return &f, nil
}

// envelopeFields are dropped from the top level of a response before
// hashing; hostFields are dropped at every level.
var (
	envelopeFields = []string{"version", "kind", "key", "timings", "cost_cache"}
	hostFields     = []string{"work_ms", "workers"}
)

// digestJSON hashes one response body.
func digestJSON(body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	if m, ok := tree.(map[string]any); ok {
		for _, k := range envelopeFields {
			delete(m, k)
		}
	}
	stripHost(tree)
	canon, err := json.Marshal(tree)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return hashBytes(canon), nil
}

func stripHost(v any) {
	switch t := v.(type) {
	case map[string]any:
		for _, k := range hostFields {
			delete(t, k)
		}
		for _, c := range t {
			stripHost(c)
		}
	case []any:
		for _, c := range t {
			stripHost(c)
		}
	}
}

// digestOf hashes a typed response exactly as its HTTP body would hash.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestJSON(b)
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checker holds one run's expected digests. Invariant digests start
// from the committed file; a key seen for the first time (only when
// recording) is adopted, so every later sighting must agree with it.
type checker struct {
	committed []string

	mu        sync.Mutex
	invariant map[string]string
}

func newChecker(f *digestFile, workload string, seed uint64) *checker {
	c := &checker{invariant: map[string]string{}}
	if f == nil {
		return c
	}
	c.committed = f.Ops[workload][strconv.FormatUint(seed, 10)]
	for k, v := range f.Invariant {
		c.invariant[k] = v
	}
	return c
}

// op checks op i's digest against the committed prefix.
func (c *checker) op(i int, d string) error {
	if i < len(c.committed) && c.committed[i] != d {
		return fmt.Errorf("op %d: digest %s, committed %s", i, d, c.committed[i])
	}
	return nil
}

// same checks a seed-independent digest.
func (c *checker) same(key, d string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	want, ok := c.invariant[key]
	if !ok {
		c.invariant[key] = d
		return nil
	}
	if want != d {
		return fmt.Errorf("%s: digest %s, expected %s", key, d, want)
	}
	return nil
}

// checkRun verifies one streamed scenario result: shape, ordering of
// the latency percentiles, and the seed-independent analytic schedule
// metrics.
func (c *checker) checkRun(results []scenario.Result, name string, frames, window int) error {
	if len(results) != 1 {
		return fmt.Errorf("run %s: %d results, want 1", name, len(results))
	}
	r := results[0]
	if r.Scenario != name || r.Frames != frames || r.Windows != (frames+window-1)/window {
		return fmt.Errorf("run %s: got scenario %s, %d frames in %d windows", name, r.Scenario, r.Frames, r.Windows)
	}
	if !(r.MeanLatMs > 0 && r.P50Ms <= r.P95Ms && r.P95Ms <= r.P99Ms && r.P99Ms <= r.MaxMs && r.SimFPS > 0) {
		return fmt.Errorf("run %s: inconsistent latency distribution %+v", name, r)
	}
	d, err := digestOf([]any{r.Package, r.Chiplets, r.Dataflow, r.CameraFPS, r.DeadlineMs,
		r.PipeLatMs, r.E2EMs, r.AnalyticFPS, r.EnergyPerFrameJ})
	if err != nil {
		return err
	}
	return c.same("analytic/"+name, d)
}

// checkGrid verifies a whole-grid response: every scenario present and
// error-free, and the tables equal to the committed grid.
func (c *checker) checkGrid(resp *api.GridSweepResponse, digest string) error {
	if len(resp.Results) != len(gridNames) {
		return fmt.Errorf("grid: %d scenarios, want %d", len(resp.Results), len(gridNames))
	}
	for i, g := range resp.Results {
		if g.Scenario != gridNames[i] || g.Err != "" || g.TableData == nil {
			return fmt.Errorf("grid: scenario %d = %q failed: %s", i, g.Scenario, g.Err)
		}
	}
	return c.same("grid", digest)
}

// checkReport verifies a pareto report's accounting and frontier: every
// touched design is settled exactly one way, and the frontier is
// non-empty, made of simulated designs, and not dominated by any
// simulated design.
func checkReport(rep pareto.Report) error {
	if len(rep.Evals) != rep.Evaluated+rep.Pruned+rep.Infeasible {
		return fmt.Errorf("pareto: %d designs but %d simulated + %d pruned + %d infeasible",
			len(rep.Evals), rep.Evaluated, rep.Pruned, rep.Infeasible)
	}
	if len(rep.Frontier) == 0 {
		return fmt.Errorf("pareto: empty frontier")
	}
	vec := func(e pareto.Eval) []float64 {
		out := make([]float64, 0, len(rep.Objectives))
		for _, o := range rep.Objectives {
			switch o {
			case pareto.ObjP99:
				out = append(out, e.P99Ms)
			case pareto.ObjEnergy:
				out = append(out, e.EnergyJ)
			case pareto.ObjPEs:
				out = append(out, float64(e.PEs))
			}
		}
		return out
	}
	for _, f := range rep.Frontier {
		if !f.OnFrontier || f.Pruned || f.Infeasible {
			return fmt.Errorf("pareto: frontier design %s is not a simulated frontier point", f.Name)
		}
		fv := vec(f)
		for _, e := range rep.Evals {
			if !e.Pruned && !e.Infeasible && dominates(vec(e), fv) {
				return fmt.Errorf("pareto: frontier design %s dominated by %s", f.Name, e.Name)
			}
		}
	}
	return nil
}

func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// Package dse implements the paper's design-space exploration for the
// trunks stage (§IV-C): an exhaustive search over heterogeneous chiplet
// integration options for the 3x3 trunks quadrant. Candidate
// configurations place `wsCount` weight-stationary (NVDLA-like) chiplets
// among the output-stationary majority; the search enumerates which
// prediction networks run on which dataflow and packs their layers onto
// chiplets, scoring
//
//	Score(config) = -inf               if any chiplet exceeds Lcstr
//	              = -EDP               otherwise
//
// exactly as the paper's scoring function. With the paper's settings the
// winning configurations assign the detection-trunk convolution networks
// to the WS chiplets — reproducing the paper's observation that DET_TR
// achieves ~35% energy reduction on WS silicon.
package dse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/dnn"
)

// Net is a group of layers that must share a dataflow style (one
// prediction network: the occupancy net, the lane trunk, or one
// class/box network of a detector head).
type Net struct {
	Name   string
	Model  string
	Layers []*dnn.Layer
}

// NetsOf splits trunk graphs into style-assignable networks: detector
// graphs split into their class and box networks; other trunks are one
// net each.
func NetsOf(trunks []*dnn.Graph) []Net {
	var nets []Net
	for _, g := range trunks {
		if strings.HasPrefix(g.Name, "det_") {
			groups := map[string][]*dnn.Layer{}
			for _, n := range g.Nodes() {
				key := "cls"
				if strings.Contains(n.Layer.Name, ".box.") {
					key = "box"
				}
				groups[key] = append(groups[key], n.Layer)
			}
			keys := make([]string, 0, len(groups))
			for k := range groups {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				nets = append(nets, Net{Name: g.Name + "." + k, Model: g.Name, Layers: groups[k]})
			}
			continue
		}
		var ls []*dnn.Layer
		for _, n := range g.Nodes() {
			ls = append(ls, n.Layer)
		}
		nets = append(nets, Net{Name: g.Name, Model: g.Name, Layers: ls})
	}
	return nets
}

// Result is one explored configuration (a Table I row).
type Result struct {
	Name      string
	WSCount   int
	E2EMs     float64 // longest trunk-model chain
	PipeLatMs float64 // busiest chiplet
	EnergyJ   float64
	EDP       float64 // EnergyJ * PipeLatMs
	Feasible  bool
	WSNets    []string // networks assigned to WS chiplets
	Combos    int      // configurations enumerated
}

// Space is a prepared exploration space: the nets of a trunk quadrant
// plus the OS/WS accelerator models and the latency constraint, with
// every net layer's cost on both styles precomputed into an
// index-addressed table at construction. The configuration fields are
// immutable after NewCachedSpace, so one Space may be shared by
// concurrent goroutines (the dse-lcstr grid scans its points' WithLcstr
// views of one space on the engine's workers).
type Space struct {
	Nets     []Net
	Chiplets int
	LcstrMs  float64

	osAccel *costmodel.Accel
	wsAccel *costmodel.Accel
	cache   *costmodel.Cache

	// Index-addressed cost table: row layerOff[i]+j is the j-th layer
	// of net i; column 0 is OS, column 1 WS. Evaluating a candidate
	// mask is pure array reads — no hashing, no locks.
	tab      *costmodel.Table
	layerOff []int // net i -> first row of its layers in tab
	netModel []int // net i -> dense model index
	nModels  int
}

// Table column indices for the two dataflow styles.
const (
	osCol = 0
	wsCol = 1
)

// NewCachedSpace prepares the exploration space for a pool of
// `chiplets` accelerators under the latency constraint lcstrMs. The
// layer-cost cache lets multiple spaces (e.g. the pins of a Table I
// run, or every scenario of a sweep grid) share memoized evaluations;
// a nil cache evaluates uncached. Either way every (layer, style) pair
// is evaluated at most once here, at construction — the 2^n candidate
// masks of an exploration read the precomputed table.
func NewCachedSpace(trunks []*dnn.Graph, chiplets int, lcstrMs float64, c *costmodel.Cache) *Space {
	s := &Space{
		Nets:     NetsOf(trunks),
		Chiplets: chiplets,
		LcstrMs:  lcstrMs,
		osAccel:  costmodel.SimbaChiplet(dataflow.OS),
		wsAccel:  costmodel.SimbaChiplet(dataflow.WS),
		cache:    c,
	}
	var layers []*dnn.Layer
	modelIdx := map[string]int{}
	for _, net := range s.Nets {
		s.layerOff = append(s.layerOff, len(layers))
		layers = append(layers, net.Layers...)
		mi, ok := modelIdx[net.Model]
		if !ok {
			mi = len(modelIdx)
			modelIdx[net.Model] = mi
		}
		s.netModel = append(s.netModel, mi)
	}
	s.nModels = len(modelIdx)
	s.tab = c.NewTable(layers, []*costmodel.Accel{s.osAccel, s.wsAccel})
	return s
}

// WithLcstr returns a view of the space under a different latency
// constraint, sharing the precomputed cost table (the constraint only
// enters the feasibility check, never the costs). The Lcstr sweep
// builds its per-point spaces this way instead of re-evaluating every
// layer per point.
func (s *Space) WithLcstr(lcstrMs float64) *Space {
	v := *s
	v.LcstrMs = lcstrMs
	return &v
}

// Candidates returns the WS-subset masks genuinely worth evaluating for
// a given wsCount. The pinned cases collapse to a single candidate:
// wsCount == 0 forces every net onto OS (mask 0), and wsCount ==
// Chiplets forces every net onto WS (the full mask) — enumerating the
// other 2^n-1 masks would only skip them one by one. Otherwise every
// subset of nets is a candidate (2^n; n <= ~10).
func (s *Space) Candidates(wsCount int) []int {
	n := len(s.Nets)
	switch {
	case wsCount == 0:
		return []int{0}
	case wsCount == s.Chiplets:
		return []int{1<<n - 1}
	default:
		masks := make([]int, 1<<n)
		for i := range masks {
			masks[i] = i
		}
		return masks
	}
}

// Best exhaustively searches the style assignment of nets for the
// space's chiplets, wsCount of them WS, under the space's latency
// constraint (with the scheduler's 5% tolerance), and returns the
// best-scoring configuration. It is one in-order scan over the
// candidates under the strict Better, so the first of tied
// configurations wins. Scoring a mask reuses one scratch and allocates
// nothing once the buffers warm up; only a new incumbent copies its
// WS net names.
func (s *Space) Best(wsCount int) Result {
	candidates := s.Candidates(wsCount)
	var (
		scr   evalScratch
		r     Result
		found bool
	)
	best := Result{EDP: math.Inf(1)} // returned as is when no mask packs
	for _, mask := range candidates {
		if !s.evalInto(&r, &scr, wsCount, mask) {
			continue
		}
		if !found || Better(r, best) {
			best, found = r, true
			best.WSNets = slices.Clone(r.WSNets) // r's names alias the scratch
		}
	}
	best.Name = configName(wsCount)
	best.WSCount = wsCount
	best.Combos = len(candidates)
	return best
}

// Better reports whether a beats b: feasible configurations first, then
// strictly lower EDP. It is strict — among ties the incumbent wins,
// which is what makes the in-order scan deterministic.
func Better(a, b Result) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	return a.EDP < b.EDP
}

// configName is the Table I row name for a wsCount pin (OS / Het(k);
// experiments.TableI renames the all-WS row "WS").
func configName(wsCount int) string {
	if wsCount == 0 {
		return "OS"
	}
	return fmt.Sprintf("Het(%d)", wsCount)
}

// evalScratch is the reusable working state of one evaluation loop:
// the per-style latency lists handed to the LPT packer, the per-model
// chain accumulators, and the packer's load bins. One scan owns one
// scratch, so scoring a mask allocates nothing after the buffers warm
// up.
type evalScratch struct {
	osMs   []float64
	wsMs   []float64
	chain  []float64
	loads  []float64
	wsNets []string
}

// evalInto packs the layers of each net onto its style's chiplets (LPT)
// and scores the configuration into r. Returns false when a style has
// assigned layers but no chiplets (infeasible packing). Layer costs
// are pure table reads; the accumulation order (nets in order, layers
// in order) matches the original cache-backed evaluation exactly, so
// results are bit-for-bit identical.
//
// r.WSNets aliases scr's buffer (nil when empty) — callers keeping r
// beyond the next evalInto call on the same scratch must copy it.
func (s *Space) evalInto(r *Result, scr *evalScratch, wsCount, mask int) bool {
	limit := s.LcstrMs * 1.05 // the scheduler's tolerance
	osChips, wsChips := s.Chiplets-wsCount, wsCount

	scr.osMs = scr.osMs[:0]
	scr.wsMs = scr.wsMs[:0]
	scr.wsNets = scr.wsNets[:0]
	if cap(scr.chain) < s.nModels {
		scr.chain = make([]float64, s.nModels)
	}
	scr.chain = scr.chain[:s.nModels]
	for i := range scr.chain {
		scr.chain[i] = 0
	}

	var energy float64
	for i, net := range s.Nets {
		onWS := mask&(1<<i) != 0
		col := osCol
		if onWS {
			col = wsCol
			scr.wsNets = append(scr.wsNets, net.Name)
		}
		off, mi := s.layerOff[i], s.netModel[i]
		for j := range net.Layers {
			c := s.tab.Cost(off+j, col)
			energy += c.EnergyJ
			scr.chain[mi] += c.LatencyMs
			if onWS {
				scr.wsMs = append(scr.wsMs, c.LatencyMs)
			} else {
				scr.osMs = append(scr.osMs, c.LatencyMs)
			}
		}
	}

	osMax, osOK := packLPT(scr.osMs, osChips, scr)
	wsMax, wsOK := packLPT(scr.wsMs, wsChips, scr)
	if !osOK || !wsOK {
		return false
	}
	pipe := math.Max(osMax, wsMax)

	var e2e float64
	for _, ms := range scr.chain {
		if ms > e2e {
			e2e = ms
		}
	}
	*r = Result{
		E2EMs:     e2e,
		PipeLatMs: pipe,
		EnergyJ:   energy,
		EDP:       energy * pipe,
		Feasible:  pipe <= limit,
		WSNets:    scr.wsNets,
	}
	if len(r.WSNets) == 0 {
		r.WSNets = nil
	}
	return true
}

// packLPT is longest-processing-time-first packing of the latency list
// onto `chips` bins, returning the busiest bin. The sort is in place
// (the list is scratch) and descending; equal floats are
// indistinguishable, so the packed order — and therefore the
// busiest-bin value — does not depend on the sort's stability.
// slices.SortFunc, unlike sort.Slice, sorts without allocating.
func packLPT(ms []float64, chips int, scr *evalScratch) (float64, bool) {
	if len(ms) == 0 {
		return 0, true
	}
	if chips <= 0 {
		return math.Inf(1), false
	}
	if cap(scr.loads) < chips {
		scr.loads = make([]float64, chips)
	}
	loads := scr.loads[:chips]
	for i := range loads {
		loads[i] = 0
	}
	slices.SortFunc(ms, func(a, b float64) int { return cmp.Compare(b, a) })
	for _, v := range ms {
		k := 0
		for j := 1; j < chips; j++ {
			if loads[j] < loads[k] {
				k = j
			}
		}
		loads[k] += v
	}
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max, true
}

// TableIRow pairs a configuration result with its deltas vs the OS-only
// reference.
type TableIRow struct {
	Result
	DeltaE2EPct    float64
	DeltaPipePct   float64
	DeltaEnergyPct float64
	DeltaEDPPct    float64
}

// TableIRows pairs each result with its deltas against results[0] (the
// OS-only reference row, which carries no deltas).
func TableIRows(results []Result) []TableIRow {
	osr := results[0]
	rows := []TableIRow{{Result: osr}}
	for _, r := range results[1:] {
		rows = append(rows, TableIRow{
			Result:         r,
			DeltaE2EPct:    pct(r.E2EMs, osr.E2EMs),
			DeltaPipePct:   pct(r.PipeLatMs, osr.PipeLatMs),
			DeltaEnergyPct: pct(r.EnergyJ, osr.EnergyJ),
			DeltaEDPPct:    pct(r.EDP, osr.EDP),
		})
	}
	return rows
}

func pct(v, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return (v - ref) / ref * 100
}

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
//
// Only the feasibility test reads Lcstr: a configuration's pipe, energy,
// E2E and EDP do not depend on it. So a Space scores each pin's
// candidates once, on the pin's first Best, and every view of the space
// under another constraint (WithLcstr) re-applies only that test to the
// kept scores.
package dse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"mcmnpu/internal/costmodel"
	"mcmnpu/internal/dataflow"
	"mcmnpu/internal/dnn"
	"mcmnpu/internal/sched"
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
// and the latency constraint, with every net layer's cost on the Simba
// chiplet under both styles precomputed into an index-addressed table
// at construction. The configuration fields and the cost table are
// immutable after NewCachedSpace. The only mutable state is the
// per-pin score memo, which Best fills once per pin under a sync.Once,
// so one Space and its WithLcstr views may be shared by concurrent
// goroutines (the dse-lcstr grid scans its points' views of one space
// on the engine's workers, and a Service answers every DSE request
// from one space).
type Space struct {
	Nets     []Net
	Chiplets int
	LcstrMs  float64

	// Index-addressed cost table: row layerOff[i]+j is the j-th layer
	// of net i; column 0 is OS, column 1 WS. Evaluating a candidate
	// mask is pure array reads — no hashing, no locks.
	tab      *costmodel.Table
	layerOff []int // net i -> first row of its layers in tab
	netModel []int // net i -> dense model index
	nModels  int

	// byStyle[col] holds every layer's latency on style col in
	// descending order, each with its net's mask bit: the LPT order of
	// any mask's layers on that style is a subsequence of it.
	byStyle [2][]packEntry

	// pins[ws] memoizes the scores of pin ws's candidates. WithLcstr
	// views copy the slice header, so they share one memo.
	pins []pinScores
}

// Table column indices for the two dataflow styles.
const (
	osCol = 0
	wsCol = 1
)

// packEntry is one layer's latency on a style and its net's mask bit.
type packEntry struct {
	ms  float64
	bit int // 1 << net index
}

// pinScores is one pin's memo: the scores of its candidates, in
// candidate order, computed by the first Best of the pin.
type pinScores struct {
	once   sync.Once
	scores []score
}

// score is one candidate mask's evaluation on a pin. None of it depends
// on the latency constraint; Best derives Feasible per view.
type score struct {
	mask   int
	packs  bool // false when a style has layers but no chiplets
	e2e    float64
	pipe   float64
	energy float64
	edp    float64
}

// NewCachedSpace prepares the exploration space for a pool of
// `chiplets` accelerators under the latency constraint lcstrMs. The
// layer-cost cache lets multiple spaces (e.g. every scenario of a sweep
// grid) share memoized evaluations; a nil cache evaluates uncached.
// Either way every (layer, style) pair is evaluated at most once here,
// at construction, and each style's latencies are sorted once for LPT
// packing — the 2^n candidate masks of an exploration read the
// precomputed table.
func NewCachedSpace(trunks []*dnn.Graph, chiplets int, lcstrMs float64, c *costmodel.Cache) *Space {
	s := &Space{
		Nets:     NetsOf(trunks),
		Chiplets: chiplets,
		LcstrMs:  lcstrMs,
		pins:     make([]pinScores, chiplets+1),
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
	osAccel, wsAccel := costmodel.SimbaChiplet(dataflow.OS), costmodel.SimbaChiplet(dataflow.WS)
	s.tab = c.NewTable(layers, []*costmodel.Accel{osAccel, wsAccel})
	for col := range s.byStyle {
		entries := make([]packEntry, 0, len(layers))
		for i, net := range s.Nets {
			for j := range net.Layers {
				entries = append(entries, packEntry{ms: s.tab.Cost(s.layerOff[i]+j, col).LatencyMs, bit: 1 << i})
			}
		}
		slices.SortFunc(entries, func(a, b packEntry) int { return cmp.Compare(b.ms, a.ms) })
		s.byStyle[col] = entries
	}
	return s
}

// WithLcstr returns a view of the space under a different latency
// constraint, sharing the precomputed cost table and the score memo
// (the constraint only enters the feasibility check, never the
// scores). The Lcstr sweep and the DSE service explore their
// constraints this way instead of re-scoring every mask per point.
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
// subset of nets is a candidate (2^n; n <= ~10). A wsCount outside
// [0, Chiplets] is no pin of the space and has no candidates.
func (s *Space) Candidates(wsCount int) []int {
	n := len(s.Nets)
	switch {
	case wsCount < 0 || wsCount > s.Chiplets:
		return nil
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
// constraint (with the scheduler's default tolerance), and returns the
// best-scoring configuration. The first Best of a pin on a space (or
// any of its views) scores every candidate once; every Best of that
// pin is then one in-order scan over the scores under the strict
// Better, so the first of tied configurations wins. Only the winner's
// WS net names are copied out. A wsCount outside [0, Chiplets] returns
// the result of a pin where nothing packs: EDP +Inf, infeasible, no
// combos.
func (s *Space) Best(wsCount int) Result {
	scores := s.scores(wsCount)
	limit := s.LcstrMs * (1 + sched.DefaultTolerance)
	best := Result{EDP: math.Inf(1)} // returned as is when no mask packs
	win := -1
	for i, sc := range scores {
		if !sc.packs {
			continue
		}
		r := Result{E2EMs: sc.e2e, PipeLatMs: sc.pipe, EnergyJ: sc.energy, EDP: sc.edp, Feasible: sc.pipe <= limit}
		if win < 0 || Better(r, best) {
			best, win = r, i
		}
	}
	if win >= 0 {
		best.WSNets = s.wsNets(scores[win].mask)
	}
	best.Name = configName(wsCount)
	best.WSCount = wsCount
	best.Combos = len(scores)
	return best
}

// scores returns pin wsCount's candidate scores, in candidate order,
// computing them on the pin's first call; none outside [0, Chiplets].
func (s *Space) scores(wsCount int) []score {
	if wsCount < 0 || wsCount > s.Chiplets {
		return nil
	}
	p := &s.pins[wsCount]
	p.once.Do(func() {
		masks := s.Candidates(wsCount)
		p.scores = make([]score, len(masks))
		var scr evalScratch
		for i, mask := range masks {
			s.evalInto(&p.scores[i], &scr, wsCount, mask)
		}
	})
	return p.scores
}

// wsNets lists the names of the nets mask puts on WS, in net order
// (nil when none).
func (s *Space) wsNets(mask int) []string {
	var names []string
	for i, net := range s.Nets {
		if mask&(1<<i) != 0 {
			names = append(names, net.Name)
		}
	}
	return names
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
// the per-model chain accumulators and the packer's load bins. One
// scan owns one scratch, so scoring a mask allocates nothing after the
// buffers warm up.
type evalScratch struct {
	chain []float64
	loads []float64
}

// evalInto packs the layers of each net onto its style's chiplets (LPT)
// and scores the configuration into sc; sc.packs is false when a style
// has assigned layers but no chiplets. Layer costs are pure table
// reads; the accumulation order (nets in order, layers in order)
// matches the original cache-backed evaluation exactly, so results are
// bit-for-bit identical.
func (s *Space) evalInto(sc *score, scr *evalScratch, wsCount, mask int) {
	if cap(scr.chain) < s.nModels {
		scr.chain = make([]float64, s.nModels)
	}
	if cap(scr.loads) < s.Chiplets {
		scr.loads = make([]float64, s.Chiplets)
	}
	chain := scr.chain[:s.nModels]
	clear(chain)

	var energy float64
	for i, net := range s.Nets {
		col := osCol
		if mask&(1<<i) != 0 {
			col = wsCol
		}
		off, mi := s.layerOff[i], s.netModel[i]
		for j := range net.Layers {
			c := s.tab.Cost(off+j, col)
			energy += c.EnergyJ
			chain[mi] += c.LatencyMs
		}
	}

	osMax, osOK := s.pack(osCol, mask, s.Chiplets-wsCount, scr.loads)
	wsMax, wsOK := s.pack(wsCol, mask, wsCount, scr.loads)
	if !osOK || !wsOK {
		*sc = score{mask: mask}
		return
	}
	pipe := math.Max(osMax, wsMax)

	var e2e float64
	for _, ms := range chain {
		if ms > e2e {
			e2e = ms
		}
	}
	*sc = score{mask: mask, packs: true, e2e: e2e, pipe: pipe, energy: energy, edp: energy * pipe}
}

// pack is longest-processing-time-first packing of the layers mask
// puts on style col onto `chips` bins (each layer to the first
// least-loaded bin), returning the busiest bin; false when the style
// has layers but no chiplets. The layers arrive already in LPT order:
// byStyle[col] is sorted descending once, at construction, and the
// mask's layers are a subsequence of it, hence descending too. Equal
// latencies are indistinguishable, so the busiest bin depends only on
// that value sequence, not on how the sort ordered ties.
func (s *Space) pack(col, mask, chips int, loads []float64) (float64, bool) {
	onWS := col == wsCol
	loads = loads[:chips]
	clear(loads)
	for _, e := range s.byStyle[col] {
		if (mask&e.bit != 0) != onWS {
			continue
		}
		if chips <= 0 {
			return math.Inf(1), false
		}
		k := 0
		for j := 1; j < chips; j++ {
			if loads[j] < loads[k] {
				k = j
			}
		}
		loads[k] += e.ms
	}
	busiest := 0.0
	for _, l := range loads {
		if l > busiest {
			busiest = l
		}
	}
	return busiest, true
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

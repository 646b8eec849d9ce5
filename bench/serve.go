package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcmnpu/internal/api"
	"mcmnpu/internal/pareto"
	"mcmnpu/internal/sweep"
)

// serve-mixed: a closed loop of serveClients client goroutines over at
// most serveClients keep-alive connections against the daemon's
// handler on a loopback listener in this process. Each client sends its
// next request only after the previous reply.
const (
	serveClients = 2
	// replayWindow bounds how far back a replay reaches, so its body is
	// still in the server's 256-entry result cache.
	replayWindow = 32
	serveFrames  = 64
	serveWindow  = 16
	// serveBlock is the period of the request mix: every serveBlock
	// consecutive requests hold exactly serveMix, in an order the seed
	// shuffles, so the mix a run sends does not vary with the seed.
	serveBlock = 100
)

// serveMix is one block's requests by class: 30% replay an earlier
// body; of the other 70%, 70% are /v1/run, 20% /v1/dse and 10%
// /v1/pareto.
var serveMix = []struct {
	class string
	n     int
}{{"replay", 30}, {"run", 49}, {"dse", 14}, {"pareto", 7}}

// serveScenarios are the registry scenarios /v1/run requests pick from.
var serveScenarios = []string{"urban-8cam", "highway-5cam", "degraded-camera-dropout",
	"lowlatency-smallgrid", "mono-baseline-4x2304"}

// serveReq is one generated request. A replay carries its origin's
// body; origin is the index of the request that first sent it.
type serveReq struct {
	idx    int
	kind   string // run, dse, pareto
	replay bool
	origin int
	body   []byte
	// what the response must echo
	scenario string
	lcstr    float64
}

func (r serveReq) path() string { return "/v1/" + r.kind }

// label names the request's class in spans and per-kind metrics.
func (r serveReq) label() string {
	if r.replay {
		return "replay"
	}
	return r.kind
}

// serveGen derives the request sequence from the seed: request k
// depends only on the seed and the requests before it.
type serveGen struct{ seed uint64 }

// frac returns a uniform [0,1) draw from (seed, k, stream).
func frac(seed uint64, k int, stream uint64) float64 {
	return float64(mix(mix(seed, uint64(k)), stream)>>11) / (1 << 53)
}

// class returns request k's class: its slot in its block's shuffled
// serveMix.
func (g serveGen) class(k int) string {
	classes := make([]string, 0, serveBlock)
	for _, c := range serveMix {
		for range c.n {
			classes = append(classes, c.class)
		}
	}
	base := k - k%serveBlock
	for i := len(classes) - 1; i > 0; i-- { // Fisher–Yates
		j := int(frac(g.seed, base+i, 7) * float64(i+1))
		classes[i], classes[j] = classes[j], classes[i]
	}
	return classes[k%serveBlock]
}

// request derives request k from the requests before it; uniques
// holds the indices of the distinct ones.
func (g serveGen) request(k int, reqs []serveReq, uniques []int) serveReq {
	class := g.class(k)
	if class == "replay" && len(uniques) > 0 {
		back := int(frac(g.seed, k, 2) * float64(min(len(uniques), replayWindow)))
		o := reqs[uniques[len(uniques)-1-back]]
		o.idx, o.replay = k, true
		return o
	}
	r := serveReq{idx: k, origin: k}
	var v any
	switch class {
	case "run", "replay": // a replay with nothing to replay yet runs instead
		r.kind = "run"
		r.scenario = serveScenarios[int(frac(g.seed, k, 4)*float64(len(serveScenarios)))]
		v = api.RunScenarioRequest{Scenarios: []string{r.scenario}, Frames: serveFrames,
			WindowFrames: serveWindow, Seed: opSeed(g.seed, k)}
	case "dse":
		r.kind = "dse"
		r.lcstr = 60 + 100*frac(g.seed, k, 5)
		v = api.DSERequest{LcstrMs: r.lcstr}
	default:
		r.kind = "pareto"
		v = paretoServeReq(100 + 200*frac(g.seed, k, 6))
	}
	r.body = mustJSON(v)
	return r
}

// serveSeq memoizes the generated sequence, so request k is the same
// whichever client sends it.
type serveSeq struct {
	gen     serveGen
	mu      sync.Mutex
	reqs    []serveReq
	uniques []int
}

func (s *serveSeq) get(k int) serveReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= k {
		r := s.gen.request(len(s.reqs), s.reqs, s.uniques)
		if !r.replay {
			s.uniques = append(s.uniques, r.idx)
		}
		s.reqs = append(s.reqs, r)
	}
	return s.reqs[k]
}

func paretoServeReq(linkBW float64) api.ParetoRequest {
	return api.ParetoRequest{Scenarios: []string{"urban-8cam"}, LinkBWGBs: []float64{linkBW},
		Frames: 8, WindowFrames: 4}
}

// serveResp is one reply. A client keeps only the hash of its exact
// bytes and, for a computed reply, the body. The bodies are checked at
// the next round boundary, while no request is in flight and outside
// the round's time and CPU, so the checks do not load the measured
// loop; cache hits are matched against the computed replies once the
// loop ends.
type serveResp struct {
	req     serveReq
	lat     time.Duration
	hit     bool
	full    [32]byte // hash of the exact bytes
	digest  string   // computed replies only, once checked
	compute float64  // envelope compute_ms of a computed reply
	body    []byte   // computed replies until checked; kept after only for the traced pass's probes
	err     error
}

type serveW struct {
	gen    serveGen
	eng    *sweep.Engine
	srv    *http.Server
	served chan struct{}
	client *http.Client
	url    string
}

func (w *serveW) start(ctx context.Context, env *passEnv) (string, error) {
	w.eng = sweep.New(0)
	handler := api.NewServer(api.NewService(w.eng), api.ServerConfig{}).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	w.srv = &http.Server{Handler: handler}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(ln)
	}()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
	}}

	// Warm-up: one request of each kind, with bodies the timed sequence
	// never sends.
	warm := []serveReq{
		{kind: "run", scenario: "urban-8cam", body: mustJSON(api.RunScenarioRequest{
			Scenarios: []string{"urban-8cam"}, Frames: serveFrames, WindowFrames: serveWindow, Seed: 1})},
		{kind: "dse", lcstr: 200, body: mustJSON(api.DSERequest{LcstrMs: 200})},
		{kind: "pareto", body: mustJSON(paretoServeReq(50))},
	}
	var digests []byte
	for _, r := range warm {
		resp := w.send(ctx, r)
		if resp.err == nil {
			resp.digest, _, resp.err = checkServe(env.chk, r, resp.body, nil)
		}
		if resp.err != nil {
			return "", fmt.Errorf("warm-up %s: %w", r.kind, resp.err)
		}
		digests = append(digests, resp.digest...)
	}
	return hashBytes(digests), nil
}

func (w *serveW) stop() {
	if w.srv == nil {
		return
	}
	w.srv.Close()
	<-w.served
	w.client.CloseIdleConnections()
	w.srv = nil
}

// send posts one request and reads the whole reply, keeping its body
// when it was computed rather than replayed from the result cache.
func (w *serveW) send(ctx context.Context, r serveReq) serveResp {
	out := serveResp{req: r}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+r.path(), bytes.NewReader(r.body))
	if err != nil {
		out.err = err
		return out
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(api.VersionHeader, api.Version)
	t0 := time.Now()
	resp, err := w.client.Do(hr)
	if err != nil {
		out.err = err
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.lat = time.Since(t0)
	switch {
	case err != nil:
		out.err = err
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if out.err != nil {
		return out
	}
	out.hit = resp.Header.Get("X-Cache") == "hit"
	out.full = sha256.Sum256(body)
	if !out.hit {
		out.body = body
	}
	return out
}

// check runs checkServe on the computed replies among resps, recording
// their layer counters, and drops their bodies unless keep.
func check(env *passEnv, resps []serveResp, keep bool) {
	for i := range resps {
		r := &resps[i]
		if r.err != nil || r.hit {
			continue
		}
		var envelope api.RunResult
		r.digest, envelope, r.err = checkServe(env.chk, r.req, r.body, env.tally)
		r.compute = envelope.Timings.ComputeMs
		if !keep {
			r.body = nil
		}
	}
}

func (w *serveW) run(ctx context.Context, env *passEnv, lim limit) passData {
	seq := &serveSeq{gen: w.gen}
	var (
		next atomic.Int64
		// gate is held shared by every request in flight and alone by a
		// round boundary, so the checks and the calibration kernel run
		// on an idle server.
		gate    sync.RWMutex
		marks   []roundMark // appended only with gate held alone
		mu      sync.Mutex  // guards resps and checked
		resps   []serveResp
		checked int // resps[:checked] have been checked
		wg      sync.WaitGroup
	)
	keep := env.tr != nil
	checkAll := func() {
		check(env, resps[checked:], keep)
		checked = len(resps)
	}
	mark := cacheMark(w.eng)
	marks = append(marks, boundary(env.cal, 0, func() {}))
	u0 := readUsage()
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if lim.ops == 0 && !time.Now().Before(lim.until) {
					return
				}
				k := int(next.Add(1) - 1)
				if lim.ops > 0 && k >= lim.ops {
					return
				}
				r := seq.get(k)
				gate.RLock()
				id := env.tr.begin(k, 0, "op", r.label())
				resp := w.send(ctx, r)
				env.tr.end(id)
				gate.RUnlock()
				mu.Lock()
				resps = append(resps, resp)
				closes := len(resps)%serveRoundOps == 0
				mu.Unlock()
				if closes {
					gate.Lock()
					mu.Lock()
					marks = append(marks, boundary(env.cal, len(resps), checkAll))
					mu.Unlock()
					gate.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(marks) == 1 {
		marks = append(marks, boundary(env.cal, len(resps), func() {}))
	}
	pd := passData{wall: time.Since(t0), use: readUsage().sub(u0)}
	for _, m := range marks[1:] {
		pd.wall -= m.start.Sub(m.end)
		pd.use = pd.use.sub(m.startUse.sub(m.endUse))
	}
	checkAll()
	for i := range marks[1:] {
		pd.rounds = append(pd.rounds, serveRound(marks[i], marks[i+1], resps))
	}
	tallyCache(env.tally, w.eng, mark)
	sort.Slice(resps, func(a, b int) bool { return resps[a].req.idx < resps[b].req.idx })
	st, err := w.fetchStats(ctx)
	if err == nil {
		env.tally.add("api.result_cache.hits", float64(st.ResultCache.Hits))
		env.tally.add("api.result_cache.misses", float64(st.ResultCache.Misses))
		env.tally.add("api.rejected", float64(st.Rejected))
	}
	pd.recs = resolve(env, resps)
	if err != nil && len(pd.recs) > 0 && pd.recs[0].err == nil {
		pd.recs[0].err = err
	}
	if env.tr != nil {
		w.probe(ctx, env, resps)
	}
	return pd
}

// serveRoundOps is the serving loop's round: about a second of replies.
const serveRoundOps = 300

// roundMark is a round boundary of the serving loop: the replies
// completed so far, the readings when the previous round ended, the
// calibration sample, and the readings when the next round started.
type roundMark struct {
	n                int
	end, start       time.Time
	endUse, startUse usage
	rss, calib       float64
}

// boundary ends a round: it takes the readings, runs work (the pending
// checks) and the calibration sample, then takes the next round's
// starting readings, so neither counts in a round.
func boundary(cal *calibrator, n int, work func()) roundMark {
	m := roundMark{n: n, end: time.Now(), endUse: readUsage(), rss: rssMB()}
	work()
	m.calib = cal.sample()
	m.startUse, m.start = readUsage(), time.Now()
	return m
}

// serveRound is the round between two boundaries, over the replies
// completed between them (in completion order, as resps holds them).
func serveRound(a, b roundMark, resps []serveResp) round {
	r := round{ops: b.n - a.n, wall: b.end.Sub(a.start), cpu: b.endUse.cpu - a.startUse.cpu,
		rss: b.rss, calib: (a.calib + b.calib) / 2}
	for _, x := range resps[a.n:b.n] {
		r.lats = append(r.lats, float64(x.lat)/1e6)
	}
	return r
}

// fetchStats reads the server's admission and result-cache counters.
func (w *serveW) fetchStats(ctx context.Context) (api.ServerStats, error) {
	var st api.ServerStats
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := w.client.Do(hr)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/v1/stats: %w", err)
	}
	return st, nil
}

// resolve turns replies into op records. On top of the per-reply
// checks, every computed reply to one body must have the same digest,
// and a cache hit must repeat, byte for byte, a computed reply to its
// body.
func resolve(env *passEnv, resps []serveResp) []opRecord {
	t := env.tally
	digestOfOrigin := map[int]string{}
	computed := map[int]map[[32]byte]bool{}
	recs := make([]opRecord, len(resps))
	for i, r := range resps {
		recs[i] = opRecord{idx: r.req.idx, lat: r.lat, digest: r.digest, err: r.err}
		if r.err != nil || r.hit {
			continue
		}
		o := r.req.origin
		if r.req.replay {
			t.add("api.replay_misses", 1)
		}
		t.add("http.overhead_ms", float64(r.lat)/1e6-r.compute)
		t.add("http.computed", 1)
		if prev, ok := digestOfOrigin[o]; ok && prev != r.digest {
			recs[i].err = fmt.Errorf("request %d: digest %s differs from %s for the same body", r.req.idx, r.digest, prev)
			continue
		}
		digestOfOrigin[o] = r.digest
		if computed[o] == nil {
			computed[o] = map[[32]byte]bool{}
		}
		computed[o][r.full] = true
	}
	for i, r := range resps {
		if r.err == nil && r.hit {
			recs[i].digest = digestOfOrigin[r.req.origin]
			if !computed[r.req.origin][r.full] {
				recs[i].err = fmt.Errorf("request %d: cache hit differs from every computed reply to request %d", r.req.idx, r.req.origin)
			}
		}
		if recs[i].err == nil {
			recs[i].err = env.chk.op(recs[i].idx, recs[i].digest)
		}
	}
	return recs
}

// checkServe decodes a computed reply into its typed response, checks
// it against its request, and returns its digest and envelope. With a
// tally it also records the reply's layer counters.
func checkServe(chk *checker, r serveReq, body []byte, t *tally) (string, api.RunResult, error) {
	var env api.RunResult
	d, err := digestJSON(body)
	if err != nil {
		return "", env, err
	}
	var rep *pareto.Report
	switch r.kind {
	case "run":
		var resp api.RunScenarioResponse
		if err = json.Unmarshal(body, &resp); err == nil {
			err = chk.checkRun(resp.Results, r.scenario, serveFrames, serveWindow)
		}
		env = resp.RunResult
	case "dse":
		var resp api.DSEResponse
		if err = json.Unmarshal(body, &resp); err == nil &&
			(resp.LcstrMs != r.lcstr || resp.TableData == nil || len(resp.TableData.Rows) == 0) {
			err = fmt.Errorf("dse reply does not answer lcstr_ms %v", r.lcstr)
		}
		env = resp.RunResult
	case "pareto":
		var resp api.ParetoResponse
		if err = json.Unmarshal(body, &resp); err == nil {
			err = checkReport(resp.Report)
		}
		env, rep = resp.RunResult, &resp.Report
	}
	if err == nil && (env.Kind != r.kind || env.Version != api.Version) {
		err = fmt.Errorf("envelope kind %q version %q, want %q %q", env.Kind, env.Version, r.kind, api.Version)
	}
	if err != nil {
		return "", env, err
	}
	if t != nil {
		tallyCompute(t, env)
		t.add("report.bytes", float64(len(body)))
		t.add("report.renders", 1)
		if rep != nil {
			tallyReport(t, *rep)
		}
	}
	return d, env, nil
}

// probe times, client side, the layers the server ran for this pass's
// computed replies: request decode and key, scenario prepare and
// stream on the server's own warm engine, and response rendering.
func (w *serveW) probe(ctx context.Context, env *passEnv, resps []serveResp) {
	tr := env.tr
	for _, r := range resps {
		if r.hit || r.err != nil {
			continue
		}
		k, kind := r.req.idx, r.req.kind
		var req api.Request
		var typed any
		switch kind {
		case "run":
			req, typed = new(api.RunScenarioRequest), new(api.RunScenarioResponse)
		case "dse":
			req, typed = new(api.DSERequest), new(api.DSEResponse)
		default:
			req, typed = new(api.ParetoRequest), new(api.ParetoResponse)
		}
		id := tr.begin(k, 0, "api.decode", kind)
		err := api.Decode(r.req.body, req)
		tr.end(id)
		if err != nil {
			continue
		}
		id = tr.begin(k, 0, "api.key", kind)
		_, err = api.NewService(nil).Key(req)
		tr.end(id)
		if err == nil && json.Unmarshal(r.body, typed) == nil {
			id = tr.begin(k, 0, "report.render", kind)
			_, err = json.Marshal(typed)
			tr.end(id)
		}
		if run, ok := req.(*api.RunScenarioRequest); ok && err == nil {
			if _, err := traceRun(ctx, tr, k, 0, w.eng, *run); err == nil {
				env.tally.add("sim.frames", serveFrames)
			}
		}
	}
}

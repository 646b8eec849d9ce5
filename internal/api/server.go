// The HTTP face of the Service: versioned JSON endpoints with
// low/high-watermark admission control, a bounded content-addressed
// result cache, and chunked NDJSON progress streaming for long sweeps.
//
// Admission follows the double-buffering watermark scheme of
// uPIMulator's host orchestrator: requests are admitted while the
// in-flight count stays below the high watermark; the first rejection
// latches the server into a draining state that keeps rejecting (429 +
// Retry-After) until in-flight work drains to the low watermark, so a
// saturated server sheds load in bursts instead of oscillating around
// the cap.
//
// The result cache is content-addressed by RequestKey — (kind,
// canonical request hash, seed, build version) — so a repeated request
// replays the exact bytes of the first response (X-Cache: hit),
// envelope timings included.
package api

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// ServerConfig tunes a Server. The zero value takes the defaults.
type ServerConfig struct {
	// LowWatermark is the in-flight count a saturated server drains to
	// before admitting again (default 4).
	LowWatermark int
	// HighWatermark is the in-flight admission cap (default 8).
	HighWatermark int
	// ResultCacheEntries bounds the content-addressed response cache
	// (default 256 entries, LRU eviction; negative disables caching).
	ResultCacheEntries int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.HighWatermark <= 0 {
		c.HighWatermark = 8
	}
	if c.LowWatermark <= 0 {
		c.LowWatermark = c.HighWatermark / 2
	}
	if c.LowWatermark > c.HighWatermark {
		c.LowWatermark = c.HighWatermark
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	Version     string        `json:"version"`
	Build       string        `json:"build"`
	InFlight    int           `json:"in_flight"`
	Draining    bool          `json:"draining"`
	Admitted    uint64        `json:"admitted"`
	Rejected    uint64        `json:"rejected"`
	ResultCache CacheCounters `json:"result_cache"`
	CostCache   CacheCounters `json:"cost_cache"`
}

// Server is the long-lived HTTP handler owning the Service (and with
// it the warm engine caches) across requests.
type Server struct {
	svc *Service
	cfg ServerConfig

	mu       sync.Mutex
	inflight int
	draining bool
	admitted uint64
	rejected uint64

	results resultCache

	// admittedHook, when set (tests only), runs after a compute request
	// is admitted and decoded, before it executes — it lets a test hold
	// requests in flight deterministically.
	admittedHook func()
}

// NewServer wraps svc behind the HTTP contract.
func NewServer(svc *Service, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{svc: svc, cfg: cfg, results: resultCache{max: cfg.ResultCacheEntries}}
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		s.compute(w, r, new(RunScenarioRequest))
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		s.compute(w, r, new(GridSweepRequest))
	})
	mux.HandleFunc("POST /v1/dse", func(w http.ResponseWriter, r *http.Request) {
		s.compute(w, r, new(DSERequest))
	})
	mux.HandleFunc("POST /v1/pareto", func(w http.ResponseWriter, r *http.Request) {
		s.compute(w, r, new(ParetoRequest))
	})
	return mux
}

// acquire admits or rejects one compute request under the watermark
// scheme.
func (s *Server) acquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining && s.inflight > s.cfg.LowWatermark {
		s.rejected++
		return false
	}
	s.draining = false
	if s.inflight >= s.cfg.HighWatermark {
		s.draining = true
		s.rejected++
		return false
	}
	s.inflight++
	s.admitted++
	return true
}

func (s *Server) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.draining && s.inflight <= s.cfg.LowWatermark {
		s.draining = false
	}
}

// compute is the shared path of every POST endpoint: admission, strict
// decoding, one resolve and one key, result-cache lookup, execution
// under that key, cache fill.
func (s *Server) compute(w http.ResponseWriter, r *http.Request, req Request) {
	w.Header().Set(VersionHeader, Version)
	if v := r.Header.Get(VersionHeader); v != "" && v != Version {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("api version %q not supported (server speaks %s)", v, Version))
		return
	}
	if !s.acquire() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server saturated (admission watermark reached)")
		return
	}
	defer s.release()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	if err := decode(body, req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, key, err := resolveKey(req, s.svc.version)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Streaming requests bypass the result cache: their value is the
	// incremental progress, and their body interleaves progress lines
	// with the final envelope.
	if sw, ok := req.(*GridSweepRequest); ok && sw.Stream {
		if s.admittedHook != nil {
			s.admittedHook()
		}
		s.streamSweep(w, r, j, key)
		return
	}

	if body, ok := s.results.get(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.Write(body)
		return
	}
	if s.admittedHook != nil {
		s.admittedHook()
	}

	resp, err := s.svc.do(r.Context(), j, key, nil)
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, http.StatusServiceUnavailable, "request canceled: "+err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	out, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	out = append(out, '\n')
	s.results.put(key, out)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "miss")
	w.Write(out)
}

// streamEvent is one NDJSON line of a streaming sweep: a per-scenario
// progress event, then a final done event carrying the full response.
type streamEvent struct {
	Type     string              `json:"type"` // "scenario" | "done" | "error"
	Scenario *GridScenarioResult `json:"scenario,omitempty"`
	Response *GridSweepResponse  `json:"response,omitempty"`
	Error    string              `json:"error,omitempty"`
}

// streamSweep runs a grid sweep's job under its key and writes chunked
// NDJSON progress.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, j job, key string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	resp, err := s.svc.do(r.Context(), j, key, func(g GridScenarioResult) error {
		if err := enc.Encode(streamEvent{Type: "scenario", Scenario: &g}); err != nil {
			return err
		}
		flush()
		return nil
	})
	if err != nil {
		// Headers are gone; the error rides the stream as a final event.
		enc.Encode(streamEvent{Type: "error", Error: err.Error()})
		flush()
		return
	}
	enc.Encode(streamEvent{Type: "done", Response: resp.(*GridSweepResponse)})
	flush()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(VersionHeader, Version)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"version\":%q}\n", Version)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(VersionHeader, Version)
	s.mu.Lock()
	st := ServerStats{
		Version:  Version,
		Build:    s.svc.version,
		InFlight: s.inflight,
		Draining: s.draining,
		Admitted: s.admitted,
		Rejected: s.rejected,
	}
	s.mu.Unlock()
	hits, misses, entries := s.results.stats()
	st.ResultCache = CacheCounters{Hits: hits, Misses: misses, Entries: entries}
	cs := s.svc.engine.Cache().Stats()
	st.CostCache = CacheCounters{Hits: cs.Hits, Misses: cs.Misses, Entries: cs.Entries}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// writeError emits the JSON error body every non-200 response carries.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil { // string-only payload: cannot happen
		b = []byte(`{"error":` + strconv.Quote("internal") + `}`)
	}
	w.Write(append(b, '\n'))
}

// resultCache is the bounded, content-addressed response store: exact
// bytes keyed by RequestKey, LRU-evicted at max entries.
type resultCache struct {
	mu     sync.Mutex
	max    int
	hits   uint64
	misses uint64
	order  list.List                // front = most recent; values are *cacheEntry
	byKey  map[string]*list.Element // nil until first put
}

type cacheEntry struct {
	key  string
	body []byte
}

func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

func (c *resultCache) put(key string, body []byte) {
	if c.max < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey == nil {
		c.byKey = make(map[string]*list.Element)
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}

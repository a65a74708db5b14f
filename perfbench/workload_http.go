package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vxml"
	"vxml/internal/benchkit"
	"vxml/internal/catalog"
	"vxml/internal/server"
)

// http_planned_rw parameters.
var httpShape = collectionShape{docs: 400, articles: 4}

const (
	httpClients  = 2
	httpPoolSize = 48
	// httpTopK is one value for every query: the hottest keyword sets set
	// the median, and a mix of result sizes among them would make it
	// depend on the seed.
	httpTopK = 10
	// httpWriteEvery makes every httpWriteEvery-th op a document replace.
	httpWriteEvery = 50
	// zipfS skews keyword-set popularity: a few sets repeat often (exact
	// cache hits), the long tail exercises rewrites and direct evaluation.
	// With one write per 50 ops it makes about 70% of searches exact hits
	// for every seed, so the median is a cache hit, and about 2% direct
	// evaluations, so the p99 is one.
	zipfS    = 1.5
	httpView = "collection"
)

// spanHeader carries "req:parent" from a client span to the handler
// wrapper, so the handler's span joins its request's trace.
const spanHeader = "X-Perfbench-Span"

// handlerTimer wraps an http.Handler: it times every request and counts
// the bytes it reads and writes, recording a span when the request
// carries spanHeader.
type handlerTimer struct {
	next http.Handler
	// rec receives the spans; it is set between windows, while requests
	// may still be in flight on other connections.
	rec  atomic.Pointer[recorder]
	name func(r *http.Request) string

	mu sync.Mutex
	// last maps a request ID to its handler duration, for attribution by
	// plan source once the client has decoded the response.
	last map[int64]time.Duration
	// counts holds the request, request-byte and response-byte counters
	// by span name since the last reset.
	counts wireCounts
	// stable makes the wrapper also count each response with its timing
	// fields zeroed, a byte count that repeats exactly across runs.
	stable atomic.Bool
}

// wireCounts counts handled requests and their bytes by span name.
type wireCounts struct {
	calls, reqBytes, respBytes, stableBytes map[string]int64
}

func newWireCounts() wireCounts {
	return wireCounts{calls: map[string]int64{}, reqBytes: map[string]int64{}, respBytes: map[string]int64{}, stableBytes: map[string]int64{}}
}

// timingField matches the microsecond timing fields of node replies,
// whose digits vary from run to run.
var timingField = regexp.MustCompile(`("[a-z_]+_us":)[0-9]+`)

// stableLen is the length of a reply with every timing field set to 0.
func stableLen(body []byte) int64 {
	return int64(len(timingField.ReplaceAll(body, []byte("${1}0"))))
}

func newHandlerTimer(next http.Handler, name func(*http.Request) string) *handlerTimer {
	return &handlerTimer{next: next, name: name, last: map[int64]time.Duration{}, counts: newWireCounts()}
}

// countingWriter counts the body bytes a handler writes, and keeps them
// when keep is set.
type countingWriter struct {
	http.ResponseWriter
	n    int64
	keep bool
	buf  []byte
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	if w.keep {
		w.buf = append(w.buf, p[:n]...)
	}
	return n, err
}

// Flush keeps streaming handlers streaming through the wrapper.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := h.name(r)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	cw := &countingWriter{ResponseWriter: w, keep: h.stable.Load()}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	end := time.Now()
	req, parent, traced := parseSpanHeader(r.Header.Get(spanHeader))
	h.mu.Lock()
	h.counts.calls[name]++
	h.counts.reqBytes[name] += int64(len(body))
	h.counts.respBytes[name] += cw.n
	if cw.keep {
		h.counts.stableBytes[name] += int64(len(body)) + stableLen(cw.buf)
	}
	if traced {
		h.last[req] = end.Sub(start)
	}
	h.mu.Unlock()
	if traced {
		h.rec.Load().add(req, parent, name, start, end)
	}
}

// take returns and forgets the handler duration of request req.
func (h *handlerTimer) take(req int64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.last[req]
	delete(h.last, req)
	return d
}

// reset returns and clears the call and byte counters.
func (h *handlerTimer) reset() wireCounts {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.counts
	h.counts = newWireCounts()
	return c
}

func parseSpanHeader(v string) (req int64, parent int, ok bool) {
	a, b, found := strings.Cut(v, ":")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.ParseInt(a, 10, 64)
	p, err2 := strconv.Atoi(b)
	return req, p, err1 == nil && err2 == nil
}

func spanHeaderValue(req int64, parent int) string {
	return strconv.FormatInt(req, 10) + ":" + strconv.Itoa(parent)
}

// httpSys is the http_planned_rw system: a heap database served by
// internal/server on a loopback listener.
type httpSys struct {
	db    *vxml.Database
	srv   *httptest.Server
	timer *handlerTimer
}

func (s *httpSys) close() { s.srv.Close() }

func buildHTTP(seed int64) (*httpSys, error) {
	db := vxml.Open()
	if err := benchkit.BuildCollectionCorpus(db, httpShape.docs, httpShape.articles, seed); err != nil {
		return nil, err
	}
	s := server.New(db)
	if err := s.DefineView(httpView, benchkit.CollectionView); err != nil {
		return nil, err
	}
	timer := newHandlerTimer(s.Handler(), func(r *http.Request) string {
		if r.Method == http.MethodPut {
			return "server.replace"
		}
		return "server.handler"
	})
	return &httpSys{db: db, srv: httptest.NewServer(timer), timer: timer}, nil
}

// wireResult is one result of a /v1/search response.
type wireResult struct {
	Rank    int            `json:"rank"`
	Score   float64        `json:"score"`
	TF      map[string]int `json:"tf"`
	XML     string         `json:"xml"`
	Snippet string         `json:"snippet"`
}

type wireResponse struct {
	Results []wireResult `json:"results"`
	Stats   struct {
		PlanSource string `json:"plan_source"`
	} `json:"stats"`
}

// httpClient is one closed-loop client with its own connection.
type httpClient struct {
	hc   *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, base: base}
}

// do sends one request and reads the whole body; the latency runs from
// sending to the last byte.
func (c *httpClient) do(method, path string, body any, header string) (int, []byte, time.Duration, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, nil, 0, err
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set(spanHeader, header)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

func searchBody(q query) map[string]any {
	return map[string]any{"view": httpView, "keywords": q.keywords, "top_k": q.topK, "disjunctive": q.disjunctive, "cache": true}
}

// search runs q over HTTP and decodes the answer.
func (c *httpClient) search(q query, header string) (*wireResponse, time.Duration, error) {
	status, data, lat, err := c.do(http.MethodPost, "/v1/search", searchBody(q), header)
	if err != nil {
		return nil, lat, err
	}
	if status != http.StatusOK {
		return nil, lat, fmt.Errorf("search %s: status %d: %s", q, status, bytes.TrimSpace(data))
	}
	var resp wireResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, lat, fmt.Errorf("search %s: decoding: %w", q, err)
	}
	return &resp, lat, nil
}

func (c *httpClient) replace(w write, header string) (time.Duration, error) {
	status, data, lat, err := c.do(http.MethodPut, "/v1/documents/"+w.name, map[string]string{"xml": w.xml}, header)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("replace %s: status %d: %s", w.name, status, bytes.TrimSpace(data))
	}
	return lat, nil
}

func (r *wireResponse) results() []vxml.Result {
	out := make([]vxml.Result, len(r.Results))
	for i, w := range r.Results {
		out[i] = vxml.Result{Rank: w.Rank, Score: w.Score, TF: w.TF, XML: w.XML, Snippet: w.Snippet}
	}
	return out
}

// planSources are the serving tiers a response can report.
var planSources = []string{catalog.PlanDirect, catalog.PlanCacheHit, catalog.PlanRewritten, catalog.PlanMaterialized}

func runHTTPPlanned(cfg *config) (*outcome, error) {
	o := newOutcome(cfg.workload)
	sys, err := measureSetups(o, func() (*httpSys, error) { return buildHTTP(cfg.seed) }, (*httpSys).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	pool := collectionPool(cfg.seed, httpPoolSize, []int{httpTopK})
	o.params["corpus_bytes"] = sys.db.TotalBytes()
	o.params["documents"] = len(sys.db.DocumentNames())
	o.params["clients"] = httpClients
	o.params["write_share"] = 1.0 / httpWriteEvery
	o.params["pool_queries"] = len(pool)
	o.params["zipf_s"] = zipfS

	clients := make([]*httpClient, httpClients)
	for i := range clients {
		clients[i] = newHTTPClient(sys.srv.URL)
		defer clients[i].hc.CloseIdleConnections()
	}
	viaHTTP := func(q query) ([]vxml.Result, error) {
		resp, _, err := clients[0].search(q, "")
		if err != nil {
			return nil, err
		}
		return resp.results(), nil
	}
	or, err := newOracle(cfg.seed, httpShape, nil)
	if err != nil {
		return nil, err
	}
	checkPool(o, "http search", pool, or, viaHTTP)
	or = nil
	if len(o.check.mismatches) > 0 {
		return o, nil
	}

	// The op sequence: op seq is a write when seq%httpWriteEvery is the
	// last slot, else a Zipf draw from the pool. Draws are precomputed so
	// the sequence depends on the seed only.
	picker := newZipfPicker(cfg.seed, len(pool))
	var seqMu sync.Mutex
	draws := []int{}
	drawAt := func(seq int64) int {
		seqMu.Lock()
		defer seqMu.Unlock()
		for int64(len(draws)) <= seq {
			draws = append(draws, picker.next())
		}
		return draws[seq]
	}
	gen := newWriteGen(cfg.seed, httpShape.docs, httpShape.articles, 0)
	log := &writeLog{}
	var srcMu sync.Mutex
	sources := map[string]int{}
	cat0 := sys.db.CacheStats()
	do := func(client int, seq int64) (bool, time.Duration, error) {
		c := clients[client]
		if seq%httpWriteEvery == httpWriteEvery-1 {
			var lat time.Duration
			_, _, err := log.apply(gen, func(w write) error {
				var err error
				lat, err = c.replace(w, "")
				return err
			})
			return true, lat, err
		}
		q := pool[drawAt(seq)]
		resp, lat, err := c.search(q, "")
		if err != nil {
			return false, lat, err
		}
		srcMu.Lock()
		sources[resp.Stats.PlanSource]++
		srcMu.Unlock()
		return false, lat, nil
	}
	untraced := timedWindow(cfg, o, httpClients, do)
	cat1 := sys.db.CacheStats()
	if !cfg.trace {
		o.heapMB = heapMB()
	}
	catalogLayers(o, sources, cat0, cat1, untraced.attempted)

	or, err = newOracle(cfg.seed, httpShape, log.writes)
	if err != nil {
		return nil, err
	}
	checkPool(o, "http search after writes", pool, or, viaHTTP)
	if !cfg.trace {
		return o, nil
	}

	rec := newRecorder()
	sys.timer.rec.Store(rec)
	sys.timer.reset()
	var attrMu sync.Mutex
	bySource := map[string]time.Duration{}
	countBySource := map[string]int{}
	tw := closedLoop(o, httpClients, cfg.seconds/2, 0, func(client int, seq int64) (bool, time.Duration, error) {
		c := clients[client]
		if seq%httpWriteEvery == httpWriteEvery-1 {
			var lat time.Duration
			_, _, err := log.apply(gen, func(w write) error {
				root := rec.begin(seq, -1, "write")
				s := rec.begin(seq, root, "http.client")
				var err error
				lat, err = c.replace(w, spanHeaderValue(seq, s))
				rec.end(s)
				rec.end(root)
				return err
			})
			return true, lat, err
		}
		q := pool[drawAt(seq)]
		root := rec.begin(seq, -1, "search")
		s := rec.begin(seq, root, "http.client")
		status, data, lat, err := c.do(http.MethodPost, "/v1/search", searchBody(q), spanHeaderValue(seq, s))
		rec.end(s)
		rec.end(root)
		if err != nil {
			return false, lat, err
		}
		if status != http.StatusOK {
			return false, lat, fmt.Errorf("search %s: status %d", q, status)
		}
		var resp wireResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return false, lat, err
		}
		d := sys.timer.take(seq)
		attrMu.Lock()
		bySource[resp.Stats.PlanSource] += d
		countBySource[resp.Stats.PlanSource]++
		attrMu.Unlock()
		return false, lat, nil
	})
	sys.timer.rec.Store(nil)
	wire := sys.timer.reset()
	b := breakdown(rec.snapshot())
	n := float64(max(len(tw.searchMs), 1))
	o.layers["http.client_ms"] = b.durPerOp("http.client", "search")
	o.layers["http.transport_ms"] = b.perOp("http.client", "search")
	o.layers["server.handler_ms"] = b.perOp("server.handler", "search")
	for _, src := range planSources {
		if countBySource[src] > 0 {
			o.layers["server.handler_ms."+src] = float64(bySource[src].Nanoseconds()) / 1e6 / float64(countBySource[src])
		}
	}
	o.layers["server.response_bytes_per_search"] = float64(wire.respBytes["server.handler"]) / n
	tracedTotals(o, b, "search", untraced)

	or, err = newOracle(cfg.seed, httpShape, log.writes)
	if err != nil {
		return nil, err
	}
	checkPool(o, "http search after traced writes", pool, or, viaHTTP)
	return o, rec.writeFile(filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)))
}

// catalogLayers fills the catalog metrics from the plan sources the
// responses reported and two CacheStats snapshots.
func catalogLayers(o *outcome, sources map[string]int, a, b catalog.Stats, ops int) {
	total := 0
	for _, n := range sources {
		total += n
	}
	if total > 0 {
		o.layers["catalog.cache_hit_ratio"] = float64(sources[catalog.PlanCacheHit]) / float64(total)
		o.layers["catalog.rewritten_ratio"] = float64(sources[catalog.PlanRewritten]) / float64(total)
		o.layers["catalog.materialized_ratio"] = float64(sources[catalog.PlanMaterialized]) / float64(total)
		o.layers["catalog.direct_ratio"] = float64(sources[catalog.PlanDirect]) / float64(total)
	}
	per1k := func(d int) float64 { return float64(d) * 1000 / float64(max(ops, 1)) }
	o.layers["catalog.invalidations_per_1k_ops"] = per1k(b.Invalidations - a.Invalidations)
	o.layers["catalog.promotions_per_1k_ops"] = per1k(b.Promotions - a.Promotions)
	o.layers["catalog.demotions_per_1k_ops"] = per1k(b.Demotions - a.Demotions)
	o.layers["catalog.evictions_per_1k_ops"] = per1k(b.Evictions - a.Evictions)
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"vxml"
	"vxml/internal/benchkit"
	"vxml/internal/cluster"
	"vxml/internal/store"
)

// cluster_scatter parameters: the collection corpus hash-partitioned by
// part-* over two nodes (authors.xml is broadcast to both).
var clusterShape = collectionShape{docs: 120, articles: 3}

const (
	clusterNodes    = 2
	clusterPoolSize = 24
)

// clusterTopKs are the top-k values of cluster_scatter's pool, cycled:
// every fourth set asks for 50 results, so the median search is a top-10
// one and the tail holds the top-50 searches, rather than the median
// falling between the two.
var clusterTopKs = []int{10, 10, 10, 50}

// spanKey carries a spanCtx through a context.
type spanKey struct{}

type spanCtx struct {
	req    int64
	parent int
}

// spanTransport copies the span context of a request's context into
// spanHeader, so a node's handler wrapper can parent its span under the
// coordinator search that caused it.
type spanTransport struct{ base *http.Transport }

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if sc, ok := r.Context().Value(spanKey{}).(spanCtx); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, spanHeaderValue(sc.req, sc.parent))
	}
	return t.base.RoundTrip(r)
}

// nodeSpanName names a node RPC by its route.
func nodeSpanName(r *http.Request) string {
	_, route, _ := strings.Cut(r.URL.Path, "/cluster/v1/")
	switch route {
	case "rank", "materialize", "search":
		return "cluster.node." + route
	}
	return "cluster.node.admin"
}

// evalRoutes are the node RPCs that evaluate the view.
var evalRoutes = []string{"cluster.node.rank", "cluster.node.materialize", "cluster.node.search"}

type clusterSys struct {
	co        *cluster.Coordinator
	nodes     []*cluster.Node
	srvs      []*httptest.Server
	timers    []*handlerTimer
	transport *http.Transport
	bytes     int
	docs      int
}

func (s *clusterSys) close() {
	for _, srv := range s.srvs {
		srv.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
	s.transport.CloseIdleConnections()
}

// collectionTexts generates the collection corpus with
// benchkit.BuildCollectionCorpus and returns its documents' names and
// texts in ingest order, by saving the heap database and loading it back.
func collectionTexts(seed int64, shape collectionShape, dir string) ([][2]string, error) {
	db := vxml.Open()
	if err := benchkit.BuildCollectionCorpus(db, shape.docs, shape.articles, seed); err != nil {
		return nil, err
	}
	if err := db.Save(dir); err != nil {
		return nil, err
	}
	st, err := store.Load(dir)
	if err != nil {
		return nil, err
	}
	var out [][2]string
	for _, d := range st.Docs() {
		out = append(out, [2]string{d.Name, d.Root.XMLString("")})
	}
	return out, nil
}

func buildCluster(seed int64, dir string) (*clusterSys, error) {
	docs, err := collectionTexts(seed, clusterShape, dir)
	if err != nil {
		return nil, err
	}
	sys := &clusterSys{transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	var cfg cluster.Config
	for i := 0; i < clusterNodes; i++ {
		n := cluster.NewNode()
		t := newHandlerTimer(n.Handler(), nodeSpanName)
		srv := httptest.NewServer(t)
		sys.nodes = append(sys.nodes, n)
		sys.timers = append(sys.timers, t)
		sys.srvs = append(sys.srvs, srv)
		cfg.Slots = append(cfg.Slots, []string{srv.URL})
	}
	cfg.Client = &http.Client{Transport: &spanTransport{base: sys.transport}}
	co, err := cluster.NewCoordinator(cfg)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.co = co
	ctx := context.Background()
	for _, d := range docs {
		if err := co.AddDocument(ctx, d[0], d[1]); err != nil {
			sys.close()
			return nil, err
		}
	}
	if _, err := co.DefineView(ctx, httpView, benchkit.CollectionView); err != nil {
		sys.close()
		return nil, err
	}
	sys.bytes, sys.docs = co.TotalBytes(), len(docs)
	return sys, nil
}

// wire sums and resets the node wrappers' counters.
func (s *clusterSys) wire() wireCounts {
	sum := newWireCounts()
	for _, t := range s.timers {
		c := t.reset()
		for k, v := range c.calls {
			sum.calls[k] += v
		}
		for k, v := range c.reqBytes {
			sum.reqBytes[k] += v
		}
		for k, v := range c.respBytes {
			sum.respBytes[k] += v
		}
		for k, v := range c.stableBytes {
			sum.stableBytes[k] += v
		}
	}
	return sum
}

func (s *clusterSys) search(ctx context.Context, q query) ([]vxml.Result, error) {
	res, _, err := s.co.Search(ctx, httpView, q.keywords, q.options())
	return res, err
}

func runClusterScatter(cfg *config) (*outcome, error) {
	o := newOutcome(cfg.workload)
	n := 0
	sys, err := measureSetups(o, func() (*clusterSys, error) {
		n++
		return buildCluster(cfg.seed, filepath.Join(cfg.dir, fmt.Sprintf("corpus-%d", n)))
	}, (*clusterSys).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	pool := collectionPool(cfg.seed, clusterPoolSize, clusterTopKs)
	o.params["corpus_bytes"] = sys.bytes
	o.params["documents"] = sys.docs
	o.params["clients"] = 1
	o.params["nodes"] = clusterNodes
	o.params["write_share"] = 0.0
	o.params["pool_queries"] = len(pool)
	o.params["top_ks"] = clusterTopKs
	o.params["parallelism"] = 1

	ctx := context.Background()
	search := func(q query) ([]vxml.Result, error) { return sys.search(ctx, q) }
	or, err := newOracle(cfg.seed, clusterShape, nil)
	if err != nil {
		return nil, err
	}
	sys.wire()
	for _, t := range sys.timers {
		t.stable.Store(true)
	}
	checkPool(o, "cluster search", pool, or, search)
	for _, t := range sys.timers {
		t.stable.Store(false)
	}
	w := sys.wire()
	for _, r := range evalRoutes {
		o.counters["node_evals"] += w.calls[r]
		o.counters["wire_bytes"] += w.stableBytes[r]
	}
	for _, q := range pool {
		if _, st, err := sys.co.Search(ctx, httpView, q.keywords, q.options()); err == nil {
			o.counters["pdt_nodes"] += int64(st.PDTNodes)
			o.counters["view_results"] += int64(st.ViewSize)
			o.counters["matched"] += int64(st.Matched)
			o.counters["subtree_fetches"] += int64(st.BaseData)
		}
	}
	if len(o.check.mismatches) > 0 {
		return o, nil
	}

	order := rand.New(rand.NewSource(cfg.seed ^ 0xc105)).Perm(len(pool))
	do := func(_ int, seq int64) (bool, time.Duration, error) {
		q := pool[order[seq%int64(len(order))]]
		start := time.Now()
		_, err := sys.search(ctx, q)
		return false, time.Since(start), err
	}
	untraced := timedWindow(cfg, o, 1, do)
	if !cfg.trace {
		o.heapMB = heapMB()
	}
	checkPool(o, "cluster search after run", pool, or, search)
	if !cfg.trace {
		return o, nil
	}

	rec := newRecorder()
	for _, t := range sys.timers {
		t.rec.Store(rec)
	}
	sys.wire()
	tw := closedLoop(o, 1, cfg.seconds/2, 0, func(_ int, seq int64) (bool, time.Duration, error) {
		q := pool[order[seq%int64(len(order))]]
		start := time.Now()
		root := rec.begin(seq, -1, "search")
		s := rec.begin(seq, root, "cluster.search")
		_, err := sys.search(context.WithValue(ctx, spanKey{}, spanCtx{req: seq, parent: s}), q)
		rec.end(s)
		rec.end(root)
		return false, time.Since(start), err
	})
	for _, t := range sys.timers {
		t.rec.Store(nil)
	}
	w = sys.wire()
	b := breakdown(rec.snapshot())
	searches := float64(max(len(tw.searchMs), 1))
	o.layers["cluster.search_ms"] = b.durPerOp("cluster.search", "search")
	o.layers["cluster.merge_and_network_ms"] = b.perOp("cluster.search", "search")
	o.layers["cluster.node.rank_ms"] = b.perOp("cluster.node.rank", "search")
	o.layers["cluster.node.materialize_ms"] = b.perOp("cluster.node.materialize", "search")
	var rpcs, evals, wireBytes int64
	for name, c := range w.calls {
		rpcs += c
		wireBytes += w.reqBytes[name] + w.respBytes[name]
	}
	for _, r := range evalRoutes {
		evals += w.calls[r]
	}
	o.layers["cluster.rpcs_per_search"] = float64(rpcs) / searches
	o.layers["cluster.node_evals_per_search"] = float64(evals) / searches
	o.layers["cluster.wire_bytes_per_search"] = float64(wireBytes) / searches
	tracedTotals(o, b, "search", untraced)
	checkPool(o, "cluster search after traced run", pool, or, search)
	return o, rec.writeFile(filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)))
}

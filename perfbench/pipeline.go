package main

import (
	"fmt"
	"strings"

	"vxml"
	"vxml/internal/core"
	"vxml/internal/dewey"
	"vxml/internal/diskstore"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/pdt"
	"vxml/internal/qpt"
	"vxml/internal/scoring"
	"vxml/internal/xmltree"
	"vxml/internal/xqeval"
)

// snippetWidth is the excerpt width the engine cuts snippets at; the
// byte-identity check against Database.Search fails if the two differ.
const snippetWidth = 160

// composer runs one keyword search by calling each layer's public
// functions in the engine's sequential order (Parallelism 1), timing every
// call from outside as a span:
//
//  1. planning: Store.InfosMatching plus each document's index handles
//  2. pdt.PrepareLists
//  3. pdt.GenerateFiltered
//  4. xqeval.New(...).Eval
//  5. scoring.Collect and scoring.RankWithStats
//  6. scoring.Materialize, through a timing scoring.Fetcher
//  7. scoring.Snippet
//
// Its output must be byte-identical to Database.Search on the same corpus.
type composer struct {
	eng  *core.Engine
	disk *diskstore.Store // the engine's store when it is on disk, else nil
	rec  *recorder
	// storeSpan names the subtree-fetch spans: "store.subtree" on the heap,
	// "diskstore.subtree" on disk.
	storeSpan string

	// Work counters, summed over every search since the last reset.
	pdtNodes, viewResults, matched, fetches int64
}

func newComposer(eng *core.Engine, disk *diskstore.Store, rec *recorder) *composer {
	c := &composer{eng: eng, disk: disk, rec: rec, storeSpan: "store.subtree"}
	if disk != nil {
		c.storeSpan = "diskstore.subtree"
	}
	return c
}

// unit is one (QPT, candidate document) pair with the document's indices.
type unit struct {
	q    *qpt.QPT
	name string
	pix  *pathindex.Index
	iix  *invindex.Index
}

// search runs q over v as request req.
func (c *composer) search(req int64, v *core.View, q query) ([]vxml.Result, error) {
	rec := c.rec
	root := rec.begin(req, -1, "search")
	defer rec.end(root)
	// Pin like the engine does, so a subtree stays resolvable until
	// materialization is done.
	c.eng.Store.Pin()
	defer c.eng.Store.Unpin()
	kws := make([]string, len(q.keywords))
	for i, k := range q.keywords {
		kws[i] = core.NormalizeKeyword(k)
	}

	sp := rec.begin(req, root, "core.plan")
	c.eng.RLock()
	locked := true
	defer func() {
		if locked {
			c.eng.RUnlock()
		}
	}()
	var units []unit
	for _, qp := range v.QPTs {
		for _, info := range c.eng.Store.InfosMatching(qp.Doc) {
			u := unit{q: qp, name: info.Name}
			if c.disk != nil {
				s := rec.begin(req, sp, "diskstore.stored_indices")
				pix, iix, err := c.disk.StoredIndices(info.Name)
				rec.end(s)
				if err != nil {
					rec.end(sp)
					return nil, fmt.Errorf("indices of %q: %w", info.Name, err)
				}
				u.pix, u.iix = pix, iix
			} else {
				u.pix, u.iix = c.eng.PathIndex(info.Name), c.eng.InvIndex(info.Name)
			}
			units = append(units, u)
		}
	}
	rec.end(sp)

	cat := xqeval.MapCatalog{}
	for _, u := range units {
		if u.pix == nil || u.iix == nil {
			continue
		}
		s := rec.begin(req, root, "pdt.prepare_lists")
		lists := pdt.PrepareLists(u.q, u.pix, u.iix, kws)
		rec.end(s)
		s = rec.begin(req, root, "pdt.generate")
		p := pdt.GenerateFiltered(u.q, lists, u.name, nil)
		rec.end(s)
		if p == nil || p.Doc == nil {
			continue
		}
		cat[p.SourceName] = p.Doc
		c.pdtNodes += int64(p.Nodes)
	}

	s := rec.begin(req, root, "xqeval.eval")
	ev := xqeval.New(cat, v.Funcs)
	ev.HashJoin = true
	items, err := ev.Eval(v.Expr, nil)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("evaluating view: %w", err)
	}
	var results []*xmltree.Node
	for _, it := range items {
		if n, ok := it.(*xmltree.Node); ok {
			results = append(results, n)
		}
	}
	c.viewResults += int64(len(results))

	s = rec.begin(req, root, "scoring.rank")
	stats := make([]scoring.Stats, len(results))
	for i, r := range results {
		stats[i] = scoring.Collect(r, kws, scoring.FromPDT)
	}
	ranking := scoring.RankWithStats(results, stats, kws, !q.disjunctive, q.topK)
	rec.end(s)
	c.matched += int64(ranking.Matched)
	c.eng.RUnlock()
	locked = false

	out := make([]vxml.Result, 0, len(ranking.Results))
	for i, sc := range ranking.Results {
		s := rec.begin(req, root, "scoring.materialize")
		elem := scoring.Materialize(sc.Result, &timedFetcher{c: c, req: req, parent: s})
		rec.end(s)
		s = rec.begin(req, root, "scoring.snippet")
		snippet := scoring.Snippet(elem, kws, snippetWidth)
		rec.end(s)
		s = rec.begin(req, root, "xmltree.serialize")
		xml := elem.XMLString("")
		rec.end(s)
		tf := make(map[string]int, len(q.keywords))
		for j, k := range q.keywords {
			if j < len(sc.Stats.TFs) {
				tf[k] = sc.Stats.TFs[j]
			}
		}
		out = append(out, vxml.Result{Rank: i + 1, Score: sc.Score, TF: tf, XML: xml, Snippet: snippet})
	}
	return out, nil
}

// timedFetcher times every base-data fetch of one materialization as a
// span under it and counts the fetches.
type timedFetcher struct {
	c      *composer
	req    int64
	parent int
}

func (f *timedFetcher) Subtree(id dewey.ID) *xmltree.Node {
	s := f.c.rec.begin(f.req, f.parent, f.c.storeSpan)
	n := f.c.eng.Store.Subtree(id)
	f.c.rec.end(s)
	if n != nil {
		f.c.fetches++
	}
	return n
}

// spanLayers fills every per-layer "<span>_ms" metric that a span of that
// name measured, as self time per search.
func spanLayers(o *outcome, b *layerBreakdown) {
	for _, m := range layerMetrics {
		name, ok := strings.CutSuffix(m.name, "_ms")
		if !ok || b.count["search/"+name] == 0 {
			continue
		}
		o.layers[m.name] = b.perOp(name, "search")
	}
}

// composedCounters fills the per-search work counters of a traced window.
func (c *composer) composedCounters(o *outcome, searches int, probes0, lookups0, bytes0 int) {
	n := float64(max(searches, 1))
	probes, lookups := c.eng.IndexProbes()
	o.layers["pdt.nodes_per_search"] = float64(c.pdtNodes) / n
	o.layers["xqeval.view_results_per_search"] = float64(c.viewResults) / n
	o.layers["scoring.matched_per_search"] = float64(c.matched) / n
	o.layers["store.subtree_fetches_per_search"] = float64(c.fetches) / n
	o.layers["pathindex.probes_per_search"] = float64(probes-probes0) / n
	o.layers["invindex.lookups_per_search"] = float64(lookups-lookups0) / n
	o.layers["store.bytes_fetched_per_search"] = float64(c.eng.Store.BytesFetched()-bytes0) / n
}

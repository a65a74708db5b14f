package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"vxml"
	"vxml/internal/core"
	"vxml/internal/inex"
	"vxml/internal/store"
)

// paper_direct parameters. The corpus is Table 1's default of five data
// units, with the unit scaled to 160 KiB so that one client completes the
// thousand searches a p99 needs in well under the run length.
const (
	paperUnitBytes = 160 << 10
	paperTopK      = 10
)

// paperSys is the paper_direct system: a heap database over the INEX-like
// corpus with one view per nesting level.
type paperSys struct {
	db    *vxml.Database
	views []*vxml.View
	texts []string // view definitions, by nesting level
	docs  [][2]string
}

func buildPaper(seed int64) (*paperSys, error) {
	p := paperParams(seed)
	corpus := inex.Generate(inex.Options{TargetBytes: p.TargetBytes(), Seed: p.Seed, Partitions: p.JoinPartitions, ElemSizeX: p.ElemSizeX})
	// A store assigns IDs and byte lengths before serializing, as the
	// inexsearch example does.
	st := store.New()
	for _, doc := range corpus.Docs() {
		st.AddParsed(doc)
	}
	sys := &paperSys{db: vxml.Open()}
	for _, doc := range st.Docs() {
		text := doc.Root.XMLString("")
		if err := sys.db.Add(doc.Name, text); err != nil {
			return nil, err
		}
		sys.docs = append(sys.docs, [2]string{doc.Name, text})
	}
	for _, n := range paperNestings {
		p.Nesting = n
		v, err := sys.db.DefineView(p.ViewText())
		if err != nil {
			return nil, fmt.Errorf("view at nesting %d: %w", n, err)
		}
		sys.views = append(sys.views, v)
		sys.texts = append(sys.texts, p.ViewText())
	}
	return sys, nil
}

func runPaperDirect(cfg *config) (*outcome, error) {
	o := newOutcome(cfg.workload)
	sys, err := measureSetups(o, func() (*paperSys, error) { return buildPaper(cfg.seed) }, func(*paperSys) {})
	if err != nil {
		return nil, err
	}
	pool := paperPool(cfg.seed)
	o.params["corpus_bytes"] = sys.db.TotalBytes()
	o.params["documents"] = len(sys.db.DocumentNames())
	o.params["clients"] = 1
	o.params["write_share"] = 0.0
	o.params["pool_queries"] = len(pool)
	o.params["nestings"] = paperNestings
	o.params["unit_bytes"] = paperUnitBytes
	o.params["top_k"] = paperTopK
	o.params["parallelism"] = 1

	// Every distinct query is checked once against the Baseline pipeline,
	// which materializes the whole view: Theorem 4.1 says the answers are
	// byte-identical. The verified answers' digests then check every timed
	// search.
	want := make([]uint64, len(pool))
	for i, q := range pool {
		got, st, err := sys.db.Search(sys.views[q.view], q.keywords, q.options())
		if err != nil {
			o.check.fail("efficient search", q, err)
			continue
		}
		opts := q.options()
		opts.Approach = vxml.Baseline
		base, _, err := sys.db.Search(sys.views[q.view], q.keywords, opts)
		if err != nil {
			o.check.fail("baseline search", q, err)
			continue
		}
		// The Baseline comparator reports no snippets, by design; every
		// other byte of the answer must agree.
		o.check.compare("efficient vs baseline", q, withoutSnippets(got), base)
		want[i] = digest(got)
		o.counters["pdt_nodes"] += int64(st.PDTNodes)
		o.counters["view_results"] += int64(st.ViewSize)
		o.counters["matched"] += int64(st.Matched)
		o.counters["subtree_fetches"] += int64(st.BaseData)
	}
	if len(o.check.mismatches) > 0 {
		return o, nil
	}

	order := rand.New(rand.NewSource(cfg.seed ^ 0x0de7)).Perm(len(pool))
	do := func(_ int, seq int64) (bool, time.Duration, error) {
		i := order[seq%int64(len(order))]
		q := pool[i]
		start := time.Now()
		res, _, err := sys.db.Search(sys.views[q.view], q.keywords, q.options())
		lat := time.Since(start)
		if err != nil {
			return false, lat, err
		}
		if digest(res) != want[i] {
			return false, lat, fmt.Errorf("%s: query %s: answer differs from the verified one", cfg.workload, q)
		}
		return false, lat, nil
	}
	if !cfg.trace {
		timedWindow(cfg, o, 1, do)
		o.heapMB = heapMB()
		runtime.KeepAlive(sys)
		return o, nil
	}

	// The traced run composes each search from the layers over an engine
	// built from the same documents in the same order. It is built before
	// the untraced window, so both windows run with the same live heap.
	eng := core.New(store.New())
	for _, d := range sys.docs {
		if err := eng.AddXML(d[0], d[1]); err != nil {
			return nil, err
		}
	}
	var views []*core.View
	for _, t := range sys.texts {
		v, err := eng.CompileView(t)
		if err != nil {
			return nil, err
		}
		views = append(views, v)
	}
	untraced := timedWindow(cfg, o, 1, do)
	verifyComposed(o, newComposer(eng, nil, nil), pool, func(q query) ([]vxml.Result, error) {
		res, _, err := sys.db.Search(sys.views[q.view], q.keywords, q.options())
		return res, err
	}, views)

	rec := newRecorder()
	c := newComposer(eng, nil, rec)
	probes0, lookups0 := eng.IndexProbes()
	bytes0 := eng.Store.BytesFetched()
	tw := closedLoop(o, 1, cfg.seconds/2, 0, func(_ int, seq int64) (bool, time.Duration, error) {
		i := order[seq%int64(len(order))]
		q := pool[i]
		start := time.Now()
		res, err := c.search(seq, views[q.view], q)
		lat := time.Since(start)
		if err != nil {
			return false, lat, err
		}
		if digest(res) != want[i] {
			return false, lat, fmt.Errorf("%s: composed query %s: answer differs from the verified one", cfg.workload, q)
		}
		return false, lat, nil
	})
	b := breakdown(rec.snapshot())
	spanLayers(o, b)
	c.composedCounters(o, len(tw.searchMs), probes0, lookups0, bytes0)
	tracedTotals(o, b, "search", untraced)
	return o, rec.writeFile(filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)))
}

// verifyComposed checks, for every pool query, that the composed pipeline
// answers byte-identically to Database.Search.
func verifyComposed(o *outcome, c *composer, pool []query, search func(query) ([]vxml.Result, error), views []*core.View) {
	for _, q := range pool {
		want, err := search(q)
		if err != nil {
			o.check.fail("Database.Search", q, err)
			continue
		}
		got, err := c.search(-1, views[q.view], q)
		if err != nil {
			o.check.fail("composed search", q, err)
			continue
		}
		o.check.compare("composed pipeline vs Database.Search", q, got, want)
	}
}

package main

import (
	"fmt"
	"sync"
	"time"

	"vxml"
	"vxml/internal/benchkit"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/xmltree"
)

// collectionShape is the size of a collection corpus: docs part-*
// documents of articles articles each, plus authors.xml.
type collectionShape struct{ docs, articles int }

// heapCollection builds the heap database of a collection corpus and
// defines benchkit.CollectionView over it.
func heapCollection(seed int64, shape collectionShape) (*vxml.Database, *vxml.View, error) {
	db := vxml.Open()
	if err := benchkit.BuildCollectionCorpus(db, shape.docs, shape.articles, seed); err != nil {
		return nil, nil, err
	}
	v, err := db.DefineView(benchkit.CollectionView)
	return db, v, err
}

// writeLog records the writes a read-write workload applied, in the order
// they were applied, so the oracle can replay them.
type writeLog struct {
	mu     sync.Mutex
	writes []write
}

// apply draws the next write from gen, performs it through fn and logs
// it, holding the log's lock so that, even with several clients, the
// generator is used by one client at a time and the drawn, applied and
// logged orders are one.
func (l *writeLog) apply(gen *writeGen, fn func(write) error) (write, time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := gen.next()
	start := time.Now()
	err := fn(w)
	lat := time.Since(start)
	if err == nil {
		l.writes = append(l.writes, w)
	}
	return w, lat, err
}

// oracle is the reference for the read-write and cluster workloads: a heap
// database, uncached and sequential, holding the same corpus with the same
// writes applied in the same order.
type oracle struct {
	db   *vxml.Database
	view *vxml.View
}

func newOracle(seed int64, shape collectionShape, writes []write) (*oracle, error) {
	db, v, err := heapCollection(seed, shape)
	if err != nil {
		return nil, err
	}
	for _, w := range writes {
		if err := w.apply(db); err != nil {
			return nil, fmt.Errorf("oracle replaying write to %s: %w", w.name, err)
		}
	}
	return &oracle{db: db, view: v}, nil
}

func (or *oracle) search(q query) ([]vxml.Result, error) {
	res, _, err := or.db.Search(or.view, q.keywords, q.options())
	return res, err
}

// checkPool compares the answer of every pool query with the oracle's, at
// a quiesce point (no operation in flight).
func checkPool(o *outcome, what string, pool []query, or *oracle, got func(query) ([]vxml.Result, error)) {
	for _, q := range pool {
		want, err := or.search(q)
		if err != nil {
			o.check.fail("oracle", q, err)
			continue
		}
		res, err := got(q)
		if err != nil {
			o.check.fail(what, q, err)
			continue
		}
		o.check.compare(what+" vs oracle", q, res, want)
	}
}

// timeIngest times, outside any operation, the parse and the two index
// builds a write's text costs, as one "ingest" root span.
func timeIngest(rec *recorder, req int64, w write) error {
	root := rec.begin(req, -1, "ingest")
	defer rec.end(root)
	s := rec.begin(req, root, "xmltree.parse")
	doc, err := xmltree.ParseString(w.xml, w.name, 0)
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin(req, root, "pathindex.build")
	pathindex.Build(doc)
	rec.end(s)
	s = rec.begin(req, root, "invindex.build")
	invindex.Build(doc)
	rec.end(s)
	return nil
}

// ingestLayers fills the per-write ingest and replace metrics.
func ingestLayers(o *outcome, b *layerBreakdown) {
	for _, name := range []string{"xmltree.parse", "pathindex.build", "invindex.build"} {
		o.layers[name+"_ms"] = b.perOp(name, "ingest")
	}
	o.layers["vxml.replace_ms"] = b.perOp("vxml.replace", "write")
}

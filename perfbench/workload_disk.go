package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"vxml"
	"vxml/internal/benchkit"
	"vxml/internal/core"
	"vxml/internal/diskstore"
)

// disk_direct_rw parameters. Its document count is above the disk store's
// default document cache (64) and index cache (256), so every search
// decodes indices that the caches cannot hold.
var diskShape = collectionShape{docs: 270, articles: 1}

const (
	diskPoolSize = 24
	diskTopK     = 10
	// diskWriteEvery makes every diskWriteEvery-th op a write.
	diskWriteEvery = 10
	// diskDeleteEvery makes every diskDeleteEvery-th write a delete plus
	// re-add.
	diskDeleteEvery = 5
)

type diskSys struct {
	db   *vxml.Database
	view *vxml.View
	dir  string
}

func (s *diskSys) close() {
	s.db.Close()
	os.RemoveAll(s.dir)
}

func buildDisk(seed int64, dir string) (*diskSys, error) {
	db, err := vxml.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	if err := benchkit.BuildCollectionCorpus(db, diskShape.docs, diskShape.articles, seed); err != nil {
		db.Close()
		return nil, err
	}
	v, err := db.DefineView(benchkit.CollectionView)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &diskSys{db: db, view: v, dir: dir}, nil
}

func runDiskDirect(cfg *config) (*outcome, error) {
	o := newOutcome(cfg.workload)
	n := 0
	sys, err := measureSetups(o, func() (*diskSys, error) {
		n++
		return buildDisk(cfg.seed, filepath.Join(cfg.dir, fmt.Sprintf("disk-%d", n)))
	}, (*diskSys).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	pool := collectionPool(cfg.seed, diskPoolSize, []int{diskTopK})
	o.params["corpus_bytes"] = sys.db.TotalBytes()
	o.params["documents"] = len(sys.db.DocumentNames())
	o.params["clients"] = 1
	o.params["write_share"] = 1.0 / diskWriteEvery
	o.params["delete_share_of_writes"] = 1.0 / diskDeleteEvery
	o.params["pool_queries"] = len(pool)
	o.params["parallelism"] = 1

	search := func(q query) ([]vxml.Result, error) {
		res, _, err := sys.db.Search(sys.view, q.keywords, q.options())
		return res, err
	}
	or, err := newOracle(cfg.seed, diskShape, nil)
	if err != nil {
		return nil, err
	}
	checkPool(o, "disk search", pool, or, search)
	for _, q := range pool {
		if _, st, err := sys.db.Search(sys.view, q.keywords, q.options()); err == nil {
			o.counters["pdt_nodes"] += int64(st.PDTNodes)
			o.counters["view_results"] += int64(st.ViewSize)
			o.counters["matched"] += int64(st.Matched)
			o.counters["subtree_fetches"] += int64(st.BaseData)
		}
	}
	or = nil
	if len(o.check.mismatches) > 0 {
		return o, nil
	}

	log := &writeLog{}
	gen := newWriteGen(cfg.seed, diskShape.docs, diskShape.articles, diskDeleteEvery)
	order := rand.New(rand.NewSource(cfg.seed ^ 0xd15c)).Perm(len(pool))
	before, _ := sys.db.DiskStats()
	do := func(_ int, seq int64) (bool, time.Duration, error) {
		if seq%diskWriteEvery == diskWriteEvery-1 {
			_, lat, err := log.apply(gen, func(w write) error { return w.apply(sys.db) })
			return true, lat, err
		}
		q := pool[order[seq%int64(len(order))]]
		start := time.Now()
		_, _, err := sys.db.Search(sys.view, q.keywords, q.options())
		return false, time.Since(start), err
	}
	untraced := timedWindow(cfg, o, 1, do)
	after, _ := sys.db.DiskStats()
	if !cfg.trace {
		o.heapMB = heapMB()
	}
	if writes := float64(len(untraced.writeMs)); writes > 0 {
		o.layers["diskstore.data_bytes_per_write"] = float64(after.DataBytes-before.DataBytes) / writes
		o.layers["diskstore.manifest_bytes_per_write"] = float64(after.ManifestBytes-before.ManifestBytes) / writes
	}
	o.layers["disk_bytes_per_user_byte"] = float64(after.DataBytes+after.ManifestBytes) / float64(after.TotalBytes)

	or, err = newOracle(cfg.seed, diskShape, log.writes)
	if err != nil {
		return nil, err
	}
	checkPool(o, "disk search after writes", pool, or, search)
	if !cfg.trace {
		return o, nil
	}

	// The traced run composes searches over a second disk store holding the
	// same corpus (the oracle's, saved to disk); every write goes to both
	// stores and to the oracle.
	tdir := filepath.Join(cfg.dir, "traced")
	if err := or.db.SaveDisk(tdir); err != nil {
		return nil, err
	}
	ds, err := diskstore.Open(tdir)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	eng := core.New(ds)
	view, err := eng.CompileView(benchkit.CollectionView)
	if err != nil {
		return nil, err
	}
	views := []*core.View{view}
	verifyComposed(o, newComposer(eng, ds, nil), pool, search, views)

	rec := newRecorder()
	c := newComposer(eng, ds, rec)
	probes0, lookups0 := eng.IndexProbes()
	bytes0 := eng.Store.BytesFetched()
	ds0 := ds.DiskStats()
	tw := closedLoop(o, 1, cfg.seconds/2, 0, func(_ int, seq int64) (bool, time.Duration, error) {
		if seq%diskWriteEvery == diskWriteEvery-1 {
			root := rec.begin(seq, -1, "write")
			s := rec.begin(seq, root, "vxml.replace")
			w, lat, err := log.apply(gen, func(w write) error { return w.apply(sys.db) })
			rec.end(s)
			rec.end(root)
			if err != nil {
				return true, lat, err
			}
			if err := mirrorWrite(eng, w); err != nil {
				return true, lat, err
			}
			if err := w.apply(or.db); err != nil {
				return true, lat, err
			}
			return true, lat, timeIngest(rec, seq, w)
		}
		q := pool[order[seq%int64(len(order))]]
		start := time.Now()
		_, err := c.search(seq, view, q)
		return false, time.Since(start), err
	})
	ds1 := ds.DiskStats()
	b := breakdown(rec.snapshot())
	spanLayers(o, b)
	ingestLayers(o, b)
	c.composedCounters(o, len(tw.searchMs), probes0, lookups0, bytes0)
	diskCacheLayers(o, ds0, ds1, len(tw.searchMs))
	tracedTotals(o, b, "search", untraced)
	checkPool(o, "disk search after traced writes", pool, or, search)
	verifyComposed(o, newComposer(eng, ds, nil), pool, search, views)
	return o, rec.writeFile(filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)))
}

// mirrorWrite applies w to a bare engine, as Database would.
func mirrorWrite(eng *core.Engine, w write) error {
	if w.delete {
		if err := eng.Delete(w.name); err != nil {
			return err
		}
		return eng.AddXML(w.name, w.xml)
	}
	return eng.ReplaceXML(w.name, w.xml)
}

// diskCacheLayers fills the disk cache metrics from two stats snapshots.
func diskCacheLayers(o *outcome, a, b diskstore.Stats, searches int) {
	ratio := func(x, y diskstore.CacheStats) float64 {
		hits, misses := y.Hits-x.Hits, y.Misses-x.Misses
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	o.layers["diskstore.block_hit_ratio"] = ratio(a.BlockCache, b.BlockCache)
	o.layers["diskstore.doc_hit_ratio"] = ratio(a.DocCache, b.DocCache)
	o.layers["diskstore.index_hit_ratio"] = ratio(a.IndexCache, b.IndexCache)
	o.layers["diskstore.block_misses_per_search"] = float64(b.BlockCache.Misses-a.BlockCache.Misses) / float64(max(searches, 1))
}

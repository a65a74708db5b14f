package main

import (
	"testing"

	"vxml"
	"vxml/internal/benchkit"
)

// TestPermutedCacheHitDivergence pins a known divergence that the
// http_planned_rw oracle check reported on some seeds while the collection
// pools could send one keyword set in two orders: the query-result cache
// shares one entry across permutations of a keyword set, but a score is a
// float64 sum over the keywords in the order given, so with three keywords
// the entry computed for one order can differ in the last bits from the
// uncached answer for another order. Options.Cache documents the two as
// identical. When this test fails, the divergence is fixed: turn it into an
// equality test.
func TestPermutedCacheHitDivergence(t *testing.T) {
	db := vxml.Open()
	if err := benchkit.BuildCollectionCorpus(db, 400, 4, 13); err != nil {
		t.Fatal(err)
	}
	v, err := db.DefineView(benchkit.CollectionView)
	if err != nil {
		t.Fatal(err)
	}
	first := []string{"granite", "quartz", "archive"}
	second := []string{"quartz", "archive", "granite"}
	if _, _, err := db.Search(v, first, &vxml.Options{TopK: 20, Parallelism: 1, Cache: true}); err != nil {
		t.Fatal(err)
	}
	hit, st, err := db.Search(v, second, &vxml.Options{TopK: 20, Parallelism: 1, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Fatal("the permuted keyword set missed the cache")
	}
	direct, _, err := db.Search(v, second, &vxml.Options{TopK: 20, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := diff(hit, direct)
	if d == "" {
		t.Fatal("permuted cache hit is now byte-identical to the uncached search: the divergence is fixed; make this an equality test")
	}
	t.Logf("known divergence: %s", d)
}

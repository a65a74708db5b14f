package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vxml"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if got := samplesFor(0.99); got != 1000 {
		t.Fatalf("samplesFor(0.99) = %d, want 1000", got)
	}
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the function must sort
		}
		return xs
	}
	if _, err := tailPercentile(mk(999), 0.99); err == nil {
		t.Fatal("p99 over 999 samples accepted; it has only 9 samples beyond it")
	}
	v, err := tailPercentile(mk(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 over 1000 samples: %v", err)
	}
	// Nearest rank 990 of 1..1000; exactly ten samples (991..1000) lie above.
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", v)
	}
	if _, err := tailPercentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolates)
	q1, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v, want 5.5", m)
	}
	if s := spread(xs); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("spread = %v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "search", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a (parallel calls)
		{Name: "c", Parent: 0, Start: 90, End: 120}, // outlives its parent
		{Name: "d", Parent: 1, Start: 12, End: 18},  // grandchild
		{Name: "open", Parent: 0, Start: 60, End: -1},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the root: 50 of 100.
	want := []int64{50, 14, 30, 30, 6, 0}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	b := breakdown(spans)
	if got := b.unaccounted("search"); got != 0.5 {
		t.Fatalf("unaccounted = %v, want 0.5", got)
	}
	if got := b.perOp("a", "search"); got != 14e-6 {
		t.Fatalf("perOp(a) = %v ms, want 14e-6", got)
	}
	if got := b.durPerOp("a", "search"); got != 20e-6 {
		t.Fatalf("durPerOp(a) = %v ms, want 20e-6", got)
	}
	if got := b.meanMs("search"); got != 100e-6 {
		t.Fatalf("meanMs = %v, want 100e-6", got)
	}
	// Layer self times and the root's own self time add up to the root's
	// duration when siblings do not overlap and no child outlives the root.
	spans[2].Start = 30
	spans[3].End = 100
	b = breakdown(spans)
	var sum int64
	for _, v := range b.self {
		sum += v
	}
	if sum+b.rootSelf["search"] != b.rootTotal["search"] {
		t.Fatalf("self times %d + root self %d != root total %d", sum, b.rootSelf["search"], b.rootTotal["search"])
	}
}

func TestSpanKeysSeparateOperationKinds(t *testing.T) {
	spans := []span{
		{Name: "search", Parent: -1, Start: 0, End: 10},
		{Name: "http.client", Parent: 0, Start: 1, End: 9},
		{Name: "write", Parent: -1, Start: 20, End: 40},
		{Name: "http.client", Parent: 2, Start: 21, End: 39},
	}
	b := breakdown(spans)
	if got := b.perOp("http.client", "search"); got != 8e-6 {
		t.Fatalf("search-side http.client = %v, want 8e-6 (write spans must not leak in)", got)
	}
	if got := b.perOp("http.client", "write"); got != 18e-6 {
		t.Fatalf("write-side http.client = %v, want 18e-6", got)
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var r *recorder
	id := r.begin(1, -1, "x")
	r.end(id)
	if id != -1 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	r = newRecorder()
	root := r.begin(7, -1, "search")
	child := r.begin(7, root, "pdt.generate")
	r.end(child)
	r.end(root)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[1].Req != 7 || got[0].End < got[1].End {
		t.Fatalf("spans = %+v", got)
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	if !reflect.DeepEqual(paperPool(5), paperPool(5)) {
		t.Fatal("paperPool differs for one seed")
	}
	if reflect.DeepEqual(paperPool(5), paperPool(6)) {
		t.Fatal("paperPool ignores the seed")
	}
	if n := len(paperPool(5)); n != len(paperNestings)*3*2*3 {
		t.Fatalf("paperPool has %d queries, want one per stratum", n)
	}
	if !reflect.DeepEqual(collectionPool(5, 24, []int{10, 50}), collectionPool(5, 24, []int{10, 50})) {
		t.Fatal("collectionPool differs for one seed")
	}
	if reflect.DeepEqual(collectionPool(5, 24, []int{10, 50}), collectionPool(6, 24, []int{10, 50})) {
		t.Fatal("collectionPool ignores the seed")
	}
	// Slot by slot, every seed's collection pool has the same keyword
	// count, number of frequent words, semantics and top-k.
	frequent, _ := collectionWords()
	stratum := func(q query) [4]int {
		nFrequent := 0
		for _, w := range q.keywords {
			if slices.Contains(frequent, w) {
				nFrequent++
			}
		}
		disj := 0
		if q.disjunctive {
			disj = 1
		}
		return [4]int{len(q.keywords), nFrequent, disj, q.topK}
	}
	a, b := collectionPool(5, 48, []int{10, 10, 10, 50}), collectionPool(6, 48, []int{10, 10, 10, 50})
	for i := range a {
		if stratum(a[i]) != stratum(b[i]) {
			t.Fatalf("pool slot %d: %v on seed 5, %v on seed 6", i, a[i], b[i])
		}
	}
	// A keyword set is sent in one order only.
	for seed := int64(1); seed <= 30; seed++ {
		order := map[string]string{}
		for _, q := range collectionPool(seed, 48, []int{10}) {
			key := strings.Join(slices.Sorted(slices.Values(q.keywords)), " ")
			got := strings.Join(q.keywords, " ")
			if prev, ok := order[key]; ok && prev != got {
				t.Fatalf("seed %d: keyword set sent as %q and as %q", seed, prev, got)
			}
			order[key] = got
		}
	}
	g1, g2 := newWriteGen(9, 50, 2, 5), newWriteGen(9, 50, 2, 5)
	for i := 0; i < 20; i++ {
		a, b := g1.next(), g2.next()
		if a != b {
			t.Fatalf("write %d differs for one seed", i)
		}
		if a.delete != ((i+1)%5 == 0) {
			t.Fatalf("write %d: delete = %v", i, a.delete)
		}
	}
	z1, z2 := newZipfPicker(3, 48), newZipfPicker(3, 48)
	counts := map[int]int{}
	for i := 0; i < 2000; i++ {
		a := z1.next()
		if a != z2.next() {
			t.Fatal("zipf draws differ for one seed")
		}
		counts[a]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if top < 2000/10 {
		t.Fatalf("most frequent query drawn %d/2000 times; the draw is not skewed", top)
	}
}

func TestMismatchDetectorFires(t *testing.T) {
	want := []vxml.Result{
		{Rank: 1, Score: 0.5, TF: map[string]int{"copper": 2}, XML: "<rec>copper copper</rec>", Snippet: "copper copper"},
		{Rank: 2, Score: 0.25, TF: map[string]int{"copper": 1}, XML: "<rec>copper</rec>", Snippet: "copper"},
	}
	clone := func() []vxml.Result {
		out := append([]vxml.Result(nil), want...)
		for i := range out {
			out[i].TF = map[string]int{"copper": want[i].TF["copper"]}
		}
		return out
	}
	q := query{keywords: []string{"copper"}, topK: 10}
	corruptions := map[string]func([]vxml.Result) []vxml.Result{
		"score": func(r []vxml.Result) []vxml.Result {
			r[1].Score = math.Nextafter(r[1].Score, 1)
			return r
		},
		"snippet": func(r []vxml.Result) []vxml.Result { r[0].Snippet += " "; return r },
		"xml":     func(r []vxml.Result) []vxml.Result { r[1].XML = "<rec>quartz</rec>"; return r },
		"tf":      func(r []vxml.Result) []vxml.Result { r[0].TF["copper"] = 3; return r },
		"rank":    func(r []vxml.Result) []vxml.Result { r[0].Rank = 2; return r },
		"missing": func(r []vxml.Result) []vxml.Result { return r[:1] },
	}
	for name, corrupt := range corruptions {
		c := &checker{workload: "w"}
		if c.compare("test", q, corrupt(clone()), want) {
			t.Errorf("%s corruption not detected", name)
		}
		if len(c.mismatches) != 1 || !strings.Contains(c.mismatches[0], "w: test: query view0[copper and k=10]") {
			t.Errorf("%s: mismatch report %q does not name the workload and query", name, c.mismatches)
		}
		if digest(corrupt(clone())) == digest(want) {
			t.Errorf("%s corruption has the verified digest", name)
		}
	}
	c := &checker{workload: "w"}
	if !c.compare("test", q, clone(), want) || len(c.mismatches) != 0 || c.compared != 1 {
		t.Fatalf("identical answers reported as a mismatch: %v", c.mismatches)
	}
	if c.compare("test", q, withoutSnippets(clone()), want) {
		t.Fatal("cleared snippets not detected")
	}
}

func TestCompareVerdicts(t *testing.T) {
	old := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	faster := make([]float64, len(old))
	same := make([]float64, len(old))
	slower := make([]float64, len(old))
	for i, v := range old {
		faster[i], same[i], slower[i] = v*0.8, v, v*1.3
	}
	if c := compareMetric(old, faster, true, 0.1); c.verdict != verdictImproved || c.winFrac != 1 {
		t.Fatalf("20%% faster: %+v", c)
	}
	if c := compareMetric(old, same, true, 0.1); c.verdict != verdictNoWorse {
		t.Fatalf("same: %+v", c)
	}
	if c := compareMetric(old, slower, true, 0.1); c.verdict != verdictRegressed {
		t.Fatalf("30%% slower: %+v", c)
	}
	// Higher-is-better metrics invert the direction.
	if c := compareMetric(old, slower, false, 0.1); c.verdict != verdictImproved {
		t.Fatalf("30%% more throughput: %+v", c)
	}
	noisy := []float64{5, 15, 7, 13, 10, 6, 14, 8, 12, 10}
	if c := compareMetric(noisy, same, true, 0.1); c.verdict != verdictUnresolved {
		t.Fatalf("spread wider than the bound: %+v", c)
	}
	// A noisy old side does not hide a slowdown that every run shows.
	muchSlower := make([]float64, len(noisy))
	for i := range muchSlower {
		muchSlower[i] = 30 + float64(i)
	}
	if c := compareMetric(noisy, muchSlower, true, 0.1); c.verdict != verdictRegressed {
		t.Fatalf("noisy old side, every new run slower: %+v", c)
	}
}

func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s, the program reports %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

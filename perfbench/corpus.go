package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"vxml"
	"vxml/internal/benchkit"
)

// query is one keyword search of a workload's pool.
type query struct {
	view        int // index into the workload's views
	keywords    []string
	disjunctive bool
	topK        int
}

func (q query) String() string {
	sem := "and"
	if q.disjunctive {
		sem = "or"
	}
	return fmt.Sprintf("view%d[%s %s k=%d]", q.view, strings.Join(q.keywords, ","), sem, q.topK)
}

// options returns the library options for q: uncached and sequential
// (Parallelism 1), the engine order the traced run composes and the
// oracle's settings.
func (q query) options() *vxml.Options {
	return &vxml.Options{TopK: q.topK, Disjunctive: q.disjunctive, Parallelism: 1}
}

// pick returns n distinct words of words, chosen by rng.
func pick(rng *rand.Rand, words []string, n int) []string {
	idx := rng.Perm(len(words))[:n]
	out := make([]string, n)
	for i, j := range idx {
		out[i] = words[j]
	}
	return out
}

// paperNestings are the view nesting levels of the paper_direct workload.
var paperNestings = []int{1, 2, 3}

// paperParams returns Table 1's default parameters with the seed and the
// size unit of the paper_direct workload.
func paperParams(seed int64) benchkit.Params {
	p := benchkit.Default()
	p.UnitBytes = paperUnitBytes
	p.Seed = seed
	return p
}

// paperPool is the stratified query pool of paper_direct: every view ×
// selectivity class × semantics × keyword count (1-3) appears once, with
// the words of each cell drawn from the class by the seed. Stratifying
// keeps the pool's cost mix the same for every seed, so runs on different
// seeds measure the same thing.
func paperPool(seed int64) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var pool []query
	for v := range paperNestings {
		for _, class := range []string{"low", "medium", "high"} {
			words := benchkit.Params{Selectivity: class, NumKeywords: 5}.Keywords()
			for _, disj := range []bool{false, true} {
				for n := 1; n <= 3; n++ {
					pool = append(pool, query{view: v, keywords: pick(rng, words, n), disjunctive: disj, topK: paperTopK})
				}
			}
		}
	}
	return pool
}

// collectionWords splits the distinct words of the collection corpora by
// frequency: a word listed twice in benchkit.CollectionVocabulary (the
// planted terms) occurs twice as often as the others.
func collectionWords() (frequent, rare []string) {
	count := map[string]int{}
	var order []string
	for _, w := range benchkit.CollectionVocabulary {
		if count[w] == 0 {
			order = append(order, w)
		}
		count[w]++
	}
	for _, w := range order {
		if count[w] > 1 {
			frequent = append(frequent, w)
		} else {
			rare = append(rare, w)
		}
	}
	return frequent, rare
}

// collectionPool returns size keyword sets over the collection vocabulary,
// stratified so that every seed has the same cost mix: keyword counts
// cycle 1, 2, 3, semantics alternate every three sets, the number of
// frequent words in a set cycles every six sets through what its keyword
// count allows, and top-k cycles through topKs. The seed draws only the
// words within each stratum and their order.
//
// A keyword set that several slots draw keeps the word order of its first
// slot, so the pool sends each set in one order only. The query cache
// shares one entry among the permutations of a set while scores are summed
// in keyword order; TestPermutedCacheHitDivergence pins that divergence,
// which the oracle checks would otherwise report on some seeds.
func collectionPool(seed int64, size int, topKs []int) []query {
	rng := rand.New(rand.NewSource(seed ^ 0xc011))
	frequent, rare := collectionWords()
	firstOrder := map[string][]string{}
	pool := make([]query, size)
	for i := range pool {
		n := 1 + i%3
		nFrequent := (i / 6) % (min(n, len(frequent)) + 1)
		words := append(pick(rng, frequent, nFrequent), pick(rng, rare, n-nFrequent)...)
		rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
		set := slices.Sorted(slices.Values(words))
		key := strings.Join(set, " ")
		if first, ok := firstOrder[key]; ok {
			words = slices.Clone(first)
		} else {
			firstOrder[key] = words
		}
		pool[i] = query{
			keywords:    words,
			disjunctive: (i/3)%2 == 1,
			topK:        topKs[i%len(topKs)],
		}
	}
	return pool
}

// partName names collection document d, as benchkit.BuildCollectionCorpus
// does.
func partName(d int) string { return fmt.Sprintf("part-%03d.xml", d) }

// partDoc generates a replacement for collection document part, in the
// shape benchkit's collection generator uses (articles with a title, an
// author from authors.xml, a year and a body over CollectionVocabulary),
// with variant in the titles so every write changes the document.
func partDoc(rng *rand.Rand, part, articles, variant int) string {
	var sb strings.Builder
	sb.WriteString("<books>")
	for a := 0; a < articles; a++ {
		var body strings.Builder
		for w, n := 0, 30+rng.Intn(90); w < n; w++ {
			if w > 0 {
				body.WriteByte(' ')
			}
			body.WriteString(benchkit.CollectionVocabulary[rng.Intn(len(benchkit.CollectionVocabulary))])
		}
		fmt.Fprintf(&sb,
			`<article><fm><tl>study %d rev %d</tl><au>author%d</au><yr>%d</yr></fm><bdy>%s</bdy></article>`,
			part*1000+a, variant, rng.Intn(8), 1985+rng.Intn(16), body.String())
	}
	sb.WriteString("</books>")
	return sb.String()
}

// write is one corpus mutation of a read-write workload. A delete write
// removes the document and adds it back with the new text.
type write struct {
	name   string
	xml    string
	delete bool
}

// apply performs w on db.
func (w write) apply(db *vxml.Database) error {
	if w.delete {
		if err := db.Delete(w.name); err != nil {
			return err
		}
		return db.Add(w.name, w.xml)
	}
	return db.Replace(w.name, w.xml)
}

// writeGen draws the writes of a read-write workload from its own seeded
// stream, so the write sequence depends on the seed and on nothing else.
type writeGen struct {
	rng      *rand.Rand
	docs     int
	articles int
	n        int
	// deleteEvery makes every deleteEvery-th write a delete plus re-add
	// (0: replaces only).
	deleteEvery int
}

func newWriteGen(seed int64, docs, articles, deleteEvery int) *writeGen {
	return &writeGen{rng: rand.New(rand.NewSource(seed ^ 0x3717e)), docs: docs, articles: articles, deleteEvery: deleteEvery}
}

func (g *writeGen) next() write {
	g.n++
	part := g.rng.Intn(g.docs)
	return write{
		name:   partName(part),
		xml:    partDoc(g.rng, part, g.articles, g.n),
		delete: g.deleteEvery > 0 && g.n%g.deleteEvery == 0,
	}
}

// zipfPicker draws pool indices with a Zipf skew, so a few queries repeat
// often and the rest form a long tail. Popularity follows pool order: the
// pool's strata cycle, so the hottest queries have the same mix of keyword
// counts and semantics for every seed, and only their words differ.
type zipfPicker struct{ z *rand.Zipf }

func newZipfPicker(seed int64, n int) *zipfPicker {
	rng := rand.New(rand.NewSource(seed ^ 0x21bf))
	return &zipfPicker{z: rand.NewZipf(rng, zipfS, 1, uint64(n-1))}
}

func (p *zipfPicker) next() int { return int(p.z.Uint64()) }

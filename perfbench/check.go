package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"vxml"
)

// canonical encodes a ranked result list byte for byte: rank, the exact
// bits of the score, the TF map in key order, the XML and the snippet. Two
// result lists are equal exactly when their encodings are.
func canonical(results []vxml.Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "#%d score=%016x tf=", r.Rank, math.Float64bits(r.Score))
		keys := make([]string, 0, len(r.TF))
		for k := range r.TF {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s:%d,", k, r.TF[k])
		}
		fmt.Fprintf(&b, "\nxml=%d:%s\nsnippet=%d:%s\n", len(r.XML), r.XML, len(r.Snippet), r.Snippet)
	}
	return b.String()
}

// digest is a short fingerprint of canonical(results), for checking every
// timed search against a verified answer without keeping the full text.
func digest(results []vxml.Result) uint64 {
	h := fnv.New64a()
	h.Write([]byte(canonical(results)))
	return h.Sum64()
}

// withoutSnippets returns a copy of results with every snippet cleared.
func withoutSnippets(results []vxml.Result) []vxml.Result {
	out := append([]vxml.Result(nil), results...)
	for i := range out {
		out[i].Snippet = ""
	}
	return out
}

// diff describes the first difference between two result lists, or returns
// "" when they are byte-identical.
func diff(got, want []vxml.Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, oracle has %d", len(got), len(want))
	}
	for i := range got {
		g, w := canonical(got[i:i+1]), canonical(want[i:i+1])
		if g == w {
			continue
		}
		switch {
		case got[i].Rank != want[i].Rank:
			return fmt.Sprintf("result %d: rank %d, oracle %d", i, got[i].Rank, want[i].Rank)
		case math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score):
			return fmt.Sprintf("result %d: score %v, oracle %v", i, got[i].Score, want[i].Score)
		case got[i].XML != want[i].XML:
			return fmt.Sprintf("result %d: XML differs (%d vs %d bytes)", i, len(got[i].XML), len(want[i].XML))
		case got[i].Snippet != want[i].Snippet:
			return fmt.Sprintf("result %d: snippet %q, oracle %q", i, got[i].Snippet, want[i].Snippet)
		default:
			return fmt.Sprintf("result %d: TF %v, oracle %v", i, got[i].TF, want[i].TF)
		}
	}
	return ""
}

// checker accumulates output checks. Every mismatch is kept with the
// workload and query it happened on, so a failing run names them.
type checker struct {
	workload   string
	compared   int
	mismatches []string
}

// compare checks one answer against the oracle's and records a mismatch.
// It reports whether the two were byte-identical.
func (c *checker) compare(what string, q query, got, want []vxml.Result) bool {
	c.compared++
	if d := diff(got, want); d != "" {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s: %s: query %s: %s", c.workload, what, q, d))
		return false
	}
	return true
}

// fail records a check that could not even run (an error from either side).
func (c *checker) fail(what string, q query, err error) {
	c.compared++
	c.mismatches = append(c.mismatches, fmt.Sprintf("%s: %s: query %s: %v", c.workload, what, q, err))
}

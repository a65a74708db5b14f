package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare report needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords reads the correct, untraced run records of a runs.jsonl
// file, in file order.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace && r.Correct {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// verdicts of one workload × metric comparison.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse within bound"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "regressed"
)

// metricComparison is one row of the compare report.
type metricComparison struct {
	oldMed, oldQ1, oldQ3 float64
	newMed, newQ1, newQ3 float64
	winFrac              float64
	pairs                int
	verdict              string
}

// compareMetric compares two run sets of one metric. Pairs are formed in
// run order (old[i], new[i]), as runs alternate between the two sides;
// a pair is a win when the new run is strictly better, and ties count for
// neither side. A gain needs nine tenths of pairs won and a median change
// larger than the old side's interquartile range. A new median worse than
// the bound allows is a regression when every new run is worse than every
// old run, whatever the spread. Otherwise, when the old side's own spread
// exceeds the bound the result is unresolved unless every new run beats
// every old run, and else the new median must be no worse than the bound
// allows.
func compareMetric(old, new []float64, lowerBetter bool, bound float64) metricComparison {
	c := metricComparison{oldMed: median(old), newMed: median(new)}
	c.oldQ1, c.oldQ3 = quartiles(old)
	c.newQ1, c.newQ3 = quartiles(new)
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	wins := 0
	c.pairs = min(len(old), len(new))
	for i := 0; i < c.pairs; i++ {
		if better(new[i], old[i]) {
			wins++
		}
	}
	if c.pairs > 0 {
		c.winFrac = float64(wins) / float64(c.pairs)
	}
	iqr := c.oldQ3 - c.oldQ1
	delta := c.oldMed - c.newMed // positive: new lower
	if !lowerBetter {
		delta = -delta
	}
	allBetter := len(old) > 0 && len(new) > 0
	allWorse := allBetter
	for _, n := range new {
		for _, o := range old {
			if !better(n, o) {
				allBetter = false
			}
			if !better(o, n) {
				allWorse = false
			}
		}
	}
	worse := -delta / c.oldMed // relative worsening of the median
	switch {
	case c.winFrac >= 0.9 && delta > iqr:
		c.verdict = verdictImproved
	case worse > bound && allWorse:
		c.verdict = verdictRegressed
	case spread(old) > bound && !allBetter:
		c.verdict = verdictUnresolved
	case worse <= bound:
		c.verdict = verdictNoWorse
	default:
		c.verdict = verdictRegressed
	}
	return c
}

// exactCounters lists the deterministic counters compared exactly between
// runs of the same workload and seed.
var exactCounters = []string{"pdt_nodes", "view_results", "matched", "subtree_fetches", "node_evals", "wire_bytes"}

// specFile is the benchmark definition holding the bounds, relative to the
// repository root the benchmark runs from.
const specFile = "BENCHMARK.json"

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	data, err := os.ReadFile(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	old, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	new, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if report(os.Stdout, bs, old, new) {
		return 1
	}
	return 0
}

// report prints the comparison and reports whether it found a regression
// or a counter mismatch.
func report(w io.Writer, bs benchSpec, old, new []runRecord) (bad bool) {
	byWorkload := func(rs []runRecord) map[string][]runRecord {
		m := map[string][]runRecord{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	ow, nw := byWorkload(old), byWorkload(new)
	var names []string
	for name := range ow {
		if _, ok := nw[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "== %s (%d old runs, %d new runs)\n", name, len(ow[name]), len(nw[name]))
		fmt.Fprintf(w, "%-16s %28s %28s %6s  %s\n", "metric", "old median [q1, q3]", "new median [q1, q3]", "wins", "verdict")
		for _, m := range bs.EndToEnd {
			values := func(rs []runRecord) []float64 {
				var out []float64
				for _, r := range rs {
					if v, ok := r.Metrics[m.Name]; ok {
						out = append(out, v.Value)
					}
				}
				return out
			}
			c := compareMetric(values(ow[name]), values(nw[name]), m.Better == "lower", m.Bound)
			if c.verdict == verdictRegressed {
				bad = true
			}
			fmt.Fprintf(w, "%-16s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %5.0f%%  %s\n",
				m.Name, c.oldMed, c.oldQ1, c.oldQ3, c.newMed, c.newQ1, c.newQ3, 100*c.winFrac, c.verdict)
		}
		bySeed := map[int64]runRecord{}
		for _, r := range ow[name] {
			bySeed[r.Seed] = r
		}
		checked, mismatched := 0, 0
		for _, r := range nw[name] {
			o, ok := bySeed[r.Seed]
			if !ok {
				continue
			}
			for _, k := range exactCounters {
				ov, oin := o.Counters[k]
				nv, nin := r.Counters[k]
				if !oin && !nin {
					continue
				}
				checked++
				if ov != nv {
					mismatched++
					bad = true
					fmt.Fprintf(w, "counter %s seed %d: old %d, new %d\n", k, r.Seed, ov, nv)
				}
			}
		}
		fmt.Fprintf(w, "deterministic counters: %d compared on shared seeds, %d differ\n\n", checked, mismatched)
	}
	return bad
}

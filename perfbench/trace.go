package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share req;
// parent is the index of the enclosing span, or -1 for the operation's
// root span. start and end are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the whole traced run; they are written
// out once, at the end, so recording costs one append under a mutex. A nil
// recorder records nothing and makes every call free, which is how the
// untraced runs use the same code paths.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(req int64, parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records an already-timed span (for intervals measured elsewhere,
// such as an HTTP handler timed by its wrapper) and returns its index.
func (r *recorder) add(req int64, parent int, name string, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return len(r.spans) - 1
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile stores the spans as JSON.
func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children's intervals cover. A
// child that outlives its parent, or children that overlap one another
// (parallel calls), are counted once over the covered part only. Spans
// still open count as zero-length.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[i] = (s.End - s.Start) - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerBreakdown sums self times by span name, separately for each kind
// of operation (the name of the span's root). Root spans (Parent -1) are
// the operations themselves: their summed durations are the traced
// end-to-end time, and their summed self time is the part no layer span
// covers.
type layerBreakdown struct {
	self      map[string]int64 // "root/span" -> summed self time (ns)
	dur       map[string]int64 // "root/span" -> summed duration (ns)
	count     map[string]int   // "root/span" -> number of spans
	rootTotal map[string]int64 // root name -> summed duration (ns)
	rootSelf  map[string]int64 // root name -> summed self time (ns)
	roots     map[string]int   // root name -> number of operations
}

func breakdown(spans []span) *layerBreakdown {
	self := selfTimes(spans)
	b := &layerBreakdown{
		self: map[string]int64{}, dur: map[string]int64{}, count: map[string]int{},
		rootTotal: map[string]int64{}, rootSelf: map[string]int64{}, roots: map[string]int{},
	}
	// A parent is always recorded before its children, so one pass in
	// index order finds every span's root.
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		rootOf[i] = i
		if s.Parent >= 0 && s.Parent < i {
			rootOf[i] = rootOf[s.Parent]
		}
	}
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		if s.Parent < 0 {
			b.rootTotal[s.Name] += s.End - s.Start
			b.rootSelf[s.Name] += self[i]
			b.roots[s.Name]++
			continue
		}
		key := spans[rootOf[i]].Name + "/" + s.Name
		b.self[key] += self[i]
		b.dur[key] += s.End - s.Start
		b.count[key]++
	}
	return b
}

// perOp returns the summed self time of the named layer under operations
// of the given root kind, in milliseconds per operation.
func (b *layerBreakdown) perOp(name, root string) float64 {
	if b.roots[root] == 0 {
		return 0
	}
	return float64(b.self[root+"/"+name]) / 1e6 / float64(b.roots[root])
}

// durPerOp is perOp with whole span durations instead of self times.
func (b *layerBreakdown) durPerOp(name, root string) float64 {
	if b.roots[root] == 0 {
		return 0
	}
	return float64(b.dur[root+"/"+name]) / 1e6 / float64(b.roots[root])
}

// unaccounted is the share of the named roots' total time that no layer
// span covers.
func (b *layerBreakdown) unaccounted(root string) float64 {
	if b.rootTotal[root] == 0 {
		return 0
	}
	return float64(b.rootSelf[root]) / float64(b.rootTotal[root])
}

// meanMs is the mean duration of the named roots in milliseconds.
func (b *layerBreakdown) meanMs(root string) float64 {
	if b.roots[root] == 0 {
		return 0
	}
	return float64(b.rootTotal[root]) / 1e6 / float64(b.roots[root])
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls into the program's public functions. Times are
// nanoseconds since the tracer's epoch; the root span of an operation has
// parent -1 and every span of one operation shares its op ID.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps every span of a traced run in memory, plus the per-layer
// counts operations report at the same boundaries, and writes the spans
// out when the run ends.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextOp int64
	ops    [][]span
	notes  map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), notes: make(map[string][]float64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens the root span of one operation.
func (t *tracer) begin(name string) *opTrace {
	t.mu.Lock()
	id := t.nextOp
	t.nextOp++
	t.mu.Unlock()
	return &opTrace{t: t, spans: []span{{Op: id, ID: 0, Parent: -1, Name: name, Start: t.now()}}}
}

// end closes the operation's root span and files its spans.
func (o *opTrace) end() {
	o.spans[0].End = o.t.now()
	o.t.mu.Lock()
	o.t.ops = append(o.t.ops, o.spans)
	o.t.mu.Unlock()
}

// opTrace collects the spans of one operation. A nil *opTrace is the
// untraced mode: do just calls fn and note records nothing.
type opTrace struct {
	t     *tracer
	spans []span
}

// do runs fn inside a child span of the operation's root.
func (o *opTrace) do(name string, fn func() error) error {
	if o == nil {
		return fn()
	}
	start := o.t.now()
	err := fn()
	o.spans = append(o.spans, span{Op: o.spans[0].Op, ID: len(o.spans), Parent: 0, Name: name, Start: start, End: o.t.now()})
	return err
}

// note records a per-layer count or measurement under name.
func (o *opTrace) note(name string, v float64) {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	o.t.notes[name] = append(o.t.notes[name], v)
	o.t.mu.Unlock()
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	durations []float64 // ms
	self      int64     // ns, summed
}

// traceSummary is the per-layer breakdown of a traced run.
type traceSummary struct {
	ops   int
	spans int
	// rootMS holds each operation's root duration in ms.
	rootMS []float64
	// rootTotal is the summed root duration in ns; shares divide by it.
	rootTotal int64
	byName    map[string]*spanStats
	// unreconciled counts operations whose child durations plus root
	// self time miss the root duration by more than reconcileTol.
	unreconciled int
	maxErr       float64
}

// reconcileTol is the stated tolerance of the per-operation check: the
// children's durations plus the root's self time must equal the root's
// duration within 0.1% of it (child spans of one operation run one after
// another, so they never overlap and the sum is exact in practice).
const reconcileTol = 0.001

func (t *tracer) summarize() *traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := &traceSummary{byName: make(map[string]*spanStats)}
	stat := func(name string) *spanStats {
		s := sum.byName[name]
		if s == nil {
			s = &spanStats{}
			sum.byName[name] = s
		}
		return s
	}
	for _, spans := range t.ops {
		sum.ops++
		sum.spans += len(spans)
		root := spans[0]
		var children []interval
		var childSum int64
		for _, s := range spans[1:] {
			children = append(children, s.interval())
			childSum += s.End - s.Start
			st := stat(s.Name)
			st.durations = append(st.durations, float64(s.End-s.Start)/1e6)
			st.self += s.End - s.Start // leaf spans: self time is the duration
		}
		rootDur := root.End - root.Start
		rootSelf := selfTime(root.interval(), children)
		st := stat("op")
		st.durations = append(st.durations, float64(rootDur)/1e6)
		st.self += rootSelf
		sum.rootMS = append(sum.rootMS, float64(rootDur)/1e6)
		sum.rootTotal += rootDur
		if rootDur > 0 {
			e := float64(childSum+rootSelf-rootDur) / float64(rootDur)
			if e < 0 {
				e = -e
			}
			sum.maxErr = max(sum.maxErr, e)
			if e > reconcileTol {
				sum.unreconciled++
			}
		}
	}
	return sum
}

// write dumps every span as JSON under dir, one file per run.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	var all []span
	for _, spans := range t.ops {
		all = append(all, spans...)
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Op != all[j].Op {
			return all[i].Op < all[j].Op
		}
		return all[i].ID < all[j].ID
	})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, all})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}

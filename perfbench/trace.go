package main

import "time"

// tracer records spans around the benchmark's calls into the program's
// layers during a replay. Spans nest: a span begun while another is open
// is its child, and a layer's self time is its duration minus what its
// children cover. Spans live in memory until the replay ends. A nil
// tracer records nothing and costs one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	// req tags the spans begun from now on with the request they serve.
	req int
}

type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, req: t.req, start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id; a non-empty rename replaces the name given at
// begin, for spans whose layer is known only once the call returns.
func (t *tracer) end(id int, rename string) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	if rename != "" {
		s.name = rename
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// layerStat is one span name's totals.
type layerStat struct {
	count int
	self  time.Duration
}

// summary folds the spans into per-name self time and count, the time
// covered by root spans, and the root-span time per request tag.
func (t *tracer) summary() (byName map[string]*layerStat, covered time.Duration, perReq map[int]time.Duration) {
	byName = make(map[string]*layerStat)
	perReq = make(map[int]time.Duration)
	child := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		s := t.spans[i]
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &layerStat{}
			byName[s.name] = st
		}
		st.count++
		st.self += s.end - s.start - child[i]
		if s.parent < 0 {
			covered += s.end - s.start
			perReq[s.req] += s.end - s.start
		}
	}
	return byName, covered, perReq
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, the
// span that caused it (0 for a root), the job it served ("" for batch-
// level calls), and start/end offsets from the log's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Job    string        `json:"job,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced code paths call it unconditionally.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// now is the offset of the current instant from the log's origin.
func (l *spanLog) now() time.Duration {
	if l == nil {
		return 0
	}
	return time.Since(l.origin)
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent int, job string, start, end time.Duration) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: end})
	return id
}

// begin opens a span now and returns its id, which children name as
// their parent, and a func that closes it.
func (l *spanLog) begin(name string, parent int, job string) (id int, end func()) {
	if l == nil {
		return 0, func() {}
	}
	l.mu.Lock()
	id = len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: l.now()})
	l.mu.Unlock()
	return id, func() {
		t := l.now()
		l.mu.Lock()
		l.spans[id-1].End = t
		l.mu.Unlock()
	}
}

// selfTimes sums, per span name, the total duration and the self time:
// each span's duration minus the part of it its children cover.
func selfTimes(spans []span) (total, self map[string]time.Duration) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(s, children[s.ID])
	}
	return total, self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, hi time.Duration
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			sum += v.b - hi
			hi = v.b
		}
	}
	return sum
}

// writeSpans writes every span as JSON to path and prints the per-name
// total and self times to w.
func (l *spanLog) writeSpans(path string, w io.Writer) error {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	total, self := selfTimes(spans)
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %d recorded in %s\n", len(spans), path)
	for _, n := range names {
		fmt.Fprintf(w, "  span %-24s total %9.3fs  self %9.3fs\n", n, total[n].Seconds(), self[n].Seconds())
	}
	return nil
}

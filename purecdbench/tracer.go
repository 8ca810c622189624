package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer; its id is its index in
// tracer.spans. Spans of one request share req, which is the id the
// request carried in its X-Purecd-Request header (or a probe id), so
// spans recorded inside the daemon can be joined with these.
type span struct {
	req        string
	parent     int // -1 for a root span
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; the traced run writes them out when it
// ends. It is used from one goroutine. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(req string, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{req: req, parent: parent, name: name, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = time.Since(t.epoch)
	}
}

// do records f as one span.
func (t *tracer) do(req string, parent int, name string, f func()) {
	id := t.begin(req, parent, name)
	f()
	t.end(id)
}

// spanStats sums the spans of one name.
type spanStats struct {
	n     int
	total time.Duration
}

// byName sums durations per span name.
func (t *tracer) byName() map[string]spanStats {
	out := map[string]spanStats{}
	for _, s := range t.spans {
		st := out[s.name]
		st.n++
		st.total += s.end - s.start
		out[s.name] = st
	}
	return out
}

// childTime returns, per span id, the time its direct children cover.
func (t *tracer) childTime() []time.Duration {
	cover := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			cover[s.parent] += s.end - s.start
		}
	}
	return cover
}

// spanHeader documents the dump format.
const spanHeader = `# purecdbench spans v1
# One span per line, tab-separated: req span parent name start_ns end_ns
# req is the X-Purecd-Request id of the request (probe-N for layer
# probes, phase-N for guest phase probes); span ids are unique per
# file; parent is -1 for a root; times are nanoseconds since the run's
# trace epoch. Self time = (end-start) minus the children's durations.
`

// dump writes every span to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(spanHeader)
	for id, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%s\t%d\t%d\n", s.req, id, s.parent, s.name, int64(s.start), int64(s.end))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

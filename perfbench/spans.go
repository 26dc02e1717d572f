package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/internal/server"
	"github.com/richnote/richnote/internal/wal"
)

// Span names. A publish's spans share its item ID as trace id: the
// client's round trip, the HTTP front's handler and, in the cluster, the
// owning node's handling of the forwarded frame. A tick's spans share a
// tick trace id: the client, the front and each node's round.
const (
	spanClientPublish = "client.publish"
	spanFrontPublish  = "front.publish"
	spanNodePublish   = "node.publish"
	spanClientRead    = "client.read"
	spanFrontRead     = "front.read"
	spanClientTick    = "client.tick"
	spanFrontTick     = "front.tick"
	spanNodeTick      = "node.tick"
)

// traceHeader carries the trace id from the benchmark's client to its
// front wrapper; the program under test never sees it.
const traceHeader = "X-Perfbench-Trace"

// tickTraceBase keeps tick and read trace ids clear of item IDs.
const tickTraceBase = 1 << 50

type span struct {
	trace      uint64
	id, parent uint16
	name       string
	start, end int64 // ns since the tracer's origin
}

// tracer keeps spans in memory while on; they are written out when the
// run ends.
type tracer struct {
	t0        time.Time
	on        atomic.Bool
	tickTrace atomic.Uint64
	mu        sync.Mutex
	spans     []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// enabled reports whether spans are being recorded; safe on a nil tracer.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// front is the HTTP handler the listener serves: the program's own
// handler, swappable when a rebuilt server takes over, timed while
// tracing.
type front struct {
	h  atomicHandler
	tr *tracer
}

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := f.h.Load()
	if !f.tr.enabled() {
		h.ServeHTTP(w, r)
		return
	}
	start := f.tr.now()
	h.ServeHTTP(w, r)
	end := f.tr.now()
	id, err := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
	if err != nil {
		return // untraced request (set-up or drain traffic)
	}
	name := spanFrontRead
	switch r.URL.Path {
	case "/v1/publish":
		name = spanFrontPublish
	case "/v1/tick":
		name = spanFrontTick
	}
	f.tr.add(span{trace: id, id: 2, parent: 1, name: name, start: start, end: end})
}

// frameHandler serves a node's transport frames through Node.ServeFrame,
// timing publish and tick frames while tracing.
type frameHandler struct {
	n  *server.Node
	tr *tracer
}

func (h frameHandler) ServeFrame(typ byte, payload []byte) (byte, []byte, error) {
	if !h.tr.enabled() || (typ != server.FramePublish && typ != server.FrameTick) {
		return h.n.ServeFrame(typ, payload)
	}
	start := h.tr.now()
	rt, resp, err := h.n.ServeFrame(typ, payload)
	end := h.tr.now()
	if typ == server.FrameTick {
		id := uint16(3)
		if h.n.Name() == "b" {
			id = 4
		}
		h.tr.add(span{trace: h.tr.tickTrace.Load(), id: id, parent: 2, name: spanNodeTick, start: start, end: end})
		return rt, resp, err
	}
	// The publish frame starts with topic kind, topic entity and recipient,
	// then the item, whose first field is its ID.
	d := wal.NewDecoder(payload)
	d.I64()
	d.I64()
	d.I64()
	itemID := d.I64()
	if d.Err() == nil {
		h.tr.add(span{trace: uint64(itemID), id: 3, parent: 2, name: spanNodePublish, start: start, end: end})
	}
	return rt, resp, err
}

// selfTimes aggregates, per span name, the count, the mean duration and
// the mean self time: a span's duration minus the part of it its child
// spans cover.
type selfTime struct {
	name                 string
	count                int
	meanUs, selfUs       float64
	totalUs, selfTotalUs float64
}

func (t *tracer) selfTimes() []selfTime {
	type key struct {
		trace uint64
		id    uint16
	}
	children := make(map[key][]int)
	for i, s := range t.spans {
		if s.parent != 0 {
			k := key{s.trace, s.parent}
			children[k] = append(children[k], i)
		}
	}
	agg := make(map[string]*selfTime)
	for _, s := range t.spans {
		dur := float64(s.end-s.start) / 1e3
		covered := coveredUs(s, children[key{s.trace, s.id}], t.spans)
		a := agg[s.name]
		if a == nil {
			a = &selfTime{name: s.name}
			agg[s.name] = a
		}
		a.count++
		a.totalUs += dur
		a.selfTotalUs += dur - covered
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		a.meanUs = a.totalUs / float64(a.count)
		a.selfUs = a.selfTotalUs / float64(a.count)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// coveredUs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredUs(p span, kids []int, spans []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		s, e := max(c.start, p.start), min(c.end, p.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	total += curE - curS
	return float64(total) / 1e3
}

// write stores the spans as CSV: trace,span,parent,name,start_ns,end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace,span,parent,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.trace, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

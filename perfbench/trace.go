package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only by the benchmark's own code, around calls
// into the program: wrapping handlers around router.ServeHTTP and
// server.ServeHTTP, a wrapping RoundTripper in router.Config.Client,
// and plain timers around the solver entry points. They are kept in
// memory and written out when the run ends.

// span is one timed interval. Parent is 0 for a root span. Req ties
// the spans of one client batch together across the router and its
// replicas.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	// Bytes is the response size written by a server span.
	Bytes int64 `json:"bytes,omitempty"`
	// body is the request body a server span received, kept for the
	// direct oracle replay; replica is the server's fleet index.
	body    []byte
	replica int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans while on. A nil *tracer records nothing.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns a copy of the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timed runs fn inside a span named name and returns the span; fn
// gets the span's id to parent nested spans. A nil tracer just runs fn.
func (t *tracer) timed(name string, parent int64, fn func(id int64)) span {
	if t == nil {
		fn(0)
		return span{}
	}
	s := span{ID: t.id(), Parent: parent, Name: name, Start: t.now()}
	fn(s.ID)
	s.End = t.now()
	t.add(s)
	return s
}

// Headers carrying the batch's request id and the caller's span id
// from the client to the router and from the router to a replica.
const (
	hdrReq    = "X-Bench-Request"
	hdrParent = "X-Bench-Parent"
)

type spanKey struct{}

// spanRef is what a traced handler leaves in its request context, so
// the RoundTripper can parent the router's replica round trips.
type spanRef struct{ req, id int64 }

// handler wraps a /v1/query handler with a span named name. Server
// spans also keep their request body and response size.
func (t *tracer) handler(name string, replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() || r.URL.Path != "/v1/query" {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		s := span{ID: t.id(), Parent: parent, Name: name, Req: req, replica: replica}
		var body bytes.Buffer
		r.Body = struct {
			io.Reader
			io.Closer
		}{io.TeeReader(r.Body, &body), r.Body}
		cw := &countingWriter{ResponseWriter: w}
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{req: req, id: s.ID}))
		s.Start = t.now()
		h.ServeHTTP(cw, r)
		s.End = t.now()
		s.Bytes = cw.n
		s.body = body.Bytes()
		t.add(s)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// roundTripper wraps the router's client transport: every request made
// on behalf of a traced batch gets a "roundtrip" span that ends when
// the router closes the response body, and carries the ids on to the
// replica.
type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok || !rt.t.active() {
		return rt.base.RoundTrip(req)
	}
	s := span{ID: rt.t.id(), Parent: ref.id, Name: "roundtrip", Req: ref.req}
	req = req.Clone(req.Context())
	req.Header.Set(hdrReq, strconv.FormatInt(ref.req, 10))
	req.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
	s.Start = rt.t.now()
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		s.End = rt.t.now()
		rt.t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		s.End = rt.t.now()
		rt.t.add(s)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// covered returns how much of [lo, hi) the given intervals cover.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// spanTree indexes recorded spans by id and by parent.
type spanTree struct {
	byID     map[int64]span
	children map[int64][]span
}

func buildTree(spans []span) spanTree {
	st := spanTree{byID: map[int64]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		st.byID[s.ID] = s
		if s.Parent != 0 {
			st.children[s.Parent] = append(st.children[s.Parent], s)
		}
	}
	return st
}

// selfTime is a span's duration minus the part its children cover.
func (st spanTree) selfTime(s span) time.Duration {
	return s.dur() - covered(s.Start, s.End, st.children[s.ID])
}

// validate checks that every child lies inside its parent and that
// every self time is non-negative; it returns one message per
// violation.
func (st spanTree) validate() []string {
	var bad []string
	for _, s := range st.byID {
		if s.End < s.Start {
			bad = append(bad, fmt.Sprintf("span %d %s ends before it starts", s.ID, s.Name))
		}
		if s.Parent != 0 {
			p, ok := st.byID[s.Parent]
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("span %d %s: parent %d not recorded", s.ID, s.Name, s.Parent))
			case s.Start < p.Start || s.End > p.End:
				bad = append(bad, fmt.Sprintf("span %d %s [%v,%v] outside parent %d %s [%v,%v]",
					s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End))
			}
		}
		if st.selfTime(s) < 0 {
			bad = append(bad, fmt.Sprintf("span %d %s has negative self time", s.ID, s.Name))
		}
	}
	return bad
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

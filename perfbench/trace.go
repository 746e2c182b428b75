package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Layer names of the spans the harness records around its calls into the
// program. Each op span is one timed operation of a workload (a CLI case,
// a service request, a dist job); its self time is the residual that no
// layer accounts for.
const (
	layerOp      = "op"
	layerBuild   = "core.build" // stsyn.NewEngine
	layerSolve   = "core.solve" // stsyn.AddConvergence
	layerVerify  = "verify"     // stsyn.VerifyStronglyStabilizing
	layerEncode  = "encode"     // service.EncodeResult + JSON, or a handler's response write
	layerHandler = "service.handler"
	layerWorker  = "dist.worker"
)

// span is one timed call into a layer. Times are offsets from the tracer's
// epoch; Parent is 0 for an op span.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    string  `json:"req,omitempty"`
	Layer  string  `json:"layer"`
	Round  int     `json:"round"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Detail string  `json:"detail,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	round int
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID and a function that closes it.
func (t *tracer) begin(layer string, parent int64, req, detail string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	round := t.round
	t.mu.Unlock()
	start := time.Since(t.epoch)
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Round: round,
			Start: ms(start), End: ms(end), Detail: detail})
		t.mu.Unlock()
	}
}

// setRound tags the spans opened from now on with round r.
func (t *tracer) setRound(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

// roundSpans returns a copy of the spans recorded for round r.
func (t *tracer) roundSpans(r int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Round == r {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time in milliseconds: every span's
// duration minus the part of its interval that its children cover
// (children may overlap, as concurrent shards do).
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// spanHeader carries the client-side op span across the loopback HTTP hop,
// so server-side spans can name their parent.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// spanTransport stamps the op span carried by the request context on every
// outgoing request.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int64); ok && id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// timedHandler wraps a server's handler with a span per request (layer),
// parented to the caller's op span; requests outside any op (health checks,
// warm-up) are not traced. With encode set it adds a child encode
// span from the first header write to the handler's return: the response's
// JSON encoding.
func timedHandler(t *tracer, layer string, encode bool, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		req := r.Header.Get("X-Request-ID")
		id, end := t.begin(layer, parent, req, r.Method+" "+r.URL.Path)
		if !encode {
			h.ServeHTTP(w, r)
			end()
			return
		}
		ew := &encodeWriter{ResponseWriter: w, t: t, parent: id, req: req}
		h.ServeHTTP(ew, r)
		if ew.end != nil {
			ew.end()
		}
		end()
	})
}

type encodeWriter struct {
	http.ResponseWriter
	t      *tracer
	parent int64
	req    string
	end    func()
}

func (w *encodeWriter) WriteHeader(code int) {
	if w.end == nil {
		_, w.end = w.t.begin(layerEncode, w.parent, w.req, "")
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *encodeWriter) Write(b []byte) (int, error) {
	if w.end == nil {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func traceFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

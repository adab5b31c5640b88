package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"maps"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"sync"
)

// Snapshot renders the registry as deterministic JSON: one flat object with
// metric names as keys, sorted lexicographically (encoding/json sorts map
// keys). Counters and gauges render as numbers, histograms as
// {count,sum,mean,p50,p95,p99} objects, event logs as arrays of
// {seq,time,kind,detail}; a float that is NaN or infinite renders as null.
// Two snapshots of identical state are byte-identical — the property the
// golden tests pin.
func (r *Registry) Snapshot() []byte {
	if r == nil {
		return []byte("{}")
	}
	r.mu.RLock()
	metrics := maps.Clone(r.metrics)
	r.mu.RUnlock()
	values := make(map[string]any, len(metrics))
	for name, m := range metrics {
		values[name] = m.jsonValue()
	}
	var buf bytes.Buffer
	encode(&buf, values)
	return bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})
}

// RenderText formats the registry as a human-readable report: one
// "name value" line per metric, sorted by name, values in the same JSON
// encoding the snapshot uses. CLIs print it as an end-of-run summary.
func (r *Registry) RenderText() string {
	if r == nil {
		return ""
	}
	var buf bytes.Buffer
	for _, name := range r.Names() {
		buf.WriteString(name)
		buf.WriteByte(' ')
		encode(&buf, r.Get(name).jsonValue())
	}
	return buf.String()
}

// encode writes v as one line of JSON. HTML escaping is off so event
// details keep their "->". Only a bug can make it fail: every metric value
// is an integer, a string, a finite float or nil, or a struct or slice of
// those.
func encode(buf *bytes.Buffer, v any) {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic("obs: " + err.Error())
	}
}

// finite returns v, or nil — JSON null — when v is NaN or infinite, which
// JSON cannot represent.
func finite(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}

// Handler returns an http.Handler serving the JSON snapshot.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(r.Snapshot())
	})
}

// expvarMu serializes publishExpvar: expvar.Publish panics on duplicate
// names, so re-publishing must be idempotent.
var expvarMu sync.Mutex

// publishExpvar exposes the registry as the expvar "adaptio", so the
// snapshot also appears on the standard /debug/vars page next to the
// runtime's memstats. expvar names are process-wide and permanent: the
// first registry published keeps the name.
func (r *Registry) publishExpvar() {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get("adaptio") != nil {
		return
	}
	expvar.Publish("adaptio", expvar.Func(func() any {
		return json.RawMessage(r.Snapshot())
	}))
}

// NewServeMux returns the routes of a process's one metrics endpoint: the
// registry's JSON snapshot at /metrics (and every other path), and under
// /debug/ what the standard library registers on the default mux — the
// expvar page with the registry published on it at /debug/vars, the runtime
// profiles of net/http/pprof at /debug/pprof/.
func NewServeMux(r *Registry) *http.ServeMux {
	r.publishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/", r.Handler())
	mux.Handle("/debug/", http.DefaultServeMux)
	return mux
}

// ListenAndServe serves NewServeMux(r) on addr. It blocks like
// http.ListenAndServe and always returns a non-nil error; CLIs run it in a
// goroutine that logs the error.
func ListenAndServe(addr string, r *Registry) error {
	return http.ListenAndServe(addr, NewServeMux(r))
}

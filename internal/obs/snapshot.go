package obs

import (
	"expvar"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"strconv"
	"sync"
	"unicode/utf8"
)

// Snapshot renders the registry as deterministic JSON: one flat object with
// metric names as keys, sorted lexicographically. Counters and gauges
// render as numbers, histograms as {count,sum,mean,p50,p95,p99} objects,
// event logs as arrays of {seq,time,kind,detail}. The encoding is
// hand-rolled so two snapshots of identical state are byte-identical
// (stable key order, stable float formatting) — the property the golden
// tests pin.
func (r *Registry) Snapshot() []byte {
	if r == nil {
		return []byte("{}")
	}
	names := r.Names()
	dst := make([]byte, 0, 64+64*len(names))
	dst = append(dst, '{')
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, name)
		dst = append(dst, ':')
		dst = r.Get(name).appendJSON(dst)
	}
	dst = append(dst, '}')
	return dst
}

// RenderText formats the registry as a human-readable report: one
// "name value" line per metric, sorted by name, values in the same
// deterministic JSON encoding the snapshot uses. CLIs print it as an
// end-of-run summary.
func (r *Registry) RenderText() string {
	if r == nil {
		return ""
	}
	var dst []byte
	for _, name := range r.Names() {
		dst = append(dst, name...)
		dst = append(dst, ' ')
		dst = r.Get(name).appendJSON(dst)
		dst = append(dst, '\n')
	}
	return string(dst)
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
		return rawJSON(r.Snapshot())
	}))
}

// rawJSON makes a pre-encoded snapshot pass through expvar's
// encoding/json marshalling verbatim.
type rawJSON []byte

func (j rawJSON) MarshalJSON() ([]byte, error) { return j, nil }

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

// ---------- deterministic JSON helpers ----------

func appendInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// appendFloat renders floats with strconv's shortest 'g' representation;
// integral values render without an exponent where possible, matching what
// encoding/json produces, so the output stays both stable and familiar.
func appendFloat(dst []byte, v float64) []byte {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	fmtByte := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmtByte = 'e'
	}
	return strconv.AppendFloat(dst, v, fmtByte, -1, 64)
}

// appendString appends a JSON string literal. Metric names and event
// payloads are ASCII in practice; the escaper still handles control
// characters, quotes and invalid UTF-8 safely.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
			i++
		case c == '\n':
			dst = append(dst, '\\', 'n')
			i++
		case c == '\r':
			dst = append(dst, '\\', 'r')
			i++
		case c == '\t':
			dst = append(dst, '\\', 't')
			i++
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
				i++
				continue
			}
			dst = append(dst, s[i:i+size]...)
			i += size
		}
	}
	return append(dst, '"')
}

func hexDigit(b byte) byte {
	if b < 10 {
		return '0' + b
	}
	return 'a' + b - 10
}

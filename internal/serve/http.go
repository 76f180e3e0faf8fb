package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"

	"repro/internal/scenario"
)

// apiError is the uniform error envelope of the API:
//
//	{"error": {"code": "invalid_spec", "message": "...", "field": "attacks[2].name"}}
//
// Status picks the HTTP status; Field points at the offending request field
// for validation failures (422).
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

func (e *apiError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%s: field %s: %s", e.Code, e.Field, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// badRequest builds a 400 for malformed requests.
func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: "bad_request",
		Message: fmt.Sprintf(format, args...)}
}

// unprocessable builds a 422 for well-formed requests the engine rejects.
func unprocessable(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusUnprocessableEntity, Code: "invalid_spec",
		Message: fmt.Sprintf(format, args...)}
}

// invalidField builds a 422 naming the offending request field.
func invalidField(field, format string, args ...any) *apiError {
	return &apiError{Status: http.StatusUnprocessableEntity, Code: "invalid_spec",
		Field: field, Message: fmt.Sprintf(format, args...)}
}

// notFound builds a 404 for unknown job IDs.
func notFound(kind, id string) *apiError {
	return &apiError{Status: http.StatusNotFound, Code: "not_found",
		Message: fmt.Sprintf("no %s with id %q", kind, id)}
}

// routeErrors answers the requests mux cannot route with the error
// envelope instead of net/http's text/plain pages: an unknown path is 404
// not_found, and a known path asked with the wrong method is 405
// method_not_allowed, keeping the Allow header the mux computes.
func routeErrors(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, pattern := mux.Handler(r)
		if pattern != "" {
			mux.ServeHTTP(w, r)
			return
		}
		probe := headerProbe{header: make(http.Header)}
		h.ServeHTTP(&probe, r)
		if probe.status != http.StatusMethodNotAllowed {
			writeError(w, &apiError{Status: http.StatusNotFound, Code: "not_found",
				Message: fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path)})
			return
		}
		allow := probe.header.Get("Allow")
		w.Header().Set("Allow", allow)
		writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
			Message: fmt.Sprintf("%s %s is not allowed; allowed: %s", r.Method, r.URL.Path, allow)})
	})
}

// headerProbe is a ResponseWriter that keeps the status and headers a
// handler sets and discards its body.
type headerProbe struct {
	header http.Header
	status int
}

func (p *headerProbe) Header() http.Header         { return p.header }
func (p *headerProbe) Write(b []byte) (int, error) { return len(b), nil }
func (p *headerProbe) WriteHeader(status int)      { p.status = status }

// specError maps a spec/build rejection to 422, carrying the field name when
// the failure is a typed scenario.SpecError.
func specError(err error) *apiError {
	var se *scenario.SpecError
	if errors.As(err, &se) {
		return &apiError{Status: http.StatusUnprocessableEntity, Code: "invalid_spec",
			Message: se.Reason, Field: se.Field}
	}
	return unprocessable("%v", err)
}

// writeJSON writes v as a compact JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the error envelope.
func writeError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, struct {
		Error *apiError `json:"error"`
	}{e})
}

// decodeBody decodes a bounded JSON request body into v, rejecting trailing
// garbage. A number that does not fit its integer field is a well-formed
// request with an out-of-range value, a 422 on that field like any other
// cap: which numbers fit an int depends on the GOARCH, and the answer must
// not.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(v); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) && te.Field != "" && strings.HasPrefix(te.Value, "number") && isInteger(te.Type) {
			return invalidField(te.Field, "%s does not fit the field's %s", te.Value, te.Type)
		}
		return badRequest("decode request body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON request body")
	}
	return nil
}

// isInteger reports whether t is an integer type.
func isInteger(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return true
	}
	return false
}

// statusRecorder captures the response status for request logging while
// passing Flush through, which SSE streaming depends on.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logging emits one structured line per request: method, path, status,
// wall-clock duration, and the key fingerprint + job ID correlators the
// handlers annotate via request headers set during handling.
func (s *Server) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"durMs", s.now().Sub(start).Milliseconds(),
		}
		if key := rec.Header().Get(headerKeyID); key != "" {
			attrs = append(attrs, "key", key)
		}
		if id := rec.Header().Get(headerJobID); id != "" {
			attrs = append(attrs, "jobID", id)
		}
		s.log.Info("request", attrs...)
	})
}

// Correlation headers the middleware reads back out of the response: the
// auth layer stamps the key fingerprint, submit/get handlers stamp the job
// ID. Both double as useful response metadata for clients.
const (
	headerKeyID = "X-Worksimd-Key-Id"
	headerJobID = "X-Worksimd-Job-Id"
)

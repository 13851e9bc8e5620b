package service

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"chaos/internal/obs"
)

// statusWriter captures the status code and body size a handler
// produced, so the logging/metrics layer can report them after the
// fact. It must keep streaming working: handleJobEvents type-asserts
// http.Flusher on the writer it receives, so Flush exists
// unconditionally and forwards when the underlying writer streams.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK // implicit WriteHeader on first Write
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK // handler wrote nothing at all
	}
	return w.code
}

// reqID numbers requests process-wide so log lines from one request
// correlate (and interleaved concurrent requests stay tellable apart).
// It is also the counter trace-id derivation pairs with the boot nonce,
// so fresh traces are unique per request without a randomness source.
var reqID atomic.Uint64

// bootNonce seeds derived trace ids for requests that arrive without a
// traceparent; pid + boot instant keeps traces from different process
// lives distinct (the lifecycle journal outlives the process, so ids
// minted after a restart must not collide with journaled ones).
var (
	bootNonceOnce sync.Once
	bootNonceVal  string
)

func bootNonce() string {
	bootNonceOnce.Do(func() {
		bootNonceVal = fmt.Sprintf("chaos-serve/%d/%d", os.Getpid(), time.Now().UnixNano())
	})
	return bootNonceVal
}

// startTrace resolves the request's trace context: adopt the caller's
// trace when it sent a well-formed W3C traceparent (the caller's span
// becomes the remote parent), otherwise start a fresh derived trace.
// Either way this process opens its own request span, which the
// returned traceparent header names.
func startTrace(r *http.Request, id uint64, start time.Time) (*reqTrace, string) {
	rt := &reqTrace{name: r.Method + " " + r.URL.Path, start: start}
	tid, parent, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if ok {
		rt.parent = parent.String()
		rt.remote = true
	} else {
		tid = obs.DeriveTraceID(bootNonce(), id)
	}
	rt.traceID = tid.String()
	span := obs.DeriveSpanID(rt.traceID+"/req", id)
	rt.span = span.String()
	return rt, obs.Traceparent(tid, span)
}

// instrument wraps the API mux with the observability layer: every
// request is timed into the per-route duration histogram, carries a
// trace context (inbound traceparent honored, the trace id echoed back
// in a traceparent response header), and — when the service has a
// logger — is logged as one structured line, trace id included, after
// it completes. Metrics always run; logging is opt-in via Config.Logger
// so library users and tests stay quiet by default.
func (s *Service) instrument(next http.Handler) http.Handler {
	logger := s.cfg.Logger
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := reqID.Add(1)
		start := time.Now()
		rt, traceparent := startTrace(r, id, start)
		// Echo the trace identity before the handler writes: the caller
		// learns which trace to query (GET /v1/traces/{id}) even on
		// errors, and our request span id is what a downstream hop of
		// theirs would parent under.
		w.Header().Set("traceparent", traceparent)
		r = r.WithContext(withReqTrace(r.Context(), rt))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		// ServeMux stamps the matched pattern onto the request it
		// dispatched, so the route label is readable here — after the
		// handler — without re-matching. Empty means nothing matched.
		route := r.Pattern
		if route == "" {
			route = routeUnmatched
		}
		s.metrics.observeHTTP(route, elapsed.Seconds())
		if logger != nil {
			logger.Info("http_request",
				slog.Uint64("req", id),
				slog.String("trace", rt.traceID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.status()),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("dur", elapsed),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"repro/internal/buildsys"
	"repro/internal/perfstore"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// HTTP-layer metrics: one requests counter per (route, method, code),
// an in-flight gauge, and a per-route latency histogram. Routes are the
// registered patterns, not raw URLs, so cardinality stays bounded.
var (
	metricHTTPRequests = telemetry.DefaultRegistry.Counter(
		"benchd_http_requests_total",
		"HTTP requests served, by route pattern, method, and status code.",
		"route", "method", "code")
	metricHTTPInFlight = telemetry.DefaultRegistry.Gauge(
		"benchd_http_in_flight",
		"HTTP requests currently being served.").With()
	metricHTTPSeconds = telemetry.DefaultRegistry.Histogram(
		"benchd_http_request_seconds",
		"HTTP request latency by route pattern.",
		nil, "route")
	metricGoroutines = telemetry.DefaultRegistry.Gauge(
		"benchd_goroutines",
		"Goroutines alive in the daemon process (sampled at scrape).").With()
)

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach the server's writer
// through the instrumentation, so the watch handler can flush and set
// per-write deadlines on a wrapped stream.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the HTTP metrics, labelled by route.
func instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		metricHTTPInFlight.Inc()
		defer metricHTTPInFlight.Dec()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		metricHTTPSeconds.With(route).Observe(time.Since(start).Seconds())
		metricHTTPRequests.With(route, r.Method, strconv.Itoa(sw.code)).Inc()
	}
}

// Handler returns the daemon's routed HTTP handler with the request
// timeout applied. Exposed separately from Start so tests can mount it
// on an httptest server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, instrument(route, h))
	}
	handle("POST /v1/runs", "/v1/runs", s.handleSubmit)
	handle("GET /v1/runs", "/v1/runs", s.handleListRuns)
	handle("GET /v1/runs/{id}", "/v1/runs/{id}", s.handleGetRun)
	handle("GET /v1/query", "/v1/query", s.handleQuery)
	handle("GET /v1/regressions", "/v1/regressions", s.handleRegressions)
	handle("GET /v1/traces", "/v1/traces", s.handleListTraces)
	handle("GET /v1/traces/{id}", "/v1/traces/{id}", s.handleGetTrace)
	handle("POST /v1/schedules", "/v1/schedules", s.handleCreateSchedule)
	handle("GET /v1/schedules", "/v1/schedules", s.handleListSchedules)
	handle("GET /v1/schedules/{id}", "/v1/schedules/{id}", s.handleGetSchedule)
	handle("DELETE /v1/schedules/{id}", "/v1/schedules/{id}", s.handleDeleteSchedule)
	handle("POST /v1/alerts", "/v1/alerts", s.handleCreateAlert)
	handle("GET /v1/alerts", "/v1/alerts", s.handleListAlerts)
	handle("GET /v1/alerts/{id}", "/v1/alerts/{id}", s.handleGetAlert)
	handle("DELETE /v1/alerts/{id}", "/v1/alerts/{id}", s.handleDeleteAlert)
	handle("GET /v1/metrics/history", "/v1/metrics/history", s.handleMetricsHistory)
	handle("GET /v1/profiles", "/v1/profiles", s.handleListProfiles)
	handle("GET /v1/profiles/{id}", "/v1/profiles/{id}", s.handleGetProfile)
	handle("GET /healthz", "/healthz", s.handleHealth)
	handle("GET /metrics", "/metrics", s.handleMetrics)
	inner := http.Handler(http.TimeoutHandler(mux, s.cfg.RequestTimeout, `{"error":"request timed out"}`))
	outer := http.NewServeMux()
	// /v1/watch mounts outside the timeout handler: an SSE stream is
	// long-lived by design, and TimeoutHandler would cut it at the API
	// request budget. The handler enforces its own rolling per-write
	// deadline instead.
	outer.HandleFunc("GET /v1/watch", instrument("/v1/watch", s.handleWatch))
	if s.cfg.EnablePprof {
		// pprof also mounts outside the timeout handler: profile captures
		// legitimately run longer than the API request budget
		// (e.g. /debug/pprof/profile?seconds=30).
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	outer.Handle("/", inner)
	return outer
}

// writeJSON renders v indented into a pooled buffer before anything is
// sent, so a value encoding/json refuses (a NaN in an aggregate) answers
// 500 with the uniform error body instead of a 200 with an empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := getWire()
	defer buf.free()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, code, buf.b)
}

// writeError emits the daemon's uniform JSON error shape.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeUnavailable reports a transient condition (full queue, store
// wobble, injected fault) as 503 with a Retry-After hint, so
// well-behaved clients back off and retry instead of treating the
// daemon as broken.
func writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, err)
}

// syncError classifies a store re-sync failure: transient conditions
// (including injected faults) are retryable 503s, anything else is a
// genuine 500.
func syncError(w http.ResponseWriter, err error) {
	if retry.IsTransient(err) {
		writeUnavailable(w, err)
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// runRequest is the POST /v1/runs body.
type runRequest struct {
	Benchmark    string `json:"benchmark"`
	System       string `json:"system"`
	Spec         string `json:"spec,omitempty"`
	NumTasks     int    `json:"num_tasks,omitempty"`
	TasksPerNode int    `json:"tasks_per_node,omitempty"`
	CPUsPerTask  int    `json:"cpus_per_task,omitempty"`
	Repetitions  int    `json:"repetitions,omitempty"`
	Warmup       int    `json:"warmup,omitempty"`
}

// runView is a run's status on the wire. Its entry is written by the
// wire encoder.
type runView struct {
	ID         string     `json:"id"`
	Benchmark  string     `json:"benchmark"`
	System     string     `json:"system"`
	Spec       string     `json:"spec,omitempty"`
	Status     string     `json:"status"`
	Error      string     `json:"error,omitempty"`
	Submitted  time.Time  `json:"submitted_at"`
	Started    *time.Time `json:"started_at,omitempty"`
	Finished   *time.Time `json:"finished_at,omitempty"`
	Entry      *wireEntry `json:"entry,omitempty"`
	StatusCode int        `json:"-"`
}

func viewRun(r *Run) runView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := runView{
		ID:        r.ID,
		Benchmark: r.Benchmark,
		System:    r.System,
		Spec:      r.Spec,
		Status:    r.status,
		Error:     r.err,
		Submitted: r.submitted,
	}
	if !r.started.IsZero() {
		t := r.started
		v.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		v.Finished = &t
	}
	if r.entry != nil {
		v.Entry = (*wireEntry)(r.entry)
	}
	return v
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	run, accepted, err := s.submit(SubmitRequest{
		Benchmark:    req.Benchmark,
		System:       req.System,
		Spec:         req.Spec,
		NumTasks:     req.NumTasks,
		TasksPerNode: req.TasksPerNode,
		CPUsPerTask:  req.CPUsPerTask,
		Repetitions:  req.Repetitions,
		Warmup:       req.Warmup,
	}, "")
	var stale *buildsys.StaleBinaryError
	switch {
	case errors.Is(err, errQueueFull), errors.Is(err, errShuttingDown), errors.Is(err, errDegraded):
		writeUnavailable(w, err)
		return
	case errors.As(err, &stale):
		// Pre-flight caught a build manifest whose DAG hash no longer
		// matches the concretized spec: the installed binary is stale.
		// 409 tells the client the tree conflicts with the request —
		// rebuild (or resubmit, which rebuilds) rather than retry as-is.
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":     err.Error(),
			"code":      "stale_binary",
			"package":   stale.Package,
			"prefix":    stale.Prefix,
			"want_hash": stale.WantHash,
			"got_hash":  stale.GotHash,
		})
		return
	case retry.IsTransient(err):
		// An injected or otherwise transient submission failure: the
		// request was well-formed, the daemon just couldn't take it now.
		writeUnavailable(w, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+run.ID)
	writeJSON(w, http.StatusAccepted, accepted)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	run, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such run %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, viewRun(run))
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]runView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, viewRun(s.runs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"runs": views, "count": len(views)})
}

// handleQuery serves GET /v1/query: filtered entries, or group-by
// aggregates when agg= is present. The store re-syncs incrementally
// first so entries appended by out-of-band CLI runs are visible — an
// unchanged tree costs zero parsed bytes.
//
// Aggregate results are served through the generation-stamped cache: a
// repeated dashboard query against an unchanged store costs one map
// lookup (the no-op Sync leaves the generation untouched, so the stamp
// still matches).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := perfstore.ParseQuery(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.store.Sync(); err != nil {
		syncError(w, err)
		return
	}
	if q.Agg != "" {
		// The generation is read before computing: a write racing the
		// aggregation leaves the cached entry stale (next read misses
		// and recomputes) instead of current-but-wrong.
		gen := s.store.Generation()
		key := "aggregate|" + q.Encode()
		if v, ok := s.cache.get(key, gen); ok {
			metricCacheHits.With("aggregate").Inc()
			aggs := v.([]perfstore.Aggregate)
			writeJSON(w, http.StatusOK, map[string]any{"aggregates": aggs, "count": len(aggs)})
			return
		}
		metricCacheMisses.With("aggregate").Inc()
		aggs, err := s.store.Aggregate(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s.cache.put(key, gen, aggs)
		writeJSON(w, http.StatusOK, map[string]any{"aggregates": aggs, "count": len(aggs)})
		return
	}
	writeEntries(w, s.store.Select(q))
}

// handleRegressions serves GET /v1/regressions: the perfstore sliding
// baseline evaluator over the shared query filters, plus tolerance=
// and window= knobs.
func (s *Server) handleRegressions(w http.ResponseWriter, r *http.Request) {
	values := r.URL.Query()
	tolerance := 0.10
	if v := values.Get("tolerance"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || t < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad tolerance %q", v))
			return
		}
		tolerance = t
	}
	window := 0
	if v := values.Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad window %q", v))
			return
		}
		window = n
	}
	values.Del("tolerance")
	values.Del("window")
	q, err := perfstore.ParseQuery(values.Encode())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if q.FOM == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fom= is required"))
		return
	}
	if err := s.store.Sync(); err != nil {
		syncError(w, err)
		return
	}
	// Regression reports ride the same generation-stamped cache as
	// aggregates; tolerance and window are part of the key because they
	// change the result for identical store contents.
	gen := s.store.Generation()
	key := fmt.Sprintf("regressions|tolerance=%g|window=%d|%s", tolerance, window, q.Encode())
	var reports []perfstore.Report
	if v, ok := s.cache.get(key, gen); ok {
		metricCacheHits.With("regressions").Inc()
		reports = v.([]perfstore.Report)
	} else {
		metricCacheMisses.With("regressions").Inc()
		var err error
		reports, err = s.store.Regressions(q, tolerance, window)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s.cache.put(key, gen, reports)
	}
	if reports == nil {
		reports = []perfstore.Report{} // an empty set is [], not null
	}
	flagged, unstable := 0, 0
	for _, r := range reports {
		if r.Flagged {
			flagged++
		}
		if r.Verdict == perfstore.VerdictUnstable {
			unstable++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"regressions": reports,
		"count":       len(reports),
		"flagged":     flagged,
		"unstable":    unstable,
		"tolerance":   tolerance,
		"window":      window,
	})
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format. Everything registered against telemetry.DefaultRegistry —
// runner stages, buildsys cache hits, perfstore ingest, and the daemon's
// own HTTP/queue families — shows up here.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	metricGoroutines.Set(float64(runtime.NumGoroutine()))
	s.store.PublishMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.DefaultRegistry.WritePrometheus(w)
}

// traceSummary is one retained trace in the /v1/traces listing.
type traceSummary struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Start     time.Time `json:"start"`
	DurationS float64   `json:"duration_s"`
	Error     string    `json:"error,omitempty"`
	Spans     int       `json:"spans"`
}

func countSpans(v telemetry.SpanView) int {
	n := 1
	for _, c := range v.Children {
		n += countSpans(c)
	}
	return n
}

// handleListTraces serves GET /v1/traces: summaries of the retained run
// traces, newest first.
func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.tracer.Traces()
	views := make([]traceSummary, 0, len(traces))
	for i := len(traces) - 1; i >= 0; i-- {
		t := traces[i]
		v := t.Root.View()
		views = append(views, traceSummary{
			ID:        t.ID,
			Name:      v.Name,
			Start:     v.Start,
			DurationS: v.DurationS,
			Error:     v.Error,
			Spans:     countSpans(v),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": views, "count": len(views)})
}

// handleGetTrace serves GET /v1/traces/{id}: the full span tree of one
// run. Trace ids are run ids, so the id from POST /v1/runs works here
// once the run finishes.
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.tracer.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for %q (traces are kept for finished runs only)", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": t.ID, "root": t.Root.View()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	stats := s.store.Stats()
	s.mu.Lock()
	queued := len(s.queue)
	runs := len(s.runs)
	s.mu.Unlock()
	status := "ok"
	mode := "memory"
	switch {
	case s.degraded:
		status = "degraded"
		mode = "degraded-readonly"
	case s.store.DataDir() != "":
		mode = "tiered"
	}
	schedules, fires, suppressed := s.sched.Counters()
	ostats := s.obs.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       status,
		"uptime_s":     int(time.Since(s.started).Seconds()),
		"entries":      stats.Entries,
		"systems":      stats.Systems,
		"bytes_parsed": stats.BytesParsed,
		"runs_tracked": runs,
		"queued":       queued,
		"query_cache":  s.cache.len(),
		"workers":      s.cfg.Workers,
		"perflog_root": s.store.Root(),
		"scheduler": map[string]any{
			"running":            s.sched.Running(),
			"schedules":          schedules,
			"fires":              fires,
			"overlap_suppressed": suppressed,
			"bus_subscribers":    s.bus.Subscribers(),
			"bus_last_event_id":  s.bus.LastID(),
		},
		"storage": map[string]any{
			"mode":                  mode,
			"data_dir":              s.store.DataDir(),
			"head_entries":          stats.HeadEntries,
			"sealed_entries":        stats.SealedEntries,
			"sealed_segments":       stats.SealedSegments,
			"manifest_generation":   stats.ManifestGeneration,
			"segment_load_failures": stats.SegmentLoadFailures,
		},
		"observability": map[string]any{
			"series":            ostats.Series,
			"samples":           ostats.Samples,
			"sample_interval_s": s.obs.Interval().Seconds(),
			"alert_rules":       ostats.Rules,
			"alerts_firing":     ostats.Firing,
			"profiles":          ostats.Profiles,
		},
	})
}

// Package server is the one BISRAMGEN HTTP/JSON layer, served by both
// the bisramgend daemon and the bisramgate gateway. A Server front
// parses, keys, routes, envelopes, traces and meters every request;
// a Backend answers what differs between the two roles:
//
//   - local (this package, the daemon): compiles run on this
//     process's queue (internal/jobs) and fill its byte-budgeted LRU
//     (internal/cache) and disk store (internal/store), so restarts
//     stay warm;
//   - fleet (internal/cluster, the gateway): compiles and key-addressed
//     reads route to the content key's ring owner, with failover.
//
// Sweeps (internal/sweep) run on the front's manager over the
// backend's Lookup/Run hooks, so a gateway serves the same sweep
// documents as a daemon. The compile pipeline's typed cerr taxonomy
// maps 1:1 onto HTTP statuses.
//
// Envelope: every /v1/* JSON response is one uniform document with
// exactly one payload member and an explicit error slot,
//
//	{ "job" | "sweep" | "data": ..., "error": {code, stage, message} | null }
//
// (artifact bodies stream raw with their own Content-Type; /healthz,
// /metrics and /v1/debug/* keep their documented shapes). A request
// with a method the route does not accept is answered 405 with an
// Allow header and the same envelope.
//
// Endpoints:
//
//	POST /v1/compile                    submit (sync by default, ?async=1 for a job handle)
//	GET  /v1/jobs/{id}                  job status
//	GET  /v1/jobs/{id}/result           compile report (canonical JSON, under "data")
//	GET  /v1/jobs/{id}/artifact/{name}  rendered artifact (datasheet, planes, SVG, GDS)
//	GET  /v1/objects/{key}              raw store object image (HEAD too)
//	GET  /v1/objects/{key}/report       cached report for a content key (never compiles)
//	POST /v1/sweeps                     submit a batch sweep (base request + axes)
//	GET  /v1/sweeps/{id}                sweep progress (aggregate + per-point)
//	GET  /v1/sweeps/{id}/results        sweep evaluation rows (Fig. 4/5, Tables II/III)
//	GET  /v1/sweeps/{id}/events         live sweep progress (Server-Sent Events)
//	GET  /v1/processes                  built-in process decks
//	GET  /v1/tests                      built-in march algorithms
//	GET  /v1/debug/traces/{id}          per-job trace (Chrome JSON; ?format=tree|spans)
//	GET  /v1/debug/stacks               goroutine dump (only with Config.EnableStacks)
//	GET  /healthz                       liveness plus role-specific fields
//	GET  /metrics                       obs registry JSON snapshot (?format=prometheus for text
//	                                    exposition; ?scope=fleet merges a gateway's shards)
//	GET  /debug/pprof/*                 runtime profiles (only with Config.EnablePprof)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/cjson"
	"repro/internal/compiler"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tech"
)

// MaxRequestBody bounds a compile request body (inline decks and
// plane files included).
const MaxRequestBody = 8 << 20

// Config wires a server.
type Config struct {
	// Queue runs the jobs: compiles on a daemon, routed sweep points on
	// a gateway. Required.
	Queue *jobs.Queue
	// Backend answers compile, job and object requests; nil builds the
	// local backend over Queue, Cache and Store.
	Backend Backend
	// Cache is the local backend's in-memory artifact tier.
	Cache *cache.Cache
	// Store is the optional disk tier under the in-memory cache.
	// Memory misses probe the store (promoting hits), compiles persist
	// to it, and daemon restarts over the same directory stay warm.
	// Nil disables the tier.
	Store *store.Store
	// LogWriter receives one JSON line per request; nil disables
	// request logging.
	LogWriter io.Writer
	// SyncWait bounds how long a synchronous POST /v1/compile waits
	// before falling back to a 202 + job handle; <= 0 means wait for
	// the job's own deadline.
	SyncWait time.Duration
	// Metrics is the telemetry registry exposed on /metrics. Share it
	// with jobs.Config.Registry so the queue's histograms appear in
	// the same exposition. Nil constructs a private registry.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// SlowCompile is the forensics threshold: any compile whose
	// execution exceeds it has its span tree dumped to SlowLogWriter.
	// <= 0 disables the slow-compile log.
	SlowCompile time.Duration
	// SlowLogWriter receives slow-compile span trees; nil falls back
	// to LogWriter.
	SlowLogWriter io.Writer
	// TraceBudget bounds retained per-job traces; <= 0 means
	// DefaultTraceBudget.
	TraceBudget int
	// SweepMaxPoints caps one sweep's expanded cross product; <= 0
	// means sweep.DefaultMaxPoints.
	SweepMaxPoints int
	// SweepRetain caps remembered sweeps; <= 0 means
	// sweep.DefaultRetain.
	SweepRetain int
	// CompileParallelism is the per-compile goroutine fan-out applied
	// to requests that leave the knob at 0 (requests naming an
	// explicit parallelism keep it). Because the compiler's output is
	// byte-identical at every parallelism, this default is invisible
	// to the content-addressed cache — it only changes wall-clock
	// time. <= 0 leaves compiles serial.
	CompileParallelism int
	// SweepJournal, when non-nil, checkpoints every sweep to disk so a
	// restarted daemon resumes in-flight sweeps (see ResumeSweeps).
	SweepJournal *sweep.Journal
	// Chaos, when non-nil, is the scripted fault injector: the server
	// installs it on compile contexts (stage checkpoints consult it)
	// and exposes chaos_injections_total. Store/cache/queue injection
	// is wired by the caller via their own configs.
	Chaos *chaos.Injector
	// EnableStacks mounts GET /v1/debug/stacks: a full goroutine dump
	// (SIGQUIT-style, without killing the process) for diagnosing
	// stuck drains.
	EnableStacks bool
	// Cluster, when non-nil, is this process's view of its federation:
	// /healthz reports the ring version and peer counts (and a shard's
	// identity), and the cluster gauges join the /metrics expositions.
	// The interface keeps this package independent of internal/cluster —
	// the command wires the concrete view in.
	Cluster ClusterInfo
	// SSEHeartbeat is the keep-alive cadence of the sweep event stream
	// (GET /v1/sweeps/{id}/events); <= 0 means
	// sweep.DefaultEventHeartbeat.
	SSEHeartbeat time.Duration
}

// ClusterInfo is the server's read-only window onto the federation
// layer.
type ClusterInfo interface {
	// Self is this shard's own base URL in the ring ("" on a gateway).
	Self() string
	// Gateway is the advertised gateway URL ("" when none).
	Gateway() string
	// RingVersion bumps on every member up/down transition.
	RingVersion() uint64
	// PeersUp / PeersTotal describe the fleet as this shard sees it.
	PeersUp() int
	PeersTotal() int
}

// Backend is what differs between the daemon and the gateway behind
// the one /v1 surface. Handler methods return an error instead of
// writing one; the front renders it in the envelope.
type Backend interface {
	// Compile serves POST /v1/compile for a parsed, keyed request.
	Compile(w http.ResponseWriter, r *http.Request, sub Submission) error
	// Job serves GET /v1/jobs/{id}, .../result and .../artifact/{name}
	// (view "status", "result" or "artifact"); the id and artifact
	// name are r's path values.
	Job(w http.ResponseWriter, r *http.Request, view string) error
	// Object serves GET|HEAD /v1/objects/{key}, or with report GET
	// /v1/objects/{key}/report.
	Object(w http.ResponseWriter, r *http.Request, report bool) error
	// Sweep returns the sweep manager's Lookup and Run hooks, plus
	// OnJob where the submitted jobs are this process's own.
	Sweep() sweep.Config
	// Trace returns job id's retained trace. merged is non-nil when
	// remote span sets were merged into it (a fleet); otherwise tr is
	// rendered alone.
	Trace(ctx context.Context, id string) (tr *obs.Trace, merged *obs.Merged, ok bool)
	// Health adds the role's /healthz fields to body and returns the
	// response status.
	Health(body map[string]any) int
	// ScrapeFleet scrapes every fleet member for GET
	// /metrics?scope=fleet; ok is false for a role with no fleet.
	ScrapeFleet(ctx context.Context) (scrapes []obs.FleetScrape, errs int, ok bool)
}

// Submission is one parsed, keyed POST /v1/compile.
type Submission struct {
	Body   []byte
	Key    string
	Params compiler.Params
	Start  time.Time
}

// Server is the HTTP layer. Construct with New; serve s.Handler().
type Server struct {
	cfg     Config
	backend Backend
	mux     *http.ServeMux
	start   time.Time
	logMu   sync.Mutex
	sweeps  *sweep.Manager

	httpRequests *obs.Counter
	httpDur      *obs.Histogram
	responses    *obs.CounterVec
	errorsByCode *obs.CounterVec
	// compileDur is the local backend's compile latency (nil on a
	// fleet); its p50 scales the Retry-After hint of shed load.
	compileDur *obs.Histogram
}

// New builds the server and its routing table.
func New(cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.SlowLogWriter == nil {
		cfg.SlowLogWriter = cfg.LogWriter
	}
	s := &Server{cfg: cfg, backend: cfg.Backend, mux: http.NewServeMux(), start: time.Now()}
	s.registerMetrics()
	if s.backend == nil {
		s.backend = newLocal(s)
	}

	// The sweep manager shares the backend's queue, lookup and compile
	// path, so sweep points dedup against interactive traffic and fill
	// the same caches.
	sc := s.backend.Sweep()
	sc.Queue = cfg.Queue
	sc.Registry = cfg.Metrics
	sc.MaxPoints = cfg.SweepMaxPoints
	sc.Retain = cfg.SweepRetain
	sc.Journal = cfg.SweepJournal
	sc.Chaos = cfg.Chaos
	s.sweeps = sweep.NewManager(sc)

	b := s.backend
	s.route("POST", "/v1/compile", s.handleCompile)
	s.route("GET", "/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) error { return b.Job(w, r, "status") })
	s.route("GET", "/v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) error { return b.Job(w, r, "result") })
	// GET patterns also serve HEAD (Go 1.22 mux), hence the wider
	// Allow lists.
	s.route("GET, HEAD", "/v1/jobs/{id}/artifact/{name}", func(w http.ResponseWriter, r *http.Request) error { return b.Job(w, r, "artifact") })
	s.route("GET, HEAD", "/v1/objects/{key}", func(w http.ResponseWriter, r *http.Request) error { return b.Object(w, r, false) })
	s.route("GET", "/v1/objects/{key}/report", func(w http.ResponseWriter, r *http.Request) error { return b.Object(w, r, true) })
	s.route("POST", "/v1/sweeps", s.handleSweepCreate)
	s.route("GET", "/v1/sweeps/{id}", s.handleSweepStatus)
	s.route("GET", "/v1/sweeps/{id}/results", s.handleSweepResults)
	s.route("GET", "/v1/sweeps/{id}/events", s.handleSweepEvents)
	s.route("GET", "/v1/processes", func(w http.ResponseWriter, r *http.Request) error {
		s.writeData(w, http.StatusOK, map[string]any{"processes": tech.Names()})
		return nil
	})
	s.route("GET", "/v1/tests", func(w http.ResponseWriter, r *http.Request) error {
		s.writeData(w, http.StatusOK, map[string]any{"tests": canon.TestNames()})
		return nil
	})
	s.route("GET", "/v1/debug/traces/{id}", s.renderTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if cfg.EnableStacks {
		s.route("GET", "/v1/debug/stacks", handleStacks)
	}
	return s
}

// ResumeSweeps re-launches journaled in-flight sweeps from a previous
// process over the same journal directory. Finished points replay
// through the content-addressed store lookup (zero recompiles);
// unfinished points re-enter the queue. Call once, after the daemon's
// listener is up or about to be. Returns how many sweeps resumed.
func (s *Server) ResumeSweeps() (int, error) {
	return s.sweeps.Resume()
}

// handleStacks is GET /v1/debug/stacks: the stack of every live
// goroutine, the in-process equivalent of SIGQUIT for diagnosing
// stuck drains or wedged workers.
func handleStacks(w http.ResponseWriter, r *http.Request) error {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) || len(buf) >= 64<<20 {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
	return nil
}

// handler is a /v1 handler: a returned error is rendered in the
// envelope, so a handler returns one only before writing anything.
type handler func(w http.ResponseWriter, r *http.Request) error

// route registers a method-specific handler plus a bare-path fallback
// that answers any other method with an enveloped 405 carrying the
// Allow header. (Go 1.22 mux method patterns are more specific than
// the bare pattern, so the fallback only fires on method mismatch;
// without it the mux's built-in 405 would bypass the envelope.)
// allow is the full Allow list ("GET, HEAD"); its first token is the
// mux method pattern — a GET pattern also matches HEAD, so "GET,
// HEAD" routes both through h while advertising both in the 405.
func (s *Server) route(allow, pattern string, h handler) {
	method, _, _ := strings.Cut(allow, ",")
	s.mux.HandleFunc(method+" "+pattern, func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			s.writeError(w, err)
		}
	})
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.writeError(w, withStatus(http.StatusMethodNotAllowed, cerr.New(cerr.CodeBadRequest,
			"server: method %s not allowed on %s", r.Method, pattern)))
	})
}

// registerMetrics wires the front's instruments plus the runtime
// gauges (uptime, goroutines, build info) into the obs registry.
func (s *Server) registerMetrics() {
	r := s.cfg.Metrics
	s.httpRequests = r.Counter("http_requests_total", "HTTP requests served.")
	s.httpDur = r.Histogram("http_request_duration_seconds", "HTTP request handling latency.", nil)
	s.responses = r.CounterVec("http_responses_total", "HTTP responses by status code.", "status")
	s.errorsByCode = r.CounterVec("http_errors_total", "Enveloped error responses by error code.", "code")
	r.GaugeFunc("uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("go_goroutines", "Live goroutine count.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.Info("build_info", "Build metadata from debug.ReadBuildInfo.", buildInfoLabels())
	if cl := s.cfg.Cluster; cl != nil {
		r.GaugeFunc("cluster_ring_version", "Monotonic ring version; bumps on every member up/down transition.",
			func() float64 { return float64(cl.RingVersion()) })
		r.GaugeFunc("cluster_peers_up", "Fleet members currently passing health probes.",
			func() float64 { return float64(cl.PeersUp()) })
		r.GaugeFunc("cluster_peers_total", "Fleet members in the configured ring.",
			func() float64 { return float64(cl.PeersTotal()) })
	}
	if in := s.cfg.Chaos; in != nil {
		r.CounterFunc("chaos_injections_total", "Scripted faults the chaos injector has fired.",
			func() float64 { return float64(in.Fired()) })
	}
}

// buildInfoLabels extracts the build-info idiom labels: Go toolchain
// version, module version and VCS revision when stamped.
func buildInfoLabels() map[string]string {
	labels := map[string]string{"go_version": runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			labels["version"] = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				labels["revision"] = kv.Value
			case "vcs.modified":
				labels["modified"] = kv.Value
			}
		}
	}
	return labels
}

// Handler returns the root handler with request logging and counting
// wrapped around the routing table.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		startT := time.Now()
		rw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rw, r)
		dur := time.Since(startT)
		s.httpRequests.Inc()
		s.httpDur.ObserveDuration(dur)
		s.responses.With(strconv.Itoa(rw.status)).Inc()
		s.logRequest(r, rw, dur)
	})
}

// statusWriter captures the response status and size for logging.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	// meta carries handler-set annotations (cache hit, key, code) into
	// the request log.
	meta struct {
		key, cacheState, errCode string
	}
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so SSE handlers can stream
// through the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// annotate returns the request-log annotations of w (a throwaway when
// w is not the logging wrapper).
func annotate(w http.ResponseWriter) *statusWriter {
	if rw, ok := w.(*statusWriter); ok {
		return rw
	}
	return &statusWriter{}
}

// logRequest emits one structured JSON line per request.
func (s *Server) logRequest(r *http.Request, rw *statusWriter, dur time.Duration) {
	if s.cfg.LogWriter == nil {
		return
	}
	line := map[string]any{
		"ts":     time.Now().UTC().Format(time.RFC3339Nano),
		"method": r.Method,
		"path":   r.URL.Path,
		"status": rw.status,
		"dur_ms": float64(dur.Microseconds()) / 1000,
		"bytes":  rw.bytes,
		"remote": r.RemoteAddr,
	}
	if rw.meta.key != "" {
		line["key"] = rw.meta.key
	}
	if rw.meta.cacheState != "" {
		line["cache"] = rw.meta.cacheState
	}
	if rw.meta.errCode != "" {
		line["code"] = rw.meta.errCode
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.cfg.LogWriter.Write(append(b, '\n'))
}

// HTTPStatus maps the cerr taxonomy onto HTTP statuses. The mapping
// is part of the service contract and documented in the README:
//
//	ERR_BAD_REQUEST, ERR_INVALID_PARAMS,
//	ERR_DECK_PARSE, ERR_MARCH_PARSE,
//	ERR_PLANE_PARSE                        -> 400 Bad Request
//	ERR_GEOMETRY, ERR_NETLIST, ERR_FLOORPLAN,
//	ERR_SIM_DIVERGED, ERR_SIM_SINGULAR,
//	ERR_NON_FINITE, ERR_REPAIR_FAILED      -> 422 Unprocessable Entity
//	ERR_BUDGET_EXCEEDED                    -> 504 Gateway Timeout
//	ERR_OVERLOADED                         -> 429 Too Many Requests (+ Retry-After)
//	ERR_INTERNAL, ERR_UNKNOWN              -> 500 Internal Server Error
//
// An error built by NotFound (or pinned to a status by the front, such
// as 405 or 413) answers with that status instead.
func HTTPStatus(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	switch cerr.CodeOf(err) {
	case cerr.CodeBadRequest, cerr.CodeInvalidParams, cerr.CodeDeckParse, cerr.CodeMarchParse, cerr.CodePlaneParse:
		return http.StatusBadRequest
	case cerr.CodeGeometry, cerr.CodeNetlist, cerr.CodeFloorplan,
		cerr.CodeSimDiverged, cerr.CodeSimSingular, cerr.CodeNonFinite, cerr.CodeRepairFailed:
		return http.StatusUnprocessableEntity
	case cerr.CodeBudgetExceeded:
		return http.StatusGatewayTimeout
	case cerr.CodeOverloaded:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// httpError pins the status an error is answered with.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func withStatus(status int, err error) error { return &httpError{status: status, err: err} }

// NotFound is the enveloped 404 (code ERR_INVALID_PARAMS) for an
// unknown id or key.
func NotFound(format string, args ...any) error {
	return withStatus(http.StatusNotFound, cerr.New(cerr.CodeInvalidParams, format, args...))
}

// retryAfterSeconds computes the Retry-After hint for shed load: the
// observed p50 compile latency scaled by how many queue drains stand
// between the client and a free worker, clamped to [1s, 120s]. With
// no latency data yet (cold process) the floor applies — 1s is long
// enough to matter, short enough to keep a burst's tail latency sane.
func (s *Server) retryAfterSeconds() int {
	p50 := s.compileDur.Snapshot().Quantile(0.5)
	var backlog float64
	if qs := s.cfg.Queue.Stats(); qs.Workers > 0 {
		backlog = float64(qs.Queued+qs.Running) / float64(qs.Workers)
	}
	return min(max(int(p50*(1+backlog)), 1), 120)
}

// envelope is the uniform /v1 response document: exactly one payload
// member (job, sweep or data) plus an explicit error slot that is
// null on success. Paged collection responses additionally carry the
// page metadata beside the payload.
type envelope struct {
	Job   any              `json:"job,omitempty"`
	Sweep any              `json:"sweep,omitempty"`
	Data  any              `json:"data,omitempty"`
	Page  *sweep.Page      `json:"page,omitempty"`
	Error *sweep.WireError `json:"error"`
}

// writeError renders err in the envelope with its mapped status.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := HTTPStatus(err)
	if status == http.StatusTooManyRequests {
		// Shed load carries a concrete hint: the observed p50 compile
		// latency scaled by the queue backlog. Part of the documented
		// retry contract.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	we := &sweep.WireError{
		Code:    cerr.CodeOf(err).String(),
		Stage:   cerr.StageOf(err),
		Message: err.Error(),
	}
	s.errorsByCode.With(we.Code).Inc()
	annotate(w).meta.errCode = we.Code
	s.writeJSON(w, status, envelope{Error: we})
}

// writeJob / writeSweep / writeData render a success envelope with
// the given payload member.
func (s *Server) writeJob(w http.ResponseWriter, status int, v any) {
	s.writeJSON(w, status, envelope{Job: v})
}

func (s *Server) writeSweep(w http.ResponseWriter, status int, v any) {
	s.writeJSON(w, status, envelope{Sweep: v})
}

func (s *Server) writeData(w http.ResponseWriter, status int, v any) {
	s.writeJSON(w, status, envelope{Data: v})
}

// writeJSON renders v as canonical JSON.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := cjson.MarshalIndent(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"ERR_INTERNAL","message":"response encoding failed"}}`,
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(b)
}

// readBody reads a bounded request body; an oversized or broken one
// is a 413 with the given code.
func readBody(w http.ResponseWriter, r *http.Request, code cerr.Code, what string) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	if err != nil {
		return nil, withStatus(http.StatusRequestEntityTooLarge, cerr.Wrap(code, err, "server: %s", what))
	}
	return body, nil
}

// handleCompile is POST /v1/compile: the strict canonical parse and
// key every role shares, then the backend's compile.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	body, err := readBody(w, r, cerr.CodeInvalidParams, "request body")
	if err != nil {
		return err
	}
	req, err := canon.ParseRequest(body)
	if err != nil {
		return err
	}
	params, err := req.Params()
	if err != nil {
		return err
	}
	key, err := canon.KeyOfParams(params)
	if err != nil {
		return err
	}
	annotate(w).meta.key = key
	return s.backend.Compile(w, r, Submission{Body: body, Key: key, Params: params, Start: start})
}

// handleSweepCreate is POST /v1/sweeps.
func (s *Server) handleSweepCreate(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(w, r, cerr.CodeBadRequest, "sweep body")
	if err != nil {
		return err
	}
	spec, err := sweep.ParseSpec(body)
	if err != nil {
		return err
	}
	sw, err := s.sweeps.Create(spec)
	if err != nil {
		return err
	}
	s.writeSweep(w, http.StatusAccepted, sw.Status())
	return nil
}

// lookupSweep resolves the {id} path value.
func (s *Server) lookupSweep(r *http.Request) (*sweep.Sweep, error) {
	sw, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		return nil, NotFound("server: unknown sweep %q", r.PathValue("id"))
	}
	return sw, nil
}

// handleSweepStatus is GET /v1/sweeps/{id}.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) error {
	sw, err := s.lookupSweep(r)
	if err != nil {
		return err
	}
	s.writeSweep(w, http.StatusOK, sw.Status())
	return nil
}

// handleSweepResults is GET /v1/sweeps/{id}/results. Without query
// parameters it returns the full document exactly as it always has;
// with ?offset= and/or ?limit= it returns one window of rows and puts
// the page metadata (total, next_offset) beside the payload in the
// envelope.
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) error {
	sw, err := s.lookupSweep(r)
	if err != nil {
		return err
	}
	res := sw.Results()
	offset, limit, paged, err := PageParams(r)
	if err != nil {
		return err
	}
	if !paged {
		s.writeData(w, http.StatusOK, res)
		return nil
	}
	win, pg := res.Paginate(offset, limit)
	s.writeJSON(w, http.StatusOK, envelope{Data: win, Page: &pg})
	return nil
}

// PageParams parses ?offset=&limit= from a collection request. paged
// is false when neither is present (the full-document default).
func PageParams(r *http.Request) (offset, limit int, paged bool, err error) {
	q := r.URL.Query()
	offStr, limStr := q.Get("offset"), q.Get("limit")
	if offStr == "" && limStr == "" {
		return 0, 0, false, nil
	}
	if offStr != "" {
		offset, err = strconv.Atoi(offStr)
		if err != nil || offset < 0 {
			return 0, 0, false, cerr.New(cerr.CodeInvalidParams,
				"server: offset must be a non-negative integer, got %q", offStr)
		}
	}
	if limStr != "" {
		limit, err = strconv.Atoi(limStr)
		if err != nil || limit < 0 {
			return 0, 0, false, cerr.New(cerr.CodeInvalidParams,
				"server: limit must be a non-negative integer, got %q", limStr)
		}
	}
	return offset, limit, true, nil
}

// handleSweepEvents is GET /v1/sweeps/{id}/events: the live progress
// stream (SSE) — every point transition exactly once by cursor, plus
// heartbeats and a terminal summary.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) error {
	sw, err := s.lookupSweep(r)
	if err != nil {
		return err
	}
	sweep.ServeEvents(w, r, sw, s.cfg.SSEHeartbeat)
	return nil
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
		// Resume debt: what a restart right now would owe (in-flight
		// sweeps and points, and how many of those points would be lost
		// outright without a journal).
		"sweeps": s.sweeps.Backlog(),
	}
	if cl := s.cfg.Cluster; cl != nil {
		body["ring_version"] = cl.RingVersion()
		body["peers_up"] = cl.PeersUp()
		body["peers_total"] = cl.PeersTotal()
	}
	status := s.backend.Health(body)
	s.writeJSON(w, status, body)
}

// handleMetrics is GET /metrics: the obs registry snapshot plus the
// queue (and, on a daemon, cache and store) statistics in one JSON
// document; ?format=prometheus renders the registry as text
// exposition format 0.0.4 for scrapers. ?scope=fleet on a gateway
// scrapes every ring member and re-emits one merged document instead:
// counters and histogram buckets summed, gauges labelled per node.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	prom := r.URL.Query().Get("format") == "prometheus"
	body := map[string]any{"uptime_s": time.Since(s.start).Seconds()}
	if r.URL.Query().Get("scope") == "fleet" {
		if scrapes, errs, ok := s.backend.ScrapeFleet(r.Context()); ok {
			merged := obs.MergeFleet(scrapes)
			if prom {
				writePrometheus(w, merged.WritePrometheus)
				return
			}
			nodes := make([]string, 0, len(scrapes))
			for _, sc := range scrapes {
				nodes = append(nodes, sc.Node)
			}
			body["scope"] = "fleet"
			body["nodes"] = nodes
			body["scrape_errors"] = errs
			body["obs"] = merged.Snapshot()
			s.writeJSON(w, http.StatusOK, body)
			return
		}
	}
	if prom {
		writePrometheus(w, s.cfg.Metrics.WritePrometheus)
		return
	}
	body["obs"] = s.cfg.Metrics.Snapshot()
	body["queue"] = s.cfg.Queue.Stats()
	if c := s.cfg.Cache; c != nil {
		body["cache"] = c.Stats()
	}
	if st := s.cfg.Store; st != nil {
		body["store"] = st.Stats()
	}
	s.writeJSON(w, http.StatusOK, body)
}

func writePrometheus(w http.ResponseWriter, write func(io.Writer) error) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	write(w)
}

// renderTrace is GET /v1/debug/traces/{id}: the retained span set of
// a completed (or in-flight) job — on a gateway, merged with the
// issuing shard's. The representation is negotiated: ?format=tree|
// spans|chrome wins when present, otherwise an Accept header of
// text/plain selects the indented text tree and anything else the
// Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
func (s *Server) renderTrace(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	tr, merged, ok := s.backend.Trace(r.Context(), id)
	if !ok {
		return NotFound("server: no trace for job %q", id)
	}
	format := r.URL.Query().Get("format")
	if format == "" && strings.HasPrefix(r.Header.Get("Accept"), "text/plain") {
		format = "tree"
	}
	var b []byte
	var err error
	switch {
	case format == "tree":
		text := tr.Tree()
		if merged != nil {
			text = merged.Tree()
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, text)
		return nil
	case format == "spans" && merged != nil:
		b, err = merged.SpanSet().JSON()
	case format == "spans":
		// The wire span set a gateway fetches to merge this shard's
		// slice of a distributed trace into the end-to-end view.
		node := ""
		if cl := s.cfg.Cluster; cl != nil {
			node = cl.Self()
		}
		b, err = tr.SpanSet(node).JSON()
	case merged != nil:
		b, err = merged.ChromeJSON()
	default:
		b, err = tr.ChromeJSON()
	}
	if err != nil {
		return cerr.Wrap(cerr.CodeInternal, err, "server: trace rendering")
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	return nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/gds"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/sweep"
)

// local is the daemon's backend: compiles run on this process's queue
// and fill its two-tier artifact cache, the in-memory LRU over the
// optional disk store.
type local struct {
	s    *Server
	cfg  *Config
	jobs *Jobs

	cacheHits    *obs.Counter
	storeHits    *obs.Counter
	cacheMisses  *obs.Counter
	dedupes      *obs.Counter
	storeErrors  *obs.Counter
	stageDur     *obs.HistogramVec
	slowCompiles *obs.Counter
	parStages    *obs.Counter
	parDegree    *obs.Histogram
}

func newLocal(s *Server) *local {
	l := &local{s: s, cfg: &s.cfg, jobs: NewJobs(s.cfg.TraceBudget)}
	l.registerMetrics()
	return l
}

// registerMetrics wires the compile instruments plus the queue, cache
// and store gauges into the obs registry.
func (l *local) registerMetrics() {
	r := l.cfg.Metrics
	l.cacheHits = r.Counter("compile_cache_hits_total", "Compile submissions served from the artifact cache (either tier).")
	l.storeHits = r.Counter("compile_store_hits_total", "Compile submissions served from the disk store tier (memory miss, disk hit).")
	l.cacheMisses = r.Counter("compile_cache_misses_total", "Compile submissions that missed both cache tiers.")
	l.dedupes = r.Counter("compile_deduped_total", "Compile submissions coalesced onto an identical in-flight job.")
	l.s.compileDur = r.Histogram("compile_duration_seconds", "End-to-end compile execution time on a worker.", nil)
	l.stageDur = r.HistogramVec("compile_stage_duration_seconds",
		"Per-span pipeline stage latency (queue wait, compiler stages, bounded kernels).", "stage", nil)
	l.slowCompiles = r.Counter("compile_slow_total", "Compiles that exceeded the slow-compile threshold.")
	l.parStages = r.Counter("compile_parallel_stages_total",
		"Concurrent stage fan-outs executed across all compiles (leafcells∥microcode, multi-start floorplan, analysis transients).")
	l.parDegree = r.Histogram("compile_parallelism",
		"Per-compile goroutine fan-out bound (the parallelism knob after server defaulting).",
		[]float64{1, 2, 4, 8, 16, 32, 64})

	if c := l.cfg.Cache; c != nil {
		r.GaugeFunc("cache_bytes", "Resident artifact cache size in bytes.",
			func() float64 { return float64(c.Stats().Bytes) })
		r.GaugeFunc("cache_entries", "Resident artifact cache entry count.",
			func() float64 { return float64(c.Stats().Entries) })
	}
	if st := l.cfg.Store; st != nil {
		l.storeErrors = r.Counter("store_put_errors_total", "Compiled entries the disk store failed to persist (the compile still succeeds).")
		r.GaugeFunc("store_bytes", "Resident disk store size in bytes.",
			func() float64 { return float64(st.Stats().Bytes) })
		r.GaugeFunc("store_entries", "Disk store object count.",
			func() float64 { return float64(st.Stats().Entries) })
		r.GaugeFunc("store_hits", "Disk store read hits (verified objects served).",
			func() float64 { return float64(st.Stats().Hits) })
		r.GaugeFunc("store_misses", "Disk store read misses.",
			func() float64 { return float64(st.Stats().Misses) })
		r.GaugeFunc("store_evictions", "Disk store objects removed by the byte-budget GC.",
			func() float64 { return float64(st.Stats().Evictions) })
		r.GaugeFunc("store_corrupt", "Disk store objects that failed verification and were quarantined.",
			func() float64 { return float64(st.Stats().Corrupt) })
		r.GaugeFunc("store_scanned_at_startup", "Objects the opening index scan found (restart warmness).",
			func() float64 { return float64(st.Stats().ScannedAtStartup) })
		r.GaugeFunc("store_quarantine_objects", "Files currently held in the bounded quarantine directory.",
			func() float64 { return float64(st.Stats().QuarantineObjects) })
		const peerFetchHelp = "Ring-peer artifact fetches on local store miss, by outcome."
		r.CounterFuncLabeled("store_peer_fetch_total", peerFetchHelp,
			map[string]string{"outcome": "hit"},
			func() float64 { return float64(st.Stats().PeerHits) })
		r.CounterFuncLabeled("store_peer_fetch_total", peerFetchHelp,
			map[string]string{"outcome": "miss"},
			func() float64 { return float64(st.Stats().PeerMisses) })
		r.CounterFuncLabeled("store_peer_fetch_total", peerFetchHelp,
			map[string]string{"outcome": "corrupt"},
			func() float64 { return float64(st.Stats().PeerCorrupt) })
	}
	q := l.cfg.Queue
	r.GaugeFunc("compiles_inflight", "Compiles currently executing on workers.",
		func() float64 { return float64(q.Stats().Running) })
	r.GaugeFunc("queue_depth", "Compile jobs queued and not yet running.",
		func() float64 { return float64(q.Stats().Queued) })
}

// compileResponse is the "job" payload of submit/result responses.
type compileResponse struct {
	Key      string `json:"key"`
	JobID    string `json:"job_id,omitempty"`
	State    string `json:"state"`
	Cached   bool   `json:"cached"`
	Deduped  bool   `json:"deduped,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	// CacheTier names the tier a cached response was served from:
	// "hit" (memory) or "hit-disk" (store, promoted to memory).
	CacheTier string `json:"cache_tier,omitempty"`
	// ElapsedMs is the server-side handling time for this request —
	// on a cache hit it collapses to lookup cost.
	ElapsedMs float64         `json:"elapsed_ms"`
	Artifacts map[string]int  `json:"artifacts,omitempty"` // name -> byte size
	Report    json.RawMessage `json:"report,omitempty"`
}

// lookupEntry probes the two-tier artifact cache: the in-memory LRU
// first, then the disk store, promoting disk hits into memory. The
// returned tier is "hit", "hit-disk" or "miss".
func (l *local) lookupEntry(key string) (*cache.Entry, string, bool) {
	if e, ok := l.cfg.Cache.Get(key); ok {
		return e, "hit", true
	}
	if st := l.cfg.Store; st != nil {
		if e, ok := st.Get(key); ok {
			l.cfg.Cache.Put(e)
			return e, "hit-disk", true
		}
	}
	return nil, "miss", false
}

// Compile serves a keyed POST /v1/compile from the cache tiers or
// this process's queue.
func (l *local) Compile(w http.ResponseWriter, r *http.Request, sub Submission) error {
	key, params := sub.Key, sub.Params
	// Server-side concurrency default. Applied strictly AFTER keying:
	// parallelism is an execution knob the canonical key excludes, so
	// a request compiled serially elsewhere still hits this entry.
	if params.Parallelism == 0 && l.cfg.CompileParallelism > 0 {
		params.Parallelism = l.cfg.CompileParallelism
	}
	pri, err := jobs.ParsePriority(r.URL.Query().Get("priority"))
	if err != nil {
		return err
	}

	// Content-addressed fast path: an identical fully-validated input
	// has already been compiled, in this process (memory tier) or a
	// previous one (disk tier).
	if entry, tier, ok := l.lookupEntry(key); ok {
		l.cacheHits.Inc()
		if tier == "hit-disk" {
			l.storeHits.Inc()
		}
		annotate(w).meta.cacheState = tier
		resp := entryResponse(entry, "", false, sub.Start, true)
		resp.CacheTier = tier
		l.s.writeJob(w, http.StatusOK, resp)
		return nil
	}
	annotate(w).meta.cacheState = "miss"
	l.cacheMisses.Inc()

	// Every submission carries a trace: the queue records the wait span,
	// the pipeline records its stage spans, and the completed tree is
	// retrievable via GET /v1/debug/traces/{job_id}. Deduped
	// submissions share the first submitter's trace. A traceparent
	// header continues the sender's distributed trace — same trace ID,
	// with the remote span remembered so the gateway's merge parents
	// this shard's spans under its proxy.route span.
	tr := obs.NewTrace("")
	if tid, parent, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader)); ok {
		tr = obs.NewTraceRemote(tid, parent)
	}
	job, deduped, err := l.cfg.Queue.SubmitTraced(key, pri, tr, func(ctx context.Context) (any, error) {
		return l.run(ctx, key, params)
	})
	if err != nil {
		// Overload (full or draining queue) back-pressures as
		// ERR_OVERLOADED -> 429 + Retry-After via the standard mapping.
		return err
	}
	l.track(job, key, tr)
	if deduped {
		l.dedupes.Inc()
	}

	handle := compileResponse{Key: key, JobID: job.ID, Deduped: deduped}
	if r.URL.Query().Get("async") != "" {
		handle.State, handle.ElapsedMs = job.State().String(), msSince(sub.Start)
		l.s.writeJob(w, http.StatusAccepted, handle)
		return nil
	}

	waitCtx := r.Context()
	if l.cfg.SyncWait > 0 {
		var cancel context.CancelFunc
		waitCtx, cancel = context.WithTimeout(waitCtx, l.cfg.SyncWait)
		defer cancel()
	}
	value, jerr := job.Result(waitCtx)
	if jerr != nil {
		if waitCtx.Err() != nil && job.State() != jobs.StateFailed {
			// The wait budget expired but the job lives on: hand back a
			// handle instead of an error.
			handle.State, handle.ElapsedMs = job.State().String(), msSince(sub.Start)
			l.s.writeJob(w, http.StatusAccepted, handle)
			return nil
		}
		return jerr
	}
	l.s.writeJob(w, http.StatusOK, entryResponse(value.(*cache.Entry), job.ID, deduped, sub.Start, false))
	return nil
}

// track registers a job this process runs, retaining tr (when non-nil)
// as its trace.
func (l *local) track(j *jobs.Job, key string, tr *obs.Trace) {
	l.jobs.Put(j.ID, JobRecord{Job: j, Key: key}, tr)
	go l.settle(j, key)
}

// settle lets go of a job's queue handle once it finishes: the handle
// holds the result entry, and the registry remembers far more jobs
// than the cache budget holds entries. The record keeps the final
// status and error; the report and artifacts are served from the
// registry's newest results, then from the cache tiers by key.
func (l *local) settle(j *jobs.Job, key string) {
	<-j.Done()
	value, err, _ := j.Peek()
	entry, _ := value.(*cache.Entry)
	l.jobs.settle(j.ID, JobRecord{Key: key, status: jobStatus(j, key), err: err}, entry)
}

// run is one compile job: the pipeline, then its telemetry.
func (l *local) run(ctx context.Context, key string, params compiler.Params) (*cache.Entry, error) {
	runStart := time.Now()
	entry, err := l.runCompile(ctx, key, params)
	l.observeCompile(obs.FromContext(ctx), time.Since(runStart), key, err)
	return entry, err
}

// runCompile executes the pipeline under the job context, renders the
// cacheable artifact set and fills both cache tiers.
func (l *local) runCompile(ctx context.Context, key string, params compiler.Params) (*cache.Entry, error) {
	ctx = chaos.WithContext(ctx, l.cfg.Chaos)
	d, err := compiler.CompileCtx(ctx, params)
	if err != nil {
		return nil, err
	}
	js, err := d.JSON()
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "server: report rendering")
	}
	entry := &cache.Entry{
		Key:       key,
		Report:    []byte(js),
		Artifacts: map[string][]byte{},
		Degraded:  len(d.Degradations) > 0,
	}
	entry.Artifacts["datasheet.json"] = []byte(js)
	entry.Artifacts["datasheet.txt"] = []byte(d.Datasheet())
	var and, or strings.Builder
	if err := d.Prog.WritePlanes(&and, &or); err == nil {
		entry.Artifacts["trpla_and.plane"] = []byte(and.String())
		entry.Artifacts["trpla_or.plane"] = []byte(or.String())
	}
	if d.Top != nil {
		entry.Artifacts["layout.svg"] = []byte(render.SVG(d.Top, render.Options{Depth: 0}))
		var g strings.Builder
		if err := gds.Write(&g, d.Top, d.Top.Name); err == nil {
			entry.Artifacts["layout.gds"] = []byte(g.String())
		}
	}
	l.cfg.Cache.Put(entry)
	if st := l.cfg.Store; st != nil {
		// Disk persistence is best-effort: a full disk or an over-budget
		// object must not fail the compile that produced the entry.
		if perr := st.Put(entry); perr != nil {
			l.storeErrors.Inc()
		}
	}
	return entry, nil
}

// observeCompile folds one finished compile into the telemetry: the
// end-to-end duration histogram, every recorded span (queue wait,
// compiler stages, bounded kernels) into the per-stage histogram vec,
// and — when the execution exceeded the slow-compile threshold — the
// span tree into the forensics log.
func (l *local) observeCompile(tr *obs.Trace, dur time.Duration, key string, err error) {
	l.s.compileDur.ObserveDuration(dur)
	for _, sp := range tr.Spans() {
		l.stageDur.With(sp.Name).ObserveDuration(sp.Dur)
		// The compiler annotates its root span with the effective
		// concurrency: fold the fan-out degree into a histogram and
		// count the concurrent stage groups that actually ran.
		if sp.Name == "compile" {
			for _, a := range sp.Attrs {
				switch a.Key {
				case "parallelism":
					if v, perr := strconv.Atoi(a.Value); perr == nil {
						l.parDegree.Observe(float64(v))
					}
				case "parallel_stages":
					if v, perr := strconv.Atoi(a.Value); perr == nil && v > 0 {
						l.parStages.Add(uint64(v))
					}
				}
			}
		}
	}
	if l.cfg.SlowCompile <= 0 || dur < l.cfg.SlowCompile {
		return
	}
	l.slowCompiles.Inc()
	w := l.cfg.SlowLogWriter
	if w == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SLOW COMPILE key=%s dur=%s threshold=%s", key, dur.Round(time.Microsecond), l.cfg.SlowCompile)
	if err != nil {
		fmt.Fprintf(&b, " err=%s", cerr.CodeOf(err))
	}
	b.WriteByte('\n')
	b.WriteString(tr.Tree())
	l.s.logMu.Lock()
	defer l.s.logMu.Unlock()
	io.WriteString(w, b.String())
}

// entryResponse builds the "job" payload for a completed entry.
func entryResponse(e *cache.Entry, jobID string, deduped bool, startT time.Time, cached bool) compileResponse {
	sizes := make(map[string]int, len(e.Artifacts))
	for name, b := range e.Artifacts {
		sizes[name] = len(b)
	}
	return compileResponse{
		Key: e.Key, JobID: jobID, State: jobs.StateDone.String(),
		Cached: cached, Deduped: deduped, Degraded: e.Degraded,
		ElapsedMs: msSince(startT),
		Artifacts: sizes,
		Report:    json.RawMessage(e.Report),
	}
}

// jobStatusBody is the "job" payload of GET /v1/jobs/{id}.
type jobStatusBody struct {
	JobID     string  `json:"job_id"`
	Key       string  `json:"key"`
	State     string  `json:"state"`
	Priority  string  `json:"priority"`
	Attached  int64   `json:"attached"`
	QueuedMs  float64 `json:"queued_ms"`
	RunMs     float64 `json:"run_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
	ErrorCode string  `json:"error_code,omitempty"`
}

func jobStatus(j *jobs.Job, key string) jobStatusBody {
	submitted, started, finished := j.Times()
	body := jobStatusBody{
		JobID: j.ID, Key: key, State: j.State().String(),
		Priority: j.Priority.String(), Attached: j.Attached(),
	}
	switch {
	case started.IsZero() && !finished.IsZero():
		// Cancelled before execution (drain fast-fail): the queue wait
		// ended when the job was failed, not now.
		body.QueuedMs = float64(finished.Sub(submitted).Microseconds()) / 1000
	case started.IsZero():
		body.QueuedMs = msSince(submitted)
	default:
		body.QueuedMs = float64(started.Sub(submitted).Microseconds()) / 1000
	}
	if !started.IsZero() {
		end := finished
		if end.IsZero() {
			end = time.Now()
		}
		body.RunMs = float64(end.Sub(started).Microseconds()) / 1000
	}
	if _, jerr, done := j.Peek(); done && jerr != nil {
		body.Error = jerr.Error()
		body.ErrorCode = cerr.CodeOf(jerr).String()
	}
	return body
}

// Job serves a tracked job's status, its canonical compile report
// (under "data") or one of its artifacts as a raw stream (no
// envelope) with Content-Length and a per-kind Content-Type.
func (l *local) Job(w http.ResponseWriter, r *http.Request, view string) error {
	id := r.PathValue("id")
	rec, ok := l.jobs.Get(id)
	if !ok {
		return NotFound("server: unknown job %q", id)
	}
	var entry *cache.Entry
	status, jerr, done := rec.status, rec.err, true
	if j := rec.Job; j != nil {
		var value any
		value, jerr, done = j.Peek()
		entry, _ = value.(*cache.Entry)
		status = jobStatus(j, rec.Key)
	}
	if view == "status" {
		l.s.writeJob(w, http.StatusOK, status)
		return nil
	}
	if !done {
		l.s.writeJob(w, http.StatusAccepted, map[string]string{"job_id": id, "state": status.State})
		return nil
	}
	if jerr != nil {
		return jerr
	}
	if entry == nil {
		entry, _ = l.jobs.result(id)
	}
	if entry == nil {
		if cached, _, hit := l.lookupEntry(rec.Key); hit {
			entry = cached
		}
	}
	if entry == nil {
		return NotFound("server: job %q finished but its result is no longer cached", id)
	}
	if view == "result" {
		l.s.writeData(w, http.StatusOK, json.RawMessage(entry.Report))
		return nil
	}
	name := r.PathValue("name")
	body, ok := entry.Artifacts[name]
	if !ok {
		// The job's entry may also have been evicted and refetched;
		// consult the two-tier cache as a second chance.
		if cached, _, hit := l.lookupEntry(rec.Key); hit {
			body, ok = cached.Artifacts[name]
		}
	}
	if !ok {
		return NotFound("server: no artifact %q (have %v)", name, entry.ArtifactNames())
	}
	writeArtifact(w, r, name, body)
	return nil
}

// Object serves GET/HEAD /v1/objects/{key} and GET
// /v1/objects/{key}/report.
//
// The object route is the shard-to-shard artifact fetch: the verbatim
// on-disk image for a content key, served UNVERIFIED by design — the
// fetching peer runs the bytes through its own verified-read path, so
// a corrupt image quarantines on the fetcher exactly like local disk
// rot, and this handler never pays a hash pass.
//
// The report route answers only when a cache tier (memory, disk, or a
// ring peer via the store's fetch seam) already holds the key — it
// never triggers a compile. It is the gateway sweep Lookup seam: how a
// federated sweep tells a warm point from one that needs routing, so
// cluster sweep rows carry the same cached flags a warm single daemon
// would report.
func (l *local) Object(w http.ResponseWriter, r *http.Request, report bool) error {
	key := r.PathValue("key")
	if report {
		entry, _, ok := l.lookupEntry(key)
		if !ok {
			return NotFound("server: key %s not cached", key)
		}
		l.s.writeData(w, http.StatusOK, map[string]any{
			"key":      key,
			"degraded": entry.Degraded,
			"report":   json.RawMessage(entry.Report),
		})
		return nil
	}
	st := l.cfg.Store
	if st == nil {
		return NotFound("server: no object store configured")
	}
	raw, ok := st.ReadRaw(key)
	if !ok {
		return NotFound("server: no object %s", key)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(raw)
	}
	return nil
}

// writeArtifact streams an artifact with its per-kind content type
// and an explicit Content-Length, so clients can size progress bars
// and proxies never have to buffer for chunking. HEAD requests get
// the identical headers with no body — how clients size a download
// without paying for it.
func writeArtifact(w http.ResponseWriter, r *http.Request, name string, body []byte) {
	w.Header().Set("Content-Type", artifactContentType(name))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(body)
	}
}

// artifactContentType maps an artifact name to its media type.
func artifactContentType(name string) string {
	switch {
	case strings.HasSuffix(name, ".json"):
		return "application/json; charset=utf-8"
	case strings.HasSuffix(name, ".svg"):
		return "image/svg+xml"
	case strings.HasSuffix(name, ".gds"):
		return "application/octet-stream"
	default:
		return "text/plain; charset=utf-8"
	}
}

// Sweep runs sweep points through the same two-tier lookup and compile
// job as interactive traffic, and makes their jobs visible on
// /v1/jobs. Point jobs are traced so their spans reach the stage
// histogram, but their traces are not retained: a large sweep would
// push every interactive compile's trace out of the trace store.
func (l *local) Sweep() sweep.Config {
	return sweep.Config{
		Lookup: func(key string) (*cache.Entry, bool) {
			e, _, ok := l.lookupEntry(key)
			return e, ok
		},
		Run: func(ctx context.Context, key string, _ canon.Request, p compiler.Params) (*cache.Entry, error) {
			return l.run(ctx, key, p)
		},
		OnJob:     func(j *jobs.Job, key string) { l.track(j, key, nil) },
		TraceJobs: true,
	}
}

// Trace returns a tracked job's trace; every span is this process's.
func (l *local) Trace(_ context.Context, id string) (*obs.Trace, *obs.Merged, bool) {
	tr, ok := l.jobs.Trace(id)
	return tr, nil, ok
}

// Health reports the worker pool, the draining state (503, so load
// balancers stop routing here) and, on a federated shard, its
// identity.
func (l *local) Health(body map[string]any) int {
	qs := l.cfg.Queue.Stats()
	body["workers"] = qs.Workers
	status := http.StatusOK
	if qs.Draining {
		status = http.StatusServiceUnavailable
		body["status"] = "draining"
	}
	if cl := l.cfg.Cluster; cl != nil {
		body["role"] = "shard"
		body["self"] = cl.Self()
		if gw := cl.Gateway(); gw != "" {
			body["gateway"] = gw
		}
	}
	return status
}

// ScrapeFleet: a daemon has no fleet to scrape; ?scope=fleet serves
// its own metrics.
func (l *local) ScrapeFleet(context.Context) ([]obs.FleetScrape, int, bool) { return nil, 0, false }

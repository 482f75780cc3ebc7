package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sweep"
)

// routeRetry is the gateway's per-peer exchange policy: two quick
// attempts, then move to the ring successor. Failover is the retry
// mechanism at this layer, so per-peer persistence must be short.
var routeRetry = sweep.RetryPolicy{
	MaxAttempts:      2,
	BaseDelay:        50 * time.Millisecond,
	MaxDelay:         500 * time.Millisecond,
	BreakerThreshold: 3,
	BreakerCooldown:  3 * time.Second,
}

// fleetScrapeFanout bounds how many peers one fleet scrape queries
// concurrently.
const fleetScrapeFanout = 8

// FleetConfig wires a Fleet.
type FleetConfig struct {
	// Table is the fleet view (ring + health); required.
	Table *Table
	// Registry receives the routing metrics; share it with the
	// server's so they join its /metrics. Nil allocates a private one.
	// (The server's Cluster view, cluster.View over the same Table,
	// exports the ring gauges.)
	Registry *obs.Registry
	// Chaos, when non-nil, injects scripted faults at the proxy.route,
	// trace.fetch and fleet.scrape points.
	Chaos *chaos.Injector
	// ScrapeTimeout bounds each per-peer exchange of a
	// GET /metrics?scope=fleet scrape; <= 0 means 2s.
	ScrapeTimeout time.Duration
}

// Fleet is the gateway's server.Backend: the daemon's /v1 contract
// fanned across a shard fleet. Compile submissions and key-addressed
// reads route to the key's ring owner (failing over to successors
// while a shard is down); job reads follow the shard that accepted
// the job; sweep points are proxied compiles on the front's sweep
// manager — so the sweep documents a cluster serves are byte-identical
// to a single daemon's, because rows are computed by the same code
// from the same reports.
type Fleet struct {
	cfg    FleetConfig
	client *sweep.Client
	jobs   *server.Jobs

	requests     *obs.CounterVec // proxy_requests_total{peer}
	failures     *obs.CounterVec // proxy_failures_total{peer}
	failovers    *obs.Counter    // proxy_failovers_total
	scrapeErrors *obs.Counter    // fleet_scrape_errors_total
	scrapeDur    *obs.Histogram  // fleet_scrape_duration_seconds
}

// NewFleet builds the fleet backend.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Table == nil {
		return nil, cerr.New(cerr.CodeInvalidParams, "cluster: fleet needs a member table")
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = 2 * time.Second
	}
	f := &Fleet{cfg: cfg, client: sweep.NewClient(""), jobs: server.NewJobs(0)}
	f.client.Retry = routeRetry

	r := cfg.Registry
	f.requests = r.CounterVec("proxy_requests_total", "Exchanges routed to each peer.", "peer")
	f.failures = r.CounterVec("proxy_failures_total", "Failed exchanges per peer (transport errors, open breakers, injected faults).", "peer")
	f.failovers = r.Counter("proxy_failovers_total", "Requests that fell over to a ring successor after the preferred shard failed.")
	f.scrapeErrors = r.Counter("fleet_scrape_errors_total",
		"Per-peer failures (transport, bad status, unparseable exposition, injected faults) during fleet metric scrapes.")
	f.scrapeDur = r.Histogram("fleet_scrape_duration_seconds",
		"Wall-clock time of one whole GET /metrics?scope=fleet scrape across the fleet.", nil)
	// Pre-seed the per-peer children so the exposition is complete and
	// deterministic from the first scrape.
	for _, m := range cfg.Table.Ring().Members() {
		f.requests.With(m)
		f.failures.With(m)
	}
	return f, nil
}

// relay writes a shard's verbatim response to the client, preserving
// the contract-bearing headers — including Retry-After on shed load
// and every X-* diagnostic header, so a 429/5xx proxied through the
// gateway keeps the shard's backoff hint and forensics intact.
func relay(w http.ResponseWriter, resp *sweep.RawResponse) {
	for _, h := range []string{"Content-Type", "Retry-After", "Content-Disposition"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	for k, vs := range resp.Header {
		if !strings.HasPrefix(http.CanonicalHeaderKey(k), "X-") {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	// HEAD responses carry their length in the header, not the body.
	if cl := resp.Header.Get("Content-Length"); cl != "" && len(resp.Body) == 0 {
		w.Header().Set("Content-Length", cl)
	} else {
		w.Header().Set("Content-Length", strconv.Itoa(len(resp.Body)))
	}
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
}

// pathOf is the shard-side path of a request: the /v1 surface is the
// same on every role, so a proxied read keeps its own path and query.
func pathOf(r *http.Request) string {
	if r.URL.RawQuery != "" {
		return r.URL.Path + "?" + r.URL.RawQuery
	}
	return r.URL.Path
}

// exchange routes method+path(+body) to the key's owning shard,
// failing over through ring successors: a transport-level failure (or
// injected route fault) marks the peer down and moves on; any HTTP
// response is a terminal answer. accept, when non-nil, can veto a
// response (e.g. a 404 during key-addressed reads) to keep searching.
func (f *Fleet) exchange(ctx context.Context, key, method, path string, body []byte,
	accept func(status int) bool) (*sweep.RawResponse, string, error) {
	candidates := f.cfg.Table.Route(key)
	if len(candidates) == 0 {
		// Whole fleet marked down: the table may be stale (mass restart),
		// so try everyone in ring order rather than failing outright.
		candidates = f.cfg.Table.Ring().Successors(key, 0)
	}
	var lastErr error
	var lastResp *sweep.RawResponse
	failed := false
	for _, peer := range candidates {
		if failed {
			// Only count re-routes forced by a failed peer — a healthy
			// shard answering "not resident" (accept veto) is a miss,
			// not a failover.
			f.failovers.Inc()
			failed = false
		}
		// The span-derived context flows into DoRaw so the injected
		// traceparent names proxy.route as the remote parent — the span
		// shard-side compile stages nest under after the trace merge.
		rctx, end := obs.Start(ctx, "proxy.route")
		f.cfg.Chaos.Delay(chaos.PointProxyRoute)
		if err := f.cfg.Chaos.Fail(chaos.PointProxyRoute); err != nil {
			f.failures.With(peer).Inc()
			end(obs.String("peer", peer), obs.String("outcome", "chaos"))
			lastErr = err
			failed = true
			continue
		}
		resp, err := f.ask(rctx, peer, method, path, body)
		if err != nil {
			end(obs.String("peer", peer), obs.String("outcome", "error"))
			lastErr = err
			failed = true
			if ctx.Err() != nil {
				break
			}
			continue
		}
		end(obs.String("peer", peer), obs.String("outcome", strconv.Itoa(resp.Status)))
		if accept != nil && !accept(resp.Status) {
			lastResp = resp
			continue
		}
		return resp, peer, nil
	}
	if lastResp != nil {
		// Every shard answered but none acceptably (e.g. nobody has the
		// object): the last real answer beats a synthetic error.
		return lastResp, "", nil
	}
	if lastErr == nil {
		lastErr = cerr.New(cerr.CodeOverloaded, "cluster: no shard reachable for key %s", key)
	}
	return nil, "", lastErr
}

// upMembers lists the routable fleet: up members in ring-member order,
// or everyone when the table says nobody is (stale-table fallback).
func (f *Fleet) upMembers() []string {
	all := f.cfg.Table.Ring().Members()
	up := make([]string, 0, len(all))
	for _, m := range all {
		if f.cfg.Table.Up(m) {
			up = append(up, m)
		}
	}
	if len(up) == 0 {
		return all
	}
	return up
}

// Compile forwards the body verbatim to the key's owner. Every routed
// compile records a gateway trace: the proxy.route spans land here,
// the wire identity travels to the shard, and GET
// /v1/debug/traces/{job_id} merges both sides back together.
func (f *Fleet) Compile(w http.ResponseWriter, r *http.Request, sub server.Submission) error {
	tr := obs.NewTrace("")
	resp, peer, err := f.exchange(obs.WithTrace(r.Context(), tr), sub.Key, http.MethodPost, pathOf(r), sub.Body, nil)
	if err != nil {
		return err
	}
	if id := jobIDOf(resp.Body); id != "" {
		f.jobs.Put(id, server.JobRecord{Peer: peer}, tr)
	}
	relay(w, resp)
	return nil
}

// jobIDOf extracts job.job_id from a compile response envelope, "" if
// absent. Cache hits, most of a warm fleet's traffic, carry no job id
// and skip the decode.
func jobIDOf(body []byte) string {
	if !bytes.Contains(body, []byte(`"job_id"`)) {
		return ""
	}
	var env struct {
		Job struct {
			JobID string `json:"job_id"`
		} `json:"job"`
	}
	if json.Unmarshal(body, &env) != nil {
		return ""
	}
	return env.Job.JobID
}

// Job relays the read from the shard that issued the job.
func (f *Fleet) Job(w http.ResponseWriter, r *http.Request, _ string) error {
	resp, _, err := f.askJob(r.Context(), r.PathValue("id"), r.Method, pathOf(r))
	if err != nil {
		return err
	}
	relay(w, resp)
	return nil
}

// askJob sends a read about job id to the shard that issued it. Job
// ids are per-process counters, so every shard has its own
// job-000100: once the gateway knows the issuing shard, that shard's
// answer is final, 404 included (it may have forgotten the job), and
// an unreachable issuer is an error rather than a search. Only an id
// the gateway never routed is looked for across the up fleet: the
// first answer that isn't 404 wins and its shard is remembered; when
// every shard answers 404 the last one is returned.
func (f *Fleet) askJob(ctx context.Context, id, method, path string) (*sweep.RawResponse, string, error) {
	if rec, ok := f.jobs.Get(id); ok {
		resp, err := f.ask(ctx, rec.Peer, method, path, nil)
		if err != nil {
			return nil, "", cerr.Wrap(cerr.CodeInternal, err, "cluster: shard %s that issued job %q is unreachable", rec.Peer, id)
		}
		return resp, rec.Peer, nil
	}
	var notFound *sweep.RawResponse
	for _, peer := range f.upMembers() {
		resp, err := f.ask(ctx, peer, method, path, nil)
		if err != nil {
			continue
		}
		if resp.Status != http.StatusNotFound {
			f.jobs.Put(id, server.JobRecord{Peer: peer}, nil)
			return resp, peer, nil
		}
		notFound = resp
	}
	if notFound == nil {
		return nil, "", server.NotFound("cluster: unknown job %q", id)
	}
	return notFound, "", nil
}

// ask is one counted exchange with peer; a transport failure marks
// the peer down.
func (f *Fleet) ask(ctx context.Context, peer, method, path string, body []byte) (*sweep.RawResponse, error) {
	f.requests.With(peer).Inc()
	resp, err := f.client.DoRaw(ctx, method, peer+path, body)
	if err != nil {
		f.failures.With(peer).Inc()
		f.cfg.Table.MarkDown(peer)
	}
	return resp, err
}

// Object is a key-addressed read routed by the ring. A shard that
// doesn't hold the object or report (404) is not final — after
// failover a key's artifact may live on a successor, so the search
// continues through the candidates. The report probe never triggers
// a compile.
func (f *Fleet) Object(w http.ResponseWriter, r *http.Request, _ bool) error {
	resp, _, err := f.exchange(r.Context(), r.PathValue("key"), r.Method, r.URL.Path, nil,
		func(status int) bool { return status != http.StatusNotFound })
	if err != nil {
		return err
	}
	relay(w, resp)
	return nil
}

// Sweep proxies each unique point's compile to its owning shard. The
// gateway holds no artifacts — its cache is the fleet's — and its
// router jobs are not the shards' jobs, so it tracks none of them.
func (f *Fleet) Sweep() sweep.Config {
	return sweep.Config{Lookup: f.lookup, Run: f.runProxiedCompile}
}

// lookup is the sweep Lookup hook: ask the key's owning shard (then
// ring successors) for an already-cached report. A hit makes the
// point a cached row, exactly as a warm single daemon's Lookup would;
// any miss or failure just means the point routes a compile.
func (f *Fleet) lookup(key string) (*cache.Entry, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, _, err := f.exchange(ctx, key, http.MethodGet, "/v1/objects/"+key+"/report", nil,
		func(status int) bool { return status == http.StatusOK })
	if err != nil || resp.Status != http.StatusOK {
		return nil, false
	}
	var env struct {
		Data struct {
			Key      string          `json:"key"`
			Degraded bool            `json:"degraded"`
			Report   json.RawMessage `json:"report"`
		} `json:"data"`
	}
	if json.Unmarshal(resp.Body, &env) != nil || env.Data.Key != key || len(env.Data.Report) == 0 {
		return nil, false
	}
	return &cache.Entry{Key: key, Report: env.Data.Report, Degraded: env.Data.Degraded}, true
}

// errPeerLost marks a proxied compile that was accepted by a shard
// which then became unreachable — the one error class worth a full
// re-route (the work is idempotent; a successor recompiles or serves
// its cache).
var errPeerLost = cerr.New(cerr.CodeInternal, "cluster: shard lost after accepting the job")

// runProxiedCompile is the sweep Run hook: POST the point's normalized
// wire request to the owning shard and build the entry from the
// response. One full re-route is allowed when a shard dies between
// accepting and finishing a compile.
func (f *Fleet) runProxiedCompile(ctx context.Context, key string, req canon.Request, _ compiler.Params) (*cache.Entry, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "cluster: encoding request for %s", key)
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		resp, peer, xerr := f.exchange(ctx, key, http.MethodPost, "/v1/compile", body, nil)
		if xerr != nil {
			return nil, xerr
		}
		entry, eerr := f.entryFromCompileResponse(ctx, peer, key, resp)
		if eerr == errPeerLost && ctx.Err() == nil {
			lastErr = eerr
			continue // the dead peer is marked down; re-route to a successor
		}
		return entry, eerr
	}
	return nil, lastErr
}

// entryFromCompileResponse turns a shard's compile response into a
// cache entry: a synchronous 200 carries the report inline; a 202 job
// handle (the shard's sync-wait expired) is polled to completion.
func (f *Fleet) entryFromCompileResponse(ctx context.Context, peer, key string, resp *sweep.RawResponse) (*cache.Entry, error) {
	var env struct {
		Job struct {
			Key      string          `json:"key"`
			JobID    string          `json:"job_id"`
			Degraded bool            `json:"degraded"`
			Report   json.RawMessage `json:"report"`
		} `json:"job"`
		Error *sweep.WireError `json:"error"`
	}
	if err := json.Unmarshal(resp.Body, &env); err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "cluster: shard %s returned non-envelope JSON (status %d)", peer, resp.Status)
	}
	if env.Error != nil {
		return nil, wireToErr(env.Error)
	}
	if resp.Status == http.StatusAccepted || len(env.Job.Report) == 0 {
		return f.pollJobResult(ctx, peer, env.Job.JobID, key)
	}
	if env.Job.Key != key {
		return nil, cerr.New(cerr.CodeInternal, "cluster: shard %s answered key %s for %s", peer, env.Job.Key, key)
	}
	return &cache.Entry{Key: key, Report: env.Job.Report, Degraded: env.Job.Degraded}, nil
}

// codeByName inverts cerr.Code.String for wireToErr.
var codeByName = func() map[string]cerr.Code {
	m := map[string]cerr.Code{}
	for _, c := range cerr.Codes() {
		m[c.String()] = c
	}
	return m
}()

// wireToErr rebuilds a shard's typed error locally, preserving the
// code (so sweep point error codes match a single daemon's) and the
// stage.
func wireToErr(we *sweep.WireError) error {
	code, ok := codeByName[we.Code]
	if !ok {
		code = cerr.CodeInternal
	}
	err := error(cerr.New(code, "%s", we.Message))
	if we.Stage != "" {
		err = cerr.WithStage(we.Stage, err)
	}
	return err
}

// pollJobResult follows a 202 job handle on the issuing shard until
// the job finishes. A transport failure here reports errPeerLost so
// the caller can re-route the whole compile.
func (f *Fleet) pollJobResult(ctx context.Context, peer, jobID, key string) (*cache.Entry, error) {
	if jobID == "" {
		return nil, cerr.New(cerr.CodeInternal, "cluster: shard %s answered without report or job id", peer)
	}
	path := peer + "/v1/jobs/" + jobID + "/result"
	for {
		resp, err := f.client.DoRaw(ctx, http.MethodGet, path, nil)
		if err != nil {
			f.cfg.Table.MarkDown(peer)
			if ctx.Err() != nil {
				return nil, cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "cluster: waiting on %s", jobID)
			}
			return nil, errPeerLost
		}
		if resp.Status == http.StatusAccepted {
			select {
			case <-ctx.Done():
				return nil, cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "cluster: waiting on %s", jobID)
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		var env struct {
			Data  json.RawMessage  `json:"data"`
			Error *sweep.WireError `json:"error"`
		}
		if err := json.Unmarshal(resp.Body, &env); err != nil {
			return nil, cerr.Wrap(cerr.CodeInternal, err, "cluster: job result from %s", peer)
		}
		if env.Error != nil {
			return nil, wireToErr(env.Error)
		}
		if len(env.Data) == 0 {
			return nil, cerr.New(cerr.CodeInternal, "cluster: empty job result from %s", peer)
		}
		return &cache.Entry{Key: key, Report: env.Data}, nil
	}
}

// Trace is the end-to-end view of a routed compile: the gateway's own
// span set is the base; the issuing shard's set is fetched and spliced
// under the proxy.route span that injected the wire identity. A failed
// remote fetch (or an injected trace.fetch fault) degrades to the
// gateway-local spans rather than erroring: a partial trace still
// answers "where did the time go" questions.
func (f *Fleet) Trace(ctx context.Context, id string) (*obs.Trace, *obs.Merged, bool) {
	tr, ok := f.jobs.Trace(id)
	if !ok {
		return nil, nil, false
	}
	sets := []obs.SpanSet{tr.SpanSet("gateway")}
	if remote, ok := f.fetchRemoteSpans(ctx, id); ok {
		sets = append(sets, remote)
	}
	return tr, obs.MergeSpanSets(sets), true
}

// fetchRemoteSpans retrieves the shard-side span set of a routed job
// from the shard that issued it.
func (f *Fleet) fetchRemoteSpans(ctx context.Context, id string) (obs.SpanSet, bool) {
	f.cfg.Chaos.Delay(chaos.PointTraceFetch)
	if err := f.cfg.Chaos.Fail(chaos.PointTraceFetch); err != nil {
		return obs.SpanSet{}, false
	}
	resp, peer, err := f.askJob(ctx, id, http.MethodGet, "/v1/debug/traces/"+id+"?format=spans")
	if err != nil || resp.Status != http.StatusOK {
		return obs.SpanSet{}, false
	}
	ss, err := obs.ParseSpanSet(resp.Body)
	if err != nil {
		return obs.SpanSet{}, false
	}
	if ss.Node == "" {
		ss.Node = peer
	}
	return ss, true
}

// Health reports per-peer up/down and role identification for
// operators telling gateways from shards; the front adds the ring
// version and peer counts from the server's Cluster view. A gateway
// with no reachable shard cannot serve compiles (503).
func (f *Fleet) Health(body map[string]any) int {
	t := f.cfg.Table
	peers := map[string]string{}
	for _, m := range t.Ring().Members() {
		state := "up"
		if !t.Up(m) {
			state = "down"
		}
		peers[m] = state
	}
	body["role"] = "gateway"
	body["peers"] = peers
	if t.PeersUp() == 0 {
		body["status"] = "degraded"
		return http.StatusServiceUnavailable
	}
	return http.StatusOK
}

// ScrapeFleet fetches every ring member's Prometheus exposition with
// bounded fan-out and a per-peer timeout. A peer that fails —
// transport error, bad status, unparseable text, injected fault — is
// skipped (stale-peer tolerance) and counted in
// fleet_scrape_errors_total; the merge proceeds with the rest.
func (f *Fleet) ScrapeFleet(ctx context.Context) (scrapes []obs.FleetScrape, errs int, ok bool) {
	t0 := time.Now()
	members := f.cfg.Table.Ring().Members()
	results := make([]*obs.FleetScrape, len(members))
	sem := make(chan struct{}, fleetScrapeFanout)
	var wg sync.WaitGroup
	var errCount atomic.Int64
	for i, m := range members {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f.cfg.Chaos.Delay(chaos.PointFleetScrape)
			if err := f.cfg.Chaos.Fail(chaos.PointFleetScrape); err != nil {
				errCount.Add(1)
				return
			}
			pctx, cancel := context.WithTimeout(ctx, f.cfg.ScrapeTimeout)
			defer cancel()
			resp, err := f.client.DoRaw(pctx, http.MethodGet, m+"/metrics?format=prometheus", nil)
			if err != nil || resp.Status != http.StatusOK {
				errCount.Add(1)
				return
			}
			fams, perr := obs.ParsePrometheus(bytes.NewReader(resp.Body))
			if perr != nil {
				errCount.Add(1)
				return
			}
			results[i] = &obs.FleetScrape{Node: m, Families: fams}
		}(i, m)
	}
	wg.Wait()
	for _, res := range results {
		if res != nil {
			scrapes = append(scrapes, *res)
		}
	}
	errs = int(errCount.Load())
	f.scrapeErrors.Add(uint64(errs))
	f.scrapeDur.ObserveDuration(time.Since(t0))
	return scrapes, errs, true
}

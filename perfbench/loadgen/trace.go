package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/perfbench/gen"
)

// layerDef is one per-layer metric of the traced run and the
// end-to-end metric and workload it should move.
type layerDef struct{ Name, Unit, Better, Moves, Workload string }

// layerDefs is the per-layer → end-to-end metric → workload map. The
// per_layer list of BENCHMARK.json is this table without its last two
// columns.
var layerDefs = []layerDef{
	{"server.handler_ms", "ms", "lower", "latency_p50_ms", "warm_hits"},
	{"server.client_gap_ms", "ms", "lower", "latency_p50_ms", "warm_hits"},
	{"canon.key_us", "us", "lower", "latency_p50_ms,ops_per_s", "warm_hits"},
	{"cache.hit_ratio", "ratio", "higher", "latency_p50_ms", "warm_hits"},
	{"cache.get_us", "us", "lower", "latency_p50_ms", "warm_hits"},
	{"cache.put_us", "us", "lower", "latency_p50_ms", "warm_hits"},
	{"cache.evictions", "count", "lower", "latency_p50_ms", "warm_hits"},
	{"store.get_ms", "ms", "lower", "latency_p99_ms", "warm_hits"},
	{"store.disk_hit_ratio", "ratio", "lower", "latency_p99_ms", "warm_hits"},
	{"store.put_ms", "ms", "lower", "latency_p50_ms", "cold_compile"},
	{"store.mb_written", "MiB", "lower", "latency_p50_ms", "cold_compile"},
	{"jobs.queue_wait_p50_ms", "ms", "lower", "latency_p99_ms@cold_compile,latency_p50_ms@mc_sweep", "cold_compile,mc_sweep"},
	{"jobs.queue_wait_p90_ms", "ms", "lower", "latency_p99_ms@cold_compile,latency_p50_ms@mc_sweep", "cold_compile,mc_sweep"},
	{"jobs.shed", "count", "lower", "error_rate", "all"},
	{"compiler.compile_ms", "ms", "lower", "latency_p50_ms,ops_per_s,cpu_ms_per_op", "cold_compile"},
	{"compiler.params_ms", "ms", "lower", "latency_p50_ms,ops_per_s,cpu_ms_per_op", "cold_compile"},
	{"compiler.leafcells_ms", "ms", "lower", "latency_p50_ms,ops_per_s,cpu_ms_per_op", "cold_compile"},
	{"compiler.microcode_ms", "ms", "lower", "latency_p50_ms,ops_per_s,cpu_ms_per_op", "cold_compile"},
	{"compiler.macros_ms", "ms", "lower", "latency_p50_ms,ops_per_s,cpu_ms_per_op", "cold_compile"},
	{"compiler.floorplan_ms", "ms", "lower", "latency_p50_ms,ops_per_s,cpu_ms_per_op", "cold_compile"},
	{"compiler.analysis_ms", "ms", "lower", "latency_p50_ms,ops_per_s,cpu_ms_per_op", "cold_compile"},
	{"compiler.timing_access_ms", "ms", "lower", "latency_p50_ms,ops_per_s,cpu_ms_per_op", "cold_compile"},
	{"compiler.timing_tlb_ms", "ms", "lower", "latency_p50_ms,ops_per_s,cpu_ms_per_op", "cold_compile"},
	{"render.svg_ms", "ms", "lower", "latency_p50_ms,max_rss_mb", "cold_compile"},
	{"gds.write_ms", "ms", "lower", "latency_p50_ms,max_rss_mb", "cold_compile"},
	{"cjson.report_ms", "ms", "lower", "latency_p50_ms,max_rss_mb", "cold_compile"},
	{"artifacts.kb_per_compile", "KiB", "lower", "latency_p50_ms,max_rss_mb", "cold_compile"},
	{"sweep.expand_ms", "ms", "lower", "latency_p50_ms", "mc_sweep"},
	{"sweep.unique_compiles", "count", "lower", "latency_p50_ms", "mc_sweep"},
	{"sweep.cached_ratio", "ratio", "higher", "latency_p50_ms", "mc_sweep"},
	{"sweep.results_ms", "ms", "lower", "latency_p50_ms", "mc_sweep"},
	{"mcyield.estimate_ms", "ms", "lower", "ops_per_s,latency_p90_ms", "mc_sweep"},
	{"mcyield.samples_per_s", "1/s", "higher", "ops_per_s,latency_p90_ms", "mc_sweep"},
	{"mcyield.sample_failure_ratio", "ratio", "lower", "ops_per_s,latency_p90_ms", "mc_sweep"},
	{"mcyield.busy_share", "ratio", "lower", "ops_per_s,latency_p90_ms", "mc_sweep"},
	{"cluster.proxy_ms", "ms", "lower", "latency_p50_ms,error_rate", "warm_hits"},
	{"cluster.shard_skew", "ratio", "lower", "latency_p50_ms,error_rate", "warm_hits"},
	{"cluster.failovers", "count", "lower", "latency_p50_ms,error_rate", "warm_hits"},
	{"obs.trace_overhead_pct", "%", "lower", "none", "all"},
}

// compilerStages maps compiler.* metrics to the daemon's stage spans.
var compilerStages = map[string]string{
	"compiler.compile_ms":       "compile",
	"compiler.params_ms":        "compile.params",
	"compiler.leafcells_ms":     "compile.leafcells",
	"compiler.microcode_ms":     "compile.microcode",
	"compiler.macros_ms":        "compile.macros",
	"compiler.floorplan_ms":     "compile.floorplan",
	"compiler.analysis_ms":      "compile.analysis",
	"compiler.timing_access_ms": "timing.access",
	"compiler.timing_tlb_ms":    "timing.tlb",
}

// layerData is what a traced run gathers besides the window itself.
type layerData struct {
	outs   []compileOut // cold: per list item
	pop    []compileOut // warm: the populated working set
	bodies [][]byte
	hits   []int
	ws     []gen.Design
	sweeps []gen.Sweep

	daemonSpans    []wireSpanSet
	direct         layersOut
	directLat      []float64 // warm: hits sent straight to the owning shard
	directGap      []float64
	uniqueCompiles []float64
	value          map[string]float64
	count          map[string]float64
}

// statsDoc is the part of the daemon's JSON /metrics the layers read.
type statsDoc struct {
	Cache struct {
		Hits, Misses, Puts, Evictions float64
	} `json:"cache"`
	Store struct {
		Hits, Misses, Puts, Bytes float64
	} `json:"store"`
}

type wireSpan struct {
	ID          int               `json:"id"`
	Parent      int               `json:"parent"`
	Name        string            `json:"name"`
	StartUnixNs int64             `json:"start_unix_ns"`
	DurNs       int64             `json:"dur_ns"`
	Attrs       map[string]string `json:"attrs"`
}

type wireSpanSet struct {
	JobID string     `json:"-"`
	Spans []wireSpan `json:"spans"`
}

// layersIn and layersOut are the layers command's stdin and stdout.
type layersIn struct {
	Designs []json.RawMessage `json:"designs"`
	Sweeps  []json.RawMessage `json:"sweeps"`
	Members []string          `json:"members"`
	Keys    []string          `json:"keys"`
	Tmp     string            `json:"tmp"`
}

type callStat struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

func (c callStat) meanMs() float64 {
	if c.Count == 0 {
		return 0
	}
	return float64(c.TotalNs) / float64(c.Count) / 1e6
}

type directSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_unix_ns"`
	DurNs   int64  `json:"dur_ns"`
}

type layersOut struct {
	Calls  map[string]callStat `json:"calls"`
	Owners map[string]string   `json:"owners"`
	Spans  []directSpan        `json:"spans"`
}

func scrapeJSON(hc *http.Client, ps []*proc) ([]statsDoc, error) {
	out := make([]statsDoc, len(ps))
	for i, p := range ps {
		if p.name != "bisramgend" {
			continue
		}
		status, body, err := do(hc, http.MethodGet, p.url+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("%s/metrics: status %d", p.url, status)
		}
		if err := json.Unmarshal(body, &out[i]); err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", p.url, err)
		}
	}
	return out, nil
}

const (
	directSample = 12  // inputs handed to the layers command
	spanJobs     = 300 // most recent jobs whose daemon spans are fetched
	directHits   = 600 // warm: hits sent straight to the owning shard
)

// traceLayers gathers the per-layer sources of a traced run while the
// fleet is still up, then writes the trace file and the layer table.
func (b *bench) traceLayers(env envRecord) error {
	ld := b.layer
	if err := b.fetchDaemonSpans(); err != nil {
		return err
	}
	if err := b.runLayers(); err != nil {
		return fmt.Errorf("layers command: %w", err)
	}
	if b.cfg.workload == "warm_hits" {
		if err := b.directShardHits(); err != nil {
			return err
		}
	}
	if b.cfg.workload == "mc_sweep" {
		for _, sp := range b.win.spans {
			id, _ := sp.Args["sweep_id"].(string)
			status, body, err := do(b.hc, http.MethodGet, b.servers[0].url+"/v1/sweeps/"+id, nil)
			if err != nil {
				return err
			}
			var st struct {
				UniqueCompiles int `json:"unique_compiles"`
			}
			if err := envelope(status, http.StatusOK, body, "sweep", &st); err != nil {
				return fmt.Errorf("sweep %s status: %w", id, err)
			}
			ld.uniqueCompiles = append(ld.uniqueCompiles, float64(st.UniqueCompiles))
		}
	}
	b.computeLayers()
	return b.writeTrace(env)
}

// fetchDaemonSpans pulls the spans the daemon recorded for the most
// recent traced jobs.
func (b *bench) fetchDaemonSpans() error {
	ld := b.layer
	var ids []string
	seen := map[string]bool{}
	for _, sp := range b.win.spans {
		if id, _ := sp.Args["job_id"].(string); id != "" && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if len(ids) > spanJobs {
		ids = ids[len(ids)-spanJobs:]
	}
	for _, id := range ids {
		status, body, err := do(b.hc, http.MethodGet, b.servers[0].url+"/v1/debug/traces/"+id+"?format=spans", nil)
		if err != nil {
			return err
		}
		if status == http.StatusNotFound {
			continue // aged out of the daemon's trace retention
		}
		var set wireSpanSet
		if status != http.StatusOK || json.Unmarshal(body, &set) != nil {
			return fmt.Errorf("trace %s: status %d: %.200s", id, status, body)
		}
		set.JobID = id
		ld.daemonSpans = append(ld.daemonSpans, set)
	}
	return nil
}

// runLayers times direct calls into the program's packages on a sample
// of this run's generated inputs.
func (b *bench) runLayers() error {
	ld := b.layer
	var in layersIn
	switch b.cfg.workload {
	case "cold_compile":
		for i := 0; i < directSample; i++ {
			in.Designs = append(in.Designs, ld.ws[i*b.win.calls/directSample].Body())
		}
	case "warm_hits":
		for i := 0; i < directSample; i++ {
			in.Designs = append(in.Designs, ld.bodies[i])
		}
		in.Members = []string{b.servers[0].url, b.servers[1].url}
		for _, o := range ld.pop {
			in.Keys = append(in.Keys, o.Key)
		}
	case "mc_sweep":
		s := ld.sweeps[0]
		in.Sweeps = append(in.Sweeps, s.Body())
		for _, w := range s.Axes.Words {
			d := gen.Design{Words: w, BPW: s.Base.BPW, BPC: s.Base.BPC, Spares: s.Base.Spares,
				Process: s.Axes.Process[0], Corner: s.Base.Corner, Test: "ifa9"}
			in.Designs = append(in.Designs, d.Body())
		}
	}
	var err error
	if in.Tmp, err = b.ps.tempDir("layers"); err != nil {
		return err
	}
	stdin, err := json.Marshal(in)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.cfg.layers)
	cmd.Stdin = bytes.NewReader(stdin)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if err != nil {
		return err
	}
	return json.Unmarshal(stdout, &ld.direct)
}

// directShardHits replays part of the hit sequence straight at each
// key's ring owner, so the gateway hop can be told from the shard's
// own HTTP cost.
func (b *bench) directShardHits() error {
	ld := b.layer
	var next atomic.Int64
	gaps := make([]float64, directHits)
	w := runWindow(clients, &next, min(directHits, len(ld.hits)), time.Minute, false, func(i int, _ *span) (int, error) {
		k := ld.hits[i]
		owner := ld.direct.Owners[ld.pop[k].Key]
		if owner == "" {
			return 1, fmt.Errorf("no ring owner for %s", ld.pop[k].Key)
		}
		t0 := time.Now()
		status, body, err := do(b.hc, http.MethodPost, owner+"/v1/compile", ld.bodies[k])
		if err != nil {
			return 1, err
		}
		out, err := checkHit(status, body, ld.ws[k], ld.pop[k])
		if err != nil {
			return 1, err
		}
		gaps[i] = ms(time.Since(t0)) - out.ElapsedMs
		return 1, nil
	})
	if w.failed > 0 {
		return fmt.Errorf("direct shard hits: %s", strings.Join(w.errs, "; "))
	}
	ld.directLat = w.lat
	ld.directGap = gaps[:w.calls]
	return nil
}

func promMean(before, after []metricSnap, name, labels string) (mean, count float64) {
	c := delta(before, after, name+"_count"+labels)
	if c == 0 {
		return 0, 0
	}
	return delta(before, after, name+"_sum"+labels) / c, c
}

// computeLayers turns the gathered sources into the per-layer metrics.
func (b *bench) computeLayers() {
	ld := b.layer
	v := map[string]float64{}
	n := map[string]float64{}
	set := func(name string, value, count float64) { v[name], n[name] = value, count }
	tw := b.win
	before, after := b.before, b.after

	// server: handler time as the daemon reports it per reply.
	var handler, gap, gwLat, kb []float64
	for _, sp := range tw.spans {
		if h, ok := sp.Args["handler_ms"].(float64); ok {
			handler = append(handler, h)
			gap = append(gap, ms(sp.Dur)-h)
			gwLat = append(gwLat, ms(sp.Dur))
		}
	}
	set("server.handler_ms", median(handler), float64(len(handler)))
	if b.cfg.workload == "warm_hits" {
		gap = ld.directGap
		set("cluster.proxy_ms", median(gwLat)-median(ld.directLat), float64(len(gwLat)))
	} else {
		set("cluster.proxy_ms", 0, 0)
	}
	set("server.client_gap_ms", median(gap), float64(len(gap)))

	// Daemon-side counts over the window.
	var cache, store struct{ hits, misses, puts, evictions, bytes float64 }
	for i, a := range b.jsonAfter {
		m := b.jsonBefore[i]
		cache.hits += a.Cache.Hits - m.Cache.Hits
		cache.misses += a.Cache.Misses - m.Cache.Misses
		cache.puts += a.Cache.Puts - m.Cache.Puts
		cache.evictions += a.Cache.Evictions - m.Cache.Evictions
		store.hits += a.Store.Hits - m.Store.Hits
		store.misses += a.Store.Misses - m.Store.Misses
		store.puts += a.Store.Puts - m.Store.Puts
		store.bytes += a.Store.Bytes - m.Store.Bytes
	}
	lookups := cache.hits + cache.misses
	set("cache.hit_ratio", ratio(cache.hits, lookups), lookups)
	set("cache.evictions", cache.evictions, cache.evictions)
	calls := ld.direct.Calls
	perCall := func(name, call string, scale, count float64) {
		if count > 0 {
			set(name, calls[call].meanMs()*scale, count)
		} else {
			set(name, 0, 0)
		}
	}
	perCall("cache.get_us", "cache.get", 1000, lookups)
	perCall("cache.put_us", "cache.put", 1000, cache.puts)

	requests := delta(before, after, "compile_cache_hits_total") + delta(before, after, "compile_cache_misses_total")
	perCall("canon.key_us", "canon.key", 1000, requests)
	storeHits := delta(before, after, "compile_store_hits_total")
	set("store.disk_hit_ratio", ratio(storeHits, requests), requests)
	perCall("store.get_ms", "store.get", 1, store.hits+store.misses)
	perCall("store.put_ms", "store.put", 1, store.puts)
	set("store.mb_written", store.bytes/(1<<20), store.puts)

	// jobs: queue wait from the daemon's own spans.
	var waits []float64
	for _, set := range ld.daemonSpans {
		for _, sp := range set.Spans {
			if sp.Name == "queue.wait" {
				waits = append(waits, float64(sp.DurNs)/1e6)
			}
		}
	}
	set("jobs.queue_wait_p50_ms", quantile(waits, 0.5), float64(len(waits)))
	set("jobs.queue_wait_p90_ms", quantile(waits, 0.9), float64(len(waits)))
	set("jobs.shed", delta(before, after, "jobs_rejected_total"), delta(before, after, "jobs_submitted_total"))

	// compiler: stage histograms, then artifact builders timed directly.
	for name, stage := range compilerStages {
		m, c := promMean(before, after, "compile_stage_duration_seconds", `{stage="`+stage+`"}`)
		set(name, m*1000, c)
	}
	compiles := n["compiler.compile_ms"]
	perCall("render.svg_ms", "render.svg", 1, compiles)
	perCall("gds.write_ms", "gds.write", 1, compiles)
	perCall("cjson.report_ms", "cjson.report", 1, compiles)
	if b.cfg.workload == "cold_compile" {
		for i := 0; i < tw.calls; i++ {
			if ld.outs[i].Bytes > 0 {
				kb = append(kb, float64(ld.outs[i].Bytes)/1024)
			}
		}
		set("artifacts.kb_per_compile", mean(kb), float64(len(kb)))
	} else if store.puts > 0 {
		set("artifacts.kb_per_compile", store.bytes/store.puts/1024, store.puts)
	} else {
		set("artifacts.kb_per_compile", 0, 0)
	}

	// sweep
	if b.cfg.workload == "mc_sweep" {
		perCall("sweep.expand_ms", "sweep.expand", 1, float64(tw.calls))
	} else {
		set("sweep.expand_ms", 0, 0)
	}
	set("sweep.unique_compiles", mean(ld.uniqueCompiles), float64(len(ld.uniqueCompiles)))
	pts := delta(before, after, "sweep_points_total")
	set("sweep.cached_ratio", ratio(delta(before, after, "sweep_points_cached_total"), pts), pts)
	var results []float64
	for _, sp := range tw.spans {
		for _, s := range sp.Sub {
			if s.Name == "client.sweep.results" {
				results = append(results, ms(s.Dur))
			}
		}
	}
	set("sweep.results_ms", median(results), float64(len(results)))

	// mcyield
	estS, est := promMean(before, after, "mcyield_estimate_duration_seconds", "")
	samples := delta(before, after, "mcyield_samples_total")
	set("mcyield.estimate_ms", estS*1000, est)
	set("mcyield.samples_per_s", ratio(samples, estS*est), samples)
	set("mcyield.sample_failure_ratio", ratio(delta(before, after, "mcyield_sample_failures_total"), samples), samples)
	set("mcyield.busy_share", estS*est/tw.wall.Seconds(), est)

	// cluster: the gateway's per-peer routing counters.
	var peers []float64
	if b.cfg.workload == "warm_hits" {
		gwI := len(b.servers) - 1
		for series, a := range after[gwI] {
			if strings.HasPrefix(series, "proxy_requests_total{") {
				peers = append(peers, a-before[gwI][series])
			}
		}
	}
	sort.Float64s(peers)
	if len(peers) > 0 && peers[0] > 0 {
		set("cluster.shard_skew", peers[len(peers)-1]/peers[0], float64(len(peers)))
	} else {
		set("cluster.shard_skew", 0, float64(len(peers)))
	}
	set("cluster.failovers", delta(before, after, "proxy_failovers_total"), 0)

	// obs: what recording client spans costs a traced op.
	p0 := median(tw.plainLat)
	set("obs.trace_overhead_pct", 100*ratio(median(tw.tracedLat)-p0, p0), float64(len(tw.tracedLat)))

	ld.value, ld.count = v, n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func (b *bench) layerMetrics() map[string]metric {
	out := map[string]metric{}
	for _, d := range layerDefs {
		out[d.Name] = metric{Value: b.layer.value[d.Name], Unit: d.Unit}
	}
	return out
}

// tableRow is one line of the per-layer span table.
type tableRow struct {
	Layer, Name             string
	Count                   int
	TotalMs, SelfMs, WaitMs float64
	Moves, Workload         string
}

// spanLayer names the layer a span or direct call belongs to.
func spanLayer(name string) string {
	switch {
	case strings.HasPrefix(name, "client."):
		return "client"
	case name == "queue.wait":
		return "jobs"
	case strings.HasPrefix(name, "compile"), strings.HasPrefix(name, "timing."),
		strings.HasPrefix(name, "spice."), strings.HasPrefix(name, "floorplan."), strings.HasPrefix(name, "bisr."):
		return "compiler"
	case name == "proxy.route", name == "cluster.owner":
		return "cluster"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// rowMetric names the per-layer metric a span or direct call feeds;
// client spans feed the workload's own latency.
func rowMetric(name string) string {
	switch name {
	case "canon.key":
		return "canon.key_us"
	case "cache.get", "cache.put":
		return name + "_us"
	case "queue.wait":
		return "jobs.queue_wait_p50_ms"
	case "compile", "compiler.compile":
		return "compiler.compile_ms"
	case "spice.transient":
		return "compiler.analysis_ms"
	case "cluster.owner", "proxy.route":
		return "cluster.proxy_ms"
	}
	if stage, ok := strings.CutPrefix(name, "compile."); ok {
		return "compiler." + stage + "_ms"
	}
	if stage, ok := strings.CutPrefix(name, "timing."); ok {
		return "compiler.timing_" + stage + "_ms"
	}
	if strings.HasPrefix(name, "client.") {
		return ""
	}
	return name + "_ms"
}

// spanTable folds client, daemon and direct-call spans into per-name
// rows of count, total, self time (duration less the part covered by
// child spans) and wait.
func (b *bench) spanTable() []tableRow {
	ld := b.layer
	rows := map[string]*tableRow{}
	add := func(name string, total, self, wait float64) {
		r := rows[name]
		if r == nil {
			r = &tableRow{Layer: spanLayer(name), Name: name}
			rows[name] = r
		}
		r.Count++
		r.TotalMs += total
		r.SelfMs += self
		r.WaitMs += wait
	}
	for _, sp := range b.win.spans {
		covered := 0.0
		if h, ok := sp.Args["handler_ms"].(float64); ok {
			covered = h
		}
		for _, s := range sp.Sub {
			covered += ms(s.Dur)
			add(s.Name, ms(s.Dur), ms(s.Dur), 0)
		}
		add(sp.Name, ms(sp.Dur), ms(sp.Dur)-covered, 0)
	}
	for _, set := range ld.daemonSpans {
		for _, sp := range set.Spans {
			dur := float64(sp.DurNs) / 1e6
			wait := 0.0
			if sp.Name == "queue.wait" {
				wait = dur
			}
			add(sp.Name, dur, dur-childCover(set.Spans, sp), wait)
		}
	}
	for name, c := range ld.direct.Calls {
		r := &tableRow{Layer: spanLayer(name), Name: "direct " + name, Count: c.Count,
			TotalMs: float64(c.TotalNs) / 1e6, SelfMs: float64(c.TotalNs) / 1e6}
		rows[r.Name] = r
	}
	var out []tableRow
	for _, r := range rows {
		r.Moves, r.Workload = "latency_p50_ms", b.cfg.workload
		if m := rowMetric(strings.TrimPrefix(r.Name, "direct ")); m != "" {
			for _, d := range layerDefs {
				if d.Name == m {
					r.Moves, r.Workload = d.Moves, d.Workload
				}
			}
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// childCover is how much of parent's interval its children cover,
// counting overlapping children once.
func childCover(spans []wireSpan, parent wireSpan) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	pa, pb := parent.StartUnixNs, parent.StartUnixNs+parent.DurNs
	for _, s := range spans {
		if s.Parent == parent.ID && s.ID != parent.ID {
			ivs = append(ivs, iv{max(s.StartUnixNs, pa), min(s.StartUnixNs+s.DurNs, pb)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var cov, end int64
	for _, x := range ivs {
		if x.a < end {
			x.a = end
		}
		if x.b > x.a {
			cov += x.b - x.a
			end = x.b
		}
	}
	return float64(cov) / 1e6
}

func (b *bench) printLayers(w io.Writer, metrics map[string]metric) {
	fmt.Fprintf(w, "per-layer metrics (%d calls in %.3fs, every other one traced)\n", b.win.calls, b.win.wall.Seconds())
	fmt.Fprintf(w, "  %-30s %14s %-6s %9s  %s\n", "metric", "value", "unit", "count", "moves → workload")
	for _, d := range layerDefs {
		fmt.Fprintf(w, "  %-30s %14.6f %-6s %9.0f  %s → %s\n", d.Name, metrics[d.Name].Value, d.Unit,
			b.layer.count[d.Name], d.Moves, d.Workload)
	}
	fmt.Fprint(w, b.layerTable())
}

func (b *bench) layerTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "span table (count, total, self, wait in ms)\n")
	fmt.Fprintf(&sb, "  %-10s %-28s %8s %12s %12s %12s  %s\n", "layer", "span", "count", "total", "self", "wait", "moves → workload")
	for _, r := range b.spanTable() {
		fmt.Fprintf(&sb, "  %-10s %-28s %8d %12.3f %12.3f %12.3f  %s → %s\n",
			r.Layer, r.Name, r.Count, r.TotalMs, r.SelfMs, r.WaitMs, r.Moves, r.Workload)
	}
	return sb.String()
}

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the traced spans (client, daemon and direct
// calls) as a Chrome trace, and the layer table beside it.
func (b *bench) writeTrace(env envRecord) error {
	if err := os.MkdirAll(b.cfg.out, 0o755); err != nil {
		return err
	}
	var ev []chromeEvent
	us := func(t int64) float64 { return float64(t) / 1e3 }
	meta := func(pid int, name string) {
		ev = append(ev, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
	}
	meta(1, "benchmark client")
	meta(2, "daemon jobs")
	meta(3, "direct calls")
	for _, sp := range b.win.spans {
		ev = append(ev, chromeEvent{Name: sp.Name, Ph: "X", Ts: us(sp.Start.UnixNano()), Dur: us(int64(sp.Dur)), Pid: 1, Tid: sp.Client, Args: sp.Args})
		for _, s := range sp.Sub {
			ev = append(ev, chromeEvent{Name: s.Name, Ph: "X", Ts: us(s.Start.UnixNano()), Dur: us(int64(s.Dur)), Pid: 1, Tid: s.Client})
		}
	}
	for i, set := range b.layer.daemonSpans {
		for _, s := range set.Spans {
			args := map[string]any{"job_id": set.JobID}
			for k, v := range s.Attrs {
				args[k] = v
			}
			ev = append(ev, chromeEvent{Name: s.Name, Ph: "X", Ts: us(s.StartUnixNs), Dur: us(s.DurNs), Pid: 2, Tid: i, Args: args})
		}
	}
	for _, s := range b.layer.direct.Spans {
		ev = append(ev, chromeEvent{Name: s.Name, Ph: "X", Ts: us(s.StartNs), Dur: us(s.DurNs), Pid: 3})
	}
	doc, err := json.Marshal(map[string]any{"traceEvents": ev, "metadata": env})
	if err != nil {
		return err
	}
	base := filepath.Join(b.cfg.out, fmt.Sprintf("%s-seed%d", b.cfg.workload, b.cfg.seed))
	if err := os.WriteFile(base+".trace.json", doc, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.txt", []byte(b.layerTable()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "trace file %s.trace.json (%d events), layer table %s.layers.txt\n", base, len(ev), base)
	return nil
}

package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/perfbench/gen"
)

// Workload sizing. The work lists are longer than a window can use at
// several times today's rates; a window that exhausts its list ends
// early and says so.
const (
	setupRepeats  = 7     // setup_s is the median; a setup takes 0.1–2 s
	coldPerSecond = 600   // list length per window second (today ≈ 150/s)
	warmPerSecond = 20000 // (today ≈ 1.5k/s)
	workingSet    = 200   // designs populated in warm_hits
	shardCacheMB  = 8     // per shard; below each shard's share of the working set
	coldCacheMB   = 32    // bounds the memory tier during a cold window
	mcPerSecond   = 30    // sweeps per window second (today ≈ 7/s)
	// mcSegmentSweeps is the number of sweeps timed on one daemon. The
	// daemon memoizes estimates in a map that resets at 512 entries; a
	// reset in the middle of a sweep would recompute an estimate and
	// break the exact mcyield_estimates_total check. 100 sweeps × 3
	// estimates plus the probe's 2 stay below it.
	mcSegmentSweeps = 100
	warmupOps       = 64 // cold: compiles before the window, off the timed list
	// coldSegmentOps is the number of compiles timed on one daemon; its
	// peak RSS is read after them. About 8 s at today's rates.
	coldSegmentOps = 1000
	// Ops after which peak RSS is read in warm_hits, within a 30-second
	// window even on a slow host (≈900 hits/s).
	warmRSSOps  = 20000
	digestOps   = 200 // cold ops hashed into the output digest
	digestSweep = 16
)

// span is one client call recorded by a traced window.
type span struct {
	Name   string
	Client int
	Start  time.Time
	Dur    time.Duration
	Args   map[string]any
	Sub    []span
}

func (s *span) sub(name string, start time.Time) {
	if s != nil {
		s.Sub = append(s.Sub, span{Name: name, Client: s.Client, Start: start, Dur: time.Since(start)})
	}
}

// opFunc performs list item i and returns how many ops it stands for.
// sp is nil in an untraced window.
type opFunc func(i int, sp *span) (ops int, err error)

// window is the outcome of one closed-loop run over a work list.
type window struct {
	lat       []float64 // ms per successful call
	ops       int       // successful ops
	attempted int
	failed    int
	calls     int
	wall      time.Duration
	spans     []span
	errs      []string
	exhausted bool
	// In a traced window every other item is traced; the latencies of
	// the two halves give the tracing overhead.
	tracedLat, plainLat []float64
}

func (w *window) add(o window) {
	w.lat = append(w.lat, o.lat...)
	w.ops += o.ops
	w.attempted += o.attempted
	w.failed += o.failed
	w.calls += o.calls
	w.wall += o.wall
	w.spans = append(w.spans, o.spans...)
	w.tracedLat = append(w.tracedLat, o.tracedLat...)
	w.plainLat = append(w.plainLat, o.plainLat...)
	w.errs = append(w.errs, o.errs...)
	w.exhausted = w.exhausted || o.exhausted
}

const maxErrs = 8

// runWindow runs a closed loop: each client takes the next list item,
// waits for its reply, and stops taking items once d has passed. With
// traced set, odd items record client spans.
func runWindow(clients int, next *atomic.Int64, limit int, d time.Duration, traced bool, op opFunc) window {
	var mu sync.Mutex
	var w window
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local window
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					local.exhausted = true
					break
				}
				var sp *span
				if traced && i%2 == 1 {
					sp = &span{Client: c}
				}
				t0 := time.Now()
				n, err := safeOp(op, i, sp)
				dt := time.Since(t0)
				local.calls++
				local.attempted += n
				if err != nil {
					local.failed += n
					if len(local.errs) < maxErrs {
						local.errs = append(local.errs, fmt.Sprintf("item %d: %v", i, err))
					}
					continue
				}
				local.ops += n
				local.lat = append(local.lat, ms(dt))
				if sp != nil {
					sp.Start, sp.Dur = t0, dt
					local.spans = append(local.spans, *sp)
					local.tracedLat = append(local.tracedLat, ms(dt))
				} else if traced {
					local.plainLat = append(local.plainLat, ms(dt))
				}
			}
			mu.Lock()
			w.add(local)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	return w
}

func safeOp(op opFunc, i int, sp *span) (n int, err error) {
	n = 1
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return op(i, sp)
}

// bench is one run of one workload.
type bench struct {
	cfg     config
	ps      *procSet
	hc      *http.Client
	servers []*proc // processes whose CPU and memory are charged

	setups                []float64 // seconds
	win                   window    // every timed op
	before, after         []metricSnap
	jsonBefore, jsonAfter []statsDoc // trace mode: cache and store stats
	out                   io.Writer
	cpu                   time.Duration
	rssKiB                int64
	rssOps                int
	digest                string
	checkErrs             []string
	layer                 *layerData
}

func (b *bench) fail(format string, a ...any) {
	b.checkErrs = append(b.checkErrs, fmt.Sprintf(format, a...))
}

// segment is one timed stretch of a window on one set of server
// processes.
type segment struct {
	win           window
	before, after []metricSnap
	cpu           time.Duration // server CPU over the segment
	rssKiB        int64         // peak RSS, read once rssOps ops were done (or at the end)
	full          bool          // rssOps ops were done, so rssKiB is read at that count
}

// measure runs the timed window over a list of limit items on the
// current servers. Peak RSS is read once rssOps ops have completed (or
// at the end of a window that completes fewer): the daemon keeps every
// finished job, so its memory grows with the work done, and a fixed op
// count keeps a faster or slower run from reading as a memory change.
func (b *bench) measure(limit, rssOps int, op opFunc) error {
	var next atomic.Int64
	seg, err := b.measureSegment(&next, limit, rssOps, time.Duration(b.cfg.seconds*float64(time.Second)), op)
	if err != nil {
		return err
	}
	b.win, b.before, b.after, b.cpu, b.rssKiB, b.rssOps = seg.win, seg.before, seg.after, seg.cpu, seg.rssKiB, rssOps
	return nil
}

// measureSegment runs list items from next up to limit on b.servers
// for at most d, with the servers' counters, CPU and peak RSS read
// around it.
func (b *bench) measureSegment(next *atomic.Int64, limit, rssOps int, d time.Duration, op opFunc) (segment, error) {
	var seg segment
	var err error
	if seg.before, err = scrapeAll(b.hc, b.servers); err != nil {
		return seg, err
	}
	if b.cfg.trace {
		if b.jsonBefore, err = scrapeJSON(b.hc, b.servers); err != nil {
			return seg, err
		}
	}
	cpu0, _, err := usage(b.servers)
	if err != nil {
		return seg, err
	}
	var done atomic.Int64
	var rssOnce sync.Once
	var rssErr error
	readRSS := func() { _, seg.rssKiB, rssErr = usage(b.servers) }
	seg.win = runWindow(clients, next, limit, d, b.cfg.trace, func(i int, sp *span) (int, error) {
		n, err := op(i, sp)
		if err == nil && done.Add(int64(n)) >= int64(rssOps) {
			rssOnce.Do(readRSS)
		}
		return n, err
	})
	seg.full = done.Load() >= int64(rssOps)
	cpu1, _, err := usage(b.servers)
	if err != nil {
		return seg, err
	}
	seg.cpu = cpu1 - cpu0
	if rssOnce.Do(readRSS); rssErr != nil {
		return seg, rssErr
	}
	if seg.after, err = scrapeAll(b.hc, b.servers); err != nil {
		return seg, err
	}
	if b.cfg.trace {
		b.jsonAfter, err = scrapeJSON(b.hc, b.servers)
	}
	return seg, err
}

// segmented runs the untimed window over a list of n items as
// segments of segItems items, each on a fresh daemon from start, and
// times only the segments; the current daemon is b.servers[0]. A daemon keeps every finished job and
// memoizes MC estimates in a map that resets when full, so a long
// window on one daemon would time its own growing heap, and a reset
// would break the exact counter checks; a segment bounds both. Peak
// RSS is read after each segment's segItems×opsPerItem ops and the
// median over whole segments is reported. check sees each segment and
// the index of its first item. The traced run keeps one segment, so
// every job's spans can be read from its servers after the window.
func (b *bench) segmented(n, segItems, opsPerItem int, start func() (*proc, error), op opFunc, check func(seg segment, from int)) error {
	if b.cfg.trace {
		segItems = n
	}
	left := time.Duration(b.cfg.seconds * float64(time.Second))
	var next atomic.Int64
	var rss []float64
	for from := 0; ; {
		limit := min(n, from+segItems)
		seg, err := b.measureSegment(&next, limit, segItems*opsPerItem, left, op)
		if err != nil {
			return err
		}
		seg.win.exhausted = seg.win.exhausted && limit == n
		b.win.add(seg.win)
		b.cpu += seg.cpu
		b.before, b.after = seg.before, seg.after
		if seg.full || len(rss) == 0 { // a last, shorter segment reads lower
			rss = append(rss, float64(seg.rssKiB))
		}
		check(seg, from)
		// A client that found the segment's items used up still took an
		// index; the next segment starts right after the last item done.
		from += seg.win.calls
		next.Store(int64(from))
		if left -= seg.win.wall; left <= 0 || from >= n {
			break
		}
		b.ps.stop(b.servers[0])
		d, err := start()
		if err != nil {
			return err
		}
		b.servers = []*proc{d}
	}
	b.rssKiB, b.rssOps = int64(median(rss)), segItems*opsPerItem
	return nil
}

func (b *bench) daemon(name string, extra ...string) (*proc, error) {
	dir, err := b.ps.tempDir(name)
	if err != nil {
		return nil, err
	}
	return b.ps.start("bisramgend", dir+".log", func(url string) []string {
		return append([]string{"-addr", strings.TrimPrefix(url, "http://"), "-store-dir", dir,
			"-quiet", "-drain-timeout", "5s"}, extra...)
	})
}

func hexDigest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cold: every request is a distinct design, so every one misses.
// Setup ends with a few compiles of other designs, so the window does
// not time the daemon's first-compile warm-up (process-local leaf-cell
// memo, heap growth).
//
// The window runs in segments of coldSegmentOps compiles, each on a
// fresh daemon set up the same way (see segmented): the daemon retains
// about a third of a megabyte per compile.
func (b *bench) cold() error {
	designs := gen.Designs(b.cfg.seed, int(coldPerSecond*b.cfg.seconds)+warmupOps)
	warmup, designs := designs[:warmupOps], designs[warmupOps:]
	var d *proc
	start := func() (*proc, error) {
		d, err := b.daemon("cold", "-cache-mb", fmt.Sprint(coldCacheMB))
		if err != nil {
			return nil, err
		}
		if _, err = b.compileAll(d.url, warmup); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return d, nil
	}
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			b.ps.stop(d)
		}
		t0 := time.Now()
		var err error
		if d, err = start(); err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}
	b.servers = []*proc{d}

	outs := make([]compileOut, len(designs))
	bodies := make([][]byte, len(designs))
	for i, ds := range designs {
		bodies[i] = ds.Body()
	}
	op := func(i int, sp *span) (int, error) {
		status, body, err := do(b.hc, http.MethodPost, b.servers[0].url+"/v1/compile", bodies[i])
		if err != nil {
			return 1, err
		}
		out, err := checkCompile(status, body, designs[i])
		if err != nil {
			return 1, err
		}
		if out.Tier != "" {
			return 1, fmt.Errorf("distinct design served from cache tier %q", out.Tier)
		}
		outs[i] = out
		if sp != nil {
			sp.Name = "client.compile"
			sp.Args = map[string]any{"job_id": out.JobID, "handler_ms": out.ElapsedMs}
		}
		return 1, nil
	}
	err := b.segmented(len(designs), cmp.Or(b.cfg.segment, coldSegmentOps), 1, start, op, func(seg segment, from int) {
		if got := delta(seg.before, seg.after, "compile_cache_misses_total"); int(got) != seg.win.calls {
			b.fail("compile_cache_misses_total moved by %v over %d requests", got, seg.win.calls)
		}
	})
	if err != nil {
		return err
	}
	byKey := map[string]int{}
	var dig [][]byte
	for i := 0; i < b.win.calls; i++ {
		o := outs[i]
		if o.Key == "" {
			continue // failed op, already counted
		}
		if j, dup := byKey[o.Key]; dup {
			b.fail("designs %d and %d share key %s", j, i, o.Key)
		}
		byKey[o.Key] = i
		if i < digestOps {
			dig = append(dig, []byte(o.Key), o.ReportSHA[:])
		}
	}
	b.digest = hexDigest(dig...)
	if b.cfg.trace {
		b.layer = &layerData{outs: outs, ws: designs}
	}
	return nil
}

// warm: a gateway over two shards serves a populated working set with
// Zipf skew, from the memory and the disk tier.
func (b *bench) warm() error {
	ws := gen.Designs(b.cfg.seed, workingSet)
	hits := gen.Hits(b.cfg.seed, workingSet, int(warmPerSecond*b.cfg.seconds)+64)
	bodies := make([][]byte, len(ws))
	for i, d := range ws {
		bodies[i] = d.Body()
	}
	var fleet []*proc
	var pop []compileOut
	for i := 0; i < setupRepeats; i++ {
		for j := len(fleet) - 1; j >= 0; j-- {
			b.ps.stop(fleet[j])
		}
		t0 := time.Now()
		f, p, err := b.warmFleet(ws)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		for k := range p {
			if pop != nil && p[k].ReportSHA != pop[k].ReportSHA {
				b.fail("design %d: report differs between two populations", k)
			}
		}
		fleet, pop = f, p
	}
	b.servers = fleet
	gw := fleet[2]

	var memHits, diskHits atomic.Int64
	err := b.measure(len(hits), warmRSSOps, func(i int, sp *span) (int, error) {
		k := hits[i]
		status, body, err := do(b.hc, http.MethodPost, gw.url+"/v1/compile", bodies[k])
		if err != nil {
			return 1, err
		}
		out, err := checkHit(status, body, ws[k], pop[k])
		if err != nil {
			return 1, err
		}
		if out.Tier == "hit" {
			memHits.Add(1)
		} else {
			diskHits.Add(1)
		}
		if sp != nil {
			sp.Name = "client.hit"
			sp.Args = map[string]any{"key": out.Key, "tier": out.Tier, "handler_ms": out.ElapsedMs}
		}
		return 1, nil
	})
	if err != nil {
		return err
	}
	for s := 0; s < 2; s++ {
		if got := b.after[s]["compile_cache_misses_total"] - b.before[s]["compile_cache_misses_total"]; got != 0 {
			b.fail("shard %d compiled %v designs during the hit window", s, got)
		}
	}
	hitsN := delta(b.before[:2], b.after[:2], "compile_cache_hits_total")
	storeN := delta(b.before[:2], b.after[:2], "compile_store_hits_total")
	if int(hitsN) != b.win.calls || int(storeN) != int(diskHits.Load()) || memHits.Load()+diskHits.Load() != int64(b.win.ops) {
		b.fail("shard hits %v (disk %v) vs %d requests; client saw %d memory + %d disk hits",
			hitsN, storeN, b.win.calls, memHits.Load(), diskHits.Load())
	}
	var dig [][]byte
	var total int
	for _, o := range pop {
		dig = append(dig, []byte(o.Key), o.ReportSHA[:])
		total += o.Bytes
	}
	b.digest = hexDigest(dig...)
	if share := total / 2; share <= shardCacheMB<<20 {
		b.fail("working set %d B does not exceed the shard caches (%d MiB each)", total, shardCacheMB)
	}
	if b.cfg.trace {
		b.layer = &layerData{pop: pop, bodies: bodies, hits: hits, ws: ws}
	}
	return nil
}

// warmFleet starts two shards and a gateway and compiles the working
// set through the gateway.
func (b *bench) warmFleet(ws []gen.Design) ([]*proc, []compileOut, error) {
	var fleet []*proc
	for s := 0; s < 2; s++ {
		p, err := b.daemon(fmt.Sprintf("shard%d", s), "-cache-mb", fmt.Sprint(shardCacheMB))
		if err != nil {
			return nil, nil, err
		}
		fleet = append(fleet, p)
	}
	dir, err := b.ps.tempDir("gateway")
	if err != nil {
		return nil, nil, err
	}
	gw, err := b.ps.start("bisramgate", dir+".log", func(url string) []string {
		return []string{"-addr", strings.TrimPrefix(url, "http://"), "-shards", fleet[0].url + "," + fleet[1].url,
			"-drain-timeout", "5s"}
	})
	if err != nil {
		return nil, nil, err
	}
	fleet = append(fleet, gw)

	pop, err := b.compileAll(gw.url, ws)
	if err != nil {
		return nil, nil, fmt.Errorf("populating the working set: %w", err)
	}
	return fleet, pop, nil
}

// compileAll compiles every design through base and checks each reply.
func (b *bench) compileAll(base string, ds []gen.Design) ([]compileOut, error) {
	outs := make([]compileOut, len(ds))
	var next atomic.Int64
	w := runWindow(clients, &next, len(ds), time.Hour, false, func(i int, _ *span) (int, error) {
		status, body, err := do(b.hc, http.MethodPost, base+"/v1/compile", ds[i].Body())
		if err != nil {
			return 1, err
		}
		outs[i], err = checkCompile(status, body, ds[i])
		return 1, err
	})
	if w.failed > 0 {
		return nil, errors.New(strings.Join(w.errs, "; "))
	}
	return outs, nil
}

// mc: sweeps of MC yield points on one daemon; compiles are cached
// after the first sweeps, every estimate is fresh. The window runs in
// segments of mcSegmentSweeps sweeps, each on a fresh daemon that
// first runs the probe sweep (see segmented).
func (b *bench) mc() error {
	sweeps := gen.Sweeps(b.cfg.seed, int(mcPerSecond*b.cfg.seconds)+1)
	if b.cfg.trace {
		sweeps = sweeps[:min(len(sweeps), mcSegmentSweeps)] // one segment; see segmented
	}
	probe := gen.Probe()
	var d *proc
	var probeRows []byte
	start := func() (*proc, error) {
		d, err := b.daemon("mc")
		if err != nil {
			return nil, err
		}
		rows, err := b.sweep(d.url, probe, nil)
		if err != nil {
			return nil, fmt.Errorf("probe sweep: %w", err)
		}
		if probeRows != nil && !bytes.Equal(rows, probeRows) {
			b.fail("probe sweep rows differ between two daemons")
		}
		probeRows = rows
		return d, nil
	}
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			b.ps.stop(d)
		}
		t0 := time.Now()
		var err error
		if d, err = start(); err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}
	b.servers = []*proc{d}

	rowsOut := make([][]byte, len(sweeps))
	op := func(i int, sp *span) (int, error) {
		n := sweeps[i].Points()
		if sp != nil {
			sp.Name = "client.sweep"
		}
		rows, err := b.sweep(b.servers[0].url, sweeps[i], sp)
		rowsOut[i] = rows
		return n, err
	}
	err := b.segmented(len(sweeps), cmp.Or(b.cfg.segment, mcSegmentSweeps), sweeps[0].Points(), start, op, func(seg segment, from int) {
		want := 0
		for _, s := range sweeps[from : from+seg.win.calls] {
			want += s.Estimates()
		}
		if got := delta(seg.before, seg.after, "mcyield_estimates_total"); int(got) != want {
			b.fail("mcyield_estimates_total moved by %v, want %d unique estimates", got, want)
		}
	})
	if err != nil {
		return err
	}
	end, err := b.sweep(b.servers[0].url, probe, nil)
	if err != nil {
		b.fail("closing probe sweep: %v", err)
	} else if !bytes.Equal(end, probeRows) {
		b.fail("probe sweep rows changed across the window")
	}
	dig := [][]byte{probeRows}
	for i := 0; i < min(b.win.calls, digestSweep); i++ {
		dig = append(dig, rowsOut[i])
	}
	b.digest = hexDigest(dig...)
	if b.cfg.trace {
		b.layer = &layerData{sweeps: sweeps}
	}
	return nil
}

// sweep submits s, follows its event stream to the terminal summary
// and fetches and checks the results.
func (b *bench) sweep(base string, s gen.Sweep, sp *span) ([]byte, error) {
	t := time.Now()
	status, body, err := do(b.hc, http.MethodPost, base+"/v1/sweeps", s.Body())
	if err != nil {
		return nil, err
	}
	id, err := checkSweepCreate(status, body, s)
	if err != nil {
		return nil, err
	}
	sp.sub("client.sweep.create", t)
	t = time.Now()
	sum, err := awaitSweep(b.hc, base, id)
	if err != nil {
		return nil, err
	}
	if err := checkSummary(sum, s); err != nil {
		return nil, err
	}
	sp.sub("client.sweep.wait", t)
	t = time.Now()
	status, body, err = do(b.hc, http.MethodGet, base+"/v1/sweeps/"+id+"/results", nil)
	if err != nil {
		return nil, err
	}
	rows, err := checkSweepResults(status, body, s)
	if err != nil {
		return nil, err
	}
	sp.sub("client.sweep.results", t)
	if sp != nil {
		sp.Args = map[string]any{"sweep_id": id, "points": s.Points()}
	}
	return rows, nil
}

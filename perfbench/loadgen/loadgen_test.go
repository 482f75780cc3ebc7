package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/perfbench/gen"
)

// buildBinaries builds bisramgend and bisramgate once for the tests.
var buildBinaries = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/bisramgend", "./cmd/bisramgate")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", errors.New(string(out))
	}
	cmd = exec.Command("go", "build", "-o", dir+string(os.PathSeparator)+"layers", "./layers")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", errors.New(string(out))
	}
	return dir, nil
})

func TestMain(m *testing.M) {
	code := m.Run()
	if dir, err := buildBinaries(); err == nil {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

func tinyConfig(t *testing.T, workload string, seed int64) config {
	t.Helper()
	bin, err := buildBinaries()
	if err != nil {
		t.Fatalf("building the binaries: %v", err)
	}
	return config{
		workload: workload, seed: seed, seconds: 1,
		bin: bin, tmp: t.TempDir(), out: t.TempDir(), root: "../..", layers: bin + "/layers",
		deadline: time.Minute,
	}
}

// assertNothingLeft checks that every child was reaped, nothing listens
// on any child's port any more, and the temp dirs are gone.
func assertNothingLeft(t *testing.T, ps *procSet, tmp string) {
	t.Helper()
	if len(ps.procs) == 0 {
		t.Fatal("the run started no children")
	}
	for _, p := range ps.procs {
		if !p.exited() {
			t.Errorf("%s (pid %d) was not reaped", p.name, p.pid())
		}
		if err := syscall.Kill(p.pid(), 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("%s (pid %d) is still alive: %v", p.name, p.pid(), err)
		}
		if c, err := net.DialTimeout("tcp", strings.TrimPrefix(p.url, "http://"), time.Second); err == nil {
			c.Close()
			t.Errorf("%s still has a listener on %s", p.name, p.url)
		}
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("temp dirs left behind: %v", left)
	}
}

func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

// TestTinyWorkloadsPassAndLeaveNothing runs every workload for a
// second, with two seeds for cold_compile and once traced: the outputs
// must pass every check, every metric must be printed, and no child
// process, listener or temp dir may survive.
func TestTinyWorkloadsPassAndLeaveNothing(t *testing.T) {
	for _, tc := range []struct {
		workload string
		seed     int64
		trace    bool
	}{
		{"cold_compile", 1, false},
		{"cold_compile", 2, false},
		{"warm_hits", 3, false},
		{"mc_sweep", 4, false},
		{"warm_hits", 6, true},
	} {
		cfg := tinyConfig(t, tc.workload, tc.seed)
		cfg.trace = tc.trace
		var out bytes.Buffer
		code, ps := execute(cfg, &out)
		if code != 0 {
			t.Fatalf("%s seed %d: exit %d\n%s", tc.workload, tc.seed, code, out.String())
		}
		res := lastLine(t, out.String())
		if res["correct"] != true || res["failed"] != 0.0 {
			t.Errorf("%s seed %d: result %v", tc.workload, tc.seed, res)
		}
		m, _ := res["metrics"].(map[string]any)
		want := endToEnd
		if tc.trace {
			want = nil
			for _, d := range layerDefs {
				want = append(want, metricDef{d.Name, d.Unit})
			}
			if files, _ := os.ReadDir(cfg.out); len(files) != 2 {
				t.Errorf("traced run wrote %v, want a trace file and a layer table", files)
			}
		}
		if len(m) != len(want) {
			t.Errorf("%s: %d metrics, want %d", tc.workload, len(m), len(want))
		}
		for _, d := range want {
			if _, ok := m[d.Name]; !ok {
				t.Errorf("%s: metric %s missing", tc.workload, d.Name)
			}
		}
		assertNothingLeft(t, ps, cfg.tmp)
	}
}

// TestSegmentedWindowsRestartAndPass cuts the windows of the two
// segmented workloads into short segments: every segment's fresh
// daemon must pass the same checks, and nothing may survive the run.
func TestSegmentedWindowsRestartAndPass(t *testing.T) {
	for _, tc := range []struct {
		workload string
		segment  int
	}{
		{"cold_compile", 40},
		{"mc_sweep", 2},
	} {
		cfg := tinyConfig(t, tc.workload, 7)
		cfg.seconds, cfg.segment = 2, tc.segment
		var out bytes.Buffer
		code, ps := execute(cfg, &out)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", tc.workload, code, out.String())
		}
		if res := lastLine(t, out.String()); res["correct"] != true {
			t.Errorf("%s: result %v", tc.workload, res)
		}
		if len(ps.procs) <= setupRepeats+1 {
			t.Errorf("%s: %d daemons started, want a fresh one per segment", tc.workload, len(ps.procs))
		}
		assertNothingLeft(t, ps, cfg.tmp)
	}
}

// TestDeadlineStopsEverything cuts a run short: it must fail without a
// result line and still stop and reap every child.
func TestDeadlineStopsEverything(t *testing.T) {
	cfg := tinyConfig(t, "warm_hits", 5)
	cfg.seconds = 30
	cfg.deadline = 2 * time.Second
	var out bytes.Buffer
	code, ps := execute(cfg, &out)
	if code == 0 || strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("a cut run exited %d with output\n%s", code, out.String())
	}
	assertNothingLeft(t, ps, cfg.tmp)
}

// TestStartRetriesChildThatDiesBeforeHealthy: a child that exits before
// its /healthz answers is retried on a fresh port, then reported.
func TestStartRetriesChildThatDiesBeforeHealthy(t *testing.T) {
	falseBin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false(1) on this system")
	}
	tmp := t.TempDir()
	ps := newProcSet(strings.TrimSuffix(falseBin, "/false"), tmp, 1)
	dir, err := ps.tempDir("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.start("false", dir+"/log", func(string) []string { return nil }); err == nil {
		t.Fatal("a child that never gets healthy was accepted")
	}
	if len(ps.procs) != bindAttempts {
		t.Errorf("%d attempts, want %d", len(ps.procs), bindAttempts)
	}
	ps.cleanup()
	assertNothingLeft(t, ps, tmp)
}

// validReply is a compile envelope the checks accept for d.
func validReply(d gen.Design) map[string]any {
	arts := map[string]any{}
	for _, n := range wantArtifacts {
		arts[n] = 100
	}
	proc := d.Process
	if d.Corner != "typ" {
		proc += "." + d.Corner
	}
	return map[string]any{
		"error": nil,
		"job": map[string]any{
			"key": strings.Repeat("ab", 32), "job_id": "job-000001", "state": "done",
			"cached": false, "elapsed_ms": 1.5, "artifacts": arts,
			"report": map[string]any{
				"organisation": map[string]any{"words": d.Words, "bits_per_word": d.BPW, "bits_per_column": d.BPC, "spare_rows": d.Spares},
				"process":      map[string]any{"name": proc},
			},
		},
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChecksCatchCorruptedReplies is the negative test: every kind of
// corrupted reply must fail its check.
func TestChecksCatchCorruptedReplies(t *testing.T) {
	d := gen.Designs(1, 1)[0]
	good, err := checkCompile(http.StatusOK, marshal(t, validReply(d)), d)
	if err != nil {
		t.Fatalf("a valid reply was rejected: %v", err)
	}
	job := func(r map[string]any) map[string]any { return r["job"].(map[string]any) }
	corrupt := map[string]func(r map[string]any){
		"error set":        func(r map[string]any) { r["error"] = map[string]any{"code": "ERR_INTERNAL"} },
		"error absent":     func(r map[string]any) { delete(r, "error") },
		"state queued":     func(r map[string]any) { job(r)["state"] = "queued" },
		"bad key":          func(r map[string]any) { job(r)["key"] = "xyz" },
		"artifact missing": func(r map[string]any) { delete(job(r)["artifacts"].(map[string]any), "layout.gds") },
		"artifact empty":   func(r map[string]any) { job(r)["artifacts"].(map[string]any)["layout.svg"] = 0 },
		"wrong words": func(r map[string]any) {
			job(r)["report"].(map[string]any)["organisation"].(map[string]any)["words"] = d.Words * 2
		},
		"wrong process": func(r map[string]any) {
			job(r)["report"].(map[string]any)["process"].(map[string]any)["name"] = "other"
		},
	}
	for name, f := range corrupt {
		r := validReply(d)
		f(r)
		if _, err := checkCompile(http.StatusOK, marshal(t, r), d); err == nil {
			t.Errorf("%s: corrupted reply passed", name)
		}
	}
	if _, err := checkCompile(http.StatusTooManyRequests, marshal(t, validReply(d)), d); err == nil {
		t.Error("a 429 passed")
	}

	// A hit must repeat the populated report byte for byte, from a cache tier.
	hit := validReply(d)
	job(hit)["cache_tier"] = "hit-disk"
	if _, err := checkHit(http.StatusOK, marshal(t, hit), d, good); err != nil {
		t.Errorf("a valid hit was rejected: %v", err)
	}
	job(hit)["report"].(map[string]any)["area_um2"] = 1
	if _, err := checkHit(http.StatusOK, marshal(t, hit), d, good); err == nil {
		t.Error("a hit with a changed report passed")
	}
	if _, err := checkHit(http.StatusOK, marshal(t, validReply(d)), d, good); err == nil {
		t.Error("a hit without a cache tier passed")
	}
}

func sweepReply(s gen.Sweep, mutate func(i int, row map[string]any)) []byte {
	var rows []any
	i := 0
	for _, p := range s.Axes.Process {
		for _, w := range s.Axes.Words {
			for _, sg := range s.Axes.MCSigma {
				row := map[string]any{
					"index": i, "words": w, "bpw": s.Base.BPW, "bpc": s.Base.BPC, "spares": s.Base.Spares,
					"process": p, "cached": i%2 == 0,
					"mc": map[string]any{"samples": s.Base.MCSamples, "sigma": sg, "seed": s.Base.MCSeed, "fail_prob": 0.01},
				}
				if mutate != nil {
					mutate(i, row)
				}
				rows = append(rows, row)
				i++
			}
		}
	}
	b, _ := json.Marshal(map[string]any{"error": nil, "data": map[string]any{
		"complete": true, "total": len(rows), "failed": 0, "rows": rows}})
	return b
}

func TestSweepChecks(t *testing.T) {
	s := gen.Sweeps(1, 1)[0]
	a, err := checkSweepResults(http.StatusOK, sweepReply(s, nil), s)
	if err != nil {
		t.Fatalf("valid results rejected: %v", err)
	}
	// The cached flag depends on timing; the compared rows leave it out.
	b, _ := checkSweepResults(http.StatusOK, sweepReply(s, func(_ int, r map[string]any) { r["cached"] = true }), s)
	if !bytes.Equal(a, b) {
		t.Error("rows differing only in cached compare unequal")
	}
	for name, f := range map[string]func(int, map[string]any){
		"fail_prob above 1": func(i int, r map[string]any) { r["mc"].(map[string]any)["fail_prob"] = 1.5 },
		"fail_prob missing": func(i int, r map[string]any) { delete(r["mc"].(map[string]any), "fail_prob") },
		"mc missing":        func(i int, r map[string]any) { delete(r, "mc") },
		"wrong samples":     func(i int, r map[string]any) { r["mc"].(map[string]any)["samples"] = 1 },
		"wrong sigma":       func(i int, r map[string]any) { r["mc"].(map[string]any)["sigma"] = 0.5 },
		"wrong words":       func(i int, r map[string]any) { r["words"] = 4 },
	} {
		if _, err := checkSweepResults(http.StatusOK, sweepReply(s, f), s); err == nil {
			t.Errorf("%s: corrupted results passed", name)
		}
	}
	if _, err := checkSweepResults(http.StatusInternalServerError, []byte(`{"error":{"code":"ERR_INTERNAL"}}`), s); err == nil {
		t.Error("a 500 passed")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the load generator's metric names
// and units in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the load generator", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, loadgen has %v", i, m.Name, m.Unit, endToEnd[i])
		}
	}
	if len(doc.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the load generator", len(doc.PerLayer), len(layerDefs))
	}
	for i, m := range doc.PerLayer {
		d := layerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, loadgen has %+v", i, m, d)
		}
	}
}

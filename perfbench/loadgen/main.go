// Command loadgen is the benchmark's load generator. It starts the real
// bisramgend and bisramgate binaries on loopback, runs one named
// workload as a closed loop of one client for a fixed window, checks
// every reply, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as the last line of standard output.
//
// It depends only on the binaries' flags and the /v1 HTTP/JSON
// contract: it imports no package of the program. The per-layer
// direct calls live in the separate layers command, used only by the
// traced run.
//
// Usage (from the repository root, with the binaries built into -bin):
//
//	loadgen -workload cold_compile -seed 1 -seconds 30 -trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	segment  int // list items per timed segment; 0 keeps the workload's own
	bin      string
	tmp      string
	out      string
	layers   string
	root     string
	deadline time.Duration // bounds the whole run, setup and teardown included
}

var workloads = map[string]func(*bench) error{
	"cold_compile": (*bench).cold,
	"warm_hits":    (*bench).warm,
	"mc_sweep":     (*bench).mc,
}

// clients is the number of closed-loop clients of every workload. One
// client times each request's service without a second request
// contending for the same two cores: a compile keeps about one core
// busy, one sweep's estimates already spread over every core, and a
// hit passes through three server processes. With nproc clients the
// latencies measured the host scheduler as much as the program, and
// amplified the host's own speed changes.
const clients = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	cfg, ok := parseFlags(args)
	if !ok {
		return 2
	}
	code, _ := execute(cfg, stdout)
	return code
}

func parseFlags(args []string) (config, bool) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	cfg := config{deadline: 165 * time.Second}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "cold_compile, warm_hits or mc_sweep")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "timed window length")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory of bisramgend and bisramgate")
	fs.StringVar(&cfg.tmp, "tmp", ".bench_build/tmp", "parent of the run's temp dirs")
	fs.StringVar(&cfg.out, "out", ".bench_build/trace", "where a traced run writes its trace file and layer table")
	fs.StringVar(&cfg.layers, "layers", ".bench_build/bin/layers", "the layers command (traced run only)")
	fs.StringVar(&cfg.root, "root", ".", "repository root, hashed into the environment record")
	if err := fs.Parse(args); err != nil {
		return cfg, false
	}
	cfg.trace = trace == 1
	if workloads[cfg.workload] == nil || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "loadgen: need -workload cold_compile|warm_hits|mc_sweep, -seconds > 0, -trace 0|1")
		return cfg, false
	}
	return cfg, true
}

// execute runs one workload and returns the exit code, and the process
// set so tests can check that nothing outlived the run.
func execute(cfg config, stdout io.Writer) (int, *procSet) {
	ps := newProcSet(cfg.bin, cfg.tmp, runtime.NumCPU())
	defer ps.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

	done := make(chan error, 1)
	b := &bench{cfg: cfg, ps: ps, hc: newHTTP(clients), out: stdout}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v", r)
			}
		}()
		done <- runBench(b)
	}()
	var err error
	finished := false
	select {
	case err = <-done:
		finished = true
	case s := <-sig:
		err = fmt.Errorf("interrupted by %v", s)
	case <-time.After(cfg.deadline):
		err = fmt.Errorf("run deadline %v exceeded", cfg.deadline)
	}
	// Every exit path stops and reaps the children before returning.
	ps.cleanup()
	if !finished {
		// With its children gone the workload fails fast; let it unwind
		// before anything reads the bench or the output.
		select {
		case <-done:
		case <-time.After(10 * time.Second):
		}
	}
	b.hc.CloseIdleConnections()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1, ps
	}
	return report(b, stdout), ps
}

func runBench(b *bench) error {
	env := environment(b.cfg)
	line, _ := json.Marshal(env)
	fmt.Fprintf(b.out, "env %s\n", line)
	if err := workloads[b.cfg.workload](b); err != nil {
		return err
	}
	if b.cfg.trace {
		return b.traceLayers(env)
	}
	return nil
}

// report prints the human-readable summary and the result line, and
// returns the exit code: non-zero on any failed check.
func report(b *bench, stdout io.Writer) int {
	w := b.win
	correct := w.failed == 0 && len(b.checkErrs) == 0
	fmt.Fprintf(stdout, "workload %s seed %d clients %d window %.3fs calls %d ops %d digest %s\n",
		b.cfg.workload, b.cfg.seed, clients, w.wall.Seconds(), w.calls, w.ops, b.digest)
	if w.exhausted {
		fmt.Fprintln(stdout, "note: the work list ran out before the window ended")
	}
	for _, e := range append(w.errs, b.checkErrs...) {
		fmt.Fprintln(stdout, "FAILED CHECK:", e)
	}
	var metrics map[string]metric
	if b.cfg.trace {
		metrics = b.layerMetrics()
		b.printLayers(stdout, metrics)
	} else {
		metrics = b.endToEnd()
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "  %-16s %14.6f %-5s %s\n", m.Name, metrics[m.Name].Value, m.Unit, metrics[m.Name].note)
		}
		lat := append([]float64(nil), w.lat...)
		fmt.Fprintf(stdout, "  %-16s %14.6f %-5s n=%d, %d beyond (not gated)\n", "latency_p99_ms", quantile(lat, 0.99), "ms",
			len(lat), beyond(len(lat), 0.99))
		fmt.Fprintf(stdout, "  %-16s %14.6f %-5s %d of %d ops (reported as failed/attempted)\n", "error_rate",
			float64(w.failed)/float64(max(1, w.attempted)), "ratio", w.failed, w.attempted)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(1, w.attempted), w.failed, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

type metricDef struct{ Name, Unit string }

// endToEnd lists the gated metrics of a timed run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mb", "MiB"},
}

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return n - int(float64(n)*q+0.5) }

func (b *bench) endToEnd() map[string]metric {
	w := b.win
	lat := append([]float64(nil), w.lat...)
	n := len(lat)
	ops := float64(max(1, w.ops))
	return map[string]metric{
		"setup_s":        {median(b.setups), "s", fmt.Sprintf("median of %d setups %v", len(b.setups), b.setups)},
		"ops_per_s":      {float64(w.ops) / w.wall.Seconds(), "1/s", fmt.Sprintf("%d ops in %.3fs", w.ops, w.wall.Seconds())},
		"latency_p50_ms": {quantile(lat, 0.5), "ms", fmt.Sprintf("n=%d", n)},
		"latency_p90_ms": {quantile(lat, 0.9), "ms", fmt.Sprintf("n=%d, %d beyond", n, beyond(n, 0.9))},
		"cpu_ms_per_op":  {ms(b.cpu) / ops, "ms", fmt.Sprintf("%.0f ms CPU over %d server processes", ms(b.cpu), len(b.servers))},
		"max_rss_mb":     {float64(b.rssKiB) / 1024, "MiB", fmt.Sprintf("sum of peak RSS over %d server processes, read after %d ops", len(b.servers), b.rssOps)},
	}
}

// envRecord describes where a run ran.
type envRecord struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"children_gomaxprocs"`
	Clients      int    `json:"clients"`
	GoVersion    string `json:"go_version"`
	CPU          string `json:"cpu_model"`
	SourceSHA256 string `json:"source_sha256"`
	Commit       string `json:"commit"`
}

func environment(cfg config) envRecord {
	e := envRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.NumCPU(), Clients: clients,
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: os.Getenv("BENCH_COMMIT"),
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	e.SourceSHA256 = sourceDigest(cfg.root)
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod, naming the
// tree under test when the checkout carries no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	walkErr := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if walkErr != nil {
		return "unknown: " + walkErr.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

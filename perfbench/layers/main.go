// Command layers times direct calls into the program's public
// functions — canon, compiler, render, gds, cjson, cache, store,
// sweep, mcyield and cluster.Ring — on inputs the benchmark generated,
// giving self times for layers the daemon does not span. Only the
// traced run uses it, so a refactor of these packages can break the
// traced run but never the timed one.
//
// It reads one JSON request on standard input:
//
//	{"designs": [<compile request>...], "sweeps": [<sweep spec>...],
//	 "members": [<shard URL>...], "keys": [<content key>...], "tmp": <dir>}
//
// and writes {"calls": {name: {count, total_ns}}, "owners": {key: URL},
// "spans": [...]} to standard output.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/gds"
	"repro/internal/mcyield"
	"repro/internal/render"
	"repro/internal/store"
	"repro/internal/sweep"
)

type input struct {
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

type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_unix_ns"`
	DurNs   int64  `json:"dur_ns"`
}

type output struct {
	Calls  map[string]callStat `json:"calls"`
	Owners map[string]string   `json:"owners"`
	Spans  []span              `json:"spans"`
}

// Repetitions of the cheap calls, so each mean covers well over a
// timer tick.
const (
	keyReps   = 50
	cacheReps = 200
	storeReps = 5
	maxSpans  = 2000
)

// recorder accumulates per-name call statistics and a bounded span log.
type recorder struct{ out output }

func (r *recorder) time(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	c := r.out.Calls[name]
	c.Count++
	c.TotalNs += int64(d)
	r.out.Calls[name] = c
	if len(r.out.Spans) < maxSpans {
		r.out.Spans = append(r.out.Spans, span{Name: name, StartNs: t0.UnixNano(), DurNs: int64(d)})
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(stdin io.Reader, stdout io.Writer) error {
	var in input
	if err := json.NewDecoder(stdin).Decode(&in); err != nil {
		return fmt.Errorf("input: %w", err)
	}
	r := &recorder{out: output{Calls: map[string]callStat{}, Owners: map[string]string{}}}
	st, err := store.Open(store.Config{Dir: in.Tmp})
	if err != nil {
		return err
	}
	c := cache.New(1 << 30)
	for _, body := range in.Designs {
		if err := r.design(body, c, st); err != nil {
			return err
		}
	}
	for _, body := range in.Sweeps {
		if err := r.sweep(body); err != nil {
			return err
		}
	}
	if len(in.Members) > 0 {
		ring, err := cluster.NewRing(in.Members, cluster.DefaultVNodes)
		if err != nil {
			return err
		}
		for _, k := range in.Keys {
			_ = r.time("cluster.owner", func() error {
				r.out.Owners[k] = ring.Owner(k)
				return nil
			})
		}
	}
	return json.NewEncoder(stdout).Encode(r.out)
}

// design keys, compiles and renders one request the way the daemon
// does, then round-trips its entry through the cache and the store.
func (r *recorder) design(body []byte, c *cache.Cache, st *store.Store) error {
	var p compiler.Params
	var key string
	for i := 0; i < keyReps; i++ {
		err := r.time("canon.key", func() error {
			req, err := canon.ParseRequest(body)
			if err != nil {
				return err
			}
			if p, err = req.Params(); err != nil {
				return err
			}
			key, err = canon.KeyOfParams(p)
			return err
		})
		if err != nil {
			return err
		}
	}
	var d *compiler.Design
	if err := r.time("compiler.compile", func() (err error) {
		d, err = compiler.CompileCtx(context.Background(), p)
		return err
	}); err != nil {
		return err
	}
	e := &cache.Entry{Key: key, Artifacts: map[string][]byte{}}
	if err := r.time("cjson.report", func() error {
		js, err := d.JSON()
		e.Report = []byte(js)
		return err
	}); err != nil {
		return err
	}
	e.Artifacts["datasheet.json"] = e.Report
	if d.Top != nil {
		_ = r.time("render.svg", func() error {
			e.Artifacts["layout.svg"] = []byte(render.SVG(d.Top, render.Options{Depth: 0}))
			return nil
		})
		if err := r.time("gds.write", func() error {
			var g strings.Builder
			err := gds.Write(&g, d.Top, d.Top.Name)
			e.Artifacts["layout.gds"] = []byte(g.String())
			return err
		}); err != nil {
			return err
		}
	}
	for i := 0; i < cacheReps; i++ {
		_ = r.time("cache.put", func() error { c.Put(e); return nil })
		if err := r.time("cache.get", func() error {
			if _, ok := c.Get(key); !ok {
				return fmt.Errorf("cache lost %s", key)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if err := r.time("store.put", func() error { return st.Put(e) }); err != nil {
		return err
	}
	for i := 0; i < storeReps; i++ {
		if err := r.time("store.get", func() error {
			if _, ok := st.Get(key); !ok {
				return fmt.Errorf("store lost %s", key)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// sweep expands one sweep spec and runs the MC estimates it needs.
func (r *recorder) sweep(body []byte) error {
	var pts []sweep.Point
	if err := r.time("sweep.expand", func() error {
		spec, err := sweep.ParseSpec(body)
		if err != nil {
			return err
		}
		pts, err = spec.Expand(sweep.DefaultMaxPoints)
		return err
	}); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, pt := range pts {
		req := pt.Req
		id := fmt.Sprintf("%s/%s/%g", req.Process, req.Corner, req.MCSigma)
		if !req.MCEnabled() || seen[id] {
			continue
		}
		seen[id] = true
		p, err := req.Params()
		if err != nil {
			return err
		}
		if err := r.time("mcyield.estimate", func() error {
			_, err := mcyield.Estimate(context.Background(), mcyield.Config{
				Process: p.Process, Samples: req.MCSamples, Sigma: req.MCSigma,
				Shift: mcyield.DefaultShift, Seed: req.MCSeed,
			})
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

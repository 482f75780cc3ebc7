package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/canon"
	"repro/internal/sweep"
	"repro/perfbench/gen"
)

// TestGeneratedInputsAreValid resolves every generated design and every
// sweep point through the daemon's own loader, which runs
// compiler.Params.Validate.
func TestGeneratedInputsAreValid(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		keys := map[string]bool{}
		for _, d := range gen.Designs(seed, 3000) {
			req, err := canon.ParseRequest(d.Body())
			if err != nil {
				t.Fatalf("%+v: %v", d, err)
			}
			key, err := req.Key()
			if err != nil {
				t.Fatalf("%+v: %v", d, err)
			}
			if keys[key] {
				t.Fatalf("%+v: key %s repeats", d, key)
			}
			keys[key] = true
		}
		for _, s := range append(gen.Sweeps(seed, 245), gen.Probe()) {
			spec, err := sweep.ParseSpec(s.Body())
			if err != nil {
				t.Fatal(err)
			}
			pts, err := spec.Expand(sweep.DefaultMaxPoints)
			if err != nil || len(pts) != s.Points() {
				t.Fatalf("%s: %d points, %v", s.Body(), len(pts), err)
			}
			for _, p := range pts {
				if _, err := p.Req.Params(); err != nil {
					t.Fatalf("%s: %v", s.Body(), err)
				}
			}
		}
	}
}

func TestRunTimesEveryLayer(t *testing.T) {
	s := gen.Sweeps(1, 1)[0]
	in, _ := json.Marshal(map[string]any{
		"designs": []json.RawMessage{gen.Designs(1, 1)[0].Body()},
		"sweeps":  []json.RawMessage{s.Body()},
		"members": []string{"http://a", "http://b"},
		"keys":    []string{"k1", "k2"},
		"tmp":     t.TempDir(),
	})
	var out bytes.Buffer
	if err := run(bytes.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var res output
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"canon.key", "compiler.compile", "cjson.report", "render.svg", "gds.write",
		"cache.put", "cache.get", "store.put", "store.get", "sweep.expand", "mcyield.estimate", "cluster.owner"} {
		if res.Calls[name].Count == 0 {
			t.Errorf("%s was not timed", name)
		}
	}
	if len(res.Owners) != 2 {
		t.Errorf("owners %v", res.Owners)
	}
}

// Package gen derives every input of the benchmark from the workload
// seed: compile requests, the hit sequence over a working set, and MC
// sweep specs. It imports only the standard library, so the timed
// load generator depends on nothing but the /v1 wire contract.
package gen

import (
	"encoding/json"
	"math/rand"
)

// Processes, Corners and Tests are the built-in selectors of the
// daemon's request schema that the generator draws from.
var (
	Processes = []string{"cda05u3m1p", "cda07u3m1p", "mos06u3m1pHP"}
	Corners   = []string{"typ", "slow", "fast"}
	Tests     = []string{"ifa9", "ifa13", "mats+", "marchx", "marchy", "marchb", "marchc-"}
)

var (
	wordChoices  = []int{256, 512, 1024, 2048, 4096}
	bpcChoices   = []int{1, 2, 4, 8}
	spareChoices = []int{0, 4, 8, 16}
)

const minBPW, maxBPW = 4, 32

// Design is one compile request: the geometry and selectors a designer
// varies. Every generated design satisfies the compiler's parameter
// envelope: words a power of two divisible by bpc, at least two rows,
// and spares in {0,4,8,16} no larger than the row count.
type Design struct {
	Words   int    `json:"words"`
	BPW     int    `json:"bpw"`
	BPC     int    `json:"bpc"`
	Spares  int    `json:"spares"`
	Process string `json:"process"`
	Corner  string `json:"corner"`
	Test    string `json:"test"`
}

// Body is the POST /v1/compile request body.
func (d Design) Body() []byte {
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

// Designs returns n distinct designs drawn over process × corner ×
// words × bpw × bpc × spares × test. Distinct designs have distinct
// content keys, so every one of them misses a fresh cache.
func Designs(seed int64, n int) []Design {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[Design]bool, n)
	out := make([]Design, 0, n)
	for len(out) < n {
		d := Design{
			Words:   wordChoices[r.Intn(len(wordChoices))],
			BPW:     minBPW + r.Intn(maxBPW-minBPW+1),
			BPC:     bpcChoices[r.Intn(len(bpcChoices))],
			Spares:  spareChoices[r.Intn(len(spareChoices))],
			Process: Processes[r.Intn(len(Processes))],
			Corner:  Corners[r.Intn(len(Corners))],
			Test:    Tests[r.Intn(len(Tests))],
		}
		if d.Spares > d.Words/d.BPC || seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// ZipfSkew is the exponent of the hit-sequence popularity law.
const ZipfSkew = 1.1

// Hits returns n indexes into a working set of size m, drawn with Zipf
// skew so a few designs are hot and the long tail is cold.
func Hits(seed int64, m, n int) []int {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	z := rand.NewZipf(r, ZipfSkew, 1, uint64(m-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// SweepBase is the base request of an MC sweep; the MC knobs ride on
// it and the axes vary the geometry, process and spread.
type SweepBase struct {
	Words     int    `json:"words"`
	BPW       int    `json:"bpw"`
	BPC       int    `json:"bpc"`
	Spares    int    `json:"spares"`
	MCSamples int    `json:"mc_samples"`
	MCSeed    int64  `json:"mc_seed"`
	Corner    string `json:"corner"`
}

// SweepAxes is the swept part of an MC sweep.
type SweepAxes struct {
	Words   []int     `json:"words"`
	Process []string  `json:"process"`
	MCSigma []float64 `json:"mc_sigma"`
}

// Sweep is one POST /v1/sweeps body.
type Sweep struct {
	Base SweepBase `json:"base"`
	Axes SweepAxes `json:"axes"`
}

// Body is the POST /v1/sweeps request body.
func (s Sweep) Body() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Points is the number of points the sweep expands to.
func (s Sweep) Points() int {
	return len(s.Axes.Words) * len(s.Axes.Process) * len(s.Axes.MCSigma)
}

// Estimates is the number of distinct Monte-Carlo estimates the sweep
// needs: one per (process, sigma), shared by every geometry.
func (s Sweep) Estimates() int { return len(s.Axes.Process) * len(s.Axes.MCSigma) }

// MCSamples is the fixed per-estimate sample count of every sweep.
const MCSamples = 2048

// ProbeSeed is the mc_seed of the probe sweep; no workload sweep uses
// it, so the probe never shares an estimate with the timed window.
const ProbeSeed = 1

// SweepSigma is the mc_sigma of every workload sweep. It keeps to the
// high-spread regime, where every estimate sees genuine failures
// (p ≥ 1e-3 on every process). Where failures are rare, one diverged
// sample with a tiny importance weight can give 0 < p < 1e-16; the
// daemon's sigma_level then overflows to +Inf and
// GET /v1/sweeps/{id}/results answers 500 (a defect of
// internal/mcyield, left for its own fix; e.g. cda07u3m1p, σ 0.05,
// 8192 samples, seed 429085993865).
const SweepSigma = 0.2

var sweepWords = []int{512, 1024, 2048}

// Probe is the fixed-seed sweep run before and after the timed window;
// its rows must not change.
func Probe() Sweep {
	return Sweep{
		Base: SweepBase{Words: 1024, BPW: 16, BPC: 4, Spares: 4, MCSamples: MCSamples, MCSeed: ProbeSeed, Corner: "typ"},
		Axes: SweepAxes{Words: []int{1024}, Process: []string{"cda07u3m1p"}, MCSigma: []float64{0.18, 0.22}},
	}
}

// Sweeps returns n MC sweeps of 2 geometries × every process × one
// sigma. Every sweep asks for the same Monte-Carlo work, one estimate
// per process, so sweep latencies share one distribution whatever the
// seed. Geometries come from a pool of three so compiles are few and
// cached after the first sweeps; every sweep has its own mc_seed, so
// no estimate is served from the daemon's memo.
func Sweeps(seed int64, n int) []Sweep {
	r := rand.New(rand.NewSource(seed ^ 0x5ee9))
	type geom struct{ bpw, bpc, spares int }
	pool := make([]geom, 3)
	for i := range pool {
		pool[i] = geom{minBPW + r.Intn(maxBPW-minBPW+1), bpcChoices[r.Intn(len(bpcChoices))], spareChoices[r.Intn(len(spareChoices))]}
	}
	seeds := map[int64]bool{ProbeSeed: true}
	out := make([]Sweep, n)
	for i := range out {
		g := pool[r.Intn(len(pool))]
		skip := r.Intn(len(sweepWords))
		var words []int
		for j, w := range sweepWords {
			if j != skip {
				words = append(words, w)
			}
		}
		ms := int64(ProbeSeed)
		for seeds[ms] {
			ms = 2 + r.Int63n(1<<40)
		}
		seeds[ms] = true
		out[i] = Sweep{
			Base: SweepBase{Words: words[0], BPW: g.bpw, BPC: g.bpc, Spares: g.spares, MCSamples: MCSamples, MCSeed: ms, Corner: "typ"},
			Axes: SweepAxes{Words: words, Process: append([]string(nil), Processes...), MCSigma: []float64{SweepSigma}},
		}
	}
	return out
}

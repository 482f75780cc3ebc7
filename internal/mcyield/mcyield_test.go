package mcyield

import (
	"context"
	"math"
	"testing"

	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/tech"
)

func TestNominalCellPasses(t *testing.T) {
	cs, err := NewCellSim(tech.CDA07)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Trip() <= 0 || cs.Trip() >= tech.CDA07.VDD {
		t.Fatalf("trip voltage %g outside the rails", cs.Trip())
	}
	smp, err := cs.Sample(0, Params{Sigma: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if smp.Fail() {
		t.Fatalf("near-nominal sample fails %s", smp.Mode)
	}
	if smp.Weight != 1 {
		t.Fatalf("plain-MC weight = %g, want 1", smp.Weight)
	}
}

// TestSampleMatchesNaive pins the batch-reuse differential: a reused
// CellSim classifies every index bit-identically to a freshly
// elaborated one (NaiveSample), including the likelihood weight.
func TestSampleMatchesNaive(t *testing.T) {
	cs, err := NewCellSim(tech.CDA07)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Sigma: 0.12, Shift: 2.5, Seed: 42}
	for idx := uint64(0); idx < 24; idx++ {
		fast, err := cs.Sample(idx, p)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveSample(tech.CDA07, idx, p)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Mode != naive.Mode {
			t.Fatalf("idx %d: mode %s vs naive %s", idx, fast.Mode, naive.Mode)
		}
		if math.Float64bits(fast.Weight) != math.Float64bits(naive.Weight) {
			t.Fatalf("idx %d: weight %v vs naive %v", idx, fast.Weight, naive.Weight)
		}
	}
}

// TestEstimateDeterministicAcrossWorkers is the seed contract: the
// same config yields a bit-identical Result at any worker count.
func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	base := Config{Process: tech.CDA07, Samples: 300, Sigma: 0.15, Shift: DefaultShift, Seed: 7}
	var want Result
	for i, workers := range []int{1, 2, 7} {
		cfg := base
		cfg.Workers = workers
		got, err := Estimate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: %+v != workers=1 result %+v", workers, got, want)
		}
	}
	if want.Fails == 0 {
		t.Fatal("expected the shifted estimate to observe failures at sigma=0.15")
	}
	if want.FailProb <= 0 || want.StdErr <= 0 || want.SigmaLevel <= 0 {
		t.Fatalf("degenerate estimate: %+v", want)
	}
}

// TestImportanceSamplingAgreesWithPlainMC checks unbiasedness where
// both estimators can see the event: at a large sigma the failure
// probability is high enough for plain MC, and the shifted estimate
// must agree within combined standard errors.
func TestImportanceSamplingAgreesWithPlainMC(t *testing.T) {
	plain, err := Estimate(context.Background(), Config{
		Process: tech.CDA07, Samples: 4000, Sigma: 0.25, Shift: 0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := Estimate(context.Background(), Config{
		Process: tech.CDA07, Samples: 4000, Sigma: 0.25, Shift: 1.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fails == 0 {
		t.Fatal("sigma=0.25 should fail visibly in plain MC")
	}
	diff := math.Abs(plain.FailProb - shifted.FailProb)
	tol := 4 * (plain.StdErr + shifted.StdErr)
	if diff > tol {
		t.Fatalf("IS estimate %.4g vs plain %.4g differ by %.3g > %.3g",
			shifted.FailProb, plain.FailProb, diff, tol)
	}
}

// TestTailSigmaLevels: at a tight sigma the cell is a multi-sigma
// design; importance sampling must resolve a sigma level plain MC at
// the same budget can barely see (a handful of failures at best).
func TestTailSigmaLevels(t *testing.T) {
	const samples = 2000
	plain, err := Estimate(context.Background(), Config{
		Process: tech.CDA07, Samples: samples, Sigma: 0.10, Shift: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := Estimate(context.Background(), Config{
		Process: tech.CDA07, Samples: samples, Sigma: 0.10, Shift: DefaultShift, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain: %d fails p=%.3g; shifted: %d fails p=%.3g sigma=%.2f",
		plain.Fails, plain.FailProb, shifted.Fails, shifted.FailProb, shifted.SigmaLevel)
	if shifted.Fails < 10 {
		t.Fatalf("importance sampling found only %d tail failures at sigma=0.10", shifted.Fails)
	}
	if shifted.Fails <= plain.Fails {
		t.Fatalf("shift did not boost tail hit rate: %d vs plain %d", shifted.Fails, plain.Fails)
	}
	if shifted.FailProb <= 0 || shifted.FailProb > 5e-2 {
		t.Fatalf("tail failure probability %.3g not in the rare-event regime", shifted.FailProb)
	}
	if shifted.SigmaLevel < 2 {
		t.Fatalf("sigma level %.2f implausibly low for sigma=0.10", shifted.SigmaLevel)
	}
}

func TestEstimateValidation(t *testing.T) {
	cases := []Config{
		{Process: nil, Samples: 10, Sigma: 0.1},
		{Process: tech.CDA07, Samples: 0, Sigma: 0.1},
		{Process: tech.CDA07, Samples: MaxSamples + 1, Sigma: 0.1},
		{Process: tech.CDA07, Samples: 10, Sigma: 0},
		{Process: tech.CDA07, Samples: 10, Sigma: math.NaN()},
		{Process: tech.CDA07, Samples: 10, Sigma: 0.6},
		{Process: tech.CDA07, Samples: 10, Sigma: 0.1, Shift: -1},
		{Process: tech.CDA07, Samples: 10, Sigma: 0.1, Shift: MaxShift + 1},
	}
	for i, cfg := range cases {
		if _, err := Estimate(context.Background(), cfg); cerr.CodeOf(err) != cerr.CodeInvalidParams {
			t.Errorf("case %d: err = %v, want CodeInvalidParams", i, err)
		}
	}
}

func TestEstimateCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Estimate(ctx, Config{Process: tech.CDA07, Samples: 500, Sigma: 0.1, Workers: 2})
	if cerr.CodeOf(err) != cerr.CodeBudgetExceeded {
		t.Fatalf("err = %v, want CodeBudgetExceeded", err)
	}
}

func TestEstimateChaosAborts(t *testing.T) {
	inj, err := chaos.Parse([]byte(`{"seed":1,"rules":[{"point":"mc.sample","mode":"error"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Estimate(context.Background(), Config{
		Process: tech.CDA07, Samples: 64, Sigma: 0.1, Workers: 1, Chaos: inj})
	if err == nil {
		t.Fatal("chaos error rule should abort the estimate")
	}
}

func TestStatsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStats(reg)
	res, err := Estimate(context.Background(), Config{
		Process: tech.CDA07, Samples: 128, Sigma: 0.2, Shift: 1, Seed: 5, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Samples.Value(); got != 128 {
		t.Fatalf("samples counter = %d, want 128", got)
	}
	if st.Estimates.Value() != 1 {
		t.Fatal("estimates counter not incremented")
	}
	if uint64(res.Fails) != st.Failures.Value() {
		t.Fatalf("failures counter %d != result fails %d", st.Failures.Value(), res.Fails)
	}
	// Nil stats and nil registry must both be safe.
	var nilStats *Stats
	nilStats.record(res, 0)
	NewStats(nil).record(res, 0)
}

func TestArrayYield(t *testing.T) {
	if y := ArrayYield(0, 1<<20); y != 1 {
		t.Fatalf("zero fail prob: %g", y)
	}
	if y := ArrayYield(1, 8); y != 0 {
		t.Fatalf("certain failure: %g", y)
	}
	// 1 Mb at p=1e-7: ~0.9006.
	y := ArrayYield(1e-7, 1<<20)
	if math.Abs(y-math.Exp(-1e-7*float64(1<<20))) > 1e-6 {
		t.Fatalf("array yield %g", y)
	}
}

func TestSigmaLevelBounds(t *testing.T) {
	if sl := sigmaLevel(0.5, 100); math.Abs(sl) > 1e-12 {
		t.Fatalf("sigma(0.5) = %g, want 0", sl)
	}
	if sl := sigmaLevel(1, 100); sl != 0 {
		t.Fatalf("sigma(1) = %g", sl)
	}
	zero := sigmaLevel(0, 1000)
	if math.IsInf(zero, 0) || zero < 3 {
		t.Fatalf("sigma(0 fails, 1000 samples) = %g, want finite bound > 3", zero)
	}
	if a, b := sigmaLevel(1e-3, 100), sigmaLevel(1e-4, 100); b <= a {
		t.Fatalf("sigma level not monotone: %g !> %g", b, a)
	}
}

// TestSigmaLevelTinyP: below ~5e-17, 1-2p rounds to 1 and Erfinv
// would answer +Inf. The deep tail must stay finite, accurate and
// non-increasing in p, while every p >= 1e-16 keeps its exact value.
func TestSigmaLevelTinyP(t *testing.T) {
	for _, c := range []struct{ p, want float64 }{{1e-17, 8.49379}, {1e-20, 9.26234}} {
		got := sigmaLevel(c.p, 100)
		if math.IsInf(got, 0) || math.IsNaN(got) || math.Abs(got-c.want) > 1e-4 {
			t.Fatalf("sigma(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	for _, p := range []float64{1e-16, 3e-16, 1e-12, 1e-6, 0.01, 0.3} {
		if got, want := sigmaLevel(p, 100), math.Sqrt2*math.Erfinv(1-2*p); got != want {
			t.Fatalf("sigma(%g) = %v, exact form %v", p, got, want)
		}
	}
	// Adjacent floats are probed only in the tail this form owns: above
	// it, Erfinv's last-ulp rounding may wiggle, and those values must
	// stay as they are.
	prev := math.Inf(1)
	for p := math.SmallestNonzeroFloat64; p < 0.999; p = math.Max(p*1.01, math.Nextafter(p, 1)) {
		qs := []float64{p}
		if p < 1e-15 {
			qs = append(qs, math.Nextafter(p, 1))
		}
		for _, q := range qs {
			sl := sigmaLevel(q, 100)
			if math.IsInf(sl, 0) || math.IsNaN(sl) || sl > prev {
				t.Fatalf("sigma(%g) = %g after %g: not finite and non-increasing", q, sl, prev)
			}
			prev = sl
		}
	}
}

// TestRNGStreamsIndependent spot-checks that per-index streams do not
// correlate trivially and that norms have sane moments.
func TestRNGStreamsIndependent(t *testing.T) {
	var sum, sum2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		r := newRNG(99, uint64(i))
		v := r.norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	vari := sum2/n - mean*mean
	if math.Abs(mean) > 0.03 || math.Abs(vari-1) > 0.05 {
		t.Fatalf("first-draw moments off: mean=%g var=%g", mean, vari)
	}
	a, b := newRNG(1, 5), newRNG(2, 5)
	if a.next() == b.next() {
		t.Fatal("different seeds produced identical streams")
	}
}

package gen

import (
	"bytes"
	"testing"
)

func designBodies(seed int64, n int) []byte {
	var b bytes.Buffer
	for _, d := range Designs(seed, n) {
		b.Write(d.Body())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	if !bytes.Equal(designBodies(7, 500), designBodies(7, 500)) {
		t.Error("Designs is not a function of the seed")
	}
	var a, b bytes.Buffer
	for i, s := range Sweeps(7, 50) {
		a.Write(s.Body())
		b.Write(Sweeps(7, 50)[i].Body())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Sweeps is not a function of the seed")
	}
	h1, h2 := Hits(7, 200, 1000), Hits(7, 200, 1000)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("Hits is not a function of the seed")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := Designs(1, 100), Designs(2, 100)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 5 {
		t.Errorf("seeds 1 and 2 share %d of 100 designs", same)
	}
	if Sweeps(1, 1)[0].Base.MCSeed == Sweeps(2, 1)[0].Base.MCSeed {
		t.Error("seeds 1 and 2 give the same mc_seed")
	}
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// TestDesignsAreValidAndDistinct restates the compiler's envelope
// (Params.Validate) on every generated design; the layers package
// checks the same designs against Validate itself.
func TestDesignsAreValidAndDistinct(t *testing.T) {
	seen := map[Design]bool{}
	for _, d := range Designs(3, 12000) {
		rows := d.Words / d.BPC
		switch {
		case !pow2(d.Words), !pow2(d.BPC), d.Words%d.BPC != 0, rows < 2:
			t.Fatalf("bad geometry %+v", d)
		case d.Spares != 0 && d.Spares != 4 && d.Spares != 8 && d.Spares != 16, d.Spares > rows:
			t.Fatalf("bad spares %+v", d)
		case d.BPW < 1:
			t.Fatalf("bad bpw %+v", d)
		case seen[d]:
			t.Fatalf("duplicate design %+v", d)
		}
		seen[d] = true
	}
}

func TestSweepSeedsAreFresh(t *testing.T) {
	seen := map[int64]bool{ProbeSeed: true}
	for _, s := range Sweeps(9, 245) {
		if seen[s.Base.MCSeed] {
			t.Fatalf("mc_seed %d reused", s.Base.MCSeed)
		}
		seen[s.Base.MCSeed] = true
		if s.Points() != 6 || s.Estimates() != 3 {
			t.Fatalf("sweep shape %d points %d estimates", s.Points(), s.Estimates())
		}
	}
}

func TestHitsInRangeAndSkewed(t *testing.T) {
	counts := make([]int, 200)
	for _, h := range Hits(4, 200, 20000) {
		if h < 0 || h >= 200 {
			t.Fatalf("hit index %d out of range", h)
		}
		counts[h]++
	}
	if counts[0] <= counts[199]*10 {
		t.Errorf("no skew: rank 0 got %d hits, rank 199 got %d", counts[0], counts[199])
	}
}

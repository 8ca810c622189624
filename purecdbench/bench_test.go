package main

import (
	"crypto/sha256"
	"math"
	"testing"

	"purec/internal/core"
)

// digest hashes everything a workload sends, in order.
func digest(w *Workload) [32]byte {
	h := sha256.New()
	for _, list := range [][]Request{w.Build, w.Warm, w.Measured} {
		for _, r := range list {
			h.Write(r.Body)
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func TestSeedDeterminesRequestSequence(t *testing.T) {
	for _, name := range workloadNames {
		a, err := Generate(name, 7, 300, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(name, 7, 300, 2)
		c, _ := Generate(name, 8, 300, 2)
		if digest(a) != digest(b) {
			t.Errorf("%s: same seed gave different request sequences", name)
		}
		if digest(a) == digest(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestColdBuildKeysAreDistinct(t *testing.T) {
	w, err := Generate("cold-build", 3, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, list := range [][]Request{w.Build, w.Measured} {
		for i := range list {
			k := core.Key(list[i].Source, list[i].Config()).String()
			if seen[k] {
				t.Fatalf("cold-build key %s repeats", k)
			}
			seen[k] = true
		}
	}
}

func TestPercentileAndTailSampleRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.5); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v (%d beyond), want 50 (50 beyond)", v, beyond)
	}
	if v, beyond := percentile(xs, 0.9); v != 90 || beyond != minTailSamples {
		t.Errorf("p90 of 1..100 = %v (%d beyond), want 90 (10 beyond)", v, beyond)
	}
	if _, beyond := percentile(xs[:99], 0.9); beyond >= minTailSamples {
		t.Errorf("p90 of 99 samples has %d beyond; the rule needs 100 samples", beyond)
	}
	if v, beyond := percentile([]float64{4}, 0.9); v != 4 || beyond != 0 {
		t.Errorf("p90 of one sample = %v (%d beyond)", v, beyond)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestMirroredFrontEndMatchesCoreFront(t *testing.T) {
	for _, name := range workloadNames {
		w, err := Generate(name, 1, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		counted := &stageMeter{allocs: map[string]uint64{}}
		for _, r := range w.Refs[:1] {
			art, err := mirrorFront(r.Source, r.Config(), counted)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := checkFront(&r, art); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		for _, s := range frontStages {
			if _, called := counted.allocs[s]; !called {
				t.Errorf("%s: stage %s never called", name, s)
			}
		}
	}
}

func TestWrongReferenceCountsAsFailure(t *testing.T) {
	w, err := Generate("warm-hit", 1, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := References(w)
	if err != nil {
		t.Fatal(err)
	}
	bad := refs[w.Measured[0].Ref]
	bad.Stdout = append([]byte("not "), bad.Stdout...)
	refs[w.Measured[0].Ref] = bad
	res, err := runEndToEnd(w, refs, t.TempDir(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
		t.Fatalf("wrong reference went unnoticed: correct=%t failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestDiskSpillNeverHitsTheMemoryCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 256 programs three times")
	}
	w, err := Generate("disk-spill", 1, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := References(w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runTraced(w, refs, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced disk-spill run incorrect: %d of %d failed", res.Failed, res.Attempted)
	}
	if got := res.Metrics["core.memory_hit_ratio"].Value; got != 0 {
		t.Errorf("core.memory_hit_ratio = %v, want 0", got)
	}
	if got := res.Metrics["core.disk_hit_ratio"].Value; got != 1 {
		t.Errorf("core.disk_hit_ratio = %v, want 1", got)
	}
}

func TestCompositeGuestFusesAndParallelizes(t *testing.T) {
	w, err := Generate("run-heavy", 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := &w.Refs[0]
	prog, art, _, err := core.BuildProgram(r.Source, r.Config())
	if err != nil {
		t.Fatal(err)
	}
	parallel := 0
	for _, l := range art.Report.Loops {
		if l.ParallelLevel >= 0 {
			parallel++
		}
	}
	if prog.FusedKernels() == 0 || parallel == 0 {
		t.Errorf("composite guest: %d fused kernels, %d parallel loops; want both > 0", prog.FusedKernels(), parallel)
	}
}

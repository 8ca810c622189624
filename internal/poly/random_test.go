package poly

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// randParam is the value the brute-force checks give the symbolic
// parameter N of random nests.
const randParam = 4

// randomNest draws a 1–3-D nest over iterators i, j, k: each level has
// a constant, parameter (N − c) or triangular (outer iterator + c)
// bound, and the body holds 1–3 statements whose accesses touch a 1-D
// array A, a 2-D array B (subscript coefficients in [−2, 2], sometimes
// with N added), a scalar s, or a star (data-dependent) cell of A.
func randomNest(r *rand.Rand) *Nest {
	depth := 1 + r.Intn(3)
	iters := []string{"i", "j", "k"}[:depth]
	n := &Nest{Iters: iters, Params: []string{"N"}, Domain: NewSystem()}
	for l, it := range iters {
		switch {
		case l > 0 && r.Intn(3) == 0:
			n.Domain.AddLowerBound(it, Var(iters[l-1]).Add(NewAffine(int64(r.Intn(2)))))
		default:
			n.Domain.AddLowerBound(it, NewAffine(int64(r.Intn(2))))
		}
		switch r.Intn(3) {
		case 0:
			n.Domain.AddUpperBound(it, Var("N").Sub(NewAffine(int64(r.Intn(2)))))
		case 1:
			if l > 0 {
				n.Domain.AddUpperBound(it, Var(iters[l-1]).Add(NewAffine(int64(1+r.Intn(2)))))
				break
			}
			fallthrough
		default:
			n.Domain.AddUpperBound(it, NewAffine(int64(2+r.Intn(3))))
		}
	}
	sub := func() Affine {
		a := NewAffine(int64(r.Intn(5) - 2))
		for _, it := range iters {
			if c := int64(r.Intn(5) - 2); c != 0 && r.Intn(3) > 0 {
				a = a.Add(Var(it).Scale(c))
			}
		}
		if r.Intn(6) == 0 {
			a = a.Add(Var("N"))
		}
		return a
	}
	access := func(write bool) Access {
		switch r.Intn(6) {
		case 0:
			return Access{Array: "scalar:s", Write: write}
		case 1:
			return Access{Array: "A", Write: write, Star: true, Expr: "A[idx[i]]"}
		case 2, 3:
			return Access{Array: "B", Write: write, Subs: []Affine{sub(), sub()}}
		}
		return Access{Array: "A", Write: write, Subs: []Affine{sub()}}
	}
	for s := 0; s < 1+r.Intn(3); s++ {
		st := &Statement{ID: s, Seq: s}
		st.Writes = append(st.Writes, access(true))
		for k := r.Intn(3); k > 0; k-- {
			st.Reads = append(st.Reads, access(false))
		}
		if w := st.Writes[0]; w.Array == "scalar:s" && len(st.Reads) > 0 && st.Reads[0].Array == "scalar:s" {
			st.Writes[0].Reduction, st.Reads[0].Reduction = true, true
		}
		n.Stmts = append(n.Stmts, st)
	}
	return n
}

// describeNest renders a nest for dumps and failure messages.
func describeNest(n *Nest) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iters %v domain %s\n", n.Iters, n.Domain)
	for _, st := range n.Stmts {
		fmt.Fprintf(&b, "  S%d:", st.ID)
		for _, a := range st.Accesses() {
			fmt.Fprintf(&b, " %s", a)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// dumpDeps renders every dependence of the nest with its full distance
// entries.
func dumpDeps(deps []*Dep) string {
	var b strings.Builder
	for _, d := range deps {
		fmt.Fprintf(&b, "  %s\n", d)
		for _, e := range d.Dist {
			fmt.Fprintf(&b, "    %+v\n", e)
		}
	}
	return b.String()
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/deps_random.golden from the current analysis")

// randomGoldenNests is the size of the seeded random corpus whose
// dependence sets testdata/deps_random.golden pins.
const randomGoldenNests = 400

// randomGoldenSkip lists the corpus nests left out of the golden. It
// was recorded with the map-based Fourier–Motzkin engine that the dense
// one replaced, which kept every redundant row: on these 3-D triangular
// and parametric nests the row count exploded and a single AnalyzeDeps
// call ran for seconds to minutes, so there is no reference output.
// TestDepsOverBudgetStaySound covers them.
var randomGoldenSkip = map[int]bool{
	12: true, 55: true, 78: true, 85: true, 90: true, 108: true, 191: true, 196: true,
	218: true, 224: true, 237: true, 240: true, 246: true, 252: true, 270: true, 282: true,
	311: true, 313: true, 353: true, 368: true, 371: true, 398: true,
}

// TestDepsRandomGolden pins AnalyzeDeps on a seeded corpus of random
// nests: every dependence, its kind, level and every distance entry.
// Regenerate with -update only after an intended analysis change.
func TestDepsRandomGolden(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < randomGoldenNests; i++ {
		n := randomNest(r)
		if randomGoldenSkip[i] {
			continue
		}
		fmt.Fprintf(&b, "nest %d: %s%s", i, describeNest(n), dumpDeps(AnalyzeDeps(n)))
	}
	path := filepath.Join("testdata", "deps_random.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("line %d:\nwant %q\ngot  %q", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("want %d lines, got %d", len(wl), len(gl))
	}
}

// TestDepsOverBudgetStaySound runs the nests the golden leaves out —
// some of them exceed the Fourier–Motzkin work limits — and checks the
// analysis still finishes with a sound (possibly conservative) answer.
func TestDepsOverBudgetStaySound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < randomGoldenNests; i++ {
		n := randomNest(r)
		if !randomGoldenSkip[i] {
			continue
		}
		if msg := bruteForceMiss(n, AnalyzeDeps(n)); msg != "" {
			t.Fatalf("nest %d: %s\n%s", i, msg, describeNest(n))
		}
	}
}

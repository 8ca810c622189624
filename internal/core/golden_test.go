package core

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"purec/internal/apps"
	astpkg "purec/internal/ast"
	purecparser "purec/internal/parser"
	"purec/internal/poly"
	"purec/internal/preproc"
	"purec/internal/purity"
	"purec/internal/scop"
	"purec/internal/sema"
	"purec/internal/transform"
	"purec/internal/vra"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden files from the current pipeline")

// goldenProgram is one corpus entry: a source and the defines it is
// built with.
type goldenProgram struct {
	name    string
	src     string
	defines map[string]string
}

// goldenCorpus lists every internal/apps source plus every C program
// embedded in examples/*/main.go.
func goldenCorpus(t *testing.T) []goldenProgram {
	kern := apps.KernDefines(256, 2)
	rel := apps.RelationalDefines(96, 112, 16, 2)
	progs := []goldenProgram{
		{"gather", apps.GatherSrc, apps.GatherDefines(256, 64, 2)},
		{"gather_opaque", apps.GatherOpaqueSrc, apps.GatherDefines(256, 64, 2)},
		{"heat", apps.HeatSrc, apps.HeatDefines(64, 4)},
		{"heat_inlined", apps.HeatInlinedSrc, apps.HeatDefines(64, 4)},
		{"histogram", apps.HistogramSrc, apps.HistogramDefines(512, 16)},
		{"axpy", apps.AxpySrc, kern},
		{"copy", apps.CopySrc, kern},
		{"stencil", apps.StencilSrc, kern},
		{"matmul_kern", apps.MatmulKernSrc, kern},
		{"noncanon", apps.NoncanonSrc, kern},
		{"lama", apps.LamaSrc, apps.LamaDefines(128, 8)},
		{"lama_manual", apps.LamaManualSrc, apps.LamaDefines(128, 8)},
		{"matmul", apps.MatmulSrc, apps.MatmulDefines(32)},
		{"matmul_noinitpar", apps.MatmulNoInitParSrc, apps.MatmulDefines(32)},
		{"matmul_inlined", apps.MatmulInlinedSrc, apps.MatmulDefines(32)},
		{"matmul_checksum", apps.MatmulChecksumSrc, apps.MatmulChecksumDefines(8, 7, "golden")},
		{"memosat", apps.MemoSatSrc, apps.MemoSatDefines(64, 4, 3, 8)},
		{"reduce_sum", apps.ReduceSumSrc, apps.ReduceDefines(256)},
		{"reduce_dot", apps.ReduceDotSrc, apps.ReduceDefines(256)},
		{"derived", apps.DerivedSrc, rel},
		{"clamp_gather", apps.ClampGatherSrc, rel},
		{"ptr_scale", apps.PtrScaleSrc, rel},
		{"aliased_pair", apps.AliasedPairSrc, rel},
		{"satellite", apps.SatelliteSrc, apps.SatelliteDefines(64, 3, 8)},
		{"sparsehist", apps.SparseHistSrc, apps.SparseHistDefines(512, 4096, 32)},
	}
	return append(progs, exampleSources(t)...)
}

// exampleSources extracts the C programs embedded in examples/*/main.go:
// every string literal that defines a main function.
func exampleSources(t *testing.T) []goldenProgram {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	var out []goldenProgram
	for _, f := range files {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Base(filepath.Dir(f))
		n := 0
		ast.Inspect(file, func(node ast.Node) bool {
			lit, ok := node.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.Contains(src, "main(void)") {
				return true
			}
			n++
			out = append(out, goldenProgram{name: fmt.Sprintf("example_%s_%d", dir, n), src: src})
			return true
		})
	}
	return out
}

// goldenConfigs are the build configurations every corpus program is
// emitted under: the default chain, and one with tiling, skewing and a
// schedule clause so distance vectors and legality checks show.
var goldenConfigs = []struct {
	name string
	tr   transform.Options
}{
	{"default", transform.Options{}},
	{"tile-skew", transform.Options{Tile: true, Skew: true, Schedule: "dynamic,2"}},
}

// TestGoldenCorpus pins the observable output of the front end on the
// whole corpus: -emit report, -emit transformed and -emit final under
// each golden configuration, plus the dependence set poly.AnalyzeDeps
// computes for every SCoP nest. Regenerate with -update after an
// intended output change.
func TestGoldenCorpus(t *testing.T) {
	for _, p := range goldenCorpus(t) {
		t.Run(p.name, func(t *testing.T) {
			var b strings.Builder
			for _, gc := range goldenConfigs {
				cfg := Config{Parallelize: true, Defines: p.defines, Transform: gc.tr, NoCache: true}
				prog, art, _, err := BuildProgram(p.src, cfg)
				if err != nil {
					t.Fatalf("%s: %v", gc.name, err)
				}
				fmt.Fprintf(&b, "=== report (%s)\n%s", gc.name, ReportText(prog, art))
				fmt.Fprintf(&b, "=== transformed (%s)\n%s", gc.name, art.Stages.Transformed)
				fmt.Fprintf(&b, "=== final (%s)\n%s", gc.name, art.Stages.Final)
			}
			fmt.Fprintf(&b, "=== deps\n%s", depsDump(t, p))
			checkGolden(t, filepath.Join("testdata", "golden", p.name+".golden"), b.String())
		})
	}
}

// depsDump runs the front end up to SCoP detection and renders every
// dependence of every detected nest, with the full distance entries.
func depsDump(t *testing.T, p goldenProgram) string {
	stripped, _ := preproc.StripSystemIncludes(p.src)
	ex := &preproc.Expander{}
	for k, v := range p.defines {
		ex.Define(k, v)
	}
	expanded, err := ex.Expand(stripped)
	if err != nil {
		t.Fatal(err)
	}
	file, err := purecparser.Parse("program.c", expanded)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(file)
	if err != nil {
		t.Fatal(err)
	}
	pres := purity.Check(info)
	// Mirror Front: a nil points-to result must stay a nil interface.
	var oracle scop.AliasOracle
	if a := vra.Analyze(info).Alias; a != nil {
		oracle = a
	}
	sres := scop.DetectWith(info, pres, scop.Options{AllowPureCalls: true, Aliases: oracle})
	var b strings.Builder
	for i, sc := range sres.SCoPs {
		fmt.Fprintf(&b, "nest %d in %s: iters %v\n", i, sc.Func.Name, sc.Nest.Iters)
		for _, d := range poly.AnalyzeDeps(sc.Nest) {
			fmt.Fprintf(&b, "  %s\n", d)
			for _, e := range d.Dist {
				fmt.Fprintf(&b, "    %+v\n", e)
			}
		}
	}
	return b.String()
}

// checkGolden compares got with the golden file at path, rewriting it
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("%s differs at line %d:\nwant %q\ngot  %q", path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("%s differs in length: want %d lines, got %d", path, len(wl), len(gl))
	}
}

// TestGoldenCorpusComplete guards the corpus list: every exported *Src
// constant of internal/apps must appear in it.
func TestGoldenCorpusComplete(t *testing.T) {
	files, err := filepath.Glob("../apps/*.go")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, p := range goldenCorpus(t) {
		listed[p.src] = true
	}
	var missing []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasSuffix(name.Name, "Src") || !name.IsExported() || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok {
						continue
					}
					src, err := strconv.Unquote(lit.Value)
					if err == nil && !listed[src] {
						missing = append(missing, name.Name)
					}
				}
			}
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("apps sources missing from the golden corpus: %v", missing)
	}
}

// TestPrintPlainCMatchesStripPure checks that printing the pure
// lowering (what Front does, on the tree sema checks) equals lowering
// the tree in place with StripPure and printing it, on the transformed
// source of every corpus program plus one exercising every pure
// spelling.
func TestPrintPlainCMatchesStripPure(t *testing.T) {
	srcs := []string{`
int *const cp;
pure int* a, *b, **c;
struct S { pure float* f; int* pure* g; };
pure int f(pure int* x, int* pure* y, const int* z, int n) {
    pure int** w = (pure int**)0;
    return x[0] + n;
}
int main(void) { return 0; }
`}
	for _, p := range goldenCorpus(t) {
		art, err := Front(p.src, Config{Parallelize: true, Defines: p.defines})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		srcs = append(srcs, art.Stages.Transformed)
	}
	for i, src := range srcs {
		f1, err := purecparser.Parse("a.c", src)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		f2, _ := purecparser.Parse("a.c", src)
		StripPure(f2)
		want := astpkg.Print(f2)
		if got := astpkg.PrintPlainC(f1); got != want {
			t.Fatalf("source %d: PrintPlainC differs from StripPure+Print:\n%s\nwant:\n%s", i, got, want)
		}
		if astpkg.Print(f1) != src && i > 0 {
			t.Fatalf("source %d: PrintPlainC modified the tree", i)
		}
	}
}

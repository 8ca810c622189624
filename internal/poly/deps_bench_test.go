package poly_test

import (
	"testing"

	"purec/internal/apps"
	"purec/internal/parser"
	"purec/internal/poly"
	"purec/internal/preproc"
	"purec/internal/purity"
	"purec/internal/scop"
	"purec/internal/sema"
	"purec/internal/vra"
)

// nestsOf runs the front end up to SCoP detection and returns the
// detected nests.
func nestsOf(b *testing.B, src string, defines map[string]string) []*poly.Nest {
	b.Helper()
	stripped, _ := preproc.StripSystemIncludes(src)
	ex := &preproc.Expander{}
	for k, v := range defines {
		ex.Define(k, v)
	}
	expanded, err := ex.Expand(stripped)
	if err != nil {
		b.Fatal(err)
	}
	file, err := parser.Parse("bench.c", expanded)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sema.Check(file)
	if err != nil {
		b.Fatal(err)
	}
	var oracle scop.AliasOracle
	if a := vra.Analyze(info).Alias; a != nil {
		oracle = a
	}
	res := scop.DetectWith(info, purity.Check(info), scop.Options{AllowPureCalls: true, Aliases: oracle})
	var out []*poly.Nest
	for _, sc := range res.SCoPs {
		out = append(out, sc.Nest)
	}
	return out
}

// BenchmarkAnalyzeDeps times the dependence analysis of every SCoP
// nest of the purecd cold-build template and of apps.MatmulSrc.
func BenchmarkAnalyzeDeps(b *testing.B) {
	for _, c := range []struct {
		name    string
		src     string
		defines map[string]string
	}{
		{"cold-build", apps.MatmulChecksumSrc, apps.MatmulChecksumDefines(8, 7, "bench")},
		{"matmul", apps.MatmulSrc, apps.MatmulDefines(64)},
	} {
		nests := nestsOf(b, c.src, c.defines)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, n := range nests {
					poly.AnalyzeDeps(n)
				}
			}
		})
	}
}

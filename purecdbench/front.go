package main

import (
	"errors"
	"fmt"
	"runtime"

	"purec/internal/ast"
	"purec/internal/core"
	"purec/internal/parser"
	"purec/internal/preproc"
	"purec/internal/purity"
	"purec/internal/scop"
	"purec/internal/sema"
	"purec/internal/transform"
	"purec/internal/vra"
)

// frontStages are the front-end stage groups the traced run reports,
// each a set of calls into one package.
var frontStages = []string{
	"preproc.expand", "parser.parse", "sema.check", "purity.check",
	"vra.analyze", "scop.detect", "transform.parallelize", "ast.print",
}

// stageMeter wraps each front-end stage call: with allocs nil it
// records a span per call, otherwise it adds the call's heap
// allocations to allocs (runtime.ReadMemStats flushes every allocation
// cache, so the counts are exact when nothing else allocates).
type stageMeter struct {
	tr          *tracer
	req         string
	parent      int
	allocs      map[string]uint64
	before, now runtime.MemStats
}

func (s *stageMeter) do(name string, f func()) {
	if s.allocs == nil {
		id := s.tr.begin(s.req, s.parent, name)
		f()
		s.tr.end(id)
		return
	}
	runtime.ReadMemStats(&s.before)
	f()
	runtime.ReadMemStats(&s.now)
	s.allocs[name] += s.now.Mallocs - s.before.Mallocs
}

// mirrorFront is core.Front with every stage call wrapped by st. It
// makes the same calls in the same order on the parallelizing path
// (the only one the workloads take); the traced run checks that its
// Stages.Final equals core.Front's, so the spans time the program the
// daemon builds.
func mirrorFront(src string, cfg core.Config, st *stageMeter) (*core.Artifact, error) {
	if !cfg.Parallelize {
		return nil, errors.New("mirrorFront: only the parallelizing path is mirrored")
	}
	res := &core.Artifact{}
	res.Stages.Original = src
	var (
		includes []string
		err      error
	)
	st.do("preproc.expand", func() {
		res.Stages.Stripped, includes = preproc.StripSystemIncludes(src)
		ex := &preproc.Expander{Files: cfg.Files}
		for k, v := range cfg.Defines {
			ex.Define(k, v)
		}
		res.Stages.Expanded, err = ex.Expand(res.Stages.Stripped)
	})
	if err != nil {
		return nil, fmt.Errorf("preprocess: %v", err)
	}
	var file *ast.File
	st.do("parser.parse", func() { file, err = parser.Parse(cfg.FileName, res.Stages.Expanded) })
	if err != nil {
		return nil, fmt.Errorf("parse: %v", err)
	}
	var info *sema.Info
	st.do("sema.check", func() { info, err = sema.Check(file) })
	if err != nil {
		return nil, fmt.Errorf("check: %v", err)
	}
	var pres *purity.Result
	st.do("purity.check", func() { pres = purity.Check(info); err = pres.Err() })
	if err != nil {
		return nil, fmt.Errorf("purity check: %v", err)
	}
	for name := range pres.PureFuncs {
		res.Pure = append(res.Pure, name)
	}
	var early *vra.Result
	st.do("vra.analyze", func() { early = vra.Analyze(info) })

	var oracle scop.AliasOracle
	if !cfg.NoAlias && early.Alias != nil {
		oracle = early.Alias
	}
	var sres *scop.Result
	st.do("scop.detect", func() {
		sres = scop.DetectWith(info, pres, scop.Options{AllowPureCalls: cfg.Mode == core.ModePure, Aliases: oracle})
	})
	if len(sres.Errors) > 0 {
		return nil, fmt.Errorf("scop: %v", sres.Errors[0])
	}
	res.SCoPs = len(sres.SCoPs)
	res.Rejections = sres.Rejections
	markBoundedStars(sres.SCoPs, early)
	scop.MarkPragmas(sres.SCoPs)
	subs := make([][]scop.Substitution, len(sres.SCoPs))
	for i, sc := range sres.SCoPs {
		subs[i] = scop.SubstituteCalls(sc)
	}
	st.do("ast.print", func() { res.Stages.Marked = ast.Print(file) })
	st.do("transform.parallelize", func() { res.Report, err = transform.Parallelize(sres.SCoPs, cfg.Transform) })
	if err != nil {
		return nil, fmt.Errorf("polyhedral transform: %v", err)
	}
	for i, sc := range sres.SCoPs {
		scop.RestoreCalls(sc, subs[i])
	}
	st.do("ast.print", func() { res.Stages.Transformed = ast.Print(file) })

	var lowered *ast.File
	st.do("parser.parse", func() { lowered, err = parser.Parse(cfg.FileName, res.Stages.Transformed) })
	if err != nil {
		return nil, fmt.Errorf("transformed source does not reparse: %v", err)
	}
	core.StripPure(lowered)
	var printed string
	st.do("ast.print", func() { printed = ast.Print(lowered) })
	res.Stages.Final = preproc.ReinsertSystemIncludes(printed, includes)

	var finalFile *ast.File
	st.do("parser.parse", func() { finalFile, err = parser.Parse(cfg.FileName, res.Stages.Transformed) })
	if err != nil {
		return nil, fmt.Errorf("final source does not reparse: %v", err)
	}
	st.do("sema.check", func() { res.Info, err = sema.Check(finalFile) })
	if err != nil {
		return nil, fmt.Errorf("final source does not re-check: %v", err)
	}
	st.do("vra.analyze", func() { res.VRA = vra.Analyze(res.Info) })
	res.VRA.Findings = early.Findings
	st.do("purity.check", func() {
		for name := range purity.Memoizable(res.Info) {
			res.Memoizable = append(res.Memoizable, name)
		}
	})
	return res, nil
}

// markBoundedStars is core's unexported step of the same name: star
// reads the value-range analysis proved in bounds become Bounded, the
// others keep the analysis' note.
func markBoundedStars(scops []*scop.SCoP, res *vra.Result) {
	for _, sc := range scops {
		for _, st := range sc.Nest.Stmts {
			for i := range st.Reads {
				a := &st.Reads[i]
				if !a.Star || a.Ref == nil {
					continue
				}
				e, ok := a.Ref.(ast.Expr)
				if !ok {
					continue
				}
				if res.Proven(e) {
					a.Bounded = true
				} else {
					a.Note = res.Note(e)
				}
			}
		}
	}
}

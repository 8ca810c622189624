package main

import (
	"bytes"
	"fmt"
	"strconv"

	"purec/internal/interp"
	"purec/internal/parser"
	"purec/internal/preproc"
	"purec/internal/sema"
)

// Reference is the expected result of one output-bearing parameter set.
type Reference struct {
	Stdout []byte
	Ret    int64
}

// RetTrailer is the X-Purecd-Ret trailer value the daemon sends for a
// run returning Ret.
func (r Reference) RetTrailer() string { return strconv.FormatInt(r.Ret, 10) }

// Oracle runs the request's source, as written (no SCoP detection, no
// transform, no compile), through the internal/interp tree-walking
// interpreter: the specification every engine must match.
func Oracle(r *Request) (Reference, error) {
	stripped, _ := preproc.StripSystemIncludes(r.Source)
	ex := &preproc.Expander{}
	for k, v := range r.Defines {
		ex.Define(k, v)
	}
	expanded, err := ex.Expand(stripped)
	if err != nil {
		return Reference{}, fmt.Errorf("oracle: preprocess: %v", err)
	}
	file, err := parser.Parse("reference.c", expanded)
	if err != nil {
		return Reference{}, fmt.Errorf("oracle: parse: %v", err)
	}
	info, err := sema.Check(file)
	if err != nil {
		return Reference{}, fmt.Errorf("oracle: check: %v", err)
	}
	var out bytes.Buffer
	in, err := interp.New(info, &out)
	if err != nil {
		return Reference{}, fmt.Errorf("oracle: load: %v", err)
	}
	ret, err := in.RunMain()
	if err != nil {
		return Reference{}, fmt.Errorf("oracle: run: %v", err)
	}
	return Reference{Stdout: out.Bytes(), Ret: ret}, nil
}

// References computes the oracle result of every parameter set of w.
func References(w *Workload) ([]Reference, error) {
	refs := make([]Reference, len(w.Refs))
	for i := range w.Refs {
		ref, err := Oracle(&w.Refs[i])
		if err != nil {
			return nil, fmt.Errorf("%s reference %d: %w", w.Name, i, err)
		}
		refs[i] = ref
	}
	return refs, nil
}

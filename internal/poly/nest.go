package poly

import (
	"fmt"
	"strings"
)

// Access is one array access with affine subscripts in the iterators and
// parameters of the enclosing nest.
type Access struct {
	Array string
	Subs  []Affine
	Write bool
	// Reduction marks the access as part of a recognized reduction
	// statement (s op= expr for an associative-commutative op whose only
	// uses in the nest are that compound assignment; array reductions
	// like hist[a[i]]++ tag their star accesses the same way).
	// Dependences whose endpoints are both reduction accesses do not
	// serialize the nest: the runtime privatizes the accumulator per
	// worker and combines in a fixed order after the loop.
	Reduction bool
	// Star marks a data-dependent subscript (a gather/scatter like
	// hist[a[i]] whose cell cannot be expressed affinely). A star
	// access conservatively may touch any cell of the array, so
	// dependence analysis pairs it with every other access of the same
	// array without subscript equations.
	Star bool
	// Expr is the printed source form of the access ("hist[a[i]]"),
	// set for star accesses so diagnostics can name the offending
	// read; empty for ordinary affine accesses.
	Expr string
	// Index names the index array of a gather-shaped star access
	// (the "idx" of x[idx[i]]), when the subscript has that shape.
	Index string
	// Ref is the source syntax node (an ast.Expr) of a star access, the
	// key under which the value-range analysis records bounds proofs.
	// Typed as any so the polyhedral layer stays syntax-free.
	Ref any
	// Bounded marks a star read proven in-bounds by the value-range
	// analysis: it can never trap, so a nest whose only star accesses
	// are bounded reads (with no write to the same arrays) is safe to
	// parallelize.
	Bounded bool
	// Note carries the analysis' explanation when the proof failed
	// ("idx range unknown", or the derived interval vs the extent).
	Note string
	// Via names the source pointer of an access the alias analysis
	// resolved to its points-to region: Array then holds the region
	// name (the pointer's constant element offset folded into the
	// first subscript), so accesses through different pointers into
	// one region pair up in dependence analysis. It is also set, with
	// Array left as the pointer name, on accesses the analysis could
	// not resolve. Empty for direct array accesses.
	Via string
	// MayAlias marks an access through a pointer the alias analysis
	// could not resolve to a unique region. Such an access may touch
	// any array, so the transformer force-serializes the nest when the
	// access is a write — or a read beside any array write — because
	// concurrent iterations could reorder conflicting touches of the
	// hidden target region.
	MayAlias bool
}

// String renders the access like "A[i][j+1]"; star accesses render
// their source form with a [*] marker.
func (a Access) String() string {
	var b strings.Builder
	if a.Star {
		if a.Expr != "" {
			b.WriteString(a.Expr)
		} else {
			b.WriteString(a.Array + "[*]")
		}
		if a.Write {
			b.WriteString(" (write)")
		}
		return b.String()
	}
	b.WriteString(a.Array)
	for _, s := range a.Subs {
		fmt.Fprintf(&b, "[%s]", s.String())
	}
	if a.Write {
		b.WriteString(" (write)")
	}
	return b.String()
}

// Statement is one polyhedral statement: a body statement of a loop nest
// together with its array accesses. Seq is its textual position within
// the innermost body, used for loop-independent ordering.
type Statement struct {
	ID     int
	Seq    int
	Reads  []Access
	Writes []Access
	Label  string // diagnostic label, e.g. printed source
}

// Accesses returns reads and writes combined.
func (s *Statement) Accesses() []Access {
	out := make([]Access, 0, len(s.Reads)+len(s.Writes))
	out = append(out, s.Writes...)
	out = append(out, s.Reads...)
	return out
}

// Nest is a perfect affine loop nest: an ordered iterator list, the
// iteration domain as a constraint system over iterators and parameters,
// and the statements of the innermost body.
type Nest struct {
	Iters  []string
	Params []string
	Domain *System
	Stmts  []*Statement
}

// Depth returns the number of loops.
func (n *Nest) Depth() int { return len(n.Iters) }

// isIter reports whether v is one of the nest iterators.
func (n *Nest) isIter(v string) bool {
	for _, it := range n.Iters {
		if it == v {
			return true
		}
	}
	return false
}

// Points enumerates all integer points of the domain under the given
// parameter values (tests only; exponential in depth).
func (n *Nest) Points(params map[string]int64) [][]int64 {
	sys := n.Domain.Clone()
	for p, v := range params {
		sys.AddEQ(Var(p).Sub(NewAffine(v)))
	}
	var out [][]int64
	var rec func(level int, env map[string]int64)
	rec = func(level int, env map[string]int64) {
		if level == len(n.Iters) {
			pt := make([]int64, len(n.Iters))
			for i, it := range n.Iters {
				pt[i] = env[it]
			}
			out = append(out, pt)
			return
		}
		// Bound the current iterator given the fixed outer values.
		cur := sys.Clone()
		for i := 0; i < level; i++ {
			cur.AddEQ(Var(n.Iters[i]).Sub(NewAffine(env[n.Iters[i]])))
		}
		// Bounds projects out the inner iterators.
		lo, hasLo, hi, hasHi := cur.Bounds(n.Iters[level])
		if !hasLo || !hasHi {
			return
		}
		for v := lo; v <= hi; v++ {
			env[n.Iters[level]] = v
			// Validate against the full system restricted to known vars.
			rec(level+1, env)
		}
		delete(env, n.Iters[level])
	}
	rec(0, map[string]int64{})
	// Filter points that do not satisfy the full domain (FM projection
	// may over-approximate).
	valid := out[:0]
	for _, pt := range out {
		env := map[string]int64{}
		for p, v := range params {
			env[p] = v
		}
		for i, it := range n.Iters {
			env[it] = pt[i]
		}
		if n.Domain.Satisfies(env) {
			valid = append(valid, pt)
		}
	}
	return valid
}

// ----------------------------------------------------------------------------
// Dependence analysis

// DistEntry is one component of a dependence distance vector.
type DistEntry struct {
	Known          bool  // the component is a compile-time constant
	Val            int64 // value when Known
	Min            int64 // rational bounds when not exactly known
	Max            int64
	HasMin, HasMax bool
}

// String renders the entry; unknown components print as ranges or '*'.
func (d DistEntry) String() string {
	if d.Known {
		return fmt.Sprintf("%d", d.Val)
	}
	if d.HasMin && d.HasMax {
		return fmt.Sprintf("[%d..%d]", d.Min, d.Max)
	}
	return "*"
}

// Dep is a data dependence between two statement instances.
type Dep struct {
	Src, Dst *Statement
	Array    string
	// Level is the loop level carrying the dependence (1-based);
	// 0 means loop-independent (same iteration, statement order).
	Level int
	// Dist is the distance vector over the common loops.
	Dist []DistEntry
	// Kind is flow (write→read), anti (read→write) or output
	// (write→write).
	Kind DepKind
	// Reduction marks a dependence between two reduction accesses of the
	// same accumulator. Such dependences are real (the loop does carry
	// them) but do not forbid parallel execution: the parallel-reduction
	// runtime resolves them with private accumulators.
	Reduction bool
}

// DepKind classifies a dependence.
type DepKind int

// Dependence kinds.
const (
	Flow DepKind = iota
	Anti
	Output
)

var depKindNames = [...]string{"flow", "anti", "output"}

// String returns the dependence kind name.
func (k DepKind) String() string { return depKindNames[k] }

// String renders the dependence.
func (d *Dep) String() string {
	parts := make([]string, len(d.Dist))
	for i, e := range d.Dist {
		parts[i] = e.String()
	}
	suffix := ""
	if d.Reduction {
		suffix = " (reduction)"
	}
	return fmt.Sprintf("%s dep on %s S%d->S%d level %d dist (%s)%s",
		d.Kind, d.Array, d.Src.ID, d.Dst.ID, d.Level, strings.Join(parts, ","), suffix)
}

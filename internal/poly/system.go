package poly

import (
	"fmt"
	"sort"
	"strings"
)

// Rel is the relation of a constraint to zero.
type Rel int

// Constraint relations: expr >= 0 or expr == 0.
const (
	GE Rel = iota // Expr >= 0
	EQ            // Expr == 0
)

// Constraint is one affine constraint.
type Constraint struct {
	Expr Affine
	Rel  Rel
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Rel == EQ {
		return c.Expr.String() + " == 0"
	}
	return c.Expr.String() + " >= 0"
}

// System is a conjunction of affine constraints over named variables:
// the construction type of iteration domains. Satisfiability testing
// (over the rationals, a sound over-approximation for integer emptiness
// as used in dependence testing) and bound extraction convert it to
// dense rows (dense.go) and run Fourier–Motzkin elimination there.
type System struct {
	Cons []Constraint
}

// NewSystem returns an empty (universally true) system.
func NewSystem() *System { return &System{} }

// Clone deep-copies the system.
func (s *System) Clone() *System {
	c := &System{Cons: make([]Constraint, len(s.Cons))}
	for i, cn := range s.Cons {
		c.Cons[i] = Constraint{Expr: cn.Expr.Clone(), Rel: cn.Rel}
	}
	return c
}

// Add appends a constraint.
func (s *System) Add(c Constraint) { s.Cons = append(s.Cons, c) }

// AddGE adds expr >= 0.
func (s *System) AddGE(expr Affine) { s.Add(Constraint{Expr: expr, Rel: GE}) }

// AddEQ adds expr == 0.
func (s *System) AddEQ(expr Affine) { s.Add(Constraint{Expr: expr, Rel: EQ}) }

// AddLowerBound adds v >= bound.
func (s *System) AddLowerBound(v string, bound Affine) {
	r := bound.Scale(-1)
	r.addTerm(v, 1)
	s.AddGE(r)
}

// AddUpperBound adds v <= bound.
func (s *System) AddUpperBound(v string, bound Affine) {
	r := bound.Clone()
	r.addTerm(v, -1)
	s.AddGE(r)
}

// Vars returns all variables referenced by the system, sorted.
func (s *System) Vars() []string {
	var vs []string
	for _, c := range s.Cons {
		for v := range c.Expr.Coef {
			if !contains(vs, v) {
				vs = append(vs, v)
			}
		}
	}
	sort.Strings(vs)
	return vs
}

// String renders the conjunction.
func (s *System) String() string {
	parts := make([]string, len(s.Cons))
	for i, c := range s.Cons {
		parts[i] = c.String()
	}
	return strings.Join(parts, " && ")
}

// Satisfies reports whether the assignment satisfies all constraints.
func (s *System) Satisfies(env map[string]int64) bool {
	for _, c := range s.Cons {
		v := c.Expr.Eval(env)
		if c.Rel == EQ && v != 0 {
			return false
		}
		if c.Rel == GE && v < 0 {
			return false
		}
	}
	return true
}

// gcd returns the (non-negative) greatest common divisor.
func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// dense converts the system to rows over the space of its variables.
func (s *System) dense() (space, *rows) {
	sp := space{names: s.Vars()}
	m := &rows{w: len(sp.names) + 1}
	for _, c := range s.Cons {
		m.addConstraint(c, sp.col)
	}
	return sp, m
}

// IsEmpty reports whether the system has no rational solution: after
// Fourier–Motzkin elimination of every variable (in sorted name order,
// tightening each derived row to integers), some constant constraint is
// violated. Empty here is definitive; "not empty" may still be
// integer-empty, which is a safe over-approximation for dependence
// analysis (a spurious dependence can only suppress a parallelization,
// never break one).
func (s *System) IsEmpty() bool {
	_, m := s.dense()
	var f fm
	return f.empty(m)
}

// Bounds computes the rational lower and upper bounds of variable v over
// the system by eliminating all other variables. Unbounded directions
// report ok=false for the respective side.
func (s *System) Bounds(v string) (lo int64, hasLo bool, hi int64, hasHi bool) {
	sp, m := s.dense()
	c := sp.col(v)
	if c < 0 {
		return 0, false, 0, false
	}
	var f fm
	return f.bounds(m, c)
}

// SymbolicBounds extracts, for variable v, the set of affine lower and
// upper bound expressions implied by the system in terms of the remaining
// variables (after eliminating the variables listed in elim, in order).
// Each returned bound is the affine rhs of v >= lb or v <= ub, with the
// convention that integer division is rounded toward the feasible side.
// This is the code-generation step (CLooG's role): loop bounds for
// transformed iterators are max(lowers) .. min(uppers).
func (s *System) SymbolicBounds(v string, elim []string) (lowers, uppers []Bound) {
	sp, m := s.dense()
	var f fm
	return f.symbolicBounds(sp, m, v, elim)
}

// symbolicBounds is SymbolicBounds over the rows m of space sp; m is
// not modified.
func (f *fm) symbolicBounds(sp space, m *rows, v string, elim []string) (lowers, uppers []Bound) {
	f.exact = true
	cur := m
	for _, e := range elim {
		cur, _ = f.eliminate(cur, sp.col(e))
	}
	vc := sp.col(v)
	if vc < 0 {
		return nil, nil
	}
	cst := cur.w - 1
	for off := 0; off < len(cur.data); off += cur.w {
		r := cur.data[off : off+cur.w]
		coef := r[vc]
		if coef == 0 {
			continue
		}
		// rest = the row without v; coef·v + rest >= 0.
		sign := int64(1)
		if coef > 0 {
			sign = -1
		}
		b := NewAffine(sign * r[cst])
		for c, k := range r[:cst] {
			if k != 0 && c != vc {
				b.Coef[sp.names[c]] = sign * k
			}
		}
		if coef > 0 {
			// coef·v >= -rest  →  v >= ceil(-rest/coef)
			lowers = append(lowers, Bound{Expr: b, Div: coef, Ceil: true})
		} else {
			// -coef·v <= rest  →  v <= floor(rest/-coef)
			uppers = append(uppers, Bound{Expr: b, Div: -coef, Ceil: false})
		}
	}
	return lowers, uppers
}

// Bound is an affine expression divided by a positive constant, with
// ceiling or floor rounding: Expr/Div rounded up (Ceil) or down.
type Bound struct {
	Expr Affine
	Div  int64
	Ceil bool
}

// String renders the bound.
func (b Bound) String() string {
	if b.Div == 1 {
		return b.Expr.String()
	}
	mode := "floord"
	if b.Ceil {
		mode = "ceild"
	}
	return fmt.Sprintf("%s(%s, %d)", mode, b.Expr.String(), b.Div)
}

// Eval evaluates the bound under an assignment.
func (b Bound) Eval(env map[string]int64) int64 {
	v := b.Expr.Eval(env)
	if b.Div == 1 {
		return v
	}
	if b.Ceil {
		return ceilDiv(v, b.Div)
	}
	return floorDiv(v, b.Div)
}

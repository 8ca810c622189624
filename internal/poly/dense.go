package poly

import (
	"slices"
	"sort"
)

// Dense constraint rows: the one representation every elimination,
// emptiness test and bound query runs on. A System (named affine
// constraints, the construction type) converts to rows over an indexed
// variable space once per query family; dependence analysis builds its
// rows directly.

// space is an indexed variable set. Columns are in sorted name order,
// so eliminating the lowest present column is elimination by sorted
// variable name. That order decides which integer tightenings happen,
// and with them the exact result of a query, so it is fixed.
type space struct {
	names []string
}

// col returns the column of name, or -1.
func (sp space) col(name string) int {
	i := sort.SearchStrings(sp.names, name)
	if i < len(sp.names) && sp.names[i] == name {
		return i
	}
	return -1
}

// rows is a conjunction of constraints row·(x, 1) >= 0: each row is w−1
// coefficients followed by the constant term.
type rows struct {
	w    int
	data []int64
}

// add appends a zero row and returns it.
func (m *rows) add() []int64 {
	n := len(m.data)
	m.data = slices.Grow(m.data, m.w)[:n+m.w]
	r := m.data[n : n+m.w : n+m.w]
	clear(r)
	return r
}

// addEQ appends r == 0 as the two rows r >= 0 and −r >= 0.
func (m *rows) addEQ(r []int64) {
	m.data = append(m.data, r...)
	neg := m.add()
	for k, v := range r {
		neg[k] = -v
	}
}

// accum adds sign·a to row r, each variable at column col(v).
func accum(r []int64, a Affine, sign int64, col func(string) int) {
	for v, c := range a.Coef {
		r[col(v)] += sign * c
	}
	r[len(r)-1] += sign * a.Const
}

// addConstraint appends c (an EQ as two rows).
func (m *rows) addConstraint(c Constraint, col func(string) int) {
	accum(m.add(), c.Expr, 1, col)
	if c.Rel == EQ {
		accum(m.add(), c.Expr, -1, col)
	}
}

// present returns the columns with a nonzero coefficient in some row,
// ascending.
func (m *rows) present() []int {
	var out []int
	for c := 0; c < m.w-1; c++ {
		for off := c; off < len(m.data); off += m.w {
			if m.data[off] != 0 {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// scan reports whether some row is a violated constant (0 >= −k) and
// the lowest column with a nonzero coefficient (−1 when every row is
// constant).
func (m *rows) scan() (violated bool, lowest int) {
	lowest = -1
	cst := m.w - 1
	for off := 0; off < len(m.data); off += m.w {
		r := m.data[off : off+m.w : off+m.w]
		c := 0
		for c < cst && r[c] == 0 {
			c++
		}
		switch {
		case c == cst:
			violated = violated || r[cst] < 0
		case lowest < 0 || c < lowest:
			lowest = c
		}
	}
	return violated, lowest
}

func constRow(r []int64) bool {
	for _, v := range r[:len(r)-1] {
		if v != 0 {
			return false
		}
	}
	return true
}

// normalize divides a row by the gcd of its coefficients, tightening
// the constant with floor division (a valid integer tightening).
func normalize(r []int64) {
	cst := len(r) - 1
	var g int64
	for _, v := range r[:cst] {
		g = gcd(g, v)
	}
	if g <= 1 {
		return
	}
	for k := range r[:cst] {
		r[k] /= g
	}
	r[cst] = floorDiv(r[cst], g)
}

// Fourier–Motzkin is exponential in the worst case. A dependence query
// (empty, bounds) gives up once it has formed fmMaxCombos lower×upper
// combinations or one elimination keeps more than fmMaxRows rows, and
// answers conservatively: the system may be non-empty, its bounds are
// unknown. A spurious dependence can only keep a loop serial. Every
// system of the golden corpora stays below a sixth of both limits.
const (
	fmMaxCombos = 10000
	fmMaxRows   = 1000
)

// fm is one Fourier–Motzkin run: its ping-pong row buffers, scratch
// space and mode. A bounded run (dependence queries) drops redundant
// rows aggressively and stops at the work limits; an exact run
// (SymbolicBounds) keeps every distinct row and has no limit.
type fm struct {
	a, b           rows
	lowers, uppers []int
	tmp            []int64
	exact          bool
	spent          int
}

// push normalizes r and appends it to dst unless it is redundant: a
// satisfied constant row, an exact duplicate, or — in a bounded run — a
// row parallel to a kept one (same coefficients) whose constant is
// looser; a tighter parallel row replaces the kept constant instead.
// Dropping looser parallel rows never changes an emptiness verdict or a
// numeric bound: every row derived from the looser row is implied by
// the same derivation from the tighter one. It would change the bound
// lists of SymbolicBounds, which therefore only drops exact duplicates
// (those never change a bound list: each dropped row equals a kept
// earlier one).
func (f *fm) push(dst *rows, r []int64) {
	normalize(r)
	cst := dst.w - 1
	if constRow(r) && r[cst] >= 0 {
		return
	}
	for off := 0; off < len(dst.data); off += dst.w {
		o := dst.data[off : off+dst.w : off+dst.w]
		if !equalCoefs(o, r) {
			continue
		}
		if !f.exact {
			o[cst] = min(o[cst], r[cst])
			return
		}
		if o[cst] == r[cst] {
			return
		}
	}
	dst.data = append(dst.data, r...)
}

func equalCoefs(a, b []int64) bool {
	for k := 0; k < len(a)-1; k++ {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// eliminate projects column col out of cur (col −1 only normalizes):
// rows without col are kept (normalized), and every lower/upper pair
// combines into one row without col. Lower and upper rows enter the
// combination as they are; results are normalized. It returns the
// projection, in one of f's buffers, or false when a bounded run
// exceeds its limits.
func (f *fm) eliminate(cur *rows, col int) (*rows, bool) {
	dst := &f.a
	if cur == &f.a {
		dst = &f.b
	}
	w := cur.w
	dst.w, dst.data = w, dst.data[:0]
	f.lowers, f.uppers = f.lowers[:0], f.uppers[:0]
	if cap(f.tmp) < w {
		f.tmp = make([]int64, w)
	}
	tmp := f.tmp[:w]
	for off := 0; off < len(cur.data); off += w {
		r := cur.data[off : off+w : off+w]
		switch {
		case col >= 0 && r[col] > 0:
			f.lowers = append(f.lowers, off) // c·v + rest >= 0: v >= −rest/c
		case col >= 0 && r[col] < 0:
			f.uppers = append(f.uppers, off) // −c·v + rest >= 0: v <= rest/c
		default:
			copy(tmp, r)
			f.push(dst, tmp)
		}
	}
	f.spent += len(f.lowers) * len(f.uppers)
	if !f.exact && f.spent > fmMaxCombos {
		return nil, false
	}
	for _, lOff := range f.lowers {
		lo := cur.data[lOff : lOff+w : lOff+w]
		cl := lo[col]
		for _, uOff := range f.uppers {
			up := cur.data[uOff : uOff+w : uOff+w]
			cu := -up[col]
			for k := range tmp {
				tmp[k] = cu*lo[k] + cl*up[k]
			}
			f.push(dst, tmp)
		}
		if !f.exact && len(dst.data) > fmMaxRows*w {
			return nil, false
		}
	}
	return dst, true
}

// empty reports whether m has no rational solution after integer
// tightening: it eliminates the lowest present column until a violated
// constant row appears or no variable is left. Empty is definitive;
// "not empty" may still be integer-empty (or over the work limits), a
// safe over-approximation for dependence analysis. m is not modified.
func (f *fm) empty(m *rows) bool {
	f.exact, f.spent = false, 0
	cur := m
	for {
		violated, col := cur.scan()
		if violated {
			return true
		}
		if col < 0 {
			return false
		}
		var ok bool
		if cur, ok = f.eliminate(cur, col); !ok {
			return false
		}
	}
}

// bounds computes the rational lower and upper bounds of column v over
// m by eliminating every other initially present column in ascending
// order; a side without a bound (or a run over the work limits) reports
// false. m is not modified.
func (f *fm) bounds(m *rows, v int) (lo int64, hasLo bool, hi int64, hasHi bool) {
	f.exact, f.spent = false, 0
	cur := m
	for _, c := range m.present() {
		if c == v {
			continue
		}
		var ok bool
		if cur, ok = f.eliminate(cur, c); !ok {
			return 0, false, 0, false
		}
	}
	cst := m.w - 1
	for off := 0; off < len(cur.data); off += cur.w {
		r := cur.data[off : off+cur.w : off+cur.w]
		switch coef := r[v]; {
		case coef > 0: // v >= ceil(−const/coef)
			if b := ceilDiv(-r[cst], coef); !hasLo || b > lo {
				lo, hasLo = b, true
			}
		case coef < 0: // v <= floor(const/−coef)
			if b := floorDiv(r[cst], -coef); !hasHi || b < hi {
				hi, hasHi = b, true
			}
		}
	}
	return lo, hasLo, hi, hasHi
}

package poly

import "sort"

// AnalyzeDeps computes all dependences of the nest: for every pair of
// accesses to the same array with at least one write, and every carrying
// level, it decides whether the dependence polyhedron (both instances in
// the domain, equal subscripts, source lexicographically before target)
// is empty. Non-empty systems yield a Dep with its distance vector
// bounds.
//
// Each pair is decided in a fixed order, only as far as it must be
// (Goff, Kennedy & Tseng, Practical Dependence Testing, PLDI 1991):
//
//  1. ZIV and GCD tests on each subscript equation prove the pair
//     independent outright — in exactly the cases where Fourier–Motzkin
//     on the full system would also find it empty (see pretest).
//  2. A strong-SIV subscript (a·i_s + c₁ = a·i_t + c₂) fixes the
//     distance of its iterator, and carried levels that contradict that
//     distance are skipped.
//  3. Fourier–Motzkin decides the remaining level systems, which grow
//     incrementally from one base system per pair. Pairs without
//     subscript equations (scalars, star accesses) share one base system
//     per nest, decided once.
func AnalyzeDeps(n *Nest) []*Dep {
	var deps []*Dep
	var e *depEngine
	accs := make([][]Access, len(n.Stmts))
	for i, st := range n.Stmts {
		accs[i] = st.Accesses()
	}
	for i1, s1 := range n.Stmts {
		for i2, s2 := range n.Stmts {
			for _, a1 := range accs[i1] {
				for _, a2 := range accs[i2] {
					if a1.Array != a2.Array || (!a1.Write && !a2.Write) {
						continue
					}
					if !a1.Star && !a2.Star && len(a1.Subs) != len(a2.Subs) {
						continue
					}
					if e == nil {
						e = newDepEngine(n)
					}
					deps = e.pair(deps, s1, s2, a1, a2)
				}
			}
		}
	}
	return deps
}

// depEngine decides the dependences of one nest on dense rows. Its
// variable space holds, in sorted name order, a source and a target
// column per iterator (named it$s and it$t) and one column per
// parameter; a last delta column serves distance queries.
type depEngine struct {
	n          *Nest
	w          int      // row width: columns + constant
	names      []string // sorted column names (delta excluded)
	src, dst   []int    // column of iterator k on the source / target side
	delta      int
	colS, colT func(string) int // variable → column, iterators on each side
	dom        rows             // the domain, a source and a target copy of each constraint
	domLow     int              // lowest column present in dom (−1 if none)
	sys        rows             // the system under decision
	eqs        rows             // subscript equations of the current pair
	siv        []sivDist        // per-iterator strong-SIV distances of the current pair
	plain      *verdicts        // memo: the verdicts of the domain-only system
	tmp        []int64          // scratch row
	f          fm
}

// sivDist is the distance (dst − src) a strong-SIV subscript fixes for
// one iterator.
type sivDist struct {
	known bool
	d     int64
}

// verdicts are the decisions for one base system: the distance vector
// of every non-empty carried level (nil where the level is empty) and
// whether the loop-independent system is non-empty.
type verdicts struct {
	dist  [][]DistEntry
	indep bool
}

func newDepEngine(n *Nest) *depEngine {
	e := &depEngine{n: n}
	names := make([]string, 0, 2*len(n.Iters)+4)
	for _, it := range n.Iters {
		names = append(names, it+"$s", it+"$t")
	}
	addParams := func(a Affine) {
		for v := range a.Coef {
			if !n.isIter(v) && !contains(names, v) {
				names = append(names, v)
			}
		}
	}
	for _, c := range n.Domain.Cons {
		addParams(c.Expr)
	}
	for _, st := range n.Stmts {
		for _, as := range [2][]Access{st.Reads, st.Writes} {
			for _, a := range as {
				for _, s := range a.Subs {
					addParams(s)
				}
			}
		}
	}
	sort.Strings(names)
	e.names = names
	e.src, e.dst = make([]int, len(n.Iters)), make([]int, len(n.Iters))
	for k, it := range n.Iters {
		e.src[k] = sort.SearchStrings(names, it+"$s")
		e.dst[k] = sort.SearchStrings(names, it+"$t")
	}
	e.colS = func(v string) int { return e.column(v, e.src) }
	e.colT = func(v string) int { return e.column(v, e.dst) }
	e.delta = len(names)
	e.w = len(names) + 2
	e.siv = make([]sivDist, len(n.Iters))
	e.tmp = make([]int64, e.w)
	e.dom = rows{w: e.w, data: make([]int64, 0, 4*len(n.Domain.Cons)*e.w)}
	for _, c := range n.Domain.Cons {
		e.dom.addConstraint(c, e.colS)
		e.dom.addConstraint(c, e.colT)
	}
	_, e.domLow = e.dom.scan()
	e.sys = rows{w: e.w, data: make([]int64, 0, len(e.dom.data)+(4+4*len(n.Iters))*e.w)}
	e.eqs.w = e.w
	return e
}

func contains(vs []string, v string) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// column returns the column of variable v, iterators on the given side.
func (e *depEngine) column(v string, side []int) int {
	for k, it := range e.n.Iters {
		if it == v {
			return side[k]
		}
	}
	return sort.SearchStrings(e.names, v)
}

// pair appends the dependences with source access a1 in s1 and target
// access a2 in s2.
func (e *depEngine) pair(out []*Dep, s1, s2 *Statement, a1, a2 Access) []*Dep {
	// Same iteration: a dependence from s1 to s2 when s1 precedes s2
	// textually.
	wantIndep := s1.Seq < s2.Seq
	var v *verdicts
	// A star access may touch any cell, so no subscript equation can
	// constrain the dependence polyhedron: every instance pair that the
	// ordering admits conflicts conservatively.
	if a1.Star || a2.Star || !e.equations(a1, a2) {
		v = e.plainVerdicts()
	} else {
		if e.pretest() {
			return out
		}
		local := e.solve(wantIndep)
		v = &local
	}
	kind := classifyDep(a1, a2)
	reduction := a1.Reduction && a2.Reduction
	for l, dist := range v.dist {
		if dist != nil {
			out = append(out, &Dep{
				Src: s1, Dst: s2, Array: a1.Array, Level: l + 1, Kind: kind,
				Dist: append([]DistEntry(nil), dist...), Reduction: reduction,
			})
		}
	}
	if wantIndep && v.indep {
		out = append(out, &Dep{
			Src: s1, Dst: s2, Array: a1.Array, Level: 0, Kind: kind,
			Dist: zeroDist(e.n.Depth()), Reduction: reduction,
		})
	}
	return out
}

// equations fills e.eqs with one row a1.Subs[k](source) −
// a2.Subs[k](target) per subscript dimension and reports whether any of
// them is more than the trivial 0 == 0.
func (e *depEngine) equations(a1, a2 Access) bool {
	e.eqs.data = e.eqs.data[:0]
	nontrivial := false
	for k := range a1.Subs {
		r := e.eqs.add()
		accum(r, a1.Subs[k], 1, e.colS)
		accum(r, a2.Subs[k], -1, e.colT)
		nontrivial = nontrivial || !constRow(r) || r[e.w-1] != 0
	}
	return nontrivial
}

// pretest runs the ZIV, GCD and strong-SIV tests on e.eqs. It reports
// true when the pair is independent and otherwise leaves the strong-SIV
// distances in e.siv.
//
// Both independence proofs are exactly the ones Fourier–Motzkin on every
// level system of the pair also finds:
//   - ZIV: an equation without variables and with a nonzero constant c
//     becomes the rows c >= 0 and −c >= 0, one of them a violated
//     constant row before any elimination.
//   - GCD: an equation Σ a·x + c = 0 whose coefficient gcd g does not
//     divide c. The first elimination normalizes every row without the
//     eliminated column, turning ±(Σ a·x + c) >= 0 into rows whose
//     constants sum to floor(c/g) + floor(−c/g) = −1; eliminating any of
//     their variables later combines them into a violated constant row.
//     The test therefore only decides when the lowest column of the base
//     system (the first one every level system eliminates, or a column
//     absent from the equation) is not in the equation; otherwise the
//     raw rows could cancel to 0 >= 0 and the outcome is FM's to decide.
func (e *depEngine) pretest() bool {
	clear(e.siv)
	_, eqLow := e.eqs.scan()
	low := e.domLow
	if low < 0 || (eqLow >= 0 && eqLow < low) {
		low = eqLow
	}
	cst := e.w - 1
	for off := 0; off < len(e.eqs.data); off += e.w {
		r := e.eqs.data[off : off+e.w]
		var g int64
		for _, c := range r[:cst] {
			g = gcd(g, c)
		}
		if g == 0 {
			if r[cst] != 0 {
				return true // ZIV
			}
			continue
		}
		if r[cst]%g != 0 {
			if r[low] == 0 {
				return true // GCD
			}
			continue
		}
		e.strongSIV(r)
	}
	return false
}

// strongSIV records the distance of an equation a·i_s − a·i_t + c = 0
// (after the source and target sides are collected), i.e. i_t − i_s =
// c/a; the caller has checked that a divides c. Any recorded distance
// stands for rows FM sees too, so when two equations disagree, keeping
// either is exact.
func (e *depEngine) strongSIV(r []int64) {
	nz := 0
	for _, v := range r[:e.w-1] {
		if v != 0 {
			nz++
		}
	}
	for k, c := range e.src {
		if a := r[c]; nz == 2 && a != 0 && r[e.dst[k]] == -a {
			e.siv[k] = sivDist{known: true, d: r[e.w-1] / a}
		}
	}
}

// sivEmpty reports whether the strong-SIV distances contradict carrying
// level l (1-based): every outer iterator must have distance 0 and the
// level-l iterator a distance of at least 1. Level 0 asks for the
// loop-independent system, where every distance must be 0. The same
// contradiction is a pair of opposite rows FM combines into a violated
// constant row, whatever it eliminates first.
func (e *depEngine) sivEmpty(l int) bool {
	for k, s := range e.siv {
		switch {
		case !s.known:
		case (l == 0 || k < l-1) && s.d != 0:
			return true
		case k == l-1 && s.d < 1:
			return true
		}
	}
	return false
}

// plainVerdicts returns the verdicts of the domain-only base system,
// shared by every pair without subscript equations.
func (e *depEngine) plainVerdicts() *verdicts {
	if e.plain == nil {
		e.eqs.data = e.eqs.data[:0]
		clear(e.siv)
		v := e.solve(true)
		e.plain = &v
	}
	return e.plain
}

// solve decides every carried level and, when wantIndep is set, the
// loop-independent system over the base system dom ∧ (eqs == 0),
// skipping what the strong-SIV distances in e.siv already decide. The
// level systems are built incrementally: level l is the base plus the
// equalities of the outer iterators plus the carrying row, and moving
// to level l+1 replaces the carrying row by the level-l equality.
func (e *depEngine) solve(wantIndep bool) verdicts {
	sys := &e.sys
	sys.data = append(sys.data[:0], e.dom.data...)
	for off := 0; off < len(e.eqs.data); off += e.w {
		sys.addEQ(e.eqs.data[off : off+e.w])
	}
	v := verdicts{dist: make([][]DistEntry, e.n.Depth())}
	for l := 1; l <= e.n.Depth(); l++ {
		mark := len(sys.data)
		// dst − src >= 1 at the carrying level.
		r := sys.add()
		r[e.dst[l-1]], r[e.src[l-1]], r[e.w-1] = 1, -1, -1
		if !e.sivEmpty(l) && !e.f.empty(sys) {
			v.dist[l-1] = e.distVector(sys)
		}
		sys.data = sys.data[:mark]
		sys.addEQ(e.unit(e.src[l-1], e.dst[l-1], -1)) // src == dst
	}
	v.indep = wantIndep && !e.sivEmpty(0) && !e.f.empty(sys)
	return v
}

// unit returns the scratch row x_a + coef·x_b.
func (e *depEngine) unit(a, b int, coef int64) []int64 {
	clear(e.tmp)
	e.tmp[a], e.tmp[b] = 1, coef
	return e.tmp
}

// distVector computes per-level bounds of dst − src over the system.
func (e *depEngine) distVector(sys *rows) []DistEntry {
	out := make([]DistEntry, e.n.Depth())
	mark := len(sys.data)
	for k := range out {
		r := e.unit(e.delta, e.dst[k], -1) // delta == dst − src
		r[e.src[k]] = 1
		sys.addEQ(r)
		lo, hasLo, hi, hasHi := e.f.bounds(sys, e.delta)
		sys.data = sys.data[:mark]
		d := DistEntry{Min: lo, Max: hi, HasMin: hasLo, HasMax: hasHi}
		if hasLo && hasHi && lo == hi {
			d.Known = true
			d.Val = lo
		}
		out[k] = d
	}
	return out
}

func classifyDep(a1, a2 Access) DepKind {
	switch {
	case a1.Write && a2.Write:
		return Output
	case a1.Write:
		return Flow
	default:
		return Anti
	}
}

func zeroDist(d int) []DistEntry {
	out := make([]DistEntry, d)
	for i := range out {
		out[i] = DistEntry{Known: true}
	}
	return out
}

package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// brute compares a BDD against a reference boolean function by enumerating
// all assignments over nvars variables.
func brute(t *testing.T, m *Manager, f Ref, ref func([]bool) bool) {
	t.Helper()
	n := m.NumVars()
	a := make([]bool, n)
	for bits := 0; bits < 1<<n; bits++ {
		for i := 0; i < n; i++ {
			a[i] = bits>>i&1 == 1
		}
		if got, want := m.Eval(f, a), ref(a); got != want {
			t.Fatalf("assignment %v: got %v, want %v", a, got, want)
		}
	}
}

func TestTerminalsAndLiterals(t *testing.T) {
	m := New(3)
	if m.Eval(True, []bool{false, false, false}) != true {
		t.Error("True must evaluate to true")
	}
	if m.Eval(False, []bool{true, true, true}) != false {
		t.Error("False must evaluate to false")
	}
	brute(t, m, m.Var(1), func(a []bool) bool { return a[1] })
	brute(t, m, m.NVar(2), func(a []bool) bool { return !a[2] })
}

func TestConnectives(t *testing.T) {
	m := New(4)
	x, y, z := m.Var(0), m.Var(1), m.Var(2)
	brute(t, m, m.And(x, y), func(a []bool) bool { return a[0] && a[1] })
	brute(t, m, m.Or(x, z), func(a []bool) bool { return a[0] || a[2] })
	brute(t, m, m.Xor(y, z), func(a []bool) bool { return a[1] != a[2] })
	brute(t, m, m.Not(x), func(a []bool) bool { return !a[0] })
	brute(t, m, m.Diff(x, y), func(a []bool) bool { return a[0] && !a[1] })
	brute(t, m, m.Imp(x, y), func(a []bool) bool { return !a[0] || a[1] })
	brute(t, m, m.ITE(x, y, z), func(a []bool) bool {
		if a[0] {
			return a[1]
		}
		return a[2]
	})
	brute(t, m, m.And(m.And(x, y), z), func(a []bool) bool { return a[0] && a[1] && a[2] })
	brute(t, m, m.Or(m.Or(x, y), z), func(a []bool) bool { return a[0] || a[1] || a[2] })
}

func TestHashConsingCanonicity(t *testing.T) {
	m := New(4)
	x, y := m.Var(0), m.Var(1)
	a := m.Or(m.And(x, y), m.And(x, m.Not(y))) // = x
	if a != x {
		t.Errorf("canonicity violated: x·y ∨ x·¬y != x")
	}
	b := m.Not(m.Not(a))
	if b != a {
		t.Error("double negation not canonical")
	}
	if m.Xor(a, a) != False {
		t.Error("x ⊕ x != false")
	}
}

// randBDD builds a random function together with its reference semantics.
func randBDD(m *Manager, rng *rand.Rand, depth int) (Ref, func([]bool) bool) {
	if depth == 0 || rng.Intn(4) == 0 {
		v := rng.Intn(m.NumVars())
		if rng.Intn(2) == 0 {
			return m.Var(v), func(a []bool) bool { return a[v] }
		}
		return m.NVar(v), func(a []bool) bool { return !a[v] }
	}
	f1, r1 := randBDD(m, rng, depth-1)
	f2, r2 := randBDD(m, rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return m.And(f1, f2), func(a []bool) bool { return r1(a) && r2(a) }
	case 1:
		return m.Or(f1, f2), func(a []bool) bool { return r1(a) || r2(a) }
	case 2:
		return m.Xor(f1, f2), func(a []bool) bool { return r1(a) != r2(a) }
	default:
		return m.Not(f1), func(a []bool) bool { return !r1(a) }
	}
}

func TestRandomOpsAgainstSemantics(t *testing.T) {
	m := New(6)
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		f, ref := randBDD(m, rng, 4)
		brute(t, m, f, ref)
	}
}

func TestExists(t *testing.T) {
	m := New(5)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		f, ref := randBDD(m, rng, 4)
		v := rng.Intn(5)
		g := m.Exists(f, m.Cube([]int{v}))
		brute(t, m, g, func(a []bool) bool {
			b := append([]bool(nil), a...)
			b[v] = false
			if ref(b) {
				return true
			}
			b[v] = true
			return ref(b)
		})
	}
}

func TestExistsMultiVar(t *testing.T) {
	m := New(5)
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		f, ref := randBDD(m, rng, 4)
		g := m.Exists(f, m.Cube([]int{1, 3}))
		brute(t, m, g, func(a []bool) bool {
			b := append([]bool(nil), a...)
			for _, v1 := range []bool{false, true} {
				for _, v3 := range []bool{false, true} {
					b[1], b[3] = v1, v3
					if ref(b) {
						return true
					}
				}
			}
			return false
		})
	}
}

func TestRestrict(t *testing.T) {
	m := New(5)
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 100; iter++ {
		f, ref := randBDD(m, rng, 4)
		lits := []Literal{{Var: 0, Val: true}, {Var: 3, Val: false}}
		cube := m.LiteralCube(lits)
		g := m.Restrict(f, cube)
		brute(t, m, g, func(a []bool) bool {
			b := append([]bool(nil), a...)
			b[0], b[3] = true, false
			return ref(b)
		})
		// Restrict must agree with ∃vars(c). (f ∧ c).
		h := m.Exists(m.And(f, cube), m.Cube([]int{0, 3}))
		if g != h {
			t.Fatalf("Restrict disagrees with quantified conjunction")
		}
	}
}

func TestSatCount(t *testing.T) {
	m := New(6)
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 100; iter++ {
		f, ref := randBDD(m, rng, 4)
		want := 0
		a := make([]bool, 6)
		for bits := 0; bits < 64; bits++ {
			for i := 0; i < 6; i++ {
				a[i] = bits>>i&1 == 1
			}
			if ref(a) {
				want++
			}
		}
		if got := m.SatCount(f); got != float64(want) {
			t.Fatalf("SatCount = %v, want %d", got, want)
		}
	}
	if m.SatCount(True) != 64 {
		t.Errorf("SatCount(True) = %v, want 64", m.SatCount(True))
	}
	if m.SatCount(False) != 0 {
		t.Errorf("SatCount(False) = %v, want 0", m.SatCount(False))
	}
}

func TestPickCube(t *testing.T) {
	m := New(6)
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 200; iter++ {
		f, _ := randBDD(m, rng, 4)
		cube := m.PickCube(f)
		if f == False {
			if cube != nil {
				t.Fatal("PickCube(False) must be nil")
			}
			continue
		}
		a := make([]bool, 6)
		for i, c := range cube {
			a[i] = c == 1
		}
		if !m.Eval(f, a) {
			t.Fatalf("PickCube produced non-satisfying assignment %v", cube)
		}
	}
	if m.PickCube(False) != nil {
		t.Error("PickCube(False) must be nil")
	}
}

func TestDagSize(t *testing.T) {
	m := New(4)
	if m.DagSize(True) != 1 || m.DagSize(False) != 1 {
		t.Error("terminal DagSize must be 1")
	}
	x := m.Var(0)
	if m.DagSize(x) != 3 { // node + two terminals
		t.Errorf("DagSize(x) = %d, want 3", m.DagSize(x))
	}
	f := m.And(m.Var(0), m.Var(1))
	if m.DagSize(f) != 4 {
		t.Errorf("DagSize(x∧y) = %d, want 4", m.DagSize(f))
	}
	// x's literal node is distinct from f's root (different hi child), so the
	// shared DAG has 5 nodes: two roots, the y node, and two terminals.
	if s := m.SharedDagSize([]Ref{x, f}); s != 5 {
		t.Errorf("SharedDagSize = %d, want 5", s)
	}
	// Sharing is real: the union is smaller than the sum of the parts.
	if s := m.SharedDagSize([]Ref{f, f}); s != m.DagSize(f) {
		t.Errorf("SharedDagSize of duplicate roots = %d, want %d", s, m.DagSize(f))
	}
}

func TestUniqueTableGrowth(t *testing.T) {
	// Build a function big enough to force several rehashes.
	m := New(24)
	f := False
	for i := 0; i+1 < 24; i += 2 {
		f = m.Or(f, m.And(m.Var(i), m.Var(i+1)))
	}
	if m.Size() < 100 {
		t.Fatalf("expected a non-trivial node store, got %d nodes", m.Size())
	}
	// Spot-check correctness after growth.
	a := make([]bool, 24)
	a[4], a[5] = true, true
	if !m.Eval(f, a) {
		t.Error("evaluation wrong after table growth")
	}
	if m.Eval(f, make([]bool, 24)) {
		t.Error("all-false assignment should not satisfy f")
	}
}

// Property: ITE(f,g,h) == (f∧g) ∨ (¬f∧h) node-for-node (canonicity).
func TestITECanonicalProperty(t *testing.T) {
	m := New(5)
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 300; iter++ {
		f, _ := randBDD(m, rng, 3)
		g, _ := randBDD(m, rng, 3)
		h, _ := randBDD(m, rng, 3)
		lhs := m.ITE(f, g, h)
		rhs := m.Or(m.And(f, g), m.And(m.Not(f), h))
		if lhs != rhs {
			t.Fatalf("ITE not canonical")
		}
	}
}

// Property via testing/quick: evaluation of a conjunction of literals
// matches the LiteralCube construction for arbitrary assignments.
func TestLiteralCubeProperty(t *testing.T) {
	m := New(8)
	f := func(mask, vals, probe uint8) bool {
		var lits []Literal
		for i := 0; i < 8; i++ {
			if mask>>i&1 == 1 {
				lits = append(lits, Literal{Var: i, Val: vals>>i&1 == 1})
			}
		}
		cube := m.LiteralCube(lits)
		a := make([]bool, 8)
		for i := 0; i < 8; i++ {
			a[i] = probe>>i&1 == 1
		}
		want := true
		for _, l := range lits {
			if a[l.Var] != l.Val {
				want = false
			}
		}
		return m.Eval(cube, a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDeMorganProperty(t *testing.T) {
	m := New(6)
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		f, _ := randBDD(m, rng, 4)
		g, _ := randBDD(m, rng, 4)
		if m.Not(m.And(f, g)) != m.Or(m.Not(f), m.Not(g)) {
			t.Fatal("¬(f∧g) != ¬f∨¬g")
		}
		if m.Not(m.Or(f, g)) != m.And(m.Not(f), m.Not(g)) {
			t.Fatal("¬(f∨g) != ¬f∧¬g")
		}
	}
}

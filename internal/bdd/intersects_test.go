package bdd

import (
	"math/rand"
	"testing"
)

// intersectsPairs builds random operand pairs over nvars variables. Every
// third pair conjoins its first operand with the negation of a random
// function, so unsatisfiable conjunctions are well represented.
func intersectsPairs(m *Manager, rng *rand.Rand, nvars, n int) [][2]Ref {
	pairs := make([][2]Ref, 0, n)
	for i := 0; i < n; i++ {
		f := randomFunc(m, rng, nvars, 6)
		g := randomFunc(m, rng, nvars, 6)
		if i%3 == 0 {
			g = m.Diff(g, f)
		}
		pairs = append(pairs, [2]Ref{f, g})
	}
	return pairs
}

// TestIntersectsMatchesAnd checks Intersects against the node-building
// identity And(f, g) != False on random pairs on a small cache, on a cold
// and on a warm cache, and that the walk allocates no nodes.
func TestIntersectsMatchesAnd(t *testing.T) {
	m := New(12)
	shrinkCache(m, 256)
	rng := rand.New(rand.NewSource(7))
	pairs := intersectsPairs(m, rng, 12, 300)
	check := func(phase string) {
		t.Helper()
		// All walks first: the reference conjunctions below build nodes.
		live := m.Size()
		got := make([]bool, len(pairs))
		for i, p := range pairs {
			got[i] = m.Intersects(p[0], p[1])
			if m.Intersects(p[1], p[0]) != got[i] {
				t.Fatalf("%s: pair %d: Intersects is not symmetric", phase, i)
			}
		}
		if m.Size() != live {
			t.Fatalf("%s: Intersects built %d nodes", phase, m.Size()-live)
		}
		sat, unsat := 0, 0
		for i, p := range pairs {
			want := m.And(p[0], p[1]) != False
			if got[i] != want {
				t.Fatalf("%s: pair %d: Intersects = %v, And != False is %v", phase, i, got[i], want)
			}
			if want {
				sat++
			} else {
				unsat++
			}
		}
		if sat == 0 || unsat == 0 {
			t.Fatalf("%s: degenerate corpus: %d satisfiable, %d unsatisfiable", phase, sat, unsat)
		}
		auditCacheStats(t, m)
	}
	check("cold")
	check("warm")
}

// TestIntersectsTerminals pins the constant cases.
func TestIntersectsTerminals(t *testing.T) {
	m := New(4)
	x := m.Var(1)
	for _, c := range []struct {
		f, g Ref
		want bool
	}{
		{False, True, false}, {True, False, false}, {True, True, true},
		{x, False, false}, {x, True, true}, {x, x, true}, {x, m.Not(x), false},
	} {
		if got := m.Intersects(c.f, c.g); got != c.want {
			t.Errorf("Intersects(%d, %d) = %v, want %v", c.f, c.g, got, c.want)
		}
	}
}

// BenchmarkIntersects compares the node-free walk with the conjunction it
// replaces on a cold operation cache, over random 16-variable pairs.
func BenchmarkIntersects(b *testing.B) {
	m := New(16)
	pairs := intersectsPairs(m, rand.New(rand.NewSource(1)), 16, 200)
	for _, bc := range []struct {
		name  string
		probe func(f, g Ref) bool
	}{
		{"walk", m.Intersects},
		{"and", func(f, g Ref) bool { return m.And(f, g) != False }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(m.cache)
				for _, p := range pairs {
					bc.probe(p[0], p[1])
				}
			}
		})
	}
}

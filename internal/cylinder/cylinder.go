// Package cylinder implements "match cylinders": the elementary events
// underlying both the SpanL witness semantics of Proposition 5.2 and the
// Karp–Luby FPRAS of Corollary 5.3 of the paper.
//
// For a BCQ q = R_1(x̄_1) ∧ … ∧ R_m(x̄_m) and an incomplete database D, a
// valuation ν satisfies ν(D) ⊨ q iff there is a choice of one fact per atom
// and a homomorphism matching each atom to its fact. Each choice of facts
// unifies into a conjunction of equality constraints over nulls (and pinned
// constants) — a cylinder: a set of valuations of product form. The
// satisfying valuations of q are exactly the union of its cylinders, so
//
//   - the exact count can be computed by inclusion–exclusion over cylinders,
//     exponential in the number of cylinders: the planner's production
//     route for #Val of a (U)BCQ with few cylinders (plan.DefaultMaxCylinders),
//     run by a compiled, allocation-free term kernel (kernel.go),
//   - and the Karp–Luby estimator samples cylinders proportionally to their
//     weights (implemented in package approx).
package cylinder

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"sync"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// Class is one equality class of a cylinder: the nulls it contains must all
// take the same value, drawn from Allowed (the intersection of their
// domains, further pinned by constants when the unification forced one).
type Class struct {
	Nulls   []core.NullID
	Allowed []string
}

// Cylinder is a product-form set of valuations of a database: each equality
// class picks one allowed value, every other null is free over its domain.
type Cylinder struct {
	Classes []Class
	weight  *big.Int
}

// Weight returns the number of valuations in the cylinder, given the
// database the cylinder was built from.
func (c *Cylinder) Weight() *big.Int { return new(big.Int).Set(c.weight) }

// Contains reports whether the valuation lies in the cylinder.
func (c *Cylinder) Contains(v core.Valuation) bool {
	for _, cl := range c.Classes {
		val, ok := v[cl.Nulls[0]]
		if !ok {
			return false
		}
		for _, n := range cl.Nulls[1:] {
			if v[n] != val {
				return false
			}
		}
		found := false
		for _, a := range cl.Allowed {
			if a == val {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Set holds the cylinders of a query over a database, plus the bookkeeping
// needed to sample and weigh them.
type Set struct {
	db        *core.Database
	Cylinders []*Cylinder
	freeOf    []map[core.NullID]bool // per cylinder: nulls not constrained

	compileOnce sync.Once
	compiled    *kernel
}

// MaxCylinders bounds cylinder construction: the number of cylinders is the
// product over atoms of the relation sizes (summed over disjuncts), which
// is polynomial for a fixed query but can still be large.
const MaxCylinders = 1 << 16

// Build constructs the cylinders of q over db. q must be a BCQ or a UCQ.
func Build(db *core.Database, q cq.Query) (*Set, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	var disjuncts []*cq.BCQ
	switch t := q.(type) {
	case *cq.BCQ:
		disjuncts = []*cq.BCQ{t}
	case *cq.UCQ:
		disjuncts = t.Disjuncts
	default:
		return nil, fmt.Errorf("cylinder: query %v is not a (union of) BCQ(s)", q)
	}
	s := &Set{db: db}
	for _, d := range disjuncts {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if err := s.addDisjunct(d); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Set) addDisjunct(q *cq.BCQ) error {
	db := s.db
	factsPerAtom := make([][]core.Fact, len(q.Atoms))
	for i, a := range q.Atoms {
		fs := db.FactsOf(a.Rel)
		if len(fs) == 0 || db.Arity(a.Rel) != len(a.Vars) {
			return nil // this disjunct contributes no cylinders
		}
		factsPerAtom[i] = fs
	}
	choice := make([]int, len(q.Atoms))
	for {
		cyl := s.unify(q, factsPerAtom, choice)
		if cyl != nil {
			if len(s.Cylinders) >= MaxCylinders {
				return fmt.Errorf("cylinder: more than %d cylinders; query/database too large", MaxCylinders)
			}
			s.Cylinders = append(s.Cylinders, cyl)
			free := make(map[core.NullID]bool)
			inClass := make(map[core.NullID]bool)
			for _, cl := range cyl.Classes {
				for _, n := range cl.Nulls {
					inClass[n] = true
				}
			}
			for _, n := range db.Nulls() {
				if !inClass[n] {
					free[n] = true
				}
			}
			s.freeOf = append(s.freeOf, free)
		}
		// Odometer.
		i := len(choice) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(factsPerAtom[i]) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// unify builds the cylinder for one choice of facts, or nil if the
// constraints are unsatisfiable.
func (s *Set) unify(q *cq.BCQ, factsPerAtom [][]core.Fact, choice []int) *Cylinder {
	// Union-find over items: variables ("v:"+name) and nulls ("n:"+id).
	parent := make(map[string]string)
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	pins := make(map[string]string) // root -> pinned constant
	ok := true
	pin := func(item, c string) {
		r := find(item)
		if prev, has := pins[r]; has && prev != c {
			ok = false
			return
		}
		pins[r] = c
	}
	for i, a := range q.Atoms {
		f := factsPerAtom[i][choice[i]]
		for p, v := range a.Vars {
			arg := f.Args[p]
			if arg.IsNull() {
				union("v:"+v, "n:"+arg.NullID().String())
			} else {
				pin("v:"+v, arg.Constant())
			}
			if !ok {
				return nil
			}
		}
	}
	// Re-propagate pins after unions (a pin may have landed on a stale
	// root): collect per final root.
	finalPins := make(map[string]string)
	for r, c := range pins {
		fr := find(r)
		if prev, has := finalPins[fr]; has && prev != c {
			return nil
		}
		finalPins[fr] = c
	}
	// Gather nulls per final root.
	nullsOf := make(map[string][]core.NullID)
	for item := range parent {
		if len(item) > 2 && item[:2] == "n:" {
			v, err := core.ParseValue(item[2:])
			if err != nil || !v.IsNull() {
				continue
			}
			r := find(item)
			nullsOf[r] = append(nullsOf[r], v.NullID())
		}
	}
	cyl := &Cylinder{weight: big.NewInt(1)}
	roots := make([]string, 0, len(nullsOf))
	for r := range nullsOf {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, r := range roots {
		nulls := nullsOf[r]
		sort.Slice(nulls, func(i, j int) bool { return nulls[i] < nulls[j] })
		allowed := intersectDomains(s.db, nulls)
		if c, pinned := finalPins[r]; pinned {
			if containsString(allowed, c) {
				allowed = []string{c}
			} else {
				return nil
			}
		}
		if len(allowed) == 0 {
			return nil
		}
		cyl.Classes = append(cyl.Classes, Class{Nulls: nulls, Allowed: allowed})
		cyl.weight.Mul(cyl.weight, big.NewInt(int64(len(allowed))))
	}
	// Classes with no nulls are pure-constant checks, already verified via
	// pins. Multiply in the free nulls.
	inClass := make(map[core.NullID]bool)
	for _, cl := range cyl.Classes {
		for _, n := range cl.Nulls {
			inClass[n] = true
		}
	}
	for _, n := range s.db.Nulls() {
		if !inClass[n] {
			cyl.weight.Mul(cyl.weight, big.NewInt(int64(len(s.db.Domain(n)))))
		}
	}
	return cyl
}

func intersectDomains(db *core.Database, nulls []core.NullID) []string {
	cur := append([]string(nil), db.Domain(nulls[0])...)
	for _, n := range nulls[1:] {
		dom := db.Domain(n)
		set := make(map[string]bool, len(dom))
		for _, c := range dom {
			set[c] = true
		}
		var next []string
		for _, c := range cur {
			if set[c] {
				next = append(next, c)
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	sort.Strings(cur)
	return cur
}

func containsString(xs []string, c string) bool {
	for _, x := range xs {
		if x == c {
			return true
		}
	}
	return false
}

// TotalWeight returns Σ_j weight(C_j) (with multiplicity; cylinders
// overlap, so this is an upper bound on the union size).
func (s *Set) TotalWeight() *big.Int {
	z := big.NewInt(0)
	for _, c := range s.Cylinders {
		z.Add(z, c.weight)
	}
	return z
}

// SampleIndex draws a cylinder index with probability proportional to its
// weight. The total weight must be positive.
func (s *Set) SampleIndex(r *rand.Rand) int {
	z := s.TotalWeight()
	x := new(big.Int).Rand(r, z)
	acc := big.NewInt(0)
	for i, c := range s.Cylinders {
		acc.Add(acc, c.weight)
		if x.Cmp(acc) < 0 {
			return i
		}
	}
	return len(s.Cylinders) - 1
}

// SampleValuation draws a uniform valuation from cylinder i: one uniform
// allowed value per class, everything else uniform over its domain.
func (s *Set) SampleValuation(i int, r *rand.Rand) core.Valuation {
	cyl := s.Cylinders[i]
	v := make(core.Valuation)
	for _, cl := range cyl.Classes {
		val := cl.Allowed[r.Intn(len(cl.Allowed))]
		for _, n := range cl.Nulls {
			v[n] = val
		}
	}
	for n := range s.freeOf[i] {
		dom := s.db.Domain(n)
		v[n] = dom[r.Intn(len(dom))]
	}
	return v
}

// CountContaining returns the number of cylinders containing v (at least 1
// when v was sampled from one of them).
func (s *Set) CountContaining(v core.Valuation) int {
	cnt := 0
	for _, c := range s.Cylinders {
		if c.Contains(v) {
			cnt++
		}
	}
	return cnt
}

// MaxUnionCylinders is the absolute limit of the inclusion–exclusion
// counter: 2^30 subset terms is minutes of work even for the compiled
// kernel, but with cancellation a caller raising the dispatcher's
// (configurable) cap can choose to wait — beyond this the loop could not
// terminate in practice.
// The planner clamps its configurable cap to this value.
const MaxUnionCylinders = 30

// UnionCount computes |∪_j C_j| — the exact number of satisfying
// valuations — by inclusion–exclusion over the cylinders: the SpanL
// "distinct witnesses" semantics of Proposition 5.2 made executable. It
// is exponential in the number of cylinders and guarded accordingly; the
// planner routes #Val here when a query has few cylinders.
func (s *Set) UnionCount() (*big.Int, error) {
	return s.UnionCountParallel(context.Background(), 1)
}

// UnionCountContext is UnionCount with cancellation: the 2^m subset loop
// polls ctx once per chunk of 2^chunkBits terms and returns its error
// shortly after it is done, like the sweep shards of internal/count do.
func (s *Set) UnionCountContext(ctx context.Context) (*big.Int, error) {
	return s.UnionCountParallel(ctx, 1)
}

// UnionCountParallel is UnionCountContext sharded across workers: the
// subset terms are split into contiguous ranges of chunks, each worker
// tallies the signed terms of its range exactly, and the tallies are
// merged in range order, so the result is bit-identical to the serial
// loop regardless of worker count. A range is at least one chunk, so
// sets of at most chunkBits cylinders run on the calling goroutine.
//
// The first call compiles the set into a dense kernel (see kernel); the
// Cylinders must not be modified after it.
func (s *Set) UnionCountParallel(ctx context.Context, workers int) (*big.Int, error) {
	if m := len(s.Cylinders); m > MaxUnionCylinders {
		return nil, fmt.Errorf("cylinder: inclusion–exclusion over %d cylinders is too large (limit %d)", m, MaxUnionCylinders)
	}
	return s.kernel().unionCount(ctx, workers)
}

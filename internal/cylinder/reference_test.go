package cylinder

import (
	"math/big"
	"math/bits"

	"github.com/incompletedb/incompletedb/internal/core"
)

// ReferenceUnionCount is a map-based inclusion–exclusion evaluator, the
// oracle the compiled kernel must match bit for bit: every subset term
// rebuilds its equality classes in Go maps and weighs them on big.Int.
func ReferenceUnionCount(s *Set) *big.Int {
	total := big.NewInt(0)
	for mask := 1; mask < 1<<uint(len(s.Cylinders)); mask++ {
		w := s.referenceIntersectionWeight(mask)
		if bits.OnesCount(uint(mask))%2 == 1 {
			total.Add(total, w)
		} else {
			total.Sub(total, w)
		}
	}
	return total
}

// referenceIntersectionWeight computes the weight of the intersection of
// the cylinders selected by mask: merge all equality classes (union-find
// over nulls) intersecting the allowed sets.
func (s *Set) referenceIntersectionWeight(mask int) *big.Int {
	parent := make(map[core.NullID]core.NullID)
	var find func(n core.NullID) core.NullID
	find = func(n core.NullID) core.NullID {
		p, ok := parent[n]
		if !ok {
			parent[n] = n
			return n
		}
		if p == n {
			return n
		}
		r := find(p)
		parent[n] = r
		return r
	}
	allowed := make(map[core.NullID][]string) // root -> allowed values
	merge := func(a, b core.NullID) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		av, aok := allowed[ra]
		bv, bok := allowed[rb]
		parent[ra] = rb
		switch {
		case aok && bok:
			allowed[rb] = intersectSorted(av, bv)
		case aok:
			allowed[rb] = av
		}
		delete(allowed, ra)
	}
	restrict := func(n core.NullID, vals []string) {
		r := find(n)
		if cur, ok := allowed[r]; ok {
			allowed[r] = intersectSorted(cur, vals)
		} else {
			allowed[r] = vals
		}
	}
	for i, c := range s.Cylinders {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		for _, cl := range c.Classes {
			first := cl.Nulls[0]
			for _, n := range cl.Nulls[1:] {
				merge(first, n)
			}
			restrict(first, cl.Allowed)
		}
	}
	// Weight: product over roots of |allowed ∩ (domains)|, recomputed per
	// root over all member nulls.
	members := make(map[core.NullID][]core.NullID)
	for n := range parent {
		members[find(n)] = append(members[find(n)], n)
	}
	w := big.NewInt(1)
	for r, ns := range members {
		vals := intersectDomains(s.db, ns)
		if av, ok := allowed[r]; ok {
			vals = intersectSorted(vals, av)
		}
		if len(vals) == 0 {
			return big.NewInt(0)
		}
		w.Mul(w, big.NewInt(int64(len(vals))))
	}
	// Free nulls.
	for _, n := range s.db.Nulls() {
		if _, bound := parent[n]; !bound {
			w.Mul(w, big.NewInt(int64(len(s.db.Domain(n)))))
		}
	}
	return w
}

func intersectSorted(a, b []string) []string {
	set := make(map[string]bool, len(b))
	for _, x := range b {
		set[x] = true
	}
	var out []string
	for _, x := range a {
		if set[x] {
			out = append(out, x)
		}
	}
	return out
}

// KernelWords reports how many uint64 words the compiled kernel of s
// uses per value bitset.
func KernelWords(s *Set) int { return s.kernel().words }

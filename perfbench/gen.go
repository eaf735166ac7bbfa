package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
)

// The generators below build the textual databases the workloads send,
// each with its answer computed by a closed form that never calls the
// solver. The tests in gen_test.go check every closed form against a
// plain enumeration of valuations on small instances.

// namer hands out constant names that no earlier call returned. The
// solver's fingerprints are invariant under renaming nulls but not
// constants, so databases built from fresh constants never share a cache
// entry even when they have the same shape.
type namer struct {
	prefix string
	n      int
}

// newNamer's names are equally long for every seed, so that no seed makes
// the inputs costlier to send or parse than another.
func newNamer(seed int64, scope string) *namer {
	return &namer{prefix: fmt.Sprintf("%s%05x", scope, uint64(seed)&0xfffff)}
}

func (nm *namer) next() string {
	nm.n++
	return fmt.Sprintf("%s_%d", nm.prefix, nm.n)
}

func (nm *namer) many(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = nm.next()
	}
	return out
}

// pow returns b^e as a big integer.
func pow(b, e int64) *big.Int {
	return new(big.Int).Exp(big.NewInt(b), big.NewInt(e), nil)
}

// instance is one generated database with the exact answers to its query.
type instance struct {
	text    string
	query   string
	facts   int
	records int      // parsed records: facts plus domain declarations
	space   *big.Int // valuation-space size
	val     *big.Int // #Val(query)
	comp    *big.Int // #Comp(query), nil where the workload never asks
}

// ring is the cycle rel(?1, ?2), …, rel(?n, ?1) over the two constants
// c0, c1 (as a uniform database, or naïve with one domain per null),
// queried with rel(x, x). A valuation misses the query exactly when it
// properly 2-colours the cycle, which an even cycle allows in 2 ways and
// an odd one in none, so #Val = 2^n − 2 for even n and 2^n for odd n. The
// distinct completions are the arc sets of closed walks of length n on
// {c0, c1}; for n ≥ 4 they are {c0c0}, {c1c1}, {c0c1, c1c0} (n even),
// {c0c0, c0c1, c1c0}, {c1c1, c0c1, c1c0} and all four arcs, five of which
// contain a loop: #Comp = 5.
func ring(n int, uniform bool, rel, c0, c1 string) instance {
	var b strings.Builder
	records := n
	if uniform {
		fmt.Fprintf(&b, "uniform %s %s\n", c0, c1)
	} else {
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&b, "dom ?%d %s %s\n", i, c0, c1)
		}
		records += n
	}
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "%s(?%d, ?%d)\n", rel, i, i%n+1)
	}
	val := pow(2, int64(n))
	if n%2 == 0 {
		val.Sub(val, big.NewInt(2))
	}
	return instance{
		text:    b.String(),
		query:   fmt.Sprintf("%s(x, x)", rel),
		facts:   n,
		records: records,
		space:   pow(2, int64(n)),
		val:     val,
		comp:    big.NewInt(5),
	}
}

// splitPair is a Codd table of 2k unary facts, r(?1..?k) and s(?k+1..?2k),
// every null over {c0, c1}, queried with r(x) ∧ s(x). The query fails
// only when all r-nulls take one constant and all s-nulls the other:
// #Val = 2^(2k) − 2. A completion is a pair of non-empty images (A, B),
// 3 × 3 = 9 of them for k ≥ 2, and all but ({c0}, {c1}) and ({c1}, {c0})
// intersect: #Comp = 7.
func splitPair(k int, r, s, c0, c1 string) instance {
	var b strings.Builder
	for i := 1; i <= 2*k; i++ {
		fmt.Fprintf(&b, "dom ?%d %s %s\n", i, c0, c1)
	}
	for i := 1; i <= 2*k; i++ {
		rel := r
		if i > k {
			rel = s
		}
		fmt.Fprintf(&b, "%s(?%d)\n", rel, i)
	}
	val := pow(2, int64(2*k))
	val.Sub(val, big.NewInt(2))
	return instance{
		text:    b.String(),
		query:   fmt.Sprintf("%s(x) ∧ %s(x)", r, s),
		facts:   2 * k,
		records: 4 * k,
		space:   pow(2, int64(2*k)),
		val:     val,
		comp:    big.NewInt(7),
	}
}

// coddTable is a Codd table of n facts rel(a_i, ?i), each null with its
// own domain of two or three constants from pool, queried with
// rel(x, x) (Theorem 3.7). Facts are independent: fact i is a loop in
// loop_i ∈ {0, 1} of its |dom_i| values (a_i ∈ dom_i), so
// #Val = ∏|dom_i| − ∏(|dom_i| − loop_i).
func coddTable(rng *rand.Rand, n int, rel string, pool []string) instance {
	var b strings.Builder
	total, miss := big.NewInt(1), big.NewInt(1)
	for i := 1; i <= n; i++ {
		perm := rng.Perm(len(pool))
		dom := perm[:2+rng.Intn(2)]
		a := rng.Intn(len(pool))
		fmt.Fprintf(&b, "dom ?%d", i)
		loop := int64(0)
		for _, j := range dom {
			b.WriteString(" " + pool[j])
			if j == a {
				loop = 1
			}
		}
		fmt.Fprintf(&b, "\n%s(%s, ?%d)\n", rel, pool[a], i)
		total.Mul(total, big.NewInt(int64(len(dom))))
		miss.Mul(miss, big.NewInt(int64(len(dom))-loop))
	}
	return instance{
		text:    b.String(),
		query:   fmt.Sprintf("%s(x, x)", rel),
		facts:   n,
		records: 2 * n,
		space:   total,
		val:     new(big.Int).Sub(total, miss),
	}
}

// uniformTable is a uniform database over dom (d constants) with k facts
// r(?i) and n − k facts s(c): m of the s-constants lie in dom, the rest
// outside it. The query r(x) ∧ s(x) (Theorem 3.9 for #Val, 4.6 for
// #Comp) holds iff some r-null lands on one of those m constants:
// #Val = d^k − (d − m)^k. A completion is fixed by the image A ⊆ dom of
// the r-nulls (1 ≤ |A| ≤ min(k, d)), and satisfies the query iff A meets
// the m constants: #Comp = Σ_j [C(d, j) − C(d − m, j)].
func uniformTable(rng *rand.Rand, n int, r, s string, dom []string, nm *namer) instance {
	d := len(dom)
	m := 2
	k := min(n*4/5, n-m)
	lines := make([]string, 0, n)
	for i := 1; i <= k; i++ {
		lines = append(lines, fmt.Sprintf("%s(?%d)", r, i))
	}
	for _, j := range rng.Perm(d)[:m] {
		lines = append(lines, fmt.Sprintf("%s(%s)", s, dom[j]))
	}
	for len(lines) < n {
		lines = append(lines, fmt.Sprintf("%s(%s)", s, nm.next()))
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	var b strings.Builder
	b.WriteString("uniform " + strings.Join(dom, " ") + "\n")
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	val := pow(int64(d), int64(k))
	val.Sub(val, pow(int64(d-m), int64(k)))
	comp := new(big.Int)
	for j := int64(1); j <= int64(min(k, d)); j++ {
		comp.Add(comp, new(big.Int).Binomial(int64(d), j))
		comp.Sub(comp, new(big.Int).Binomial(int64(d-m), j)) // 0 once j > d−m
	}
	return instance{
		text:    b.String(),
		query:   fmt.Sprintf("%s(x) ∧ %s(x)", r, s),
		facts:   n,
		records: n,
		space:   pow(int64(d), int64(k)),
		val:     val,
		comp:    comp,
	}
}

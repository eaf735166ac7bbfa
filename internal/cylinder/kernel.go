package cylinder

import (
	"context"
	"math/big"
	"math/bits"
	"sync"

	"github.com/incompletedb/incompletedb/internal/core"
)

// kernel is the compiled form of a Set for inclusion–exclusion. Every
// null occurring in some cylinder gets a dense index, every value of
// their domains a bit position, and every value set — a null's domain, a
// class's Allowed — becomes a bitset of words uint64s (one word up to 64
// distinct values). Intersecting a cylinder into a subset term is then a
// union-find over []int32 whose merges AND bitsets, and the term's weight
// is the product of its roots' popcounts.
//
// Nulls of the database that occur in no cylinder are free in every term,
// so their domain-size product is factored out of the whole sum and
// multiplied in once.
type kernel struct {
	words  int
	ident  []int32    // ident[i] = i: the reset state of the union-find
	ones   []int32    // all 1: the reset state of the class sizes
	dom    []uint64   // len(ident)×words: per-null domain bitsets
	cyls   [][]kclass // per cylinder, its equality classes
	free   *big.Int   // domain-size product of the nulls in no cylinder
	w0     uint64     // domain-size product of the dense nulls: the weight of the reset state
	w0fits bool       // whether w0 holds it, or it overflows 64 bits
	steps  int        // bound on the undo steps of one root-to-leaf walk
}

// kclass is a compiled Class: dense null indices and the Allowed bitset.
type kclass struct {
	nulls   []int32
	allowed []uint64
}

// kernel returns the Set's compiled kernel, building it on first use.
// Concurrent callers share one build.
func (s *Set) kernel() *kernel {
	s.compileOnce.Do(func() { s.compiled = s.compile() })
	return s.compiled
}

func (s *Set) compile() *kernel {
	dense := make(map[core.NullID]int32)
	bit := make(map[string]int)
	intern := func(vals []string) {
		for _, v := range vals {
			if _, ok := bit[v]; !ok {
				bit[v] = len(bit)
			}
		}
	}
	var order []core.NullID
	for _, c := range s.Cylinders {
		for _, cl := range c.Classes {
			for _, n := range cl.Nulls {
				if _, ok := dense[n]; !ok {
					dense[n] = int32(len(order))
					order = append(order, n)
					intern(s.db.Domain(n))
				}
			}
			intern(cl.Allowed)
		}
	}
	k := &kernel{words: max(1, (len(bit)+63)/64), free: big.NewInt(1), w0: 1, w0fits: true}
	bitset := func(vals []string) []uint64 {
		b := make([]uint64, k.words)
		for _, v := range vals {
			i := bit[v]
			b[i/64] |= 1 << (i % 64)
		}
		return b
	}
	k.ident = make([]int32, len(order))
	k.ones = make([]int32, len(order))
	k.dom = make([]uint64, 0, len(order)*k.words)
	for i, n := range order {
		k.ident[i], k.ones[i] = int32(i), 1
		k.dom = append(k.dom, bitset(s.db.Domain(n))...)
		hi, lo := bits.Mul64(k.w0, uint64(len(s.db.Domain(n))))
		k.w0, k.w0fits = lo, k.w0fits && hi == 0
	}
	k.cyls = make([][]kclass, len(s.Cylinders))
	for i, c := range s.Cylinders {
		for _, cl := range c.Classes {
			kc := kclass{nulls: make([]int32, len(cl.Nulls)), allowed: bitset(cl.Allowed)}
			for j, n := range cl.Nulls {
				kc.nulls[j] = dense[n]
			}
			k.cyls[i] = append(k.cyls[i], kc)
			k.steps += len(cl.Nulls) // one step per merge, or one if none
		}
	}
	for _, n := range s.db.Nulls() {
		if _, ok := dense[n]; !ok {
			k.free.Mul(k.free, big.NewInt(int64(len(s.db.Domain(n)))))
		}
	}
	return k
}

// step is one undoable change to a scratch state: root's bitset was
// overwritten (its old words are on the saved stack) and, when child ≥ 0,
// the root child was linked under root.
type step struct {
	root, child int32
}

// scratch is one worker's union-find state — parents, class sizes, the
// per-root value bitsets — with the undo stacks that let a depth-first
// walk back out of a cylinder, and the big.Int registers of the overflow
// path. Every stack is allocated to its bound up front.
type scratch struct {
	parent, size []int32
	sets         []uint64
	log          []step
	saved        []uint64
	w, p         big.Int
}

func (k *kernel) newScratch() *scratch {
	return &scratch{
		parent: make([]int32, len(k.ident)),
		size:   make([]int32, len(k.ident)),
		sets:   make([]uint64, len(k.dom)),
		log:    make([]step, 0, k.steps),
		saved:  make([]uint64, 0, k.steps*k.words),
	}
}

// reset returns sc to the empty intersection: every dense null is its own
// class over its whole domain.
func (k *kernel) reset(sc *scratch) {
	copy(sc.parent, k.ident)
	copy(sc.size, k.ones)
	copy(sc.sets, k.dom)
	sc.log, sc.saved = sc.log[:0], sc.saved[:0]
}

func (sc *scratch) find(x int32) int32 {
	for sc.parent[x] != x {
		x = sc.parent[x]
	}
	return x
}

func (k *kernel) set(sc *scratch, r int32) []uint64 {
	return sc.sets[int(r)*k.words : int(r+1)*k.words]
}

// push saves root's bitset and, when child ≥ 0, links child under root.
func (k *kernel) push(sc *scratch, root, child int32) {
	sc.log = append(sc.log, step{root, child})
	sc.saved = append(sc.saved, k.set(sc, root)...)
	if child >= 0 {
		sc.parent[child] = root
		sc.size[root] += sc.size[child]
	}
}

// undo reverts sc to the log height mark.
func (k *kernel) undo(sc *scratch, mark int) {
	for len(sc.log) > mark {
		s := sc.log[len(sc.log)-1]
		sc.log = sc.log[:len(sc.log)-1]
		at := len(sc.saved) - k.words
		copy(k.set(sc, s.root), sc.saved[at:])
		sc.saved = sc.saved[:at]
		if s.child >= 0 {
			sc.size[s.root] -= sc.size[s.child]
			sc.parent[s.child] = s.child
		}
	}
}

// apply intersects cylinder c into the state of sc, logging every change,
// and updates the state's weight w: the roots it merges or restricts are
// divided out (each is an exact factor of w) and the resulting root
// multiplied in. fits reports whether w still holds the weight; once a
// product overflows 64 bits the weight is recomputed on big.Int
// (bigWeight) for this state and every state below it. empty reports an
// empty intersection, which every superset shares.
func (k *kernel) apply(sc *scratch, c int, w uint64, fits bool) (_ uint64, _, empty bool) {
	for _, cl := range k.cyls[c] {
		r := sc.find(cl.nulls[0])
		if fits {
			w /= popcount(k.set(sc, r))
		}
		saved := false
		for _, n := range cl.nulls[1:] {
			rn := sc.find(n)
			if rn == r {
				continue
			}
			if fits {
				w /= popcount(k.set(sc, rn))
			}
			if sc.size[rn] > sc.size[r] {
				r, rn = rn, r
			}
			k.push(sc, r, rn)
			saved = true
			and(k.set(sc, r), k.set(sc, rn))
		}
		if !saved {
			k.push(sc, r, -1)
		}
		// Every merge is followed by this intersection, so it also catches
		// merged domains that are disjoint.
		if and(k.set(sc, r), cl.allowed) {
			return 0, false, true
		}
		if fits {
			var hi uint64
			hi, w = bits.Mul64(w, popcount(k.set(sc, r)))
			fits = hi == 0
		}
	}
	return w, fits, false
}

// bigWeight computes the weight of the state of sc on big.Int, into sc.w.
func (k *kernel) bigWeight(sc *scratch) *big.Int {
	sc.w.SetUint64(1)
	for i, p := range sc.parent {
		if int(p) == i {
			sc.w.Mul(&sc.w, sc.p.SetUint64(popcount(k.set(sc, p))))
		}
	}
	return &sc.w
}

func (k *kernel) add(sc *scratch, t *termSum, w uint64, fits, negative bool) {
	if fits {
		t.add(w, negative)
	} else {
		t.addBig(k.bigWeight(sc), negative)
	}
}

// walk adds, depth first, every subset term that extends the current
// state with cylinders next..hi-1 (in increasing order): each term costs
// one cylinder's intersection on top of its parent's, and an empty
// intersection prunes all of its supersets. negative is the sign of the
// current state's term; one more cylinder flips it.
func (k *kernel) walk(sc *scratch, t *termSum, next, hi int, w uint64, fits, negative bool) {
	for c := next; c < hi; c++ {
		mark := len(sc.log)
		if w, fits, empty := k.apply(sc, c, w, fits); !empty {
			k.add(sc, t, w, fits, !negative)
			k.walk(sc, t, c+1, hi, w, fits, !negative)
		}
		k.undo(sc, mark)
	}
}

// and sets dst to dst ∧ src and reports whether the result is empty.
func and(dst, src []uint64) (empty bool) {
	var or uint64
	for i := range dst {
		dst[i] &= src[i]
		or |= dst[i]
	}
	return or == 0
}

func popcount(set []uint64) uint64 {
	c := 0
	for _, x := range set {
		c += bits.OnesCount64(x)
	}
	return uint64(c)
}

// termSum is a signed inclusion–exclusion tally. Terms that fit 64 bits
// add into 128-bit positive and negative words, which cannot carry out:
// at most 2^MaxUnionCylinders terms below 2^64 each sum below 2^94.
// Terms that overflowed 64 bits are added on big.Int, like the promoted
// tallies of package count.
type termSum struct {
	pos, neg [2]uint64 // lo, hi
	big      *big.Int  // nil until a term overflows
}

func (t *termSum) add(w uint64, negative bool) {
	a := &t.pos
	if negative {
		a = &t.neg
	}
	var c uint64
	a[0], c = bits.Add64(a[0], w, 0)
	a[1] += c
}

func (t *termSum) addBig(w *big.Int, negative bool) {
	if t.big == nil {
		t.big = new(big.Int)
	}
	if negative {
		t.big.Sub(t.big, w)
	} else {
		t.big.Add(t.big, w)
	}
}

// value returns the tally as a fresh big.Int.
func (t *termSum) value() *big.Int {
	v := uint128(t.pos)
	v.Sub(v, uint128(t.neg))
	if t.big != nil {
		v.Add(v, t.big)
	}
	return v
}

func uint128(a [2]uint64) *big.Int {
	v := new(big.Int).SetUint64(a[1])
	v.Lsh(v, 64)
	return v.Or(v, new(big.Int).SetUint64(a[0]))
}

// chunkBits sets the chunk of the term loop: the masks sharing all bits
// above the low chunkBits, whose 2^chunkBits terms one walk covers.
// Cancellation is polled once per chunk.
const chunkBits = 10

// sumChunks adds the signed subset terms of chunks [lo, hi) into t. Chunk
// h intersects the cylinders of its high bits once, then walks the
// subsets of the low cylinders on top of that state; a chunk whose high
// cylinders do not intersect is skipped whole.
func (k *kernel) sumChunks(ctx context.Context, lo, hi uint64, low int, t *termSum) error {
	sc := k.newScratch()
	for h := lo; h < hi; h++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		k.reset(sc)
		w, fits, empty := k.w0, k.w0fits, false
		for m := h; m != 0 && !empty; m &= m - 1 {
			w, fits, empty = k.apply(sc, low+bits.TrailingZeros64(m), w, fits)
		}
		if empty {
			continue
		}
		negative := bits.OnesCount64(h)%2 == 0 // the sign of term h<<low
		if h != 0 {
			k.add(sc, t, w, fits, negative)
		}
		k.walk(sc, t, 0, low, w, fits, negative)
	}
	return nil
}

// unionCount sums the 2^m − 1 subset terms, in chunks split into workers
// contiguous ranges, and merges the per-range tallies in range order.
// Every tally is exact, so the result does not depend on the worker
// count.
func (k *kernel) unionCount(ctx context.Context, workers int) (*big.Int, error) {
	low := min(len(k.cyls), chunkBits)
	chunks := uint64(1) << (len(k.cyls) - low)
	workers = int(min(uint64(max(workers, 1)), chunks))
	sums := make([]termSum, workers)
	errs := make([]error, workers)
	bound := func(w int) uint64 { return uint64(w) * chunks / uint64(workers) }
	if workers == 1 {
		errs[0] = k.sumChunks(ctx, 0, chunks, low, &sums[0])
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = k.sumChunks(ctx, bound(w), bound(w+1), low, &sums[w])
			}(w)
		}
		wg.Wait()
	}
	total := new(big.Int)
	for w := range sums {
		if errs[w] != nil {
			return nil, errs[w]
		}
		total.Add(total, sums[w].value())
	}
	return total.Mul(total, k.free), ctx.Err()
}

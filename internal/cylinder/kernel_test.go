package cylinder_test

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/cylinder"
)

// kernelQueries covers self-joins, shared variables, and unions whose
// disjuncts share relations.
var kernelQueries = []string{
	"R(x, x)",
	"R(x, y) ∧ S(y)",
	"R(x, y) ∧ R(y, z)",
	"R(x, y) ∧ S(x) ∧ S(y)",
	"R(x, x) | S(y)",
	"R(x, y) ∧ S(y) | S(z) ∧ T(z, z)",
}

// schemaOf lists the relations of q with their arities, in first
// occurrence order so that a seed always builds the same database.
func schemaOf(q cq.Query) (rels []string, arity map[string]int) {
	arity = map[string]int{}
	var disjuncts []*cq.BCQ
	switch t := q.(type) {
	case *cq.BCQ:
		disjuncts = []*cq.BCQ{t}
	case *cq.UCQ:
		disjuncts = t.Disjuncts
	}
	for _, d := range disjuncts {
		for _, a := range d.Atoms {
			if _, ok := arity[a.Rel]; !ok {
				rels = append(rels, a.Rel)
				arity[a.Rel] = len(a.Vars)
			}
		}
	}
	return rels, arity
}

// dbShape parameterises genDB.
type dbShape struct {
	universe int // distinct constants
	nulls    int // nulls ?1..?nulls
	minDom   int // per-null domain size range (non-uniform databases)
	maxDom   int
	facts    int // facts per relation, at most
	constPct int // percentage of fact arguments that are constants
	uniform  bool
}

func genDB(r *rand.Rand, q cq.Query, sh dbShape) *core.Database {
	universe := make([]string, sh.universe)
	for i := range universe {
		universe[i] = fmt.Sprintf("c%d", i)
	}
	var db *core.Database
	if sh.uniform {
		db = core.NewUniformDatabase(universe[:sh.maxDom])
	} else {
		db = core.NewDatabase()
		for i := 1; i <= sh.nulls; i++ {
			size := sh.minDom + r.Intn(sh.maxDom-sh.minDom+1)
			dom := make([]string, size)
			for j, p := range r.Perm(sh.universe)[:size] {
				dom[j] = universe[p]
			}
			if err := db.SetDomain(core.NullID(i), dom); err != nil {
				panic(err)
			}
		}
	}
	rels, arity := schemaOf(q)
	for _, rel := range rels {
		for f := 1 + r.Intn(sh.facts); f > 0; f-- {
			args := make([]core.Value, arity[rel])
			for j := range args {
				if r.Intn(100) < sh.constPct {
					args[j] = core.Const(universe[r.Intn(sh.universe)])
				} else {
					args[j] = core.Null(core.NullID(1 + r.Intn(sh.nulls)))
				}
			}
			// Duplicate facts are rejected; the draw is simply skipped.
			_ = db.AddFact(rel, args...)
		}
	}
	return db
}

func space(db *core.Database) *big.Int {
	z := big.NewInt(1)
	for _, n := range db.Nulls() {
		z.Mul(z, big.NewInt(int64(len(db.Domain(n)))))
	}
	return z
}

// checkKernel asserts that the compiled kernel, at every worker count,
// agrees bit for bit with the map-based reference, and with brute-force
// enumeration when the valuation space is small enough to enumerate.
func checkKernel(t *testing.T, label string, db *core.Database, q cq.Query) *cylinder.Set {
	t.Helper()
	set, err := cylinder.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	want := cylinder.ReferenceUnionCount(set)
	for _, workers := range []int{1, 2, 3, 7} {
		got, err := set.UnionCountParallel(context.Background(), workers)
		if err != nil {
			t.Fatalf("%s: workers=%d: %v", label, workers, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: q=%v workers=%d: kernel=%v reference=%v\ndb:\n%s", label, q, workers, got, want, db)
		}
	}
	if space(db).Cmp(big.NewInt(1<<16)) <= 0 {
		brute, err := count.BruteForceValuations(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if brute.Cmp(want) != 0 {
			t.Fatalf("%s: q=%v: reference=%v brute=%v\ndb:\n%s", label, q, want, brute, db)
		}
	}
	return set
}

// TestKernelMatchesReference is the kernel's property test: random
// databases with non-uniform domains of different sizes, pinned and
// conflicting constants, empty intersections (small domains drawn from a
// larger universe), union queries, more than 64 distinct values, and
// enough cylinders for every worker count to get its own range.
func TestKernelMatchesReference(t *testing.T) {
	shapes := map[string]dbShape{
		"small":     {universe: 4, nulls: 4, minDom: 1, maxDom: 3, facts: 4, constPct: 30},
		"uniform":   {universe: 3, nulls: 5, maxDom: 3, facts: 4, constPct: 20, uniform: true},
		"sparse":    {universe: 6, nulls: 5, minDom: 1, maxDom: 2, facts: 5, constPct: 10},
		"pinned":    {universe: 3, nulls: 3, minDom: 2, maxDom: 3, facts: 5, constPct: 60},
		"wide":      {universe: 150, nulls: 4, minDom: 40, maxDom: 120, facts: 4, constPct: 10},
		"many-cyls": {universe: 5, nulls: 8, minDom: 2, maxDom: 4, facts: 14, constPct: 5},
	}
	for name, sh := range shapes {
		for _, qs := range kernelQueries {
			q := cq.MustParse(qs)
			for seed := int64(0); seed < 12; seed++ {
				r := rand.New(rand.NewSource(seed))
				db := genDB(r, q, sh)
				set, err := cylinder.Build(db, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(set.Cylinders) > 14 {
					continue // the reference needs seconds beyond 2^14 terms
				}
				checkKernel(t, fmt.Sprintf("%s/seed=%d", name, seed), db, q)
			}
		}
	}
}

// TestKernelMultiWord pins the multi-word bitset path: the nulls of the
// cylinders range over more than 64 distinct values.
func TestKernelMultiWord(t *testing.T) {
	q := cq.MustParseBCQ("R(x, y) ∧ S(y)")
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := genDB(r, q, dbShape{universe: 200, nulls: 5, minDom: 60, maxDom: 180, facts: 5, constPct: 10})
		set := checkKernel(t, fmt.Sprintf("seed=%d", seed), db, q)
		if len(set.Cylinders) > 0 {
			if w := cylinder.KernelWords(set); w < 2 {
				t.Fatalf("seed=%d: kernel uses %d word(s) per bitset, want the multi-word path", seed, w)
			}
		}
	}
}

// TestKernelOverflowPromotion pins the big.Int promotion path: every
// null occurs in some cylinder, so the single-cylinder terms alone exceed
// 2^64, and the count must still match the reference exactly.
func TestKernelOverflowPromotion(t *testing.T) {
	const arity = 10
	q := cq.MustParseBCQ("R(x, x, y1, y2, y3, y4, y5, y6, y7, y8)")
	vals := make([]string, 16)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i)
	}
	// Facts over fresh nulls, then facts reusing their nulls so that the
	// cylinders overlap. 13 cylinders give each of 7 workers a range.
	for _, fresh := range []int{2, 7} {
		db := core.NewDatabase()
		for i := 1; i <= arity*fresh; i++ {
			if err := db.SetDomain(core.NullID(i), vals[i%3:]); err != nil {
				t.Fatal(err)
			}
		}
		fact := func(first int) {
			args := make([]core.Value, arity)
			for j := range args {
				args[j] = core.Null(core.NullID(first + j))
			}
			db.MustAddFact("R", args...)
		}
		for i := 0; i < fresh; i++ {
			fact(arity*i + 1)
		}
		for i := 0; i < fresh-1; i++ {
			fact(arity*i + 2)
		}
		set := checkKernel(t, fmt.Sprintf("fresh=%d", fresh), db, q)
		if m := len(set.Cylinders); m != 2*fresh-1 {
			t.Fatalf("fresh=%d: %d cylinders, want %d", fresh, m, 2*fresh-1)
		}
		if bl := set.Cylinders[0].Weight().BitLen(); bl <= 64 {
			t.Fatalf("fresh=%d: cylinder weight has %d bits; the overflow path is not reached", fresh, bl)
		}
	}
}

// ring builds the even ring R(?1, ?2), …, R(?m, ?1) over {a, b}: #Val of
// R(x, x) has exactly m cylinders.
func ring(m int) (*cylinder.Set, error) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= m; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i%m+1)))
	}
	return cylinder.Build(db, cq.MustParseBCQ("R(x, x)"))
}

// TestUnionCountConcurrentCallers: callers sharing a fresh Set (as plans
// cached by the solver do) share one lazy kernel build.
func TestUnionCountConcurrentCallers(t *testing.T) {
	set, err := ring(12)
	if err != nil {
		t.Fatal(err)
	}
	want := big.NewInt(1<<12 - 2) // all valuations but the two proper 2-colourings
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := set.UnionCountParallel(context.Background(), 2)
			if err != nil || got.Cmp(want) != 0 {
				t.Errorf("union = %v, %v; want %v", got, err, want)
			}
		}()
	}
	wg.Wait()
}

// TestUnionCountAllocsFlat guards the kernel's allocation-free term loop:
// 64 times as many subset terms must not cost a single extra allocation.
func TestUnionCountAllocsFlat(t *testing.T) {
	allocs := map[int]float64{}
	for _, m := range []int{10, 16} {
		set, err := ring(m)
		if err != nil {
			t.Fatal(err)
		}
		allocs[m] = testing.AllocsPerRun(3, func() {
			if _, err := set.UnionCount(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[16] > allocs[10] {
		t.Fatalf("UnionCount allocations grow with the subset count: %v at m=10, %v at m=16", allocs[10], allocs[16])
	}
}

func BenchmarkUnionCount(b *testing.B) {
	for _, m := range []int{12, 16, 18} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			set, err := ring(m)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := set.UnionCount(); err != nil { // compile the kernel
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := set.UnionCount(); err != nil {
					b.Fatal(err)
				}
			}
			terms := float64(uint64(1)<<m-1) * float64(b.N)
			b.ReportMetric(terms/b.Elapsed().Seconds(), "terms/s")
		})
	}
}

// TestKernelEmptyIntersections pins the pruned walk: any two of the three
// cylinders pin the same class to disjoint values, so every term over two
// or more cylinders is empty.
func TestKernelEmptyIntersections(t *testing.T) {
	db := core.NewDatabase()
	for i, dom := range [][]string{{"a", "b"}, {"b", "c"}, {"c", "a"}} {
		if err := db.SetDomain(core.NullID(i+1), dom); err != nil {
			t.Fatal(err)
		}
	}
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.MustAddFact("R", core.Null(2), core.Null(3))
	db.MustAddFact("R", core.Null(3), core.Null(1))
	set := checkKernel(t, "triangle", db, cq.MustParseBCQ("R(x, x)"))
	got, err := set.UnionCount()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(6)) != 0 { // three disjoint cylinders of weight 2
		t.Fatalf("union = %v, want 6", got)
	}
}

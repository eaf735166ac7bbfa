package main

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// enumerate counts #Val and #Comp of inst by visiting every valuation and
// evaluating the query on the completion: no planner, no solver.
func enumerate(t *testing.T, inst instance) (val, comp *big.Int, space *big.Int) {
	t.Helper()
	db, err := core.ParseDatabaseString(inst.text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cq.Parse(inst.query)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	seen := map[string]bool{}
	total := int64(0)
	err = db.ForEachValuation(func(v core.Valuation) bool {
		total++
		c := db.Apply(v)
		if q.Eval(c) {
			n++
			seen[c.CanonicalKey()] = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return big.NewInt(n), big.NewInt(int64(len(seen))), big.NewInt(total)
}

func checkOracle(t *testing.T, name string, inst instance) {
	t.Helper()
	val, comp, space := enumerate(t, inst)
	if inst.val.Cmp(val) != 0 {
		t.Errorf("%s: #Val oracle %v, enumeration %v", name, inst.val, val)
	}
	if inst.comp != nil && inst.comp.Cmp(comp) != 0 {
		t.Errorf("%s: #Comp oracle %v, enumeration %v", name, inst.comp, comp)
	}
	if inst.space.Cmp(space) != 0 {
		t.Errorf("%s: space %v, enumeration %v", name, inst.space, space)
	}
	db, err := core.ParseDatabaseString(inst.text)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.Facts()); got != inst.facts {
		t.Errorf("%s: %d facts, want %d", name, got, inst.facts)
	}
	if int(db.Version()) != inst.records {
		t.Errorf("%s: %d parsed records, want %d", name, db.Version(), inst.records)
	}
}

func TestRingOracle(t *testing.T) {
	for n := 4; n <= 11; n++ {
		checkOracle(t, "uniform ring", ring(n, true, "E", "a", "b"))
		checkOracle(t, "naive ring", ring(n, false, "E", "a", "b"))
	}
}

func TestSplitPairOracle(t *testing.T) {
	for k := 2; k <= 5; k++ {
		checkOracle(t, "split pair", splitPair(k, "P", "Q", "a", "b"))
	}
}

func TestCoddTableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 7; n++ {
		checkOracle(t, "codd table", coddTable(rng, n, "T", []string{"a", "b", "c", "d"}))
	}
}

func TestUniformTableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nm := newNamer(3, "x")
	for _, n := range []int{3, 5, 8, 10} {
		for _, d := range []int{3, 4} {
			checkOracle(t, "uniform table", uniformTable(rng, n, "R", "S", nm.many(d), nm))
		}
	}
}

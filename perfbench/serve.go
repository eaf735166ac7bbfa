package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"strings"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/server"
)

// serve-mixed: two closed-loop HTTP clients against one server. Each
// pass of a client is a fixed mix — 15 count reads over a pool of small
// ring databases whose fingerprints all fit the result cache (warmed at
// set-up), 3 classifications, 1 Karp–Luby estimate and 1 write on the
// live session — in a seed-shuffled order.
const (
	servePool        = 48   // inline databases (×2 kinds) kept in the result cache
	serveReads       = 15   // per pass
	serveClassifies  = 3    // per pass
	serveEstimates   = 1    // per pass
	serveWrites      = 1    // per pass
	serveLiveFacts   = 2500 // 5000 parsed records: past the 4096-record delta log
	serveEstimateEps = 0.1
	serveEstimateDel = 0.05
	serveLiveRel     = "L"
)

// classifyCase is a query pattern with its classification by Table 1
// (Theorems 3.6, 3.7, 3.9, 4.3, 4.4, 4.6, 4.7 and Proposition 3.11), in
// the order of classify.AllVariants: #Val, #Val^u, #Comp, #Comp^u, then
// the same four over Codd tables. "hard" stands for #P-complete or
// #P-hard; uniform Codd tables inherit tractability from both Theorem 3.7
// and 3.9, and R(x, x) ∧ S(x) there is the paper's open case.
type classifyCase struct {
	pattern string // relations A and B, renamed per operation
	want    [8]string
}

var classifyCases = []classifyCase{
	{"A(x)", [8]string{"FP", "FP", "hard", "FP", "FP", "FP", "hard", "FP"}},
	{"A(x, x)", [8]string{"hard", "hard", "hard", "hard", "FP", "FP", "hard", "hard"}},
	{"A(x) ∧ B(x)", [8]string{"hard", "FP", "hard", "FP", "hard", "FP", "hard", "FP"}},
	{"A(x, y)", [8]string{"FP", "FP", "hard", "hard", "FP", "FP", "hard", "hard"}},
	{"A(x, x) ∧ B(x)", [8]string{"hard", "hard", "hard", "hard", "hard", "open", "hard", "hard"}},
}

func checkClassification(c classifyCase, variants, complexities []string) error {
	all := classify.AllVariants()
	if len(variants) != len(all) {
		return fmt.Errorf("classify %s: %d variants, want %d", c.pattern, len(variants), len(all))
	}
	for i, v := range all {
		got := complexities[i]
		if got == "#P-complete" || got == "#P-hard" {
			got = "hard"
		}
		if variants[i] != v.String() || got != c.want[i] {
			return fmt.Errorf("classify %s: %s is %s (%s), want %s", c.pattern, variants[i], complexities[i], v, c.want[i])
		}
	}
	return nil
}

type serveEnv struct {
	b         *bench
	ls        *liveServer
	pool      []instance
	estimates []instance
	live      instance
}

func setupServeMixed(ctx context.Context, b *bench) (env, error) {
	rng := rand.New(rand.NewSource(b.seed))
	nm := newNamer(b.seed, "s")
	e := &serveEnv{b: b}
	for i := 0; i < servePool; i++ {
		e.pool = append(e.pool, ring(6+i%6, i%2 == 0, "E", nm.next(), nm.next()))
	}
	for i := 0; i < 6; i++ {
		e.estimates = append(e.estimates, ring(6+i%3, i%2 == 0, "E", nm.next(), nm.next()))
	}
	e.live = coddTable(rng, serveLiveFacts, serveLiveRel, nm.many(4))

	ls, err := startServer(server.Config{Workers: b.nproc})
	if err != nil {
		return nil, err
	}
	e.ls = ls
	var st server.DatabaseState
	if err := b.call(ctx, http.MethodPost, ls.base+"/v1/db", server.Request{Database: e.live.text}, &st); err != nil {
		e.close()
		return nil, fmt.Errorf("loading the live database: %w", err)
	}
	if st.Facts != e.live.facts {
		e.close()
		return nil, fmt.Errorf("live database has %d facts, want %d", st.Facts, e.live.facts)
	}
	// Warm-up: every pooled read once per kind (filling the result cache),
	// each classification, one estimate and one write.
	for _, inst := range e.pool {
		for _, comp := range []bool{false, true} {
			if err := e.read(inst, comp, "x").run(ctx, nil); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	warm := []op{e.estimate(e.estimates[0], 1), e.write(-1, 0, 0)}
	for i := range classifyCases {
		warm = append(warm, e.classify(i, "A", "B"))
	}
	for _, o := range warm {
		if err := o.run(ctx, nil); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *serveEnv) cycle(c, k int) []op {
	rng := rand.New(rand.NewSource(e.b.seed*1_000_003 + int64(c)*7919 + int64(k)))
	vars := []string{"x", "y", "u", "w"}
	var ops []op
	for i := 0; i < serveReads; i++ {
		// Renamed query variables still hit: fingerprints canonicalize them.
		ops = append(ops, e.read(e.pool[rng.Intn(len(e.pool))], i%2 == 1, vars[rng.Intn(len(vars))]))
	}
	for i := 0; i < serveClassifies; i++ {
		ops = append(ops, e.classify(rng.Intn(len(classifyCases)), fmt.Sprintf("A%d", rng.Intn(8)), fmt.Sprintf("B%d", rng.Intn(8))))
	}
	for i := 0; i < serveEstimates; i++ {
		ops = append(ops, e.estimate(e.estimates[rng.Intn(len(e.estimates))], int64(1+rng.Intn(1000))))
	}
	for i := 0; i < serveWrites; i++ {
		ops = append(ops, e.write(c, k, i))
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// read is a /v1/count over a pooled database.
func (e *serveEnv) read(inst instance, comp bool, v string) op {
	query := strings.Replace(inst.query, "(x, x)", fmt.Sprintf("(%s, %s)", v, v), 1)
	want := inst.val
	if comp {
		want = inst.comp
	}
	return op{class: "read", run: func(ctx context.Context, tr *opTrace) error {
		if tr == nil {
			return e.b.countHTTP(ctx, e.ls.base, inst.text, query, comp, want)
		}
		return countDirect(ctx, tr, e.ls.srv.Solver(), nil, inst.text, query, comp, want)
	}}
}

// classify is a /v1/classify of one pattern with renamed relations.
func (e *serveEnv) classify(i int, relA, relB string) op {
	c := classifyCases[i]
	query := strings.NewReplacer("A(", relA+"(", "B(", relB+"(").Replace(c.pattern)
	return op{class: "classify", run: func(ctx context.Context, tr *opTrace) error {
		var variants, complexities []string
		if tr == nil {
			var resp server.Response
			if err := e.b.call(ctx, http.MethodPost, e.ls.base+"/v1/classify", server.Request{Query: query}, &resp); err != nil {
				return err
			}
			for _, r := range resp.Classification {
				variants = append(variants, r.Variant)
				complexities = append(complexities, r.Complexity)
			}
			return checkClassification(c, variants, complexities)
		}
		var q *cq.BCQ
		if err := tr.do("cq.parse", func() (err error) { q, err = cq.ParseBCQ(query); return }); err != nil {
			return err
		}
		var rs []classify.Result
		if err := tr.do("classify.classify", func() (err error) { rs, err = classify.ClassifyAll(q); return }); err != nil {
			return err
		}
		for _, r := range rs {
			variants = append(variants, r.Variant.String())
			complexities = append(complexities, r.Complexity.String())
		}
		return checkClassification(c, variants, complexities)
	}}
}

// estimate is a /v1/estimate; the answer must be within the requested
// relative error of the exact count (the FPRAS guarantee).
func (e *serveEnv) estimate(inst instance, seed int64) op {
	check := func(got string, samples int) error {
		est, ok := new(big.Float).SetString(got)
		if !ok {
			return fmt.Errorf("estimate %q is not a number", got)
		}
		exact := new(big.Float).SetInt(inst.val)
		diff := new(big.Float).Sub(est, exact)
		diff.Abs(diff)
		if diff.Cmp(new(big.Float).Mul(exact, big.NewFloat(serveEstimateEps))) > 0 {
			return fmt.Errorf("estimate %s off the exact %s by more than %g", got, inst.val, serveEstimateEps)
		}
		if samples <= 0 {
			return fmt.Errorf("estimate reports %d samples", samples)
		}
		return nil
	}
	return op{class: "estimate", run: func(ctx context.Context, tr *opTrace) error {
		if tr == nil {
			var resp server.Response
			req := server.Request{Database: inst.text, Query: inst.query, Eps: serveEstimateEps, Delta: serveEstimateDel, Seed: seed}
			if err := e.b.call(ctx, http.MethodPost, e.ls.base+"/v1/estimate", req, &resp); err != nil {
				return err
			}
			if resp.Estimate == nil {
				return fmt.Errorf("estimate response has no estimate block")
			}
			return check(resp.Count, resp.Estimate.Samples)
		}
		var q cq.Query
		if err := tr.do("cq.parse", func() (err error) { q, err = cq.Parse(inst.query); return }); err != nil {
			return err
		}
		pdb, err := prepareDirect(tr, e.ls.srv.Solver(), inst.text)
		if err != nil {
			return err
		}
		var n string
		var samples int
		err = tr.do("approx.estimate", func() error {
			res, err := pdb.Estimate(ctx, q, serveEstimateEps, serveEstimateDel, rand.New(rand.NewSource(seed)))
			if err == nil {
				n, samples = res.Estimate.String(), res.Samples
			}
			return err
		})
		if err != nil {
			return err
		}
		tr.note("approx.samples", float64(samples))
		return check(n, samples)
	}}
}

// write adds a fresh ground fact to the live database, removes it again
// and reads the live count. The fact joins no loop, so the count stays
// the live table's closed form whatever the other client's writes do.
func (e *serveEnv) write(c, k, i int) op {
	fact := fmt.Sprintf("%s(w%d_%d_%d, z%d_%d_%d)", serveLiveRel, c+1, k, i, c+1, k, i)
	query := e.live.query
	return op{class: "write", run: func(ctx context.Context, tr *opTrace) error {
		if tr == nil {
			for _, method := range []string{http.MethodPost, http.MethodDelete} {
				var resp server.MutationResponse
				if err := e.b.call(ctx, method, e.ls.base+"/v1/facts", server.MutationRequest{Facts: []string{fact}}, &resp); err != nil {
					return err
				}
				if resp.Applied != 1 {
					return fmt.Errorf("%s %s applied %d facts, want 1", method, fact, resp.Applied)
				}
			}
			return e.b.countHTTP(ctx, e.ls.base, "", query, false, e.live.val)
		}
		pdb := e.ls.srv.Live()
		var f core.Fact
		if err := tr.do("core.parse", func() (err error) { f, err = core.ParseFact(fact); return }); err != nil {
			return err
		}
		if err := tr.do("solver.mutate", func() error { return pdb.AddFact(f.Rel, f.Args...) }); err != nil {
			return err
		}
		if err := tr.do("core.parse", func() (err error) { f, err = core.ParseFact(fact); return }); err != nil {
			return err
		}
		removed := false
		_ = tr.do("solver.mutate", func() error { removed = pdb.RemoveFact(f.Rel, f.Args...); return nil })
		if !removed {
			return fmt.Errorf("remove %s: fact not present", fact)
		}
		return countDirect(ctx, tr, e.ls.srv.Solver(), pdb, "", query, false, e.live.val)
	}}
}

func (e *serveEnv) counters() server.Stats { return e.ls.srv.Stats() }

func (e *serveEnv) close() {
	if e.ls != nil {
		e.ls.close()
	}
}

package main

import (
	"context"
	"fmt"
	"math/big"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
	"github.com/incompletedb/incompletedb/internal/server"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// sweep-cold: one in-process library caller on a solver with one worker
// per core. Every operation counts a database no earlier operation saw —
// constants are fresh, not just nulls, since fingerprints ignore null
// renaming — so the result cache never hits and planning, counting and
// sweeping do all the work. A pass spans valuation spaces 2^12 to 2^22:
// rings on both sides of the 18-cylinder cap for #Val (n ≤ 18 plans
// cylinder inclusion–exclusion, n ≥ 19 brute force), dedup-heavy #Comp
// rings (2^n valuations, five completions) and Codd split pairs. A naïve
// 20-null #Comp ring runs three times a pass, between five faster and
// five slower shapes, so that the median latency falls in the middle of
// one shape's samples rather than between two shapes. It is always the
// naïve form: the uniform one's latency spreads far wider.
type sweepShape struct {
	// kind is "ring" (uniform and naïve forms alternating between
	// positions and passes), "naive" (a naïve ring) or "split".
	kind string
	n    int // nulls
	comp bool
}

// instance generates the shape's database for position i of pass k.
func (sh sweepShape) instance(i, k int, nm *namer) instance {
	switch sh.kind {
	case "split":
		return splitPair(sh.n/2, "P", "Q", nm.next(), nm.next())
	case "naive":
		return ring(sh.n, false, "E", nm.next(), nm.next())
	}
	return ring(sh.n, (i+k)%2 == 0, "E", nm.next(), nm.next())
}

var sweepPass = []sweepShape{
	{"ring", 14, true}, {"ring", 12, false}, {"ring", 13, false}, {"ring", 19, false}, {"split", 20, false},
	{"naive", 20, true}, {"naive", 20, true}, {"naive", 20, true},
	{"ring", 22, false}, {"split", 22, false}, {"ring", 16, false}, {"ring", 22, true}, {"ring", 18, false},
}

// label names the operations of one shape in the report, e.g. ring18-val.
func (sh sweepShape) label() string {
	kind := "val"
	if sh.comp {
		kind = "comp"
	}
	return fmt.Sprintf("%s%d-%s", sh.kind, sh.n, kind)
}

type sweepEnv struct {
	b *bench
	s *solver.Solver
}

func setupSweepCold(ctx context.Context, b *bench) (env, error) {
	e := &sweepEnv{b: b, s: solver.NewSolver(solver.WithWorkers(b.nproc))}
	// Warm-up: every route of the pass once, on small instances.
	nm := newNamer(b.seed, "w")
	for _, o := range []op{
		e.count(ring(14, true, "E", nm.next(), nm.next()), false, "warm-up"),  // cylinder inclusion–exclusion
		e.count(ring(19, false, "E", nm.next(), nm.next()), false, "warm-up"), // brute force
		e.count(ring(16, false, "E", nm.next(), nm.next()), true, "warm-up"),  // brute force with dedup
		e.count(splitPair(6, "P", "Q", nm.next(), nm.next()), false, "warm-up"),
	} {
		if err := o.run(ctx, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *sweepEnv) cycle(_, k int) []op {
	nm := newNamer(e.b.seed, fmt.Sprintf("c%d", k))
	ops := make([]op, 0, len(sweepPass))
	for i, sh := range sweepPass {
		ops = append(ops, e.count(sh.instance(i, k, nm), sh.comp, sh.label()))
	}
	return ops
}

// count parses and prepares a fresh database, checks the cache misses,
// then explains and counts it — the same calls traced or not.
func (e *sweepEnv) count(inst instance, comp bool, class string) op {
	want, kind, fpKind := inst.val, classify.Valuations, fingerprint.KindVal
	if comp {
		want, kind, fpKind = inst.comp, classify.Completions, fingerprint.KindComp
	}
	space, _ := new(big.Float).SetInt(inst.space).Float64()
	return op{class: class, work: space, run: func(ctx context.Context, tr *opTrace) error {
		var q cq.Query
		if err := tr.do("cq.parse", func() (err error) { q, err = cq.Parse(inst.query); return }); err != nil {
			return err
		}
		pdb, err := prepareDirect(tr, e.s, inst.text)
		if err != nil {
			return err
		}
		hit := false
		_ = tr.do("solver.cached", func() error { _, hit = pdb.Cached(q, fpKind); return nil })
		if hit {
			return fmt.Errorf("cache hit on a database no earlier operation counted")
		}
		res, err := explainAndCount(ctx, tr, pdb, q, kind)
		if err != nil {
			return err
		}
		if res.Stats.CacheHit {
			return fmt.Errorf("count answered from the cache on a fresh database")
		}
		return checkCount(res.Count.String(), want)
	}}
}

func (e *sweepEnv) counters() server.Stats {
	m := e.s.Metrics()
	return server.Stats{
		CacheEntries:     m.CacheEntries,
		CacheHits:        m.CacheHits,
		CacheMisses:      m.CacheMisses,
		Computations:     m.Computations,
		FlightShared:     m.FlightShared,
		Mutations:        m.Mutations,
		PlansInvalidated: m.PlansInvalidated,
		PlansPatched:     m.PlansPatched,
		FactorsReused:    m.FactorsReused,
	}
}

func (e *sweepEnv) close() {}

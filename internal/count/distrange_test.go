package count

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Tests of the distributed-sweep range API: leases cut with
// NewSweepCheckpoint, swept (with interruptions and re-issues) by
// SweepShardRange, and folded by MergeCheckpoint must reproduce the
// serial reference bit-for-bit, and malformed lease state must be
// rejected with ErrShardCheckpoint rather than trusted.

// distEngine compiles the engine the way a worker process does.
func distEngine(t *testing.T, db *core.Database, q cq.Query, completions bool) *sweep.Engine {
	t.Helper()
	mode := sweep.ModeValuations
	if completions {
		mode = sweep.ModeCompletions
	}
	eng, err := sweep.CompileWith(db, q, mode, sweep.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// sweepAllRanges plays the coordinator+workers protocol in-process: every
// shard of cp is swept to completion by SweepShardRange with the given
// stride, the worker dropping dead after killEvery successful publishes
// (0 disables kills) and the "coordinator" re-issuing the lease from the
// last state it accepted. Shards are folded with the coordinator-side
// accept step (cumulative position/tally, appended entries), exactly as
// the dist package does over HTTP.
func sweepAllRanges(t *testing.T, eng *sweep.Engine, cp *SweepCheckpoint, stride int64, killEvery int) *SweepCheckpoint {
	t.Helper()
	errKilled := errors.New("worker killed")
	completions := cp.Completions
	for i := range cp.Shards {
		for {
			lease := cp.Shards[i]
			lease.Entries = append([]CompletionRecord(nil), lease.Entries...)
			pubs := 0
			accept := func(s ShardCheckpoint) error {
				if pubs++; killEvery > 0 && pubs >= killEvery {
					return errKilled
				}
				cp.Shards[i].Next = s.Next
				if completions {
					cp.Shards[i].Entries = append(cp.Shards[i].Entries, s.Entries...)
				} else {
					cp.Shards[i].Count = s.Count
				}
				return nil
			}
			final, err := SweepShardRange(context.Background(), eng, lease, stride, accept)
			if errors.Is(err, errKilled) {
				continue // re-issue from the coordinator's accepted state
			}
			if err != nil {
				t.Fatal(err)
			}
			cp.Shards[i].Next = final.Next
			if completions {
				cp.Shards[i].Entries = append(cp.Shards[i].Entries, final.Entries...)
			} else {
				cp.Shards[i].Count = final.Count
			}
			break
		}
	}
	return cp
}

// TestDistRangeBitIdentical: across database styles, sweep modes, lease
// counts and kill cadences, the distributed protocol reproduces the
// serial reference exactly.
func TestDistRangeBitIdentical(t *testing.T) {
	q := cq.MustParseBCQ("R(x, y) ∧ S(y)")
	schema := map[string]int{"R": 2, "S": 1}
	builders := map[string]func(r *rand.Rand) *core.Database{
		"naive":   func(r *rand.Rand) *core.Database { return randomNaiveDB(r, schema, 4, 5, 3) },
		"codd":    func(r *rand.Rand) *core.Database { return randomCoddDB(r, schema, 4, 3) },
		"uniform": func(r *rand.Rand) *core.Database { return randomUniformDB(r, schema, 4, 5, 3) },
	}
	for name, build := range builders {
		for _, completions := range []bool{false, true} {
			mode := "val"
			if completions {
				mode = "comp"
			}
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				for seed := int64(0); seed < 5; seed++ {
					r := rand.New(rand.NewSource(seed))
					db := build(r)
					var want *big.Int
					var err error
					if completions {
						want, err = BruteForceCompletions(db, q, &Options{Workers: 1})
					} else {
						want, err = BruteForceValuations(db, q, &Options{Workers: 1})
					}
					if err != nil {
						t.Fatal(err)
					}
					for _, leases := range []int{1, 4, 7} {
						for _, killEvery := range []int{0, 2} {
							eng := distEngine(t, db, q, completions)
							cp := NewSweepCheckpoint(eng.Size(), leases, completions)
							cp = sweepAllRanges(t, eng, cp, 13, killEvery)
							got, err := MergeCheckpoint(eng, cp)
							if err != nil {
								t.Fatalf("seed %d leases %d kill %d: %v", seed, leases, killEvery, err)
							}
							if got.Cmp(want) != 0 {
								t.Fatalf("seed %d leases %d kill %d: got %v, want %v", seed, leases, killEvery, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestDistRangeMultiplier: relevant-null pruning shrinks the enumerated
// space; the distributed merge must re-apply the multiplier exactly like
// the local fold does.
func TestDistRangeMultiplier(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	for i := 1; i <= 4; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	// Nulls 5..8 only occur in S, which the query never mentions: pruned,
	// folded in as a ×3^4 multiplier.
	for i := 5; i <= 8; i++ {
		db.MustAddFact("S", core.Null(core.NullID(i)))
	}
	q := cq.MustParseBCQ("R(x)")
	want, err := BruteForceValuations(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := distEngine(t, db, q, false)
	if eng.Multiplier().Cmp(big.NewInt(81)) != 0 {
		t.Fatalf("multiplier = %v, want 81", eng.Multiplier())
	}
	cp := sweepAllRanges(t, eng, NewSweepCheckpoint(eng.Size(), 3, false), 7, 0)
	got, err := MergeCheckpoint(eng, cp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// interchangeDB adds ballast to a random database: R facts over fresh
// nulls with 3-element domains, so the space is ≥ 3^8 and a cancellation
// lands mid-shard even split across two shards (shards poll the context
// every cancelCheckInterval visits).
func interchangeDB(db *core.Database, uniform bool) *core.Database {
	base := core.NullID(1000)
	for i := 0; i < 8; i += 2 {
		n1, n2 := base+core.NullID(i), base+core.NullID(i+1)
		if !uniform {
			db.SetDomain(n1, []string{"a", "b", "c"})
			db.SetDomain(n2, []string{"a", "b", "c"})
		}
		db.MustAddFact("R", core.Null(n1), core.Null(n2))
	}
	return db
}

// acceptPartial folds a range's progress into the table the way the
// coordinator does: the watermark and cumulative tally are replaced, fresh
// completion records are appended.
func acceptPartial(cp *SweepCheckpoint, i int, s ShardCheckpoint) {
	cp.Shards[i].Next = s.Next
	if cp.Completions {
		cp.Shards[i].Entries = append(cp.Shards[i].Entries, s.Entries...)
	} else {
		cp.Shards[i].Count = s.Count
	}
}

// TestDistRangeCheckpointInterchangeable: a lease table is a plain
// SweepCheckpoint, so local and distributed sweeps finish each other's
// work in both directions — a half-leased table is finished by a local
// resumed sweep (the fallback when every worker is gone), and a cancelled
// local sweep's snapshot is finished lease by lease and merged — for
// naïve, Codd and uniform databases and for #Val and #Comp alike.
func TestDistRangeCheckpointInterchangeable(t *testing.T) {
	q := cq.MustParseBCQ("R(x, y) ∧ S(y)")
	schema := map[string]int{"R": 2, "S": 1}
	builders := map[string]func(r *rand.Rand) *core.Database{
		"naive":   func(r *rand.Rand) *core.Database { return interchangeDB(randomNaiveDB(r, schema, 4, 5, 3), false) },
		"codd":    func(r *rand.Rand) *core.Database { return interchangeDB(randomCoddDB(r, schema, 4, 3), false) },
		"uniform": func(r *rand.Rand) *core.Database { return interchangeDB(randomUniformDB(r, schema, 4, 5, 3), true) },
	}
	count := func(db *core.Database, completions bool, opts *Options) (*big.Int, error) {
		if completions {
			return BruteForceCompletions(db, q, opts)
		}
		return BruteForceValuations(db, q, opts)
	}
	errKilled := errors.New("worker killed")
	for name, build := range builders {
		for _, completions := range []bool{false, true} {
			mode := "val"
			if completions {
				mode = "comp"
			}
			t.Run(fmt.Sprintf("%s/%s/leases-to-local", name, mode), func(t *testing.T) {
				for seed := int64(0); seed < 3; seed++ {
					db := build(rand.New(rand.NewSource(seed)))
					want, err := count(db, completions, &Options{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					eng := distEngine(t, db, q, completions)
					cp := NewSweepCheckpoint(eng.Size(), 4, completions)
					// Lease out half the table: two ranges run to
					// completion, a third worker dies after its first
					// accepted partial.
					for i := 0; i < 2; i++ {
						final, err := SweepShardRange(context.Background(), eng, cp.Shards[i], 0, nil)
						if err != nil {
							t.Fatal(err)
						}
						acceptPartial(cp, i, final)
					}
					accepted := false
					_, err = SweepShardRange(context.Background(), eng, cp.Shards[2], 17, func(s ShardCheckpoint) error {
						if accepted {
							return errKilled
						}
						acceptPartial(cp, 2, s)
						accepted = true
						return nil
					})
					if !errors.Is(err, errKilled) {
						t.Fatalf("seed %d: partial lease err = %v, want the kill", seed, err)
					}
					ck := NewCheckpointer(64, roundTrip(t, cp))
					got, err := count(db, completions, &Options{Workers: 2, Checkpoint: ck})
					if err != nil {
						t.Fatal(err)
					}
					if got.Cmp(want) != 0 {
						t.Fatalf("seed %d: locally finished lease table: got %v, want %v", seed, got, want)
					}
				}
			})
			t.Run(fmt.Sprintf("%s/%s/local-to-leases", name, mode), func(t *testing.T) {
				for seed := int64(0); seed < 3; seed++ {
					db := build(rand.New(rand.NewSource(seed)))
					want, err := count(db, completions, &Options{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					ctx, cancel := context.WithCancel(context.Background())
					ck := NewCheckpointer(17, nil)
					ck.onPublish = func(n int) {
						if n == 3 {
							cancel()
						}
					}
					_, err = count(db, completions, &Options{Workers: 2, Context: ctx, Checkpoint: ck})
					cancel()
					if err != context.Canceled {
						t.Fatalf("seed %d: err = %v, want context.Canceled", seed, err)
					}
					cp := roundTrip(t, ck.Snapshot())
					eng := distEngine(t, db, q, completions)
					for i := range cp.Shards {
						final, err := SweepShardRange(context.Background(), eng, cp.Shards[i], 0, nil)
						if err != nil {
							t.Fatal(err)
						}
						acceptPartial(cp, i, final)
					}
					got, err := MergeCheckpoint(eng, cp)
					if err != nil {
						t.Fatal(err)
					}
					if got.Cmp(want) != 0 {
						t.Fatalf("seed %d: leased finish of a local snapshot: got %v, want %v", seed, got, want)
					}
				}
			})
		}
	}
}

// TestDistRangeCancellation: a cancelled range sweep reports ctx.Err()
// after a best-effort publish, and the published frontier resumes to the
// exact count.
func TestDistRangeCancellation(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 12; i++ { // 4096 valuations
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	q := cq.MustParseBCQ("R(x)")
	eng := distEngine(t, db, q, false)
	cp := NewSweepCheckpoint(eng.Size(), 1, false)
	ctx, cancel := context.WithCancel(context.Background())
	var last ShardCheckpoint
	pubs := 0
	_, err := SweepShardRange(ctx, eng, cp.Shards[0], 512, func(s ShardCheckpoint) error {
		last = s
		if pubs++; pubs == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if last.Next == last.Lo {
		t.Fatal("no progress published before cancellation")
	}
	final, err := SweepShardRange(context.Background(), eng, last, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp.Shards[0] = final
	got, err := MergeCheckpoint(eng, cp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForceValuations(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestDistRangeRejectsMalformed: structurally invalid lease state errors
// with ErrShardCheckpoint instead of sweeping garbage.
func TestDistRangeRejectsMalformed(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	q := cq.MustParseBCQ("R(x, x)")
	eng := distEngine(t, db, q, false)
	ceng := distEngine(t, db, q, true)
	bad := []struct {
		name string
		eng  *sweep.Engine
		s    ShardCheckpoint
	}{
		{"garbled position", eng, ShardCheckpoint{Lo: "0", Next: "banana", Hi: "4"}},
		{"out of range", eng, ShardCheckpoint{Lo: "0", Next: "9", Hi: "4"}},
		{"past space", eng, ShardCheckpoint{Lo: "0", Next: "0", Hi: "99"}},
		{"garbled tally", eng, ShardCheckpoint{Lo: "0", Next: "1", Hi: "4", Count: "xyz"}},
		{"negative tally", eng, ShardCheckpoint{Lo: "0", Next: "1", Hi: "4", Count: "-3"}},
		{"corrupt canonical", ceng, ShardCheckpoint{Lo: "0", Next: "1", Hi: "4",
			Entries: []CompletionRecord{{Canonical: []uint32{9999}}}}},
	}
	for _, tc := range bad {
		if _, err := SweepShardRange(context.Background(), tc.eng, tc.s, 0, nil); !errors.Is(err, ErrShardCheckpoint) {
			t.Errorf("%s: SweepShardRange err = %v, want ErrShardCheckpoint", tc.name, err)
		}
		if err := ValidateShardProgress(tc.eng, &tc.s); !errors.Is(err, ErrShardCheckpoint) {
			t.Errorf("%s: ValidateShardProgress err = %v, want ErrShardCheckpoint", tc.name, err)
		}
	}
}

// TestDistRangeRejectsRecordsOnValuationSweep: completion records mean
// nothing to a #Val sweep, so every reader of a #Val shard — validation,
// a lease, a local resume — rejects them instead of silently ignoring a
// payload from a confused or skewed peer.
func TestDistRangeRejectsRecordsOnValuationSweep(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	q := cq.MustParseBCQ("R(x, x)")
	eng := distEngine(t, db, q, false)
	rec := distEngine(t, db, q, true).NewCursor().AppendCanonical(nil)
	s := ShardCheckpoint{Lo: "0", Next: "1", Hi: "4", Entries: []CompletionRecord{{Canonical: rec}}}
	if err := ValidateShardProgress(eng, &s); !errors.Is(err, ErrShardCheckpoint) {
		t.Errorf("ValidateShardProgress err = %v, want ErrShardCheckpoint", err)
	}
	if _, err := SweepShardRange(context.Background(), eng, s, 0, nil); !errors.Is(err, ErrShardCheckpoint) {
		t.Errorf("SweepShardRange err = %v, want ErrShardCheckpoint", err)
	}
	ck := NewCheckpointer(0, &SweepCheckpoint{Space: "4", Shards: []ShardCheckpoint{{Lo: "0", Next: "1", Hi: "4", Count: "4", Entries: s.Entries}}})
	got, err := BruteForceValuations(db, q, &Options{Workers: 1, Checkpoint: ck})
	if err != nil || got.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("resume from a #Val checkpoint with records: got %v, %v; want the fresh count 2", got, err)
	}
}

// TestMergeCheckpointRejects: merges over incomplete or non-partitioning
// shard sets must fail loudly — a silent undercount is the one outcome
// the distributed path may never produce.
func TestMergeCheckpointRejects(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 4; i++ { // 16 valuations
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	q := cq.MustParseBCQ("R(x)")
	eng := distEngine(t, db, q, false)
	bad := []*SweepCheckpoint{
		nil,
		{Space: "16"}, // no shards
		{Space: "99", Shards: []ShardCheckpoint{{Lo: "0", Next: "99", Hi: "99", Count: "1"}}},
		{Space: "16", Completions: true, Shards: []ShardCheckpoint{{Lo: "0", Next: "16", Hi: "16"}}},
		{Space: "16", Shards: []ShardCheckpoint{{Lo: "0", Next: "8", Hi: "16", Count: "1"}}},      // incomplete
		{Space: "16", Shards: []ShardCheckpoint{{Lo: "0", Next: "8", Hi: "8", Count: "1"}}},       // gap at tail
		{Space: "16", Shards: []ShardCheckpoint{{Lo: "4", Next: "16", Hi: "16", Count: "1"}}},     // gap at head
		{Space: "16", Shards: []ShardCheckpoint{{Lo: "0", Next: "16", Hi: "16", Count: "bogus"}}}, // tally
		{Space: "16", Shards: []ShardCheckpoint{{Lo: "0", Next: "16", Hi: "16"}, {Lo: "4", Next: "16", Hi: "16"}}},
	}
	for i, cp := range bad {
		if _, err := MergeCheckpoint(eng, cp); !errors.Is(err, ErrShardCheckpoint) {
			t.Errorf("case %d: err = %v, want ErrShardCheckpoint", i, err)
		}
	}
}

// TestNewSweepCheckpointGeometry: the lease table is always a contiguous
// partition of [0, size), clamped to the space.
func TestNewSweepCheckpointGeometry(t *testing.T) {
	cases := []struct {
		size   int64
		shards int
		want   int
	}{
		{100, 7, 7},
		{3, 8, 3},
		{0, 4, 1},
		{5, 0, 1},
	}
	for _, tc := range cases {
		cp := NewSweepCheckpoint(big.NewInt(tc.size), tc.shards, false)
		if len(cp.Shards) != tc.want {
			t.Fatalf("size %d shards %d: got %d shards, want %d", tc.size, tc.shards, len(cp.Shards), tc.want)
		}
		prev := "0"
		for i, s := range cp.Shards {
			if s.Lo != prev || s.Next != s.Lo {
				t.Fatalf("size %d: shard %d not contiguous/fresh: %+v", tc.size, i, s)
			}
			prev = s.Hi
		}
		if prev != big.NewInt(tc.size).String() {
			t.Fatalf("size %d: shards end at %s", tc.size, prev)
		}
	}
}

// TestDistRangeLegacyTally: a lease serialized by the PR-8 era (bare JSON
// number tallies) still decodes and resumes — the wire compat the
// coordinator's structured-error contract depends on.
func TestDistRangeLegacyTally(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 6; i++ { // 64 valuations
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	q := cq.MustParseBCQ("R(x)")
	eng := distEngine(t, db, q, false)
	// Sweep the first half so we know the cumulative tally at index 32.
	half, err := SweepShardRange(context.Background(), eng, ShardCheckpoint{Lo: "0", Next: "0", Hi: "32"}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	legacy := fmt.Sprintf(`{"lo":"0","next":"32","hi":"64","count":%s}`, string(half.Count))
	var s ShardCheckpoint
	if err := json.Unmarshal([]byte(legacy), &s); err != nil {
		t.Fatal(err)
	}
	if err := ValidateShardProgress(eng, &s); err != nil {
		t.Fatalf("legacy tally rejected: %v", err)
	}
	final, err := SweepShardRange(context.Background(), eng, s, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeCheckpoint(eng, &SweepCheckpoint{Space: "64", Shards: []ShardCheckpoint{final}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForceValuations(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("legacy-resumed count %v, want %v", got, want)
	}
}

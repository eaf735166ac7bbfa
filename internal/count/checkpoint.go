package count

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"

	"github.com/incompletedb/incompletedb/internal/sweep"
)

// The checkpoint wire format and its one codec. A SweepCheckpoint is a
// sweep's range geometry plus each range's position and accumulator; it is
// both a local sweep's resume state (a Checkpointer's Snapshot, persisted
// by the job store) and a distributed job's lease table. decodeRange turns
// one ShardCheckpoint into a range consumer ready to resume, and
// rangeConsumer.checkpoint encodes a consumer's progress back; every
// reader — Checkpointer resume, ValidateShardProgress, SweepShardRange,
// MergeCheckpoint — goes through decodeRange. Because ranges partition the
// index space contiguously and are only encoded at exact visit
// boundaries, a sweep resumed from any checkpoint, locally or on remote
// workers, folds to the result of an uninterrupted run.

// DefaultCheckpointStride is the default number of valuations a shard
// visits between publishing its state into the Checkpointer. Publishing
// is cheap for valuation counts (one big.Int add and a string render) and
// O(new distinct completions) for completion sweeps, so the stride mainly
// bounds how much work a crash can lose per shard.
const DefaultCheckpointStride = 1 << 16

// SweepCheckpoint is the serializable resume state of one sharded sweep.
// All positions are decimal big integers so astronomically large index
// spaces survive JSON.
type SweepCheckpoint struct {
	// Space is the size of the engine's enumerated space (after
	// relevant-null pruning) the checkpoint was taken against. A resume
	// against an engine of a different size discards the checkpoint.
	Space string `json:"space"`

	// Completions reports whether the checkpoint carries completion-dedup
	// state (a #Comp sweep) rather than a plain valuation count.
	Completions bool `json:"completions,omitempty"`

	// Shards is the per-shard resume state, in shard (= index) order.
	Shards []ShardCheckpoint `json:"shards"`
}

// ShardCheckpoint is the resume state of one contiguous shard: its
// interval, the next unvisited index, and the accumulator over [Lo, Next).
type ShardCheckpoint struct {
	Lo   string `json:"lo"`
	Next string `json:"next"`
	Hi   string `json:"hi"`

	// Count is the shard's satisfying-valuation tally over [Lo, Next)
	// (valuation sweeps only; completion sweeps keep their tally in the
	// entries below). Like the positions it is a decimal string, so a
	// tally survives JSON at any accumulator width — including one that
	// escaped the fixed-width kernels mid-sweep.
	Count Tally `json:"count,omitempty"`

	// Entries is the shard's completion-dedup state: every distinct
	// completion seen over [Lo, Next), in first-seen order.
	Entries []CompletionRecord `json:"entries,omitempty"`
}

// Tally is a shard tally in serializable form: a decimal string, with ""
// meaning zero (so fresh shards keep omitting the field). Checkpoints
// written before the fixed-width kernels stored a JSON number; both
// encodings decode.
type Tally string

// UnmarshalJSON accepts both the string form and the legacy bare number.
func (t *Tally) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*t = Tally(s)
		return nil
	}
	*t = Tally(b)
	return nil
}

// bigInt parses the tally; false means a malformed value (the restore
// path then discards the checkpoint).
func (t Tally) bigInt() (*big.Int, bool) {
	if t == "" {
		return new(big.Int), true
	}
	return new(big.Int).SetString(string(t), 10)
}

// tallyOf serializes an accumulator, keeping zero as the empty tally.
func tallyOf(a *accum) Tally {
	s := a.String()
	if s == "0" {
		return ""
	}
	return Tally(s)
}

// CompletionRecord is one distinct completion in serializable form: its
// 128-bit set hash, its exact canonical encoding over the engine's
// interned IDs (deterministic for a given database), and its query
// verdict.
type CompletionRecord struct {
	HashLo    uint64   `json:"hlo"`
	HashHi    uint64   `json:"hhi"`
	Canonical []uint32 `json:"canonical"`
	Sat       bool     `json:"sat,omitempty"`
}

// Checkpointer collects the live resume state of one sweep. Create one
// with NewCheckpointer (optionally seeding it with a previous Snapshot),
// set it on Options.Checkpoint, and call Snapshot whenever a consistent
// checkpoint is needed — including after the sweep was cancelled, when
// the final state (fresher than any stride boundary) has been flushed.
//
// A Checkpointer binds to the first sweep that runs under its Options: in
// a plan with several sweep nodes only the first is checkpointed and
// resumed (deterministically the same one across runs); the others
// recompute. A Checkpointer must not be reused across executions.
type Checkpointer struct {
	stride int64

	mu       sync.Mutex
	resume   *SweepCheckpoint
	state    *SweepCheckpoint
	acquired bool

	// onPublish, when set (tests), runs after every publish with the
	// number of publishes so far, still under mu.
	onPublish func(n int)
	publishes int
}

// NewCheckpointer returns a Checkpointer publishing shard state every
// stride valuations (0 means DefaultCheckpointStride). resume, when
// non-nil, is a Snapshot of a previous run's Checkpointer over the same
// database and query: the sweep restores it and continues. An
// incompatible resume state (different space size, malformed positions or
// encodings) is discarded and the sweep starts from scratch — still
// correct, just not resumed.
func NewCheckpointer(stride int64, resume *SweepCheckpoint) *Checkpointer {
	if stride <= 0 {
		stride = DefaultCheckpointStride
	}
	return &Checkpointer{stride: stride, resume: resume}
}

// Snapshot returns a deep-enough copy of the current resume state: the
// per-shard slots are copied; the completion records they reference are
// immutable once published. Returns nil before any sweep has bound the
// Checkpointer.
func (c *Checkpointer) Snapshot() *SweepCheckpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == nil {
		return nil
	}
	cp := &SweepCheckpoint{Space: c.state.Space, Completions: c.state.Completions}
	cp.Shards = make([]ShardCheckpoint, len(c.state.Shards))
	for i, s := range c.state.Shards {
		cp.Shards[i] = s
		cp.Shards[i].Entries = append([]CompletionRecord(nil), s.Entries...)
	}
	return cp
}

// acquire binds the Checkpointer to one sweep; the first caller wins and
// later sweeps of the same execution run un-checkpointed.
func (c *Checkpointer) acquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acquired {
		return false
	}
	c.acquired = true
	return true
}

// begin binds the Checkpointer's live state to a sweep over eng and
// returns the ranges to consume: the resume checkpoint's when it decodes
// against eng, fresh geometry under opts otherwise (an incompatible resume
// state is discarded). The live state is initialized to match, so a
// Snapshot taken before the first publish already describes the sweep.
func (c *Checkpointer) begin(eng *sweep.Engine, opts *Options) []*rangeConsumer {
	ranges, err := decodeRanges(eng, c.resume)
	resumed := err == nil
	if !resumed {
		ranges = freshRanges(eng, shardCount(eng.Size(), opts), false)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = &SweepCheckpoint{Space: eng.Size().String(), Completions: eng.Mode() == sweep.ModeCompletions}
	c.state.Shards = make([]ShardCheckpoint, len(ranges))
	for i, r := range ranges {
		c.state.Shards[i] = r.checkpoint()
		if resumed {
			// Decoded entries count as already published; carry their
			// records over (clipped, so appends never write into the
			// caller's resume state).
			c.state.Shards[i].Entries = slices.Clip(c.resume.Shards[i].Entries)
		}
	}
	return ranges
}

// publish folds one range's checkpoint into the live state the way a
// coordinator accepts a lease partial: position and tally are replaced,
// fresh completion records are appended.
func (c *Checkpointer) publish(shard int, p ShardCheckpoint) {
	c.mu.Lock()
	s := &c.state.Shards[shard]
	s.Next = p.Next
	s.Count = p.Count
	s.Entries = append(s.Entries, p.Entries...)
	c.publishes++
	if c.onPublish != nil {
		c.onPublish(c.publishes)
	}
	c.mu.Unlock()
}

// recordOf serializes one dedup entry.
func recordOf(e *compEntry) CompletionRecord {
	return CompletionRecord{
		HashLo:    e.hash.Lo,
		HashHi:    e.hash.Hi,
		Canonical: e.snap.Canonical,
		Sat:       e.sat,
	}
}

// ErrShardCheckpoint reports a structurally invalid ShardCheckpoint:
// unparseable positions or tally, positions outside the engine's space,
// or completion records that do not decode against the engine. Callers
// translating to wire errors can match it with errors.Is.
var ErrShardCheckpoint = errors.New("count: invalid shard checkpoint")

// parseShardRange validates one shard's positions against a space of the
// given size: all three must parse, with 0 ≤ Lo ≤ Next ≤ Hi ≤ size.
func parseShardRange(s *ShardCheckpoint, size *big.Int) (lo, next, hi *big.Int, err error) {
	lo, ok1 := new(big.Int).SetString(s.Lo, 10)
	next, ok2 := new(big.Int).SetString(s.Next, 10)
	hi, ok3 := new(big.Int).SetString(s.Hi, 10)
	if !ok1 || !ok2 || !ok3 {
		return nil, nil, nil, fmt.Errorf("%w: malformed position", ErrShardCheckpoint)
	}
	if lo.Sign() < 0 || next.Cmp(lo) < 0 || hi.Cmp(next) < 0 || hi.Cmp(size) > 0 {
		return nil, nil, nil, fmt.Errorf("%w: positions out of order or outside [0, %s]", ErrShardCheckpoint, size)
	}
	return lo, next, hi, nil
}

// decodeRange is the one ShardCheckpoint decoder: it validates the
// positions against eng's space and restores the accumulator over
// [Lo, Next) — the tally on #Val sweeps, the dedup table on #Comp sweeps
// (its entries count as already published) — into a consumer that
// resumes at Next.
func decodeRange(eng *sweep.Engine, s *ShardCheckpoint) (*rangeConsumer, error) {
	lo, next, hi, err := parseShardRange(s, eng.Size())
	if err != nil {
		return nil, err
	}
	tally, ok := s.Count.bigInt()
	if !ok || tally.Sign() < 0 {
		return nil, fmt.Errorf("%w: malformed tally %q", ErrShardCheckpoint, s.Count)
	}
	c := newRange(eng, lo, next, hi, false)
	if c.comp == nil {
		if len(s.Entries) > 0 {
			return nil, fmt.Errorf("%w: completion records on a valuation sweep", ErrShardCheckpoint)
		}
		c.tally.reset(kernelFor(eng), tally)
		return c, nil
	}
	for _, rec := range s.Entries {
		snap, err := eng.SnapshotOf(rec.Canonical)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrShardCheckpoint, err)
		}
		c.comp.add(&compEntry{hash: sweep.Hash128{Lo: rec.HashLo, Hi: rec.HashHi}, snap: snap, sat: rec.Sat})
	}
	c.comp.pendingFrom = len(c.comp.order)
	return c, nil
}

// decodeRanges decodes a whole checkpoint against eng: space and sweep
// mode must match the engine's, and the shards must partition [0, Size)
// contiguously in index order.
func decodeRanges(eng *sweep.Engine, cp *SweepCheckpoint) ([]*rangeConsumer, error) {
	if cp == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrShardCheckpoint)
	}
	size := eng.Size()
	if cp.Space != size.String() {
		return nil, fmt.Errorf("%w: space %s does not match engine space %s", ErrShardCheckpoint, cp.Space, size)
	}
	if cp.Completions != (eng.Mode() == sweep.ModeCompletions) {
		return nil, fmt.Errorf("%w: checkpoint and engine disagree on sweep mode", ErrShardCheckpoint)
	}
	if len(cp.Shards) == 0 {
		return nil, fmt.Errorf("%w: no shards", ErrShardCheckpoint)
	}
	ranges := make([]*rangeConsumer, len(cp.Shards))
	prev := new(big.Int)
	for i := range cp.Shards {
		r, err := decodeRange(eng, &cp.Shards[i])
		if err != nil {
			return nil, err
		}
		if r.lo.Cmp(prev) != 0 {
			return nil, fmt.Errorf("%w: shard %d starts at %s, want %s", ErrShardCheckpoint, i, r.lo, prev)
		}
		ranges[i], prev = r, r.hi
	}
	if prev.Cmp(size) != 0 {
		return nil, fmt.Errorf("%w: shards cover [0, %s), want [0, %s)", ErrShardCheckpoint, prev, size)
	}
	return ranges, nil
}

// checkpoint encodes the consumer's progress: the next unvisited index,
// the tally over [Lo, Next) on #Val sweeps, and on #Comp sweeps the
// completion records first seen since the previous checkpoint (earlier
// ones are already upstream, so this advances the drain watermark).
func (c *rangeConsumer) checkpoint() ShardCheckpoint {
	c.pos.SetInt64(c.visited)
	s := ShardCheckpoint{Lo: c.lo.String(), Next: c.pos.Add(&c.pos, c.start).String(), Hi: c.hi.String()}
	if c.comp != nil {
		s.Entries = c.comp.drainPending()
	} else {
		s.Count = tallyOf(&c.tally)
	}
	return s
}

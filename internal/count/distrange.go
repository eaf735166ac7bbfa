package count

import (
	"context"
	"fmt"
	"math/big"

	"github.com/incompletedb/incompletedb/internal/sweep"
)

// The distributed transport of the one sweep driver (parallel.go): a
// coordinator cuts a sweep into range leases with NewSweepCheckpoint,
// checks worker partials with ValidateShardProgress, and folds the
// completed table with MergeCheckpoint; a remote worker consumes each
// lease with SweepShardRange. The leases are cut by the same shardBounds
// as local shards, and the other three run the same range consumer,
// ShardCheckpoint codec and index-order fold as a local sweep, so a lease
// table and a local checkpoint are the same artifact — either side can
// resume the other's work — and the merged result is bit-identical to an
// uninterrupted single-process sweep.

// NewSweepCheckpoint builds the fresh geometry of a sweep over a space of
// the given size split into shards contiguous index ranges — the
// coordinator's lease table before any work has happened. Shard widths are
// within one of each other; shards is clamped to [1, size] (with at least
// one shard even for an empty space, so the checkpoint stays a valid
// partition).
func NewSweepCheckpoint(size *big.Int, shards int, completions bool) *SweepCheckpoint {
	if shards < 1 {
		shards = 1
	}
	if size.Sign() <= 0 {
		shards = 1
	} else if size.IsInt64() && size.Int64() < int64(shards) {
		shards = int(size.Int64())
	}
	bounds := shardBounds(size, shards)
	cp := &SweepCheckpoint{Space: size.String(), Completions: completions}
	cp.Shards = make([]ShardCheckpoint, shards)
	for i := 0; i < shards; i++ {
		cp.Shards[i] = ShardCheckpoint{
			Lo:   bounds[i].String(),
			Next: bounds[i].String(),
			Hi:   bounds[i+1].String(),
		}
	}
	return cp
}

// ValidateShardProgress structurally checks a progress payload against the
// engine: positions parse and are ordered within the space, the tally
// parses, and every completion record decodes (a valuation sweep carries
// none) — the checks every resume makes. The coordinator runs it on
// worker-supplied partials before accepting them, so a version-skewed or
// corrupt payload is rejected up front instead of failing the final
// merge.
func ValidateShardProgress(eng *sweep.Engine, s *ShardCheckpoint) error {
	_, err := decodeRange(eng, s)
	return err
}

// SweepShardRange sweeps one contiguous index range [Next, Hi) of eng's
// enumerated space serially, resuming from the shard's accumulator state
// over [Lo, Next). Every stride visits (0 means DefaultCheckpointStride)
// it calls publish with the cumulative position and tally and the
// completion records first seen since the previous successful publish;
// a publish error aborts the sweep immediately (the caller must treat the
// range as abandoned — the far side's last accepted state is the
// authoritative resume point). On success the returned state has
// Next == Hi, the cumulative tally, and the still-unpublished completion
// records; the caller hands it to the coordinator as the range's final
// partial. Context cancellation returns ctx.Err() after a best-effort
// final publish.
func SweepShardRange(ctx context.Context, eng *sweep.Engine, shard ShardCheckpoint, stride int64, publish func(ShardCheckpoint) error) (ShardCheckpoint, error) {
	c, err := decodeRange(eng, &shard)
	if err != nil {
		return shard, err
	}
	if stride <= 0 {
		stride = DefaultCheckpointStride
	}
	var pub func(int, *rangeConsumer) error
	if publish != nil {
		pub = func(_ int, c *rangeConsumer) error { return publish(c.checkpoint()) }
	}
	err = sweepRanges(eng, &Options{Context: ctx}, []*rangeConsumer{c}, stride, pub)
	if err != nil && err == ctx.Err() && publish != nil {
		_ = publish(c.checkpoint()) // best effort: hand upstream the freshest position
	}
	return c.checkpoint(), err
}

// MergeCheckpoint folds a fully swept checkpoint into the final count,
// bit-identical to an uninterrupted local sweep: the shards must form a
// contiguous partition of [0, Size) with every Next at its Hi. Shards
// decode like any resume state and fold exactly as a local sweep's ranges
// do — foldTallies for #Val, mergeCompletionShards for #Comp.
func MergeCheckpoint(eng *sweep.Engine, cp *SweepCheckpoint) (*big.Int, error) {
	ranges, err := decodeRanges(eng, cp)
	if err != nil {
		return nil, err
	}
	for i, r := range ranges {
		if r.start.Cmp(r.hi) != 0 {
			return nil, fmt.Errorf("%w: shard %d incomplete (next %s < hi %s)", ErrShardCheckpoint, i, r.start, r.hi)
		}
	}
	if ranges[0].comp != nil {
		return mergeCompletionShards(ranges).satisfying(), nil
	}
	return foldTallies(ranges, eng), nil
}

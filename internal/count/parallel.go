package count

import (
	"context"
	"math"
	"math/big"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// The one brute-force sweep driver. Every sweep — a plain local count, a
// resumable checkpointed count, a dist worker's lease, a completion
// stream, an early-exit certainty check — is the same three steps:
//
//  1. Geometry: the engine's enumerated space [0, Size) cut into
//     contiguous ranges in index order, fresh from shardCount/shardBounds
//     or decoded from a SweepCheckpoint (a Checkpointer's resume state or
//     a coordinator's lease).
//  2. Consumption: each range is swept by one rangeConsumer — a cursor
//     seeked to the range's start, stepping to its end, feeding every
//     valuation into the range's accumulator. sweepRanges runs the local
//     ranges concurrently; a dist worker runs one range per lease.
//  3. Fold: swept ranges are folded in index order (foldTallies for #Val,
//     mergeCompletionShards for #Comp), so the result is exactly what one
//     serial sweep produces.
//
// Checkpointing is a publish hook on step 2 (nil means none): every
// stride visits a consumer encodes its position and accumulator as a
// ShardCheckpoint and hands it upstream — into a Checkpointer locally,
// over HTTP to a coordinator in internal/dist. Local and distributed
// sweeps differ only in that transport.

// serialCutoff is the space size below which sharding is not worth the
// goroutine and merge overhead and the sweep runs on the calling
// goroutine.
const serialCutoff = 4096

// cancelCheckInterval is the number of valuations a worker visits between
// polls of the cancellation context.
const cancelCheckInterval = 1024

// shardCount returns how many shards a sweep over a space of the given
// size uses under opts: 1 when a single worker is requested, never more
// than the space size, and — only when Workers is left at its default — 1
// for spaces too small to repay the goroutine and merge overhead. An
// explicit Workers > 1 always shards, so tests can force the parallel
// path on small spaces.
func shardCount(size *big.Int, opts *Options) int {
	explicit := opts != nil && opts.Workers > 0
	w := opts.workers()
	if w <= 1 {
		return 1
	}
	if !explicit && size.Cmp(big.NewInt(serialCutoff)) <= 0 {
		return 1
	}
	if size.Sign() > 0 && size.IsInt64() && size.Int64() < int64(w) {
		return int(size.Int64())
	}
	return w
}

// shardBounds splits [0, size) into shards+1 contiguous boundaries
// b[0]=0 ≤ b[1] ≤ … ≤ b[shards]=size, with all shard lengths within one of
// each other.
func shardBounds(size *big.Int, shards int) []*big.Int {
	chunk, rem := new(big.Int).QuoRem(size, big.NewInt(int64(shards)), new(big.Int))
	bounds := make([]*big.Int, shards+1)
	bounds[0] = big.NewInt(0)
	one := big.NewInt(1)
	for i := 1; i <= shards; i++ {
		width := new(big.Int).Set(chunk)
		if int64(i) <= rem.Int64() {
			width.Add(width, one)
		}
		bounds[i] = new(big.Int).Add(bounds[i-1], width)
	}
	return bounds
}

// rangeConsumer sweeps one contiguous range of a sweep's index space and
// owns everything the range accumulates: the range [lo, hi), where this
// run starts (start, past lo when resumed), the valuations visited since
// start, and the accumulator over [lo, start+visited) — a tally on #Val
// sweeps, a completion-dedup table on #Comp sweeps. Only the goroutine
// sweeping a consumer touches it until that goroutine stops. decodeRange
// and checkpoint convert it from and to a ShardCheckpoint.
type rangeConsumer struct {
	lo, start, hi *big.Int
	visited       int64
	tally         accum            // #Val
	comp          *completionShard // #Comp; nil on #Val sweeps

	// emit, when non-nil, is called with the cursor and the verdict on
	// every valuation (#Val) or every completion seen for the first time
	// (#Comp); a false return stops the range. StreamCompletions and the
	// early-exit certainty sweeps use it.
	emit func(cur *sweep.Cursor, sat bool) bool

	// pos is checkpoint's scratch for start+visited, so a publish
	// allocates no big.Int.
	pos big.Int
}

// newRange returns an empty consumer for [lo, hi) starting at start, with
// the accumulator eng's mode needs: a tally on the kernel the space size
// selects, or a dedup table (retaining instances when keep is set).
func newRange(eng *sweep.Engine, lo, start, hi *big.Int, keep bool) *rangeConsumer {
	c := &rangeConsumer{lo: lo, start: start, hi: hi}
	if eng.Mode() == sweep.ModeCompletions {
		c.comp = newCompletionShard(keep)
	} else {
		c.tally.reset(kernelFor(eng), nil)
	}
	return c
}

// freshRanges cuts eng's space into the given number of fresh ranges.
func freshRanges(eng *sweep.Engine, shards int, keep bool) []*rangeConsumer {
	bounds := shardBounds(eng.Size(), shards)
	ranges := make([]*rangeConsumer, shards)
	for i := range ranges {
		ranges[i] = newRange(eng, bounds[i], bounds[i], bounds[i+1], keep)
	}
	return ranges
}

// consume feeds the cursor's valuation into the accumulator. It returns
// false only when emit asks the range to stop.
func (c *rangeConsumer) consume(cur *sweep.Cursor) bool {
	c.visited++
	if c.comp == nil {
		sat := cur.Matches()
		if sat {
			c.tally.inc()
		}
		return c.emit == nil || c.emit(cur, sat)
	}
	e := c.comp.visit(cur)
	return e == nil || c.emit == nil || c.emit(cur, e.sat)
}

// run sweeps [start, hi) with a fresh cursor, consuming each valuation,
// until the range ends or consume asks to stop, polling ctx every
// cancelCheckInterval visits. With publish non-nil it publishes every
// stride visits; a publish error stops the range and is returned. So is a
// Seek error (an invalid range): swallowing it would turn a partial sweep
// into a silent undercount. Cancellation stops the range between visits
// with a nil error; the caller checks the context. With phases non-nil,
// one visit in phaseSampleStride is timed and the scaled estimate
// accumulated: the visit goes to the dedup phase on completion sweeps
// (where the visit is the dedup probe — the rare first-sight query
// evaluation inside it is timed separately by the completion shard) and
// to the match phase otherwise.
func (c *rangeConsumer) run(eng *sweep.Engine, ctx context.Context, phases *PhaseTimes, stride int64, publish func() error) error {
	rest := new(big.Int).Sub(c.hi, c.start)
	if rest.Sign() == 0 {
		return nil
	}
	cur := eng.NewCursor()
	if err := cur.Seek(c.start); err != nil {
		return err
	}
	dedupVisits := eng.Mode() == sweep.ModeCompletions
	var remaining, sincePub int64
	sinceCheck, sinceSample := 0, 0
	for {
		// remaining counts down an int64-sized chunk of rest, so a range
		// beyond 2^63 valuations (which cannot finish in practice) stays
		// exact without big.Int arithmetic per visit.
		if remaining == 0 {
			remaining = math.MaxInt64
			if rest.IsInt64() {
				remaining = rest.Int64()
			}
			rest.Sub(rest, new(big.Int).SetInt64(remaining))
		}
		if sinceCheck++; sinceCheck >= cancelCheckInterval {
			sinceCheck = 0
			if ctx.Err() != nil {
				return nil
			}
		}
		timed := false
		if phases != nil {
			if sinceSample++; sinceSample >= phaseSampleStride {
				sinceSample, timed = 0, true
			}
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		more := c.consume(cur)
		if timed {
			if dedupVisits {
				phases.addDedup(time.Since(t0), phaseSampleStride)
			} else {
				phases.addMatch(time.Since(t0), phaseSampleStride)
			}
		}
		if !more {
			return nil
		}
		if publish != nil {
			if sincePub++; sincePub >= stride {
				sincePub = 0
				if err := publish(); err != nil {
					return err
				}
			}
		}
		if remaining--; remaining == 0 && rest.Sign() == 0 {
			return nil
		}
		if timed {
			t0 = time.Now()
			cur.Step()
			phases.addStep(time.Since(t0), phaseSampleStride)
		} else {
			cur.Step()
		}
	}
}

// sweepRanges is the driver: it consumes every range — on the calling
// goroutine when there is one, else on one pprof-labelled goroutine per
// range — reporting progress as Options.Progress describes (one unit per
// range finished without cancellation) and sampling phases into
// opts.Phases. publish, when non-nil, checkpoints range i every stride
// visits; nil means the sweep is not checkpointed. It returns the first
// range error, else the context's error. After an error every range still
// holds a consistent, exact-position state — what a final checkpoint
// flush records — but the fold over them would be incomplete.
func sweepRanges(eng *sweep.Engine, opts *Options, ranges []*rangeConsumer, stride int64, publish func(i int, c *rangeConsumer) error) error {
	ctx := opts.context()
	phases := opts.phases()
	tracker := newProgressTracker(opts.progress(), len(ranges))
	run := func(ctx context.Context, i int) error {
		c := ranges[i]
		if c.comp != nil {
			c.comp.timing = phases
		}
		var pub func() error
		if publish != nil {
			pub = func() error { return publish(i, c) }
		}
		err := c.run(eng, ctx, phases, stride, pub)
		if err == nil {
			tracker.shardDone(ctx)
		}
		return err
	}
	if len(ranges) == 1 {
		if err := run(ctx, 0); err != nil {
			return err
		}
		return ctx.Err()
	}
	errs := make([]error, len(ranges))
	mode := sweepModeLabel(eng)
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Label the shard goroutine so pprof profiles break the
			// sweep down by shard and mode.
			pprof.Do(ctx, pprof.Labels("sweep_shard", strconv.Itoa(i), "sweep_mode", mode), func(ctx context.Context) {
				errs[i] = run(ctx, i)
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// sweepModeLabel names the engine's mode for the pprof labels the shard
// goroutines run under.
func sweepModeLabel(eng *sweep.Engine) string {
	switch eng.Mode() {
	case sweep.ModeCompletions:
		return "completions"
	case sweep.ModeSample:
		return "sample"
	default:
		return "valuations"
	}
}

// progressTracker serializes shard-completion notifications and enforces
// the Options.Progress contract (monotone done, no completions reported
// after cancellation).
type progressTracker struct {
	mu    sync.Mutex
	fn    func(done, total int)
	done  int
	total int
}

func newProgressTracker(fn func(done, total int), total int) *progressTracker {
	t := &progressTracker{fn: fn, total: total}
	if fn != nil {
		fn(0, total)
	}
	return t
}

// shardDone records one completed shard and reports the new count, unless
// the sweep was cancelled — a cancelled sweep's results are discarded, so
// reporting further progress for it would be misleading.
func (t *progressTracker) shardDone(ctx context.Context) {
	if t.fn == nil || ctx.Err() != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	t.fn(t.done, t.total)
}

// compEntry is one distinct completion seen by a shard: its 128-bit set
// hash, its exact snapshot (what dedup compares on every hash hit, so a
// hash collision cannot corrupt the count), its query verdict, and — when
// retained — the materialized instance.
type compEntry struct {
	hash sweep.Hash128
	snap *sweep.Snapshot
	sat  bool
	inst *core.Instance // nil unless instances are retained
}

// completionShard is the shard-local state of a sweep that deduplicates
// completions: the distinct completions in first-seen order and an
// open-addressed linear-probe table over them keyed directly by the
// 128-bit completion sum — the sum is already a uniform hash, so probing
// needs no re-hashing and the common repeat visit costs one table load
// plus one exact snapshot comparison. A genuine 128-bit collision simply
// extends the probe chain; the snapshot comparison keeps it exact.
type completionShard struct {
	order []*compEntry
	table []int32 // linear-probe index into order; -1 is empty
	mask  uint32
	keep  bool

	// lastGen is the cursor SetGen observed by the previous visit: an
	// equal generation proves the step moved only duplicated facts, so
	// the completion is the one just recorded and the visit is free.
	lastGen uint64

	// snapBuf is the canonical-encoding scratch reused across this
	// shard's first-sight snapshots.
	snapBuf []uint32

	// timing, when non-nil, receives the (rare) first-sight query
	// evaluation times — the match phase of a completion sweep.
	timing *PhaseTimes

	// pendingFrom is the index in order up to which entries have been
	// drained into a checkpoint (see drainPending); entries before it are
	// already persisted.
	pendingFrom int
}

func newCompletionShard(keepInstances bool) *completionShard {
	s := &completionShard{keep: keepInstances}
	s.initTable(64)
	return s
}

func (s *completionShard) initTable(size int) {
	s.table = make([]int32, size)
	for i := range s.table {
		s.table[i] = -1
	}
	s.mask = uint32(size - 1)
}

func (s *completionShard) growTable() {
	s.initTable(2 * len(s.table))
	for j, e := range s.order {
		i := uint32(e.hash.Lo) & s.mask
		for s.table[i] >= 0 {
			i = (i + 1) & s.mask
		}
		s.table[i] = int32(j)
	}
}

// visit records the cursor's current completion, snapshotting it and
// evaluating the query only the first time the completion is seen within
// this shard, and returns the new entry (nil on a repeat). A repeat visit
// whose step changed no distinct fact value is skipped outright via the
// cursor's SetGen; other repeats cost one probe and one exact comparison
// against the cursor's incremental hashes.
func (s *completionShard) visit(cur *sweep.Cursor) *compEntry {
	g := cur.SetGen()
	if g == s.lastGen {
		return nil
	}
	s.lastGen = g
	h := cur.CompletionHash()
	i := uint32(h.Lo) & s.mask
	for s.table[i] >= 0 {
		m := s.order[s.table[i]]
		if m.hash == h && cur.EqualsSnapshot(m.snap) {
			return nil
		}
		i = (i + 1) & s.mask
	}
	var snap *sweep.Snapshot
	snap, s.snapBuf = cur.SnapshotUsing(s.snapBuf)
	e := &compEntry{hash: h, snap: snap}
	if s.keep {
		e.inst = cur.Instance()
	}
	if s.timing != nil {
		t0 := time.Now()
		e.sat = cur.MatchesUsing(e.inst)
		s.timing.addMatch(time.Since(t0), 1)
	} else {
		e.sat = cur.MatchesUsing(e.inst)
	}
	s.table[i] = int32(len(s.order))
	s.order = append(s.order, e)
	if 2*len(s.order) > len(s.table) {
		s.growTable()
	}
	return e
}

// add inserts an existing entry unless an equal completion (by canonical
// encoding) is already present — the merge and restore path.
func (s *completionShard) add(e *compEntry) {
	i := uint32(e.hash.Lo) & s.mask
	for s.table[i] >= 0 {
		m := s.order[s.table[i]]
		if m.hash == e.hash && slices.Equal(m.snap.Canonical, e.snap.Canonical) {
			return
		}
		i = (i + 1) & s.mask
	}
	s.table[i] = int32(len(s.order))
	s.order = append(s.order, e)
	if 2*len(s.order) > len(s.table) {
		s.growTable()
	}
}

// drainPending serializes the entries first seen since the previous drain
// and advances the watermark. Called only from the shard's own goroutine
// (or after all shards stopped), like every other completionShard method.
func (s *completionShard) drainPending() []CompletionRecord {
	pending := s.order[s.pendingFrom:]
	if len(pending) == 0 {
		return nil
	}
	recs := make([]CompletionRecord, len(pending))
	for i, e := range pending {
		recs[i] = recordOf(e)
	}
	s.pendingFrom = len(s.order)
	return recs
}

// mergeCompletionShards folds the ranges' dedup tables together in range
// order (= index order, since ranges are contiguous), keeping each
// completion's first-seen occurrence. The result is identical to what one
// serial sweep would have produced.
func mergeCompletionShards(ranges []*rangeConsumer) *completionShard {
	if len(ranges) == 1 {
		return ranges[0].comp
	}
	merged := newCompletionShard(ranges[0].comp.keep)
	for _, r := range ranges {
		for _, e := range r.comp.order {
			merged.add(e)
		}
	}
	return merged
}

// satisfying counts the distinct completions that satisfy the query.
func (s *completionShard) satisfying() *big.Int {
	n := int64(0)
	for _, e := range s.order {
		if e.sat {
			n++
		}
	}
	return big.NewInt(n)
}

package count

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"strconv"

	"github.com/incompletedb/incompletedb/internal/sweep"
)

// accum is one shard's satisfying-valuation tally, run on native machine
// words for as long as the arithmetic provably fits: a 128-bit lo/hi pair
// incremented with carry chains, plus an overflow escape that promotes to
// big.Int mid-sweep without losing the value. Kernel selection
// (sweep.KernelForSize) proves up front that a sweep's final count fits
// the fixed width — the count is bounded by the enumerated space — so
// under the uint64 kernel the hi word provably stays zero and under
// uint128 the carry out of hi provably never fires. The escape exists so
// that even a tally restored from a foreign checkpoint (or a test-forced
// kernel) can never silently wrap.
type accum struct {
	lo, hi uint64
	bg     *big.Int // non-nil once promoted; lo/hi are then stale
}

var accumOne = big.NewInt(1)

// inc adds one, promoting to big.Int on a genuine 128-bit overflow.
func (a *accum) inc() {
	if a.bg == nil {
		lo, c := bits.Add64(a.lo, 1, 0)
		hi, c := bits.Add64(a.hi, 0, c)
		if c == 0 {
			a.lo, a.hi = lo, hi
			return
		}
		a.promote() // keep the pre-increment value, then add on big.Int
	}
	a.bg.Add(a.bg, accumOne)
}

// promote switches the accumulator to big.Int arithmetic, carrying the
// current fixed-width value over exactly.
func (a *accum) promote() {
	a.bg = new(big.Int).SetUint64(a.hi)
	a.bg.Lsh(a.bg, 64)
	a.bg.Or(a.bg, new(big.Int).SetUint64(a.lo))
}

// promoted reports whether the accumulator runs on big.Int.
func (a *accum) promoted() bool { return a.bg != nil }

// value returns the tally as a fresh big.Int.
func (a *accum) value() *big.Int {
	if a.bg != nil {
		return new(big.Int).Set(a.bg)
	}
	v := new(big.Int).SetUint64(a.hi)
	v.Lsh(v, 64)
	return v.Or(v, new(big.Int).SetUint64(a.lo))
}

// set restores the tally from a big.Int (checkpoint resume), choosing the
// fixed-width representation whenever the value fits it.
func (a *accum) set(v *big.Int) {
	a.lo, a.hi, a.bg = 0, 0, nil
	if v.Sign() >= 0 && v.BitLen() <= 128 {
		var buf [16]byte
		v.FillBytes(buf[:])
		a.hi = binary.BigEndian.Uint64(buf[:8])
		a.lo = binary.BigEndian.Uint64(buf[8:])
		return
	}
	a.bg = new(big.Int).Set(v)
}

// String renders the tally in decimal — what checkpoint publishes store.
// The single-word case avoids big.Int entirely.
func (a *accum) String() string {
	if a.bg != nil {
		return a.bg.String()
	}
	if a.hi == 0 {
		return strconv.FormatUint(a.lo, 10)
	}
	return a.value().String()
}

// kernelOverride, when non-empty, forces every sweep under this package
// to select the given kernel regardless of the space size — an
// in-package test hook for pinning the kernels against each other (the
// big.Int kernel genuinely runs promoted accumulators).
var kernelOverride sweep.Kernel

// kernelFor returns the accumulator kernel a sweep over eng selects.
func kernelFor(eng *sweep.Engine) sweep.Kernel {
	if kernelOverride != "" {
		return kernelOverride
	}
	return eng.Kernel()
}

// reset sets the tally to v (nil means zero) for a sweep under kernel k:
// the fixed-width kernels run on machine words whenever v fits them, the
// big.Int kernel always runs promoted — so a restored tally keeps its
// exact value across any promotion boundary.
func (a *accum) reset(k sweep.Kernel, v *big.Int) {
	if v == nil {
		a.lo, a.hi, a.bg = 0, 0, nil
	} else {
		a.set(v)
	}
	if k == sweep.KernelBigInt && a.bg == nil {
		a.promote()
	}
}

// foldTallies sums the ranges' tallies in index order and applies the
// engine's pruned-null multiplier.
func foldTallies(ranges []*rangeConsumer, eng *sweep.Engine) *big.Int {
	total := big.NewInt(0)
	for _, r := range ranges {
		total.Add(total, r.tally.value())
	}
	total.Mul(total, eng.Multiplier())
	return total
}

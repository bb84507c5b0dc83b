package sim

import (
	"context"

	"repro/internal/cbt"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RunCBTCtx measures the case block table's indirect-jump target
// prediction accuracy over factory's first budget instructions. The CBT
// is consulted for indirect jumps only; a CBT miss counts as a
// misprediction (no BTB fallback), isolating the mechanism itself as the
// paper's Section 2 discussion does. The returned error is non-nil when
// the run stopped early on cancellation or a corrupt trace source; the
// counter covers the records processed before the stop. A decoded
// trace.BlockSource runs on the batched path.
func RunCBTCtx(ctx context.Context, factory trace.Factory, budget int64, cfg cbt.Config) (stats.Counter, error) {
	if bs, ok := factory.(trace.BlockSource); ok {
		return runCBTBlocks(ctx, bs, budget, cfg)
	}
	table := cbt.New(cfg)
	var c stats.Counter
	src := trace.NewLimit(factory.Open(), budget)
	var r trace.Record
	var n int64
	for src.Next(&r) {
		n++
		if n&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return c, err
			}
		}
		if !r.Class.IsTargetCachePredicted() {
			continue
		}
		tgt, ok := table.Predict(r.PC, r.Addr)
		c.Record(ok && tgt == r.Target)
		table.Update(&r)
	}
	return c, trace.SourceErr(src)
}

// runCBTBlocks is the CBT driver over column batches: indirect jumps are
// found with a one-byte class scan, and only those records materialize.
func runCBTBlocks(ctx context.Context, bs trace.BlockSource, budget int64, cfg cbt.Config) (stats.Counter, error) {
	table := cbt.New(cfg)
	var c stats.Counter
	effEnd := min(max(budget, 0), bs.Len())
	var n int64
	var r trace.Record
	for bi := 0; n < effEnd; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			return c, err
		}
		meta := blk.Meta
		m := len(meta)
		if rem := effEnd - n; int64(m) > rem {
			m = int(rem)
		}
		base := n
		for i := 0; i < m; i++ {
			n = base + int64(i) + 1
			if n&ctxCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return c, err
				}
			}
			cls := trace.Class(meta[i] & trace.MetaClassMask)
			if cls != trace.ClassIndJump && cls != trace.ClassIndCall {
				continue
			}
			blk.Record(i, &r)
			tgt, ok := table.Predict(r.PC, r.Addr)
			c.Record(ok && tgt == r.Target)
			table.Update(&r)
		}
	}
	return c, nil
}

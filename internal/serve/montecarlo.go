package serve

import (
	"context"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nn"
)

// mcRange computes the worst-case error for Monte Carlo trials
// [base, base+len(errs)) into errs, sharded over the server's worker
// pool via ForCtx: cancellation or deadline stops the shards between
// chunks and every in-flight chunk is joined before the error returns.
// Chunks are whole lane groups (a multiple of fault.BatchLanes trials;
// only the range's last chunk may be shorter), and each runs
// BatchPlan.MonteCarloRange on an evaluator borrowed from cn's pool.
// Trial t always draws from rng.NewStream(seed, t), so the result is
// deterministic for a given seed regardless of pool size,
// scheduling or the base offset — a resumed campaign is bit-identical
// to an uninterrupted one.
func (s *Server) mcRange(ctx context.Context, cn *cachedNet, perLayer []int, c float64, traces []*nn.Trace, seed uint64, base int, errs []float64) error {
	grain := len(errs) / (4 * s.pool.Size())
	grain = max(fault.BatchLanes, (grain+fault.BatchLanes-1)/fault.BatchLanes*fault.BatchLanes)
	return s.pool.ForCtx(ctx, len(errs), grain, func(lo, hi int) {
		bp := cn.batches.Get().(*fault.BatchPlan)
		bp.MonteCarloRange(perLayer, c, core.DeviationCap, traces, seed, base+lo, errs[lo:hi])
		cn.batches.Put(bp)
	})
}

// shardedMonteCarlo samples random failure configurations for the
// synchronous /v1/montecarlo path: one full sweep, no checkpointing.
//
// ctx bounds the campaign: when the request is abandoned (client gone,
// server shutting down) the shards stop between chunks and ctx.Err()
// is returned — a 200,000-trial sweep must not keep burning the pool
// for a caller that already hung up.
func (s *Server) shardedMonteCarlo(ctx context.Context, cn *cachedNet, perLayer []int, c float64, traces []*nn.Trace, trials int, seed uint64) (fault.Profile, error) {
	errs := make([]float64, trials)
	if err := s.mcRange(ctx, cn, perLayer, c, traces, seed, 0, errs); err != nil {
		return fault.Profile{}, err
	}
	return fault.ProfileOf(errs), nil
}

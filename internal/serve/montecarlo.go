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
// Each shard runs fault.MonteCarloRange, whose trial t always draws
// from rng.NewStream(seed, t), so the result is deterministic for a
// given seed regardless of pool size, scheduling or the base offset — a
// resumed campaign is bit-identical to an uninterrupted one.
func (s *Server) mcRange(ctx context.Context, net nn.Model, perLayer []int, c float64, traces []*nn.Trace, seed uint64, base int, errs []float64) error {
	return s.pool.ForCtx(ctx, len(errs), 0, func(lo, hi int) {
		fault.MonteCarloRange(net, perLayer, c, core.DeviationCap, traces, seed, base+lo, errs[lo:hi])
	})
}

// shardedMonteCarlo samples random failure configurations for the
// synchronous /v1/montecarlo path: one full sweep, no checkpointing.
//
// ctx bounds the campaign: when the request is abandoned (client gone,
// server shutting down) the shards stop between chunks and ctx.Err()
// is returned — a 200,000-trial sweep must not keep burning the pool
// for a caller that already hung up.
func (s *Server) shardedMonteCarlo(ctx context.Context, net nn.Model, perLayer []int, c float64, traces []*nn.Trace, trials int, seed uint64) (fault.Profile, error) {
	errs := make([]float64, trials)
	if err := s.mcRange(ctx, net, perLayer, c, traces, seed, 0, errs); err != nil {
		return fault.Profile{}, err
	}
	return fault.ProfileOf(errs), nil
}

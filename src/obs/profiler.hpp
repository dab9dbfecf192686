// Sweep profiler (DESIGN.md section 14): the data model and the arithmetic
// behind `rdtool profile`.
//
// The instrumented sweep (core/refine) measures one SweepShardSample per
// simulated prefix -- a "shard" is one prefix -- recording which worker ran
// it, how long it took, how many messages it processed, the worker arena's
// high-water mark, and its PREDICTED cost from the static relaxed cost
// model (analysis::view_cost over the view the sweep simulated).  Each
// iteration's simulate phase span is the parallel section those samples
// ran inside.  profile_sweep() folds the two into a speedup-loss
// attribution:
//
//   total = parallel + serial            (serial: heuristic/validate/apply)
//   parallel splits, per iteration, into
//     critical path   max_w busy_w       (the slowest worker gates the sweep)
//     imbalance       max_w busy_w - mean_w busy_w
//     overhead        span - max_w busy_w (scheduling and queue wait --
//                                          time inside the simulate span
//                                          covered by no sample)
//   and per worker into busy (its sample spans) vs idle (span - busy).
//
// Cost-model accuracy is scored as the Spearman rank correlation of
// predicted vs measured cost over every sample: a planner only needs the
// ORDER of loads to balance them, so rank correlation --
// not Pearson -- is the right score, and a value <= 0 means the static
// model is no better than random for scheduling (the CI perf-smoke job
// gates it > 0).
#pragma once

#include <cstdint>
#include <vector>

namespace obs {

/// One prefix simulation ("shard") observed by the instrumented sweep.
/// Timestamps are on the trace clock (TraceSink::now_us) when a sink is
/// attached, on the fit's own steady clock otherwise -- consistent within
/// one fit either way.
struct SweepShardSample {
  std::size_t iteration = 0;
  std::size_t shard = 0;
  unsigned worker = 0;
  /// Static relaxed cost (analysis::view_cost) of this shard's prefix.
  std::uint64_t predicted_cost = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t messages = 0;
  std::size_t prefixes = 0;  // always 1 from the refinement sweep
  /// Worker simulation-arena footprint (bgp::SimMemory::footprint_bytes,
  /// a high-water mark) when the shard finished.
  std::uint64_t arena_bytes = 0;
};

/// One iteration's simulate-phase span: the parallel section the iteration's
/// shard samples ran inside.
struct SweepIterationSpan {
  std::size_t iteration = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
};

/// Per-worker timeline rollup.
struct WorkerLane {
  unsigned worker = 0;
  std::uint64_t busy_us = 0;  // sum of this worker's shard spans
  std::uint64_t idle_us = 0;  // parallel-section time not covered by them
  std::uint64_t shards = 0;
};

struct SweepProfile {
  unsigned workers = 0;       // distinct workers observed (lanes.size())
  std::size_t iterations = 0;  // sweep spans seen
  std::size_t shard_samples = 0;
  double total_seconds = 0;
  double parallel_seconds = 0;   // sum of simulate spans
  double serial_seconds = 0;     // total - parallel (clamped >= 0)
  double busy_seconds = 0;       // sum over all shard spans
  double idle_seconds = 0;       // sum over lanes of idle_us
  double imbalance_seconds = 0;  // sum over iterations: max - mean busy
  double overhead_seconds = 0;   // sum over iterations: span - max busy
  /// (serial + busy) / total: the speedup actually realized against the
  /// hypothetical 1-worker run that does the same work back to back.
  double measured_speedup = 1;
  /// Spearman rank correlation of predicted_cost vs dur_us over every
  /// sample; NaN when fewer than 2 samples or either side is constant.
  double cost_rank_correlation = 0;
  std::vector<WorkerLane> lanes;  // ascending worker id
};

/// Spearman rank correlation (average ranks on ties, Pearson over the
/// ranks).  NaN when the sizes differ, fewer than 2 points, or either side
/// is constant.
double rank_correlation(const std::vector<double>& x,
                        const std::vector<double>& y);

/// Folds samples + sweep spans into the attribution above.  `total_seconds`
/// is the whole fit's wall clock (refine phase span); pass 0 to use the
/// parallel time alone (serial_seconds then reads 0).
SweepProfile profile_sweep(const std::vector<SweepShardSample>& samples,
                           const std::vector<SweepIterationSpan>& sweeps,
                           double total_seconds);

}  // namespace obs

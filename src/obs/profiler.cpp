#include "obs/profiler.hpp"

#include <algorithm>
#include <map>

namespace obs {

SweepProfile profile_sweep(const std::vector<SweepShardSample>& samples,
                           const std::vector<SweepIterationSpan>& sweeps,
                           double total_seconds) {
  SweepProfile profile;
  profile.shard_samples = samples.size();
  profile.iterations = sweeps.size();

  // Lanes: ascending worker id, one per worker that ran at least one shard.
  std::map<unsigned, WorkerLane> lanes;
  for (const SweepShardSample& s : samples) {
    WorkerLane& lane = lanes[s.worker];
    lane.worker = s.worker;
    lane.busy_us += s.dur_us;
    ++lane.shards;
    profile.busy_seconds += static_cast<double>(s.dur_us) / 1e6;
  }
  profile.workers = static_cast<unsigned>(lanes.size());

  // Per-iteration attribution against that iteration's sweep span.
  std::map<std::size_t, std::map<unsigned, std::uint64_t>> busy_by_iter;
  for (const SweepShardSample& s : samples)
    busy_by_iter[s.iteration][s.worker] += s.dur_us;
  for (const SweepIterationSpan& sweep : sweeps) {
    profile.parallel_seconds += static_cast<double>(sweep.dur_us) / 1e6;
    const auto it = busy_by_iter.find(sweep.iteration);
    std::uint64_t max_busy = 0;
    std::uint64_t sum_busy = 0;
    if (it != busy_by_iter.end()) {
      for (const auto& [worker, busy] : it->second) {
        max_busy = std::max(max_busy, busy);
        sum_busy += busy;
      }
    }
    const double workers =
        profile.workers > 0 ? static_cast<double>(profile.workers) : 1.0;
    const double mean_busy = static_cast<double>(sum_busy) / workers;
    profile.imbalance_seconds +=
        std::max(0.0, (static_cast<double>(max_busy) - mean_busy) / 1e6);
    if (sweep.dur_us > max_busy)
      profile.overhead_seconds +=
          static_cast<double>(sweep.dur_us - max_busy) / 1e6;
    // Idle per lane: every observed worker not busy for the whole span.
    for (auto& [worker, lane] : lanes) {
      std::uint64_t busy = 0;
      if (it != busy_by_iter.end()) {
        const auto b = it->second.find(worker);
        if (b != it->second.end()) busy = b->second;
      }
      if (sweep.dur_us > busy) lane.idle_us += sweep.dur_us - busy;
    }
  }

  profile.total_seconds =
      total_seconds > 0 ? total_seconds : profile.parallel_seconds;
  profile.serial_seconds =
      std::max(0.0, profile.total_seconds - profile.parallel_seconds);
  for (const auto& [worker, lane] : lanes) {
    profile.lanes.push_back(lane);
    profile.idle_seconds += static_cast<double>(lane.idle_us) / 1e6;
  }
  if (profile.total_seconds > 0) {
    profile.measured_speedup =
        (profile.serial_seconds + profile.busy_seconds) /
        profile.total_seconds;
  }
  return profile;
}

}  // namespace obs

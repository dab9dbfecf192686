// Multi-prefix simulation driver: runs one Engine simulation per prefix
// (optionally across a thread pool) and hands each result to a consumer.
// Each pool slot reuses one SimMemory and one PrefixSimResult for all its
// jobs, so each result is consumed by reference before it is overwritten.
#pragma once

#include <functional>
#include <vector>

#include "bgp/engine.hpp"
#include "bgp/threadpool.hpp"

namespace bgp {

struct SimJob {
  Prefix prefix;
  nb::Asn origin = nb::kInvalidAsn;
};

/// One job per AS in the model, prefix = Prefix::for_asn(origin) -- the
/// paper's "originate one prefix per AS" setup (Section 3.3 / 4.1).
std::vector<SimJob> jobs_for_all_ases(const Model& model);

/// Runs every job; `consume(job_index, result)` is invoked exactly once per
/// job, serialized under an internal mutex (thread-safe consumers are not
/// required).  Order of invocation is unspecified when threads > 1.  The
/// result is only valid during the call.
void run_jobs(
    const Engine& engine, const std::vector<SimJob>& jobs, ThreadPool& pool,
    const std::function<void(std::size_t, const PrefixSimResult&)>& consume);

}  // namespace bgp

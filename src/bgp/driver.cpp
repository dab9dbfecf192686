#include "bgp/driver.hpp"

#include <mutex>

#include "bgp/sim_memory.hpp"

namespace bgp {

std::vector<SimJob> jobs_for_all_ases(const Model& model) {
  std::vector<SimJob> jobs;
  for (nb::Asn asn : model.asns())
    jobs.push_back({Prefix::for_asn(asn), asn});
  return jobs;
}

void run_jobs(
    const Engine& engine, const std::vector<SimJob>& jobs, ThreadPool& pool,
    const std::function<void(std::size_t, const PrefixSimResult&)>& consume) {
  // Build the per-epoch simulation context once on the calling thread so
  // the workers start from a shared immutable snapshot instead of racing to
  // construct it behind the engine's context lock.
  engine.context();
  std::mutex consume_mutex;
  std::vector<SimMemory> memory(pool.shard_count());
  std::vector<PrefixSimResult> results(pool.shard_count());
  pool.parallel_for_worker(jobs.size(), [&](unsigned worker, std::size_t i) {
    engine.run_into(engine.identity_view(jobs[i].prefix, jobs[i].origin),
                    memory[worker], nullptr, nullptr, results[worker]);
    std::lock_guard lock(consume_mutex);
    consume(i, results[worker]);
  });
}

}  // namespace bgp

// Tests for the multi-prefix simulation driver.
#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "bgp/driver.hpp"

namespace {

using topo::Model;

Model chain() {
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  return Model::one_router_per_as(g);
}

TEST(DriverTest, JobsForAllAses) {
  Model m = chain();
  auto jobs = bgp::jobs_for_all_ases(m);
  ASSERT_EQ(jobs.size(), 3u);
  std::set<nb::Asn> origins;
  for (const auto& job : jobs) {
    origins.insert(job.origin);
    EXPECT_EQ(job.prefix, nb::Prefix::for_asn(job.origin));
  }
  EXPECT_EQ(origins, (std::set<nb::Asn>{1, 2, 3}));
}

TEST(DriverTest, EveryJobConsumedOnce) {
  Model m = chain();
  bgp::Engine engine(m);
  auto jobs = bgp::jobs_for_all_ases(m);
  bgp::ThreadPool pool(2);
  std::vector<int> seen(jobs.size(), 0);
  bgp::run_jobs(engine, jobs, pool,
                [&](std::size_t index, const bgp::PrefixSimResult& result) {
                  ++seen[index];
                  EXPECT_EQ(result.origin, jobs[index].origin);
                  EXPECT_TRUE(result.converged);
                });
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(DriverTest, ConsumerSerialized) {
  Model m = chain();
  bgp::Engine engine(m);
  auto jobs = bgp::jobs_for_all_ases(m);
  bgp::ThreadPool pool(4);
  int concurrent = 0;
  int max_concurrent = 0;
  std::mutex check;
  bgp::run_jobs(engine, jobs, pool,
                [&](std::size_t, const bgp::PrefixSimResult&) {
                  // run_jobs holds its own mutex around the consumer; this
                  // counter must therefore never exceed 1.
                  {
                    std::lock_guard lock(check);
                    ++concurrent;
                    max_concurrent = std::max(max_concurrent, concurrent);
                  }
                  std::lock_guard lock(check);
                  --concurrent;
                });
  EXPECT_EQ(max_concurrent, 1);
}

TEST(DriverTest, ResultsMatchDirectRuns) {
  Model m = chain();
  bgp::Engine engine(m);
  auto jobs = bgp::jobs_for_all_ases(m);
  bgp::ThreadPool pool(3);
  std::vector<bgp::PrefixSimResult> results(jobs.size());
  bgp::run_jobs(engine, jobs, pool,
                [&](std::size_t index, const bgp::PrefixSimResult& result) {
                  results[index] = result;
                });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto direct = engine.run(jobs[i].prefix, jobs[i].origin);
    ASSERT_EQ(results[i].num_routers(), direct.num_routers());
    for (std::uint32_t r = 0; r < direct.num_routers(); ++r)
      EXPECT_EQ(results[i].best(r), direct.best(r));
  }
}

}  // namespace

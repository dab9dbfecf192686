// Determinism and caching tests for the parallel refinement sweep: the
// fitted model must be byte-identical for every worker count, the pooled
// per-prefix simulations must equal their serial counterparts, and the
// engine's epoch context must track model mutations.  Also runs under the tsan preset, which exercises the
// simulate-in-parallel phase for races.
#include <gtest/gtest.h>

#include "bgp/driver.hpp"
#include "bgp/engine.hpp"
#include "core/pipeline.hpp"
#include "core/refine.hpp"
#include "topology/model_io.hpp"

namespace {

using nb::Asn;
using nb::Prefix;
using topo::Model;

struct Fit {
  Model model;
  std::string model_text;
  core::RefineResult result;
};

Fit fit_at(double scale, std::uint64_t seed, unsigned threads) {
  core::PipelineConfig config = core::PipelineConfig::with(scale, seed);
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);

  Fit fit;
  fit.model = Model::one_router_per_as(pipeline.graph);
  core::RefineConfig refine;
  refine.threads = threads;
  fit.result = core::refine_model(fit.model, pipeline.split.training, refine);
  fit.model_text = topo::model_to_string(fit.model);
  return fit;
}

void expect_same_fit(const Fit& a, const Fit& b, const std::string& what) {
  EXPECT_TRUE(b.result.success) << what;
  EXPECT_EQ(a.model_text, b.model_text)
      << "fitted model differs: " << what;
  // The iteration log -- every per-iteration counter -- must match too.
  ASSERT_EQ(a.result.log.size(), b.result.log.size()) << what;
  for (std::size_t i = 0; i < a.result.log.size(); ++i) {
    const auto& x = a.result.log[i];
    const auto& y = b.result.log[i];
    EXPECT_EQ(x.paths_matched, y.paths_matched) << what << " iteration " << i;
    EXPECT_EQ(x.active_prefixes, y.active_prefixes)
        << what << " iteration " << i;
    EXPECT_EQ(x.routers, y.routers) << what << " iteration " << i;
    EXPECT_EQ(x.filters, y.filters) << what << " iteration " << i;
    EXPECT_EQ(x.rankings, y.rankings) << what << " iteration " << i;
    EXPECT_EQ(x.routers_added, y.routers_added) << what << " iteration " << i;
    EXPECT_EQ(x.policies_changed, y.policies_changed)
        << what << " iteration " << i;
  }
  EXPECT_EQ(a.result.messages_simulated, b.result.messages_simulated) << what;
  EXPECT_EQ(a.result.iterations, b.result.iterations) << what;
  EXPECT_EQ(a.result.routers_added, b.result.routers_added) << what;
  EXPECT_EQ(a.result.policies_changed, b.result.policies_changed) << what;
}

class ParallelFit : public ::testing::TestWithParam<std::pair<double,
                                                             std::uint64_t>> {
};

TEST_P(ParallelFit, ModelIsByteIdenticalAcrossThreadAndShardSchedules) {
  // Identity matrix: the one sweep loop at {1, 2, 4, hardware} threads
  // must produce the 1-thread reference model byte for byte.  threads == 0
  // is the hardware-concurrency leg (whatever this machine resolves it
  // to).  The dynamic queue hands prefixes to workers in a different order
  // on every run, so each multi-thread leg is a different schedule.
  const auto [scale, seed] = GetParam();
  const Fit serial = fit_at(scale, seed, 1);
  ASSERT_TRUE(serial.result.success);
  for (const unsigned threads : {2u, 4u, 0u}) {
    const Fit fit = fit_at(scale, seed, threads);
    expect_same_fit(serial, fit,
                    "sweep at threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ParallelFit,
    ::testing::Values(std::pair<double, std::uint64_t>{0.05, 1},
                      std::pair<double, std::uint64_t>{0.08, 6},
                      std::pair<double, std::uint64_t>{0.1, 3},
                      std::pair<double, std::uint64_t>{0.2, 1}));

TEST(ParallelEngine, PooledRunsEqualSerialRuns) {
  core::PipelineConfig config = core::PipelineConfig::with(0.1, 2);
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);
  const Model model = Model::one_router_per_as(pipeline.graph);
  const bgp::Engine engine(model);

  const std::vector<bgp::SimJob> jobs = bgp::jobs_for_all_ases(model);
  std::vector<bgp::PrefixSimResult> pooled(jobs.size());
  bgp::ThreadPool pool(4);
  bgp::run_jobs(engine, jobs, pool, [&](std::size_t i,
                                        const bgp::PrefixSimResult& result) {
    pooled[i] = result;
  });

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const bgp::PrefixSimResult serial =
        engine.run(jobs[i].prefix, jobs[i].origin);
    const bgp::PrefixSimResult& b = pooled[i];
    ASSERT_EQ(serial.num_routers(), b.num_routers());
    EXPECT_EQ(serial.messages, b.messages) << "origin " << serial.origin;
    EXPECT_EQ(serial.converged, b.converged);
    for (std::uint32_t r = 0; r < serial.num_routers(); ++r) {
      ASSERT_EQ(serial.rows(r).size(), b.rows(r).size());
      EXPECT_EQ(serial.best(r), b.best(r));
      EXPECT_EQ(serial.best_external(r), b.best_external(r));
      for (int e = 0; e < static_cast<int>(serial.rows(r).size()); ++e) {
        const bgp::Route x = serial.route(serial.row(r, e));
        const bgp::Route y = b.route(b.row(r, e));
        EXPECT_EQ(x.sender, y.sender);
        EXPECT_EQ(x.path, y.path);
        EXPECT_EQ(x.med, y.med);
        EXPECT_EQ(x.local_pref, y.local_pref);
      }
    }
  }
}

TEST(EpochContext, CachedUntilTheModelMutates) {
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Model model = Model::one_router_per_as(g);
  bgp::Engine engine(model);

  const auto first = engine.context();
  EXPECT_EQ(first.get(), engine.context().get())
      << "context rebuilt although the model did not change";
  EXPECT_EQ(first->epoch, model.generation());

  // Any mutation bumps the generation and invalidates the cache.
  model.set_ranking(nb::RouterId{1, 0}, Prefix::for_asn(3), 2);
  const auto second = engine.context();
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(second->epoch, model.generation());
  EXPECT_GT(second->epoch, first->epoch);

  // The snapshot itself reflects the model: duplicate a router, re-snapshot.
  const std::size_t before = second->ids.size();
  model.duplicate_router(nb::RouterId{2, 0});
  const auto third = engine.context();
  EXPECT_EQ(third->ids.size(), before + 1);

  // Old snapshots stay alive and unchanged for in-flight readers.
  EXPECT_EQ(second->ids.size(), before);
}

}  // namespace

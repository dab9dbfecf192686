// Property-based sweeps (parameterized over seeds/scales): invariants that
// must hold for every generated instance, not just the examples.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "data/dataset_stats.hpp"

namespace {

using topo::Model;

// ---------------------------------------------------------------------------
// Engine invariants across random small internets.
// ---------------------------------------------------------------------------

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  data::Internet net() const {
    data::InternetConfig config;
    config.seed = GetParam();
    config.num_tier1 = 3;
    config.num_level2 = 6;
    config.num_level3 = 10;
    config.num_stub_multi = 12;
    config.num_stub_single = 6;
    return data::generate_internet(config);
  }
};

TEST_P(EngineProperty, SimulatedBestPathsAreLoopFreeAndConnected) {
  auto internet = net();
  auto gt = data::build_ground_truth(internet, data::GroundTruthConfig{});
  bgp::Engine engine(gt.model, gt.config.engine_options());
  // Probe a handful of prefixes.
  auto ases = internet.graph.nodes();
  for (std::size_t i = 0; i < ases.size(); i += 7) {
    auto sim = engine.run(nb::Prefix::for_asn(ases[i]), ases[i]);
    ASSERT_TRUE(sim.converged);
    for (Model::Dense r = 0; r < gt.model.num_routers(); ++r) {
      const auto best = sim.best_row(r);
      if (best == bgp::PrefixSimResult::kNoRow) continue;
      // Loop-free including the receiving AS.
      topo::AsPath full{sim.route(best).path};
      full.prepend(gt.model.router_id(r).asn());
      EXPECT_FALSE(full.has_loop()) << full.str();
      // Path ends at the origin.
      EXPECT_EQ(full.origin(), ases[i]);
      // Every consecutive pair is an AS edge.
      const auto& hops = full.hops();
      for (std::size_t k = 0; k + 1 < hops.size(); ++k)
        EXPECT_TRUE(internet.graph.has_edge(hops[k], hops[k + 1]));
    }
  }
}

TEST_P(EngineProperty, RibInHoldsAtMostOneRoutePerSender) {
  auto internet = net();
  auto gt = data::build_ground_truth(internet, data::GroundTruthConfig{});
  bgp::Engine engine(gt.model, gt.config.engine_options());
  nb::Asn origin = internet.graph.nodes().front();
  auto sim = engine.run(nb::Prefix::for_asn(origin), origin);
  for (std::uint32_t r = 0; r < sim.num_routers(); ++r) {
    std::set<std::uint32_t> senders;
    for (const bgp::PrefixSimResult::Row row : sim.rows(r))
      EXPECT_TRUE(senders.insert(sim.sender(row)).second);
  }
}

TEST_P(EngineProperty, GroundTruthPathsMostlyValleyFree) {
  // Ground-truth routing follows relationship policies except where weird
  // policies interfere; with weirdness off the observed paths must be 100%
  // valley-free under the ground-truth relationships.
  auto internet = net();
  data::GroundTruthConfig config;
  config.weird_as_fraction = 0.0;
  auto gt = data::build_ground_truth(internet, config);
  data::ObservationConfig obs_config;
  bgp::ThreadPool pool(1);
  auto dataset = data::observe(gt, internet, obs_config, pool);
  auto paths = dataset.all_paths();
  EXPECT_DOUBLE_EQ(
      topo::valley_free_fraction(internet.relationships, paths), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Refinement invariants across seeds: exact training fixpoint, monotone
// iteration log, quasi-router lower bound from observed diversity.
// ---------------------------------------------------------------------------

class RefineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefineProperty, TrainingFixpointAndDiversityLowerBound) {
  core::PipelineConfig config = core::PipelineConfig::with(0.06, GetParam());
  auto pipeline = core::run_full_pipeline(config);
  ASSERT_TRUE(pipeline.refine_result.success)
      << pipeline.refine_result.unmatched_paths;
  EXPECT_DOUBLE_EQ(pipeline.training_eval.stats.rib_out_rate(), 1.0);

  // Every AS must have at least as many quasi-routers as the max number of
  // distinct observed (training) suffixes it must select simultaneously for
  // any prefix -- Table 1's lower-bound argument.
  std::map<nb::Asn, std::size_t> need;
  for (auto& [origin, paths] : pipeline.split.training.paths_by_origin()) {
    std::map<nb::Asn, std::set<std::vector<nb::Asn>>> per_as;
    for (const auto& path : paths) {
      const auto& hops = path.hops();
      for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
        per_as[hops[i]].insert(std::vector<nb::Asn>(
            hops.begin() + static_cast<std::ptrdiff_t>(i), hops.end()));
      }
    }
    for (auto& [asn, suffixes] : per_as) {
      need[asn] = std::max(need[asn], suffixes.size());
    }
  }
  for (auto& [asn, required] : need) {
    if (!pipeline.model.has_as(asn)) continue;
    EXPECT_GE(pipeline.model.routers_of(asn).size(), required) << asn;
  }
}

TEST_P(RefineProperty, ValidationNeverBelowHalf) {
  core::PipelineConfig config = core::PipelineConfig::with(0.06, GetParam());
  auto pipeline = core::run_full_pipeline(config);
  if (pipeline.validation_eval.stats.total == 0) GTEST_SKIP();
  EXPECT_GT(pipeline.validation_eval.stats.potential_or_better_rate(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefineProperty,
                         ::testing::Values(11, 12, 13, 14, 15));

// ---------------------------------------------------------------------------
// Dataset statistics invariants.
// ---------------------------------------------------------------------------

class StatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsProperty, DiversityHistogramsConsistent) {
  core::PipelineConfig config = core::PipelineConfig::with(0.08, GetParam());
  auto pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);
  auto stats = data::compute_diversity(pipeline.dataset,
                                       &pipeline.internet.prefix_counts);
  EXPECT_EQ(stats.paths_per_pair.total(), stats.as_pairs);
  EXPECT_EQ(stats.prefixes_per_path.total(), stats.unique_paths);
  EXPECT_GE(stats.records, stats.unique_paths);
  // Multi-router ground truth with multiple vantage points must show route
  // diversity: some AS pair with more than one path.
  EXPECT_GT(stats.paths_per_pair.count_at_least(2), 0u);
  // Table 1 property: some AS receives >= 2 unique paths for some prefix.
  EXPECT_GE(stats.max_unique_received.max(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty, ::testing::Values(21, 22, 23));

}  // namespace

// Static working sets and shard plans (analysis/workset, analysis/
// partition): the dynamic soundness gate.  For every per-AS prefix of
// several generated topologies -- and of partially refined models whose
// prefixes were frozen by budgets, oscillation guards or injected faults --
// every router a full simulation activates must be contained in the
// statically computed working set, the same way test_impact.cpp gates the
// impact closure.  Also pins the relaxed/A820 fallback and the greedy
// shard planner's determinism, balance and A821 advisory.
#include "analysis/workset.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/fixtures.hpp"
#include "analysis/partition.hpp"
#include "core/fault_inject.hpp"
#include "core/pipeline.hpp"
#include "core/refine.hpp"
#include "data/observations.hpp"

namespace {

using analysis::contains_code;
using analysis::PrefixWorkset;
using nb::Asn;
using nb::Prefix;
using nb::RouterId;
using topo::Model;

namespace codes = analysis::codes;

/// activated(run) SUBSETOF working set, for every per-AS prefix.  Returns
/// the number of prefixes checked so callers can assert sample size;
/// `expect_converged` is off for models that legitimately diverge (the
/// bound covers activations of diverged runs too).
std::size_t check_soundness(const Model& model,
                            const bgp::EngineOptions& engine_options,
                            const std::string& label,
                            bool expect_converged = true) {
  const bgp::Engine engine(model, engine_options);
  const std::vector<PrefixWorkset> worksets =
      analysis::compute_all_worksets(engine);
  std::size_t activated_total = 0;
  for (const PrefixWorkset& ws : worksets) {
    std::vector<char> activated;
    const bgp::PrefixSimResult sim =
        engine.run(ws.prefix, ws.origin, nullptr, &activated);
    if (expect_converged) {
      EXPECT_TRUE(sim.converged) << label;
    }
    EXPECT_EQ(activated.size(), ws.members.size()) << label;
    for (Model::Dense r = 0; r < model.num_routers(); ++r) {
      if (activated[r] == 0) continue;
      ++activated_total;
      EXPECT_TRUE(ws.contains(r))
          << label << ": " << ws.prefix.str() << " activated "
          << model.router_id(r).str() << " outside the working set";
    }
  }
  EXPECT_GT(activated_total, 0u) << label << ": gate exercised vacuously";
  return worksets.size();
}

TEST(WorksetSoundnessTest, ActivatedRoutersAreContainedInWorkingSet) {
  // Three generated topologies, mirroring test_impact: fitted models under
  // the default engine and one ground truth under relationship policies +
  // IGP costs (the options build_route_space honors via the engine).
  struct Scenario {
    double scale;
    std::uint64_t seed;
    bool ground_truth;
  };
  const Scenario scenarios[] = {
      {0.05, 3, false},
      {0.06, 5, true},
      {0.08, 11, false},
  };
  for (const Scenario& scenario : scenarios) {
    core::Pipeline pipeline = core::run_full_pipeline(
        core::PipelineConfig::with(scenario.scale, scenario.seed));
    ASSERT_TRUE(pipeline.refine_result.success);
    const Model& model =
        scenario.ground_truth ? pipeline.ground_truth.model : pipeline.model;
    const bgp::EngineOptions engine_options =
        scenario.ground_truth ? pipeline.ground_truth.config.engine_options()
                              : bgp::EngineOptions{};
    const std::string label =
        (scenario.ground_truth ? "ground-truth " : "fitted ") +
        std::to_string(scenario.scale) + "/" + std::to_string(scenario.seed);
    // The acceptance floor: at least 20 sampled prefixes per topology.
    EXPECT_GE(check_soundness(model, engine_options, label), 20u);
  }
}

TEST(WorksetSoundnessTest, IbgpMeshClosureKeepsTheBoundSound) {
  // Under the iBGP mesh option AS-mates of a reachable router activate on
  // pushed external bests without any eBGP import of their own; the
  // analyzer closes both bounds under AS membership to stay sound.  The
  // fitted model was not refined under this option, so convergence is not
  // asserted -- containment must hold for diverged runs too.
  core::Pipeline pipeline =
      core::run_full_pipeline(core::PipelineConfig::with(0.05, 3));
  ASSERT_TRUE(pipeline.refine_result.success);
  bgp::EngineOptions options;
  options.use_ibgp_mesh = true;
  EXPECT_GE(check_soundness(pipeline.model, options, "ibgp-mesh",
                            /*expect_converged=*/false),
            20u);
}

TEST(WorksetSoundnessTest, BudgetStoppedPrefixesStillReportSoundSets) {
  // A one-iteration prefix budget freezes prefixes as R702 before they
  // converge; the bound is static, so the partially refined model's
  // working sets owe nothing to that runtime state.
  core::Pipeline pipeline =
      core::make_pipeline(core::PipelineConfig::with(0.08, 11));
  core::run_data_stages(pipeline);
  Model model = Model::one_router_per_as(pipeline.graph);
  core::RefineConfig refine;
  refine.prefix_iteration_budget = 1;
  refine.max_iterations = 4;
  const core::RefineResult result =
      core::refine_model(model, pipeline.split.training, refine);
  ASSERT_GT(result.prefixes_budget_exhausted, 0u);
  EXPECT_GE(check_soundness(model, bgp::EngineOptions{}, "budget-stopped"),
            20u);
}

#ifdef RD_FAULT_INJECTION
TEST(WorksetSoundnessTest, FaultInterruptedFitStillReportsSoundSets) {
  core::Pipeline pipeline =
      core::make_pipeline(core::PipelineConfig::with(0.05, 3));
  core::run_data_stages(pipeline);
  Model model = Model::one_router_per_as(pipeline.graph);
  core::FaultPlan plan;
  plan.interrupt_iteration = 1;
  core::RefineConfig refine;
  refine.fault_plan = &plan;
  const core::RefineResult result =
      core::refine_model(model, pipeline.split.training, refine);
  ASSERT_EQ(result.stop, core::RefineStop::kInterrupted);
  EXPECT_GE(check_soundness(model, bgp::EngineOptions{}, "fault-interrupted"),
            20u);
}
#endif  // RD_FAULT_INJECTION

TEST(WorksetSoundnessTest, OscillationFrozenPrefixStillSound) {
  // BAD GADGET: AS 4's prefix oscillates, the guard freezes it (R700) and
  // its simulations diverge -- activation containment must hold anyway (a
  // successful import precedes every activation, converged or not).
  auto fixture = analysis::audit_fixture("bad-gadget");
  ASSERT_TRUE(fixture.has_value());
  Model model = std::move(*fixture);
  data::BgpDataset training;
  training.points.push_back({RouterId{1, 0}});
  training.records.push_back({0, 4, topo::AsPath{1, 4}});
  const core::RefineResult result =
      core::refine_model(model, training, core::RefineConfig{});
  ASSERT_GT(result.prefixes_oscillating, 0u);
  check_soundness(model, bgp::EngineOptions{}, "bad-gadget",
                  /*expect_converged=*/false);
}

TEST(WorksetTest, ExactBoundExcludesRoutersBehindDenyAllAndStaysSound) {
  // Chain 1-2-3-4 with a deny-all export 2->3 for AS 1's prefix: the MAY
  // sets of 3 and 4 are empty, so the exact working set is {1, 2} -- a
  // strict subset (kDenyAll is also the one filter shape the relaxed BFS
  // skips, so both bounds agree here).
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  Model model = Model::one_router_per_as(g);
  const Prefix prefix = Prefix::for_asn(1);
  model.set_export_filter(RouterId{2, 0}, RouterId{3, 0}, prefix,
                          topo::ExportFilter::kDenyAll, nb::kInvalidRouterId);
  const bgp::Engine engine(model);
  const PrefixWorkset ws = analysis::compute_working_set(engine, prefix, 1);
  EXPECT_FALSE(ws.relaxed);
  EXPECT_EQ(ws.size, 2u);
  EXPECT_TRUE(ws.contains(model.dense(RouterId{1, 0})));
  EXPECT_TRUE(ws.contains(model.dense(RouterId{2, 0})));
  EXPECT_FALSE(ws.contains(model.dense(RouterId{3, 0})));
  EXPECT_FALSE(ws.contains(model.dense(RouterId{4, 0})));

  std::vector<char> activated;
  const bgp::PrefixSimResult sim = engine.run(prefix, 1, nullptr, &activated);
  EXPECT_TRUE(sim.converged);
  for (Model::Dense r = 0; r < model.num_routers(); ++r) {
    if (activated[r] != 0) {
      EXPECT_TRUE(ws.contains(r));
    }
  }
}

TEST(WorksetTest, TruncationFallsBackToRelaxedWithA820) {
  core::Pipeline pipeline =
      core::make_pipeline(core::PipelineConfig::with(0.05, 3));
  core::run_data_stages(pipeline);
  const Model model = Model::one_router_per_as(pipeline.graph);
  const bgp::Engine engine(model);

  // A one-node enumeration cap truncates immediately on any real topology.
  analysis::WorksetOptions options;
  options.space.max_nodes = 1;
  analysis::Diagnostics diags;
  const PrefixWorkset ws = analysis::compute_working_set(
      engine, Prefix::for_asn(model.asns().front()), model.asns().front(),
      options, &diags);
  EXPECT_TRUE(ws.relaxed);
  EXPECT_TRUE(contains_code(diags, codes::kWorksetRelaxed));
  // The relaxed fallback still covers the origin and is non-empty.
  EXPECT_GT(ws.size, 0u);

  // Disabling the exact pass relaxes every prefix, one A820 each.
  analysis::WorksetOptions no_exact;
  no_exact.exact = false;
  analysis::Diagnostics all_diags;
  const std::vector<PrefixWorkset> worksets =
      analysis::compute_all_worksets(engine, no_exact, &all_diags);
  EXPECT_EQ(all_diags.size(), worksets.size());
  for (const PrefixWorkset& w : worksets) EXPECT_TRUE(w.relaxed);
}

PrefixWorkset synthetic_workset(Asn origin, std::uint64_t cost,
                                std::vector<char> members) {
  PrefixWorkset ws;
  ws.prefix = Prefix::for_asn(origin);
  ws.origin = origin;
  ws.members = std::move(members);
  for (const char m : ws.members) ws.size += m != 0;
  ws.bounded_messages = ws.size == 0 ? 0 : cost / ws.size;
  ws.cost = cost;
  return ws;
}

TEST(PartitionTest, GreedyPlanIsBalancedCompleteAndDeterministic) {
  // Three router-disjoint workset groups: the affinity objective (fewest
  // uncovered members first, load second) must keep each group on one
  // shard (zero cut weight) while LPT keeps the loads near the 110 mean.
  const std::vector<PrefixWorkset> worksets = {
      synthetic_workset(1, 100, {1, 1, 0, 0, 0, 0}),
      synthetic_workset(2, 90, {0, 0, 1, 1, 0, 0}),
      synthetic_workset(3, 50, {0, 0, 0, 0, 1, 1}),
      synthetic_workset(4, 40, {0, 0, 0, 0, 1, 1}),
      synthetic_workset(5, 30, {0, 0, 1, 1, 0, 0}),
      synthetic_workset(6, 20, {1, 1, 0, 0, 0, 0}),
  };
  analysis::PlanOptions options;
  options.shards = 3;
  analysis::Diagnostics diags;
  const analysis::ShardPlan plan =
      analysis::plan_shards(worksets, 6, options, &diags);

  ASSERT_EQ(plan.shards.size(), 3u);
  std::uint64_t total = 0;
  std::vector<int> placed(worksets.size(), 0);
  for (const auto& shard : plan.shards) {
    total += shard.cost;
    for (const std::size_t p : shard.prefixes) ++placed[p];
  }
  EXPECT_EQ(total, plan.total_cost);
  EXPECT_EQ(plan.total_cost, 330u);
  for (const int count : placed) EXPECT_EQ(count, 1);
  EXPECT_EQ(plan.cut_weight, 0u) << "disjoint groups split across shards";
  EXPECT_LE(plan.imbalance, 1.5);
  EXPECT_FALSE(contains_code(diags, codes::kPlanImbalance));

  // Determinism: identical inputs, byte-identical serialized plan.
  const analysis::ShardPlan again =
      analysis::plan_shards(worksets, 6, options, nullptr);
  EXPECT_EQ(analysis::plan_to_json(plan, worksets),
            analysis::plan_to_json(again, worksets));
}

TEST(PartitionTest, DominantPrefixTripsImbalanceAdvisory) {
  const std::vector<PrefixWorkset> worksets = {
      synthetic_workset(1, 1000, {1, 1}),
      synthetic_workset(2, 10, {1, 0}),
      synthetic_workset(3, 10, {0, 1}),
  };
  analysis::PlanOptions options;
  options.shards = 4;
  analysis::Diagnostics diags;
  const analysis::ShardPlan plan =
      analysis::plan_shards(worksets, 2, options, &diags);
  // Max shard load 1000 against a mean of 255: far beyond the 1.5x
  // advisory line.
  EXPECT_GT(plan.imbalance, 1.5);
  EXPECT_TRUE(contains_code(diags, codes::kPlanImbalance));
  // More shards than prefixes leaves empty shards, never lost prefixes.
  std::size_t placed = 0;
  for (const auto& shard : plan.shards) placed += shard.prefixes.size();
  EXPECT_EQ(placed, worksets.size());
}

}  // namespace

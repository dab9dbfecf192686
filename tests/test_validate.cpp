// Linter and convergence-checker tests: every corrupted fixture must trip
// its documented diagnostic code, clean models must lint clean at any seed,
// and engine fixed points must satisfy the convergence checker.
#include <gtest/gtest.h>

#include "analysis/check_convergence.hpp"
#include "analysis/fixtures.hpp"
#include "analysis/validate_model.hpp"
#include "bgp/engine.hpp"
#include "core/pipeline.hpp"

namespace {

using nb::Asn;
using nb::Prefix;
using nb::RouterId;
using topo::AsGraph;
using topo::Model;

AsGraph diamond() {
  AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 1);
  g.add_edge(1, 3);
  return g;
}

TEST(ValidateModelTest, CleanModelHasNoDiagnostics) {
  Model model = Model::one_router_per_as(diamond());
  analysis::ValidateOptions options;
  options.pairwise_sessions = true;
  options.agnostic = true;
  const auto diagnostics = analysis::validate_model(model, options);
  EXPECT_TRUE(diagnostics.empty()) << analysis::render_diagnostics(diagnostics);
}

TEST(ValidateModelTest, EveryFixtureTripsItsDocumentedCode) {
  for (std::string_view name : analysis::fixture_names()) {
    auto model = analysis::corrupted_fixture(name);
    ASSERT_TRUE(model.has_value()) << name;
    const auto diagnostics = analysis::validate_model(*model);
    EXPECT_TRUE(analysis::has_errors(diagnostics)) << name;
    EXPECT_TRUE(analysis::contains_code(
        diagnostics, analysis::fixture_expected_code(name)))
        << name << " expected " << analysis::fixture_expected_code(name)
        << " but got:\n"
        << analysis::render_diagnostics(diagnostics);
  }
}

TEST(ValidateModelTest, UnknownFixtureNameReturnsNullopt) {
  EXPECT_FALSE(analysis::corrupted_fixture("no-such-fixture").has_value());
}

TEST(ValidateModelTest, FixtureDiagnosticsAreSpecific) {
  // Corruptions must not cascade: the dangling peer entry is skipped from
  // the session count so only M100 fires, not M103 as collateral.
  auto model = analysis::corrupted_fixture("dangling-session");
  ASSERT_TRUE(model.has_value());
  const auto diagnostics = analysis::validate_model(*model);
  EXPECT_EQ(analysis::count(diagnostics, analysis::Severity::kError), 1u)
      << analysis::render_diagnostics(diagnostics);
}

TEST(ValidateModelTest, DuplicatedRouterStaysClean) {
  // Model::duplicate_router rewires sessions through the public API; the
  // result must satisfy every structural invariant.
  Model model = Model::one_router_per_as(diamond());
  model.duplicate_router(RouterId{3, 0});
  analysis::ValidateOptions options;
  options.pairwise_sessions = true;
  const auto diagnostics = analysis::validate_model(model, options);
  EXPECT_TRUE(diagnostics.empty()) << analysis::render_diagnostics(diagnostics);
}

TEST(ValidateModelTest, GeneratedTopologiesLintCleanAcrossSeeds) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    core::PipelineConfig config = core::PipelineConfig::with(0.08, seed);
    core::Pipeline pipeline = core::make_pipeline(config);
    core::run_data_stages(pipeline);
    Model model = Model::one_router_per_as(pipeline.graph);
    analysis::ValidateOptions options;
    options.pairwise_sessions = true;
    options.agnostic = true;
    const auto diagnostics = analysis::validate_model(model, options);
    EXPECT_TRUE(diagnostics.empty())
        << "seed " << seed << ":\n"
        << analysis::render_diagnostics(diagnostics);
  }
}

TEST(CheckConvergenceTest, FixedPointPassesOnSimpleTopology) {
  Model model = Model::one_router_per_as(diamond());
  bgp::Engine engine(model);
  for (Asn origin = 1; origin <= 4; ++origin) {
    const auto sim = engine.run(Prefix::for_asn(origin), origin);
    const auto diagnostics = analysis::check_convergence(engine, sim);
    EXPECT_TRUE(diagnostics.empty())
        << "origin " << origin << ":\n"
        << analysis::render_diagnostics(diagnostics);
  }
}

TEST(CheckConvergenceTest, StaleResultIsRejected) {
  Model model = Model::one_router_per_as(diamond());
  bgp::Engine engine(model);
  auto sim = engine.run(Prefix::for_asn(1), 1);
  model.duplicate_router(RouterId{2, 0});  // sim size no longer matches
  const auto diagnostics = analysis::check_convergence(engine, sim);
  EXPECT_TRUE(
      analysis::contains_code(diagnostics, analysis::codes::kSimStale))
      << analysis::render_diagnostics(diagnostics);
}

TEST(CheckConvergenceTest, TamperedBestChoiceIsRejected) {
  Model model = Model::one_router_per_as(diamond());
  bgp::Engine engine(model);
  auto sim = engine.run(Prefix::for_asn(4), 4);
  // Find a router with >= 2 RIB-In routes and force a non-best choice
  // through the result table's own mutator.
  bool tampered = false;
  for (std::uint32_t r = 0; r < sim.num_routers(); ++r) {
    const int size = static_cast<int>(sim.rows(r).size());
    if (size >= 2 && sim.best(r) >= 0) {
      sim.set_best(r, (sim.best(r) + 1) % size);
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered) << "diamond run should offer an alternative route";
  const auto diagnostics = analysis::check_convergence(engine, sim);
  EXPECT_TRUE(analysis::has_errors(diagnostics))
      << analysis::render_diagnostics(diagnostics);
}

TEST(CheckConvergenceTest, DroppedRibInEntryIsRejected) {
  Model model = Model::one_router_per_as(diamond());
  bgp::Engine engine(model);
  auto sim = engine.run(Prefix::for_asn(4), 4);
  // Deleting a non-best RIB-In entry breaks the fixed point: the neighbor
  // still exports a route that the tampered state no longer holds.
  bool tampered = false;
  for (std::uint32_t r = 0; r < sim.num_routers(); ++r) {
    const int size = static_cast<int>(sim.rows(r).size());
    if (size >= 2 && sim.best(r) == 0) {
      sim.erase(r, size - 1);
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  const auto diagnostics = analysis::check_convergence(engine, sim);
  EXPECT_TRUE(
      analysis::contains_code(diagnostics, analysis::codes::kRibInStale))
      << analysis::render_diagnostics(diagnostics);
}

TEST(ValidationHooksTest, RefineReportsNoDiagnosticsWhenConverging) {
  core::PipelineConfig config = core::PipelineConfig::with(0.08, 11);
  config.refine.validate = true;
  core::Pipeline pipeline = core::run_full_pipeline(config);
  ASSERT_TRUE(pipeline.refine_result.success);
  EXPECT_TRUE(pipeline.refine_result.diagnostics.empty())
      << analysis::render_diagnostics(pipeline.refine_result.diagnostics);
  EXPECT_TRUE(pipeline.lint.empty())
      << analysis::render_diagnostics(pipeline.lint);
}

}  // namespace

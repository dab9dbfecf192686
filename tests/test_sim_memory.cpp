// Simulation storage (bgp/sim_memory.hpp, bgp/sim_result.hpp):
// Engine::run_into against one reused SimMemory scratch and one recycled
// PrefixSimResult must be bit-for-bit the allocating run() for ANY history
// of either -- across every per-AS prefix of policy-rich generated
// topologies under every engine option set, across models of different
// sizes sharing the storage, and under candidate fan-in past the
// indexed-map capacity.  Every allocating run must also be a fixed point
// (check_convergence).  The result's read API is pinned on hand-built
// topologies.  This is the unit-level half of the byte-identity argument
// in DESIGN.md section 13; tests/test_refine_parallel.cpp proves the
// end-to-end half on fitted models.
#include "bgp/sim_memory.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/check_convergence.hpp"
#include "bgp/engine.hpp"
#include "core/pipeline.hpp"
#include "data/ground_truth.hpp"
#include "data/internet_gen.hpp"

namespace {

using bgp::Engine;
using bgp::PrefixSimResult;
using bgp::SimCounters;
using bgp::SimMemory;
using nb::Asn;
using nb::Prefix;
using topo::Model;

/// Canonical text form of a simulation result: every field the decision
/// process and downstream refinement can observe, row by row in
/// deterministic order.  Two results with equal text are interchangeable
/// for the fit.
std::string sim_text(const PrefixSimResult& sim) {
  std::ostringstream out;
  out << sim.prefix.str() << " origin=" << sim.origin
      << " converged=" << sim.converged << " messages=" << sim.messages
      << " activations=" << sim.activations << " cap=" << sim.message_cap
      << '\n';
  for (std::uint32_t r = 0; r < sim.num_routers(); ++r) {
    out << "router " << r << " best=" << sim.best(r)
        << " best_external=" << sim.best_external(r) << '\n';
    for (const PrefixSimResult::Row row : sim.rows(r)) {
      const bgp::Route route = sim.route(row);
      out << "  sender=" << route.sender << " lp=" << route.local_pref
          << " med=" << route.med << " igp=" << route.igp_cost
          << " ibgp=" << route.ibgp << " path=[";
      for (Asn asn : route.path) out << asn << ' ';
      out << "]\n";
    }
  }
  return out.str();
}

std::string counter_text(const SimCounters& counters) {
  std::ostringstream out;
  out << counters.messages << ' ' << counters.activations << ' '
      << counters.rib_inserts << ' ' << counters.rib_replacements << ' '
      << counters.withdrawals << ' ' << counters.selection_changes;
  return out.str();
}

struct Fixture {
  data::Internet internet;
  data::GroundTruth gt;
};

/// The ground truth core::run_full_pipeline builds for (scale, seed).
Fixture generated(double scale, unsigned seed) {
  const core::PipelineConfig config = core::PipelineConfig::with(scale, seed);
  Fixture fixture;
  fixture.internet = data::generate_internet(config.internet);
  fixture.gt = data::build_ground_truth(fixture.internet, config.ground_truth);
  return fixture;
}

/// Sweeps every per-AS prefix of `model` twice -- allocating run() and
/// run_into() against the single `memory` and `recycled` result the caller
/// threads through, so each prefix sees the scratch and the result buffers
/// the previous ones left behind -- and requires identical results row by
/// row, counters and activation flags, and a fixed point.
void expect_arena_matches_full(const Model& model,
                               const bgp::EngineOptions& options,
                               SimMemory& memory, PrefixSimResult& recycled,
                               const std::string& label) {
  const Engine engine(model, options);
  for (Asn origin : model.asns()) {
    const Prefix prefix = Prefix::for_asn(origin);
    SimCounters fresh_counters, arena_counters;
    std::vector<char> fresh_activated, arena_activated;
    const PrefixSimResult fresh =
        engine.run(prefix, origin, &fresh_counters, &fresh_activated);
    engine.run_into(engine.identity_view(prefix, origin), memory,
                    &arena_counters, &arena_activated, recycled);
    ASSERT_EQ(sim_text(fresh), sim_text(recycled))
        << label << ": prefix " << prefix.str();
    EXPECT_EQ(counter_text(fresh_counters), counter_text(arena_counters))
        << label << ": prefix " << prefix.str();
    EXPECT_EQ(fresh_activated, arena_activated)
        << label << ": prefix " << prefix.str();
    const analysis::Diagnostics found =
        analysis::check_convergence(engine, fresh);
    EXPECT_TRUE(found.empty())
        << label << ": prefix " << prefix.str() << ": " << found.front().code
        << " " << found.front().message;
  }
}

TEST(SimMemoryTest, ArenaRunMatchesAllocatingRunOnGeneratedTopologies) {
  // Policy-rich ground truths (relationship policies, filters, local-pref
  // overrides, multi-router ASes) at three scales/seeds, each under every
  // engine option set -- agnostic, relationship policies, relationship
  // policies + IGP costs (the ground truth's own), iBGP mesh -- all
  // sweeping through ONE scratch and ONE recycled result, largest model
  // first: every leg inherits whatever high-water buffers (and stale rows)
  // the larger models and other option sets left behind.
  bgp::EngineOptions relationship;
  relationship.use_relationship_policies = true;
  bgp::EngineOptions relationship_igp = relationship;
  relationship_igp.use_igp_cost = true;
  bgp::EngineOptions mesh;
  mesh.use_ibgp_mesh = true;
  const std::pair<const char*, bgp::EngineOptions> option_sets[] = {
      {"agnostic", bgp::EngineOptions{}},
      {"relationship", relationship},
      {"relationship+igp", relationship_igp},
      {"ibgp-mesh", mesh},
  };
  SimMemory memory;
  PrefixSimResult recycled;
  for (const auto& [scale, seed] : {std::pair<double, unsigned>{0.1, 3},
                                    std::pair<double, unsigned>{0.08, 6},
                                    std::pair<double, unsigned>{0.05, 1}}) {
    const Fixture fixture = generated(scale, seed);
    for (const auto& [name, options] : option_sets) {
      expect_arena_matches_full(
          fixture.gt.model, options, memory, recycled,
          "scale " + std::to_string(scale) + " " + name);
    }
  }
}

TEST(SimMemoryTest, ArenaSurvivesFanInPastIndexedCapacity) {
  // Origin AS 100 feeds kIndexedFanIn + 8 spokes which all announce into
  // hub AS 1, so the hub's slot overflows the fixed indexed sender map and
  // exercises the linear-scan fallback -- insertion order (the decision
  // tie-break input) must survive the overflow.
  topo::AsGraph graph;
  const Asn spokes = static_cast<Asn>(SimMemory::kIndexedFanIn + 8);
  for (Asn s = 0; s < spokes; ++s) {
    graph.add_edge(100, static_cast<Asn>(2 + s));
    graph.add_edge(1, static_cast<Asn>(2 + s));
  }
  const Model model = Model::one_router_per_as(graph);
  const Engine engine(model);
  SimMemory memory;
  PrefixSimResult arena_result;
  const PrefixSimResult fresh = engine.run(Prefix::for_asn(100), 100);
  engine.run_into(engine.identity_view(Prefix::for_asn(100), 100), memory,
                  nullptr, nullptr, arena_result);
  const std::size_t hub = model.dense(nb::RouterId{1, 0});
  ASSERT_GT(fresh.rows(hub).size(), SimMemory::kIndexedFanIn);
  EXPECT_EQ(sim_text(fresh), sim_text(arena_result));
}

/// Paths of router r's rows, in row order.
std::vector<std::vector<Asn>> row_paths(const PrefixSimResult& sim,
                                        std::uint32_t r) {
  std::vector<std::vector<Asn>> out;
  for (const PrefixSimResult::Row row : sim.rows(r)) {
    const std::span<const Asn> path = sim.path(row);
    out.emplace_back(path.begin(), path.end());
  }
  return out;
}

TEST(SimResultTest, ReadApiOnHandBuiltTopology) {
  // 1 -- 2 -- 3 with 4 isolated from the origin 3: router 4 holds no route,
  // router 3 originates with an empty path, router 2 learned it directly.
  topo::AsGraph graph;
  graph.add_edge(1, 2);
  graph.add_edge(2, 3);
  graph.add_edge(4, 5);
  const Model model = Model::one_router_per_as(graph);
  const Engine engine(model);
  const PrefixSimResult sim = engine.run(Prefix::for_asn(3), 3);
  ASSERT_EQ(sim.num_routers(), model.num_routers());

  const std::uint32_t isolated = model.dense(nb::RouterId{4, 0});
  EXPECT_TRUE(sim.rows(isolated).empty());
  EXPECT_EQ(sim.best(isolated), -1);
  EXPECT_EQ(sim.best_external(isolated), -1);
  EXPECT_EQ(sim.best_row(isolated), PrefixSimResult::kNoRow);
  EXPECT_EQ(sim.best_external_row(isolated), PrefixSimResult::kNoRow);

  const std::uint32_t origin = model.dense(nb::RouterId{3, 0});
  ASSERT_EQ(sim.rows(origin).size(), 1u);
  const PrefixSimResult::Row self = sim.best_row(origin);
  ASSERT_NE(self, PrefixSimResult::kNoRow);
  EXPECT_EQ(self, sim.rows(origin).front());
  EXPECT_TRUE(sim.path(self).empty());
  EXPECT_EQ(sim.view(self).path_len, 0u);
  EXPECT_EQ(sim.sender(self), origin);
  EXPECT_TRUE(sim.route(self).originated());

  const std::uint32_t middle = model.dense(nb::RouterId{2, 0});
  const PrefixSimResult::Row learned = sim.best_row(middle);
  ASSERT_NE(learned, PrefixSimResult::kNoRow);
  EXPECT_EQ(learned, sim.best_external_row(middle));
  EXPECT_EQ(sim.route(learned).path, (std::vector<Asn>{3}));
  EXPECT_EQ(sim.view(learned).sender, origin);
}

TEST(SimResultTest, WithdrawalKeepsInsertionOrder) {
  // Hub AS 1 hears origin 10 from spokes 2, 3 and 4 (rows in that order).
  // Erasing the middle row -- through the table's own mutator, as the
  // engine's withdrawal does -- must keep the survivors in order.
  topo::AsGraph graph;
  for (const Asn spoke : {2u, 3u, 4u}) {
    graph.add_edge(1, spoke);
    graph.add_edge(spoke, 10);
  }
  const Model model = Model::one_router_per_as(graph);
  const Engine engine(model);
  PrefixSimResult sim = engine.run(Prefix::for_asn(10), 10);
  const std::uint32_t hub = model.dense(nb::RouterId{1, 0});
  ASSERT_EQ(row_paths(sim, hub),
            (std::vector<std::vector<Asn>>{{2, 10}, {3, 10}, {4, 10}}));
  sim.erase(hub, 1);
  EXPECT_EQ(row_paths(sim, hub),
            (std::vector<std::vector<Asn>>{{2, 10}, {4, 10}}));
  EXPECT_EQ(sim.route(sim.row(hub, 1)).sender,
            model.dense(nb::RouterId{4, 0}));
  sim.erase(hub, 0);
  EXPECT_EQ(row_paths(sim, hub), (std::vector<std::vector<Asn>>{{4, 10}}));
}

}  // namespace

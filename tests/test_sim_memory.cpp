// Arena simulation memory (bgp/sim_memory.hpp): Engine::run_into against
// one reused per-worker SimMemory must be bit-for-bit the allocating run()
// (or a fresh arena) for ANY arena history -- across every per-AS prefix
// of policy-rich generated topologies under every engine option set,
// across models of different sizes sharing one arena, and under candidate
// fan-in past the indexed-map capacity.  Every allocating run must also be
// a fixed point (check_convergence).  This is the unit-level half of the
// byte-identity argument in DESIGN.md section 13;
// tests/test_refine_parallel.cpp proves the end-to-end half on fitted
// models.
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
/// process and downstream refinement can observe, in deterministic order.
/// Two results with equal text are interchangeable for the fit.
std::string sim_text(const PrefixSimResult& sim) {
  std::ostringstream out;
  out << sim.prefix.str() << " origin=" << sim.origin
      << " converged=" << sim.converged << " messages=" << sim.messages
      << " activations=" << sim.activations << " cap=" << sim.message_cap
      << '\n';
  for (std::size_t slot = 0; slot < sim.routers.size(); ++slot) {
    const bgp::RouterState& state = sim.routers[slot];
    out << "router " << slot << " best=" << state.best << " best_external=" << state.best_external
        << '\n';
    for (const bgp::Route& route : state.rib_in) {
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
/// run_into() against the single `memory` the caller threads through, so
/// each prefix sees the arena state the previous ones left behind -- and
/// requires identical results, counters and activation flags, and a fixed
/// point.
void expect_arena_matches_full(const Model& model,
                               const bgp::EngineOptions& options,
                               SimMemory& memory, const std::string& label) {
  const Engine engine(model, options);
  PrefixSimResult arena_result;
  for (Asn origin : model.asns()) {
    const Prefix prefix = Prefix::for_asn(origin);
    SimCounters fresh_counters, arena_counters;
    std::vector<char> fresh_activated, arena_activated;
    const PrefixSimResult fresh =
        engine.run(prefix, origin, &fresh_counters, &fresh_activated);
    engine.run_into(engine.identity_view(prefix, origin), memory,
                    &arena_counters, &arena_activated, arena_result);
    ASSERT_EQ(sim_text(fresh), sim_text(arena_result))
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
  // sweeping through ONE arena: every leg inherits whatever high-water
  // buffers the earlier ones grew.
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
  for (const auto& [scale, seed] : {std::pair<double, unsigned>{0.05, 1},
                                    std::pair<double, unsigned>{0.08, 6},
                                    std::pair<double, unsigned>{0.1, 3}}) {
    const Fixture fixture = generated(scale, seed);
    for (const auto& [name, options] : option_sets) {
      expect_arena_matches_full(
          fixture.gt.model, options, memory,
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
  ASSERT_GT(fresh.routers[hub].rib_in.size(), SimMemory::kIndexedFanIn);
  EXPECT_EQ(sim_text(fresh), sim_text(arena_result));
}

}  // namespace

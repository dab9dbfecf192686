// Arena simulation memory (bgp/sim_memory.hpp): Engine::run_into against
// one reused per-worker SimMemory must be bit-for-bit the allocating run()
// (or a fresh arena) for ANY arena history -- across every per-AS prefix
// of policy-rich generated topologies, across models of different sizes
// sharing one arena, under candidate fan-in past the indexed-map capacity,
// and over working-set views.  This is the unit-level half of the byte-identity
// argument in DESIGN.md section 13; tests/test_refine_parallel.cpp
// proves the end-to-end half on fitted models.
#include "bgp/sim_memory.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/workset.hpp"
#include "bgp/engine.hpp"
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
    out << "slot " << slot << " dense=" << sim.full_index(slot)
        << " best=" << state.best << " best_external=" << state.best_external
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

Fixture generated(double scale, unsigned seed) {
  data::InternetConfig config;
  config = config.scaled(scale);
  config.seed = seed;
  Fixture fixture;
  fixture.internet = data::generate_internet(config);
  fixture.gt = data::build_ground_truth(fixture.internet, {});
  return fixture;
}

/// Sweeps every per-AS prefix of `model` twice -- allocating run() and
/// run_into() against the single `memory` the caller threads through, so
/// each prefix sees the arena state the previous ones left behind -- and
/// requires identical results, counters and activation flags.
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
  }
}

TEST(SimMemoryTest, ArenaRunMatchesAllocatingRunOnGeneratedTopologies) {
  // Policy-rich ground truths (relationship policies, filters, local-pref
  // overrides) at two scales/seeds, all sweeping through ONE arena: the
  // second topology inherits whatever high-water buffers the first grew.
  SimMemory memory;
  for (const auto& [scale, seed] : {std::pair<double, unsigned>{0.05, 1},
                                    std::pair<double, unsigned>{0.08, 6}}) {
    const Fixture fixture = generated(scale, seed);
    expect_arena_matches_full(fixture.gt.model,
                              fixture.gt.config.engine_options(), memory,
                              "scale " + std::to_string(scale));
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

TEST(SimMemoryTest, ArenaCompactedRunMatchesAllocatingCompactedRun) {
  // Working-set views (exact worksets, so most are non-identity) under the
  // agnostic options the refinement sweep runs and under the ground
  // truth's relationship policies + IGP costs: the shared arena must
  // reproduce a fresh arena's run for every prefix.
  const Fixture fixture = generated(0.08, 6);
  const Model& model = fixture.gt.model;
  for (const bgp::EngineOptions& options :
       {bgp::EngineOptions{}, fixture.gt.config.engine_options()}) {
    const Engine engine(model, options);
    SimMemory memory;
    PrefixSimResult arena_result;
    std::size_t partial_views = 0;
    for (Asn origin : model.asns()) {
      const Prefix prefix = Prefix::for_asn(origin);
      const analysis::PrefixWorkset workset =
          analysis::compute_working_set(engine, prefix, origin, {});
      auto view = engine.build_view(prefix, origin, workset.members);
      partial_views += view->identity ? 0 : 1;
      SimCounters fresh_counters, arena_counters;
      SimMemory fresh_memory;
      PrefixSimResult fresh;
      engine.run_into(view, fresh_memory, &fresh_counters, nullptr, fresh);
      engine.run_into(std::move(view), memory, &arena_counters, nullptr,
                      arena_result);
      ASSERT_EQ(sim_text(fresh), sim_text(arena_result))
          << "prefix " << prefix.str();
      EXPECT_EQ(counter_text(fresh_counters), counter_text(arena_counters))
          << "prefix " << prefix.str();
    }
    EXPECT_GT(partial_views, 0u);
  }
}

}  // namespace

// Unit tests for the quasi-router model: construction, duplication,
// sessions, and per-prefix policy bookkeeping.  The session-probing
// duplicate_router / clear_owned_rules are checked against
// whole-container scans kept here as reference oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "core/pipeline.hpp"
#include "core/refine.hpp"
#include "topology/model.hpp"
#include "topology/model_io.hpp"

namespace {

using nb::Asn;
using nb::Prefix;
using nb::RouterId;
using topo::AsGraph;
using topo::ExportFilter;
using topo::Model;

TEST(ModelTest, OneRouterPerAs) {
  AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Model m = Model::one_router_per_as(g);
  EXPECT_EQ(m.num_routers(), 3u);
  EXPECT_EQ(m.num_sessions(), 2u);
  EXPECT_TRUE(m.has_session(RouterId{1, 0}, RouterId{2, 0}));
  EXPECT_FALSE(m.has_session(RouterId{1, 0}, RouterId{3, 0}));
  EXPECT_EQ(m.routers_of(1).size(), 1u);
}

TEST(ModelTest, AddRouterAssignsSequentialIndices) {
  Model m;
  EXPECT_EQ(m.add_router(7), (RouterId{7, 0}));
  EXPECT_EQ(m.add_router(7), (RouterId{7, 1}));
  EXPECT_EQ(m.add_router(8), (RouterId{8, 0}));
  EXPECT_EQ(m.num_ases(), 2u);
}

TEST(ModelTest, SessionsRejectSameAs) {
  Model m;
  RouterId a = m.add_router(7);
  RouterId b = m.add_router(7);
  EXPECT_THROW(m.add_session(a, b), std::invalid_argument);
}

TEST(ModelTest, SessionAddRemoveIdempotent) {
  Model m;
  RouterId a = m.add_router(1);
  RouterId b = m.add_router(2);
  m.add_session(a, b);
  m.add_session(b, a);
  EXPECT_EQ(m.num_sessions(), 1u);
  m.remove_session(a, b);
  EXPECT_EQ(m.num_sessions(), 0u);
  m.remove_session(a, b);  // no-op
  EXPECT_EQ(m.num_sessions(), 0u);
}

TEST(ModelTest, PeersSortedByRouterId) {
  Model m;
  RouterId a = m.add_router(5);
  RouterId x = m.add_router(9);
  RouterId y = m.add_router(2);
  m.add_session(a, x);
  m.add_session(a, y);
  const auto& peers = m.peers(m.dense(a));
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(m.router_id(peers[0]), y);  // 2.0 < 9.0
  EXPECT_EQ(m.router_id(peers[1]), x);
}

TEST(ModelTest, DuplicateCopiesSessionsAndIgp) {
  Model m;
  RouterId a = m.add_router(1);
  RouterId b = m.add_router(2);
  RouterId c = m.add_router(3);
  m.add_session(a, b);
  m.add_session(a, c);
  m.set_igp_cost(a, b, 7);
  m.set_igp_cost(b, a, 9);
  RouterId a2 = m.duplicate_router(a);
  EXPECT_EQ(a2, (RouterId{1, 1}));
  EXPECT_TRUE(m.has_session(a2, b));
  EXPECT_TRUE(m.has_session(a2, c));
  EXPECT_EQ(m.igp_cost(m.dense(a2), m.dense(b)), 7u);
  EXPECT_EQ(m.igp_cost(m.dense(b), m.dense(a2)), 9u);
}

TEST(ModelTest, DuplicateCopiesImportFiltersWithNewOwner) {
  Model m;
  RouterId a = m.add_router(1);
  RouterId b = m.add_router(2);
  m.add_session(a, b);
  Prefix p = Prefix::for_asn(42);
  m.set_export_filter(b, a, p, 3, a);
  RouterId a2 = m.duplicate_router(a);
  const topo::PrefixPolicy* policy = m.find_policy(p);
  ASSERT_NE(policy, nullptr);
  const ExportFilter* copied =
      m.find_export_filter(m.dense(b), m.dense(a2), policy);
  ASSERT_NE(copied, nullptr);
  EXPECT_EQ(copied->deny_below_len, 3u);
  EXPECT_EQ(copied->owner_target, a2);  // re-owned by the duplicate
  // Original untouched.
  const ExportFilter* original =
      m.find_export_filter(m.dense(b), m.dense(a), policy);
  ASSERT_NE(original, nullptr);
  EXPECT_EQ(original->owner_target, a);
}

TEST(ModelTest, DuplicateCopiesExportFiltersAndRanking) {
  Model m;
  RouterId a = m.add_router(1);
  RouterId b = m.add_router(2);
  m.add_session(a, b);
  Prefix p = Prefix::for_asn(42);
  m.set_export_filter(a, b, p, ExportFilter::kDenyAll, nb::kInvalidRouterId);
  m.set_ranking(a, p, 2);
  RouterId a2 = m.duplicate_router(a);
  const topo::PrefixPolicy* policy = m.find_policy(p);
  const ExportFilter* exported =
      m.find_export_filter(m.dense(a2), m.dense(b), policy);
  ASSERT_NE(exported, nullptr);
  EXPECT_EQ(exported->deny_below_len, ExportFilter::kDenyAll);
  EXPECT_TRUE(policy->rankings.count(a2.value()));
}

TEST(ModelTest, DuplicateWithoutPolicies) {
  Model m;
  RouterId a = m.add_router(1);
  RouterId b = m.add_router(2);
  m.add_session(a, b);
  Prefix p = Prefix::for_asn(42);
  m.set_ranking(a, p, 2);
  RouterId a2 = m.duplicate_router(a, /*copy_policies=*/false);
  EXPECT_FALSE(m.find_policy(p)->rankings.count(a2.value()));
  EXPECT_TRUE(m.has_session(a2, b));
}

TEST(ModelTest, RelaxExportFilter) {
  Model m;
  RouterId a = m.add_router(1);
  RouterId b = m.add_router(2);
  m.add_session(a, b);
  Prefix p = Prefix::for_asn(42);
  m.set_export_filter(a, b, p, 5, b);
  m.relax_export_filter(a, b, p, 3);  // length-3 routes must now pass
  const ExportFilter* f =
      m.find_export_filter(m.dense(a), m.dense(b), m.find_policy(p));
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->deny_below_len, 3u);
  EXPECT_FALSE(f->blocks(3));
  EXPECT_TRUE(f->blocks(2));
  // Relaxing to a value the filter already allows is a no-op.
  m.relax_export_filter(a, b, p, 4);
  EXPECT_EQ(m.find_export_filter(m.dense(a), m.dense(b), m.find_policy(p))
                ->deny_below_len,
            3u);
}

TEST(ModelTest, ClearOwnedRulesRemovesOnlyOwned) {
  Model m;
  RouterId a = m.add_router(1);
  RouterId b = m.add_router(2);
  RouterId c = m.add_router(3);
  m.add_session(a, b);
  m.add_session(a, c);
  m.add_session(b, c);
  Prefix p = Prefix::for_asn(42);
  m.set_export_filter(b, a, p, 3, a);  // owned by a (import side of a)
  m.set_export_filter(c, a, p, 3, a);
  m.set_export_filter(c, b, p, 9, b);  // owned by b
  m.set_ranking(a, p, 2);
  m.clear_owned_rules(p, a);
  const topo::PrefixPolicy* policy = m.find_policy(p);
  EXPECT_EQ(m.find_export_filter(m.dense(b), m.dense(a), policy), nullptr);
  EXPECT_EQ(m.find_export_filter(m.dense(c), m.dense(a), policy), nullptr);
  EXPECT_NE(m.find_export_filter(m.dense(c), m.dense(b), policy), nullptr);
  EXPECT_FALSE(policy->rankings.count(a.value()));
}

TEST(ModelTest, ClearOwnedRulesKeepsFilterOwnedByAnotherRouter) {
  Model m;
  RouterId a = m.add_router(1);
  RouterId b = m.add_router(2);
  RouterId c = m.add_router(3);
  m.add_session(a, b);
  m.add_session(a, c);
  Prefix p = Prefix::for_asn(42);
  m.set_export_filter(b, a, p, 4, c);  // on a's import session, owned by c
  m.set_export_filter(c, a, p, 3, a);
  m.clear_owned_rules(p, a);
  const topo::PrefixPolicy* policy = m.find_policy(p);
  const ExportFilter* kept =
      m.find_export_filter(m.dense(b), m.dense(a), policy);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->owner_target, c);
  EXPECT_EQ(m.find_export_filter(m.dense(c), m.dense(a), policy), nullptr);
}

TEST(ModelTest, ClearOwnedRulesOfUnknownRouterDoesNotThrow) {
  Model m;
  RouterId a = m.add_router(1);
  RouterId b = m.add_router(2);
  m.add_session(a, b);
  Prefix p = Prefix::for_asn(42);
  m.set_export_filter(b, a, p, 3, a);
  EXPECT_NO_THROW(m.clear_owned_rules(p, RouterId{9, 0}));
  EXPECT_EQ(m.policy_stats().filters, 1u);
}

TEST(ModelTest, FilterBlocksSemantics) {
  ExportFilter none;
  EXPECT_FALSE(none.blocks(0));
  ExportFilter f{3, nb::kInvalidRouterId};
  EXPECT_TRUE(f.blocks(2));
  EXPECT_FALSE(f.blocks(3));
  ExportFilter all{ExportFilter::kDenyAll, nb::kInvalidRouterId};
  EXPECT_TRUE(all.blocks(1000000));
}

TEST(ModelTest, PolicyStats) {
  Model m;
  RouterId a = m.add_router(1);
  RouterId b = m.add_router(2);
  m.add_session(a, b);
  m.set_export_filter(a, b, Prefix::for_asn(5), 2, b);
  m.set_ranking(b, Prefix::for_asn(5), 1);
  m.set_lp_override(a, Prefix::for_asn(6), 2, 150);
  auto stats = m.policy_stats();
  EXPECT_EQ(stats.prefixes_with_policy, 2u);
  EXPECT_EQ(stats.filters, 1u);
  EXPECT_EQ(stats.rankings, 1u);
  EXPECT_EQ(stats.lp_overrides, 1u);
}

TEST(ModelTest, NeighborClassStorage) {
  Model m;
  m.add_router(1);
  m.add_router(2);
  m.set_neighbor_class(1, 2, topo::NeighborClass::kCustomer);
  EXPECT_EQ(m.neighbor_class(1, 2), topo::NeighborClass::kCustomer);
  EXPECT_EQ(m.neighbor_class(2, 1), topo::NeighborClass::kUnknown);
}

TEST(ModelTest, RouterCounts) {
  Model m;
  m.add_router(1);
  m.add_router(1);
  m.add_router(2);
  auto counts = m.router_counts();
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(ModelTest, DenseLookupThrowsOnUnknown) {
  Model m;
  EXPECT_THROW(m.dense(RouterId{1, 0}), std::out_of_range);
}

// ---- reference oracles: the whole-container scans ---------------------------

// duplicate_router as a scan over every rule of every prefix: sessions, IGP
// costs and the default ranking first, then each prefix's filters,
// export-allows, ranking and lp-overrides that name src.
RouterId reference_duplicate_router(Model& m, RouterId src) {
  const RouterId copy = m.duplicate_router(src, /*copy_policies=*/false);
  if (Asn preferred = m.default_ranking(m.dense(src));
      preferred != nb::kInvalidAsn)
    m.set_default_ranking(copy, preferred);
  std::vector<Prefix> prefixes;
  for (const auto& [prefix, policy] : m.prefix_policies())
    prefixes.push_back(prefix);
  for (const Prefix& prefix : prefixes) {
    topo::PrefixPolicy& policy = m.policy(prefix);
    std::vector<std::uint64_t> allow_add;
    for (std::uint64_t key : policy.export_allows) {
      RouterId from = RouterId::from_value(static_cast<std::uint32_t>(key >> 32));
      RouterId to = RouterId::from_value(static_cast<std::uint32_t>(key));
      if (to == src) allow_add.push_back(topo::session_key(from, copy));
      if (from == src) allow_add.push_back(topo::session_key(copy, to));
    }
    for (std::uint64_t key : allow_add) policy.export_allows.insert(key);
    std::vector<std::pair<std::uint64_t, ExportFilter>> to_add;
    for (auto& [key, filter] : policy.filters) {
      RouterId from = RouterId::from_value(static_cast<std::uint32_t>(key >> 32));
      RouterId to = RouterId::from_value(static_cast<std::uint32_t>(key));
      if (to == src) {
        ExportFilter copied = filter;
        copied.owner_target = copy;
        to_add.emplace_back(topo::session_key(from, copy), copied);
      } else if (from == src) {
        to_add.emplace_back(topo::session_key(copy, to), filter);
      }
    }
    for (auto& [key, filter] : to_add) policy.filters[key] = filter;
    auto rank = policy.rankings.find(src.value());
    if (rank != policy.rankings.end())
      policy.rankings[copy.value()] = rank->second;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> lp_add;
    for (auto& [key, lp] : policy.lp_overrides) {
      RouterId router = RouterId::from_value(static_cast<std::uint32_t>(key >> 32));
      if (router == src) {
        Asn neighbor = static_cast<Asn>(key & 0xffffffffu);
        lp_add.emplace_back(topo::router_asn_key(copy, neighbor), lp);
      }
    }
    for (auto& [key, lp] : lp_add) policy.lp_overrides[key] = lp;
  }
  return copy;
}

// clear_owned_rules as a scan over all of the prefix's filters.
void reference_clear_owned_rules(Model& m, const Prefix& prefix,
                                 RouterId target) {
  if (m.find_policy(prefix) == nullptr) return;
  topo::PrefixPolicy& policy = m.policy(prefix);
  for (auto it = policy.filters.begin(); it != policy.filters.end();) {
    RouterId to = RouterId::from_value(static_cast<std::uint32_t>(it->first));
    if (to == target && it->second.owner_target == target) {
      it = policy.filters.erase(it);
    } else {
      ++it;
    }
  }
  policy.rankings.erase(target.value());
}

// All four per-prefix containers as one sorted row list:
// (container, key, value, filter owner).
using RuleRow = std::tuple<int, std::uint64_t, std::uint64_t, std::uint32_t>;
std::vector<RuleRow> sorted_rules(const topo::PrefixPolicy& policy) {
  std::vector<RuleRow> rows;
  for (const auto& [key, filter] : policy.filters)
    rows.emplace_back(0, key, filter.deny_below_len,
                      filter.owner_target.value());
  for (const auto& [key, rule] : policy.rankings)
    rows.emplace_back(1, key, rule.preferred_neighbor, 0);
  for (const auto& [key, lp] : policy.lp_overrides)
    rows.emplace_back(2, key, lp, 0);
  for (std::uint64_t key : policy.export_allows) rows.emplace_back(3, key, 0, 0);
  std::sort(rows.begin(), rows.end());
  return rows;
}

void expect_same_model(const Model& got, const Model& want) {
  ASSERT_EQ(got.num_routers(), want.num_routers());
  ASSERT_EQ(got.prefix_policies().size(), want.prefix_policies().size());
  auto it = want.prefix_policies().begin();
  for (const auto& [prefix, policy] : got.prefix_policies()) {
    ASSERT_EQ(prefix, it->first);
    EXPECT_EQ(sorted_rules(policy), sorted_rules(it->second)) << prefix.str();
    ++it;
  }
  for (Model::Dense r = 0; r < got.num_routers(); ++r)
    EXPECT_EQ(got.default_ranking(r), want.default_ranking(r)) << r;
  EXPECT_EQ(got.igp_costs(), want.igp_costs());
  EXPECT_EQ(topo::model_to_string(got), topo::model_to_string(want));
}

// Every router some per-prefix rule names, ascending.
std::vector<RouterId> routers_named_by_rules(const Model& m) {
  std::set<RouterId> named;
  const auto add_session = [&](std::uint64_t key) {
    named.insert(RouterId::from_value(static_cast<std::uint32_t>(key >> 32)));
    named.insert(RouterId::from_value(static_cast<std::uint32_t>(key)));
  };
  for (const auto& [prefix, policy] : m.prefix_policies()) {
    for (const auto& [key, filter] : policy.filters) add_session(key);
    for (std::uint64_t key : policy.export_allows) add_session(key);
    for (const auto& [key, rule] : policy.rankings)
      named.insert(RouterId::from_value(key));
    for (const auto& [key, lp] : policy.lp_overrides)
      named.insert(RouterId::from_value(static_cast<std::uint32_t>(key >> 32)));
  }
  return {named.begin(), named.end()};
}

// Erases every rule that does not sit on a live session -- the filters,
// export-allows and lp-overrides lint reports as dangling or orphaned --
// and returns how many it erased.
std::size_t drop_dangling_rules(Model& m) {
  const auto on_session = [&](std::uint64_t key) {
    return m.has_session(
        RouterId::from_value(static_cast<std::uint32_t>(key >> 32)),
        RouterId::from_value(static_cast<std::uint32_t>(key)));
  };
  const auto toward_neighbor = [&](std::uint64_t key) {
    const RouterId router =
        RouterId::from_value(static_cast<std::uint32_t>(key >> 32));
    if (!m.has_router(router)) return false;
    for (Model::Dense peer : m.peers(m.dense(router)))
      if (m.router_id(peer).asn() == static_cast<Asn>(key & 0xffffffffu))
        return true;
    return false;
  };
  std::vector<Prefix> prefixes;
  for (const auto& [prefix, policy] : m.prefix_policies())
    prefixes.push_back(prefix);
  std::size_t dropped = 0;
  for (const Prefix& prefix : prefixes) {
    topo::PrefixPolicy& policy = m.policy(prefix);
    dropped += std::erase_if(policy.filters, [&](const auto& entry) {
      return !on_session(entry.first);
    });
    dropped += std::erase_if(policy.export_allows, [&](std::uint64_t key) {
      return !on_session(key);
    });
    dropped += std::erase_if(policy.lp_overrides, [&](const auto& entry) {
      return !toward_neighbor(entry.first);
    });
  }
  return dropped;
}

// Duplicates every router a rule names, once by probing sessions and once
// by the reference scan.  The probe copies no rule that lint reports as
// dangling, so such rules are dropped from both results before comparing.
void expect_duplications_match_scan(const Model& model) {
  Model probed = model;
  Model scanned = model;
  for (RouterId src : routers_named_by_rules(model)) {
    const RouterId a = probed.duplicate_router(src);
    const RouterId b = reference_duplicate_router(scanned, src);
    ASSERT_EQ(a, b);
  }
  Model original = model;
  EXPECT_EQ(drop_dangling_rules(probed), drop_dangling_rules(original));
  drop_dangling_rules(scanned);
  expect_same_model(probed, scanned);
}

core::Pipeline data_stages(double scale, std::uint64_t seed) {
  core::Pipeline pipeline =
      core::make_pipeline(core::PipelineConfig::with(scale, seed));
  core::run_data_stages(pipeline);
  return pipeline;
}

TEST(ModelOracleTest, DuplicationMatchesScanOnGroundTruth) {
  const core::Pipeline pipeline = data_stages(0.1, 1);
  const Model& truth = pipeline.ground_truth.model;
  // The ground truth carries every rule kind the duplication copies.
  const Model::PolicyStats stats = truth.policy_stats();
  ASSERT_GT(stats.filters, 0u);
  ASSERT_GT(stats.lp_overrides, 0u);
  ASSERT_GT(stats.export_allows, 0u);
  ASSERT_FALSE(truth.igp_costs().empty());
  // The generator puts an lp-override at every router of its AS, including
  // routers with no session toward the preferred AS (lint P220).
  Model orphans = truth;
  EXPECT_GT(drop_dangling_rules(orphans), 0u);
  expect_duplications_match_scan(truth);
}

TEST(ModelOracleTest, DuplicationAndClearMatchScanOnFittedModel) {
  const core::Pipeline pipeline = data_stages(0.1, 1);
  Model fitted = Model::one_router_per_as(pipeline.graph);
  const core::RefineResult result =
      core::refine_model(fitted, pipeline.split.training, {});
  ASSERT_TRUE(result.success);
  ASSERT_GT(fitted.policy_stats().filters, 0u);
  ASSERT_GT(fitted.policy_stats().rankings, 0u);
  expect_duplications_match_scan(fitted);

  // Clear every (prefix, router) pair that owns a filter.
  std::set<std::pair<Prefix, RouterId>> owners;
  for (const auto& [prefix, policy] : fitted.prefix_policies())
    for (const auto& [key, filter] : policy.filters)
      if (filter.owner_target.valid())
        owners.emplace(prefix, filter.owner_target);
  ASSERT_FALSE(owners.empty());
  Model probed = fitted;
  Model scanned = fitted;
  for (const auto& [prefix, target] : owners) {
    probed.clear_owned_rules(prefix, target);
    reference_clear_owned_rules(scanned, prefix, target);
  }
  expect_same_model(probed, scanned);
  EXPECT_LT(probed.policy_stats().filters, fitted.policy_stats().filters);
}

}  // namespace

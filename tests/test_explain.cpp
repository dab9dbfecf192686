// Decision-step explanations (bgp/explain): every elimination step the
// model's decision process can report must surface correctly annotated --
// in particular the MED ranking comparison and the final router-id
// tie-break, the two steps the paper's refinement heuristic leans on.
#include "bgp/explain.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bgp/decision.hpp"
#include "topology/as_graph.hpp"

namespace {

using bgp::DecisionStep;
using nb::Prefix;
using nb::RouterId;
using topo::Model;

/// Origin AS 9 reachable from AS 5 via two equal-length branches:
///   9 - 1 - 5   and   9 - 2 - 5.
Model diamond() {
  topo::AsGraph graph;
  graph.add_edge(9, 1);
  graph.add_edge(9, 2);
  graph.add_edge(1, 5);
  graph.add_edge(2, 5);
  return Model::one_router_per_as(graph);
}

bgp::RouteExplanation explain_at(const Model& model, nb::Asn observer,
                                 nb::Asn origin) {
  const bgp::Engine engine(model);
  const bgp::PrefixSimResult sim = engine.run(Prefix::for_asn(origin), origin);
  return bgp::explain_selection(model, sim, model.routers_of(observer).front());
}

const bgp::RouteExplanation::Candidate* candidate_via(
    const bgp::RouteExplanation& explanation, const Model& model,
    nb::Asn sender_as) {
  for (const auto& candidate : explanation.candidates) {
    if (model.router_id(candidate.route.sender).asn() == sender_as)
      return &candidate;
  }
  return nullptr;
}

TEST(ExplainTest, TieBreakElimination) {
  // No policies: both branches tie down to the last step, and the lower
  // announcing router id (AS 1's router) must win.
  const Model model = diamond();
  const auto explanation = explain_at(model, 5, 9);
  ASSERT_EQ(explanation.candidates.size(), 2u);
  EXPECT_TRUE(explanation.candidates.front().is_best);
  EXPECT_EQ(model.router_id(explanation.candidates.front().route.sender).asn(),
            1u);
  const auto* loser = candidate_via(explanation, model, 2);
  ASSERT_NE(loser, nullptr);
  EXPECT_FALSE(loser->is_best);
  EXPECT_EQ(loser->lost_at, DecisionStep::kTieBreak);

  const std::string text = explanation.str(model);
  EXPECT_NE(text.find("BEST"), std::string::npos);
  EXPECT_NE(text.find("lost(lowest-router-id)"), std::string::npos);
}

TEST(ExplainTest, MedRankingElimination) {
  // A MED ranking preferring AS 2 overturns the tie-break: the AS 1 branch
  // now loses at the (always-compared) MED step.
  Model model = diamond();
  model.set_ranking(RouterId{5, 0}, Prefix::for_asn(9), 2);
  const auto explanation = explain_at(model, 5, 9);
  ASSERT_EQ(explanation.candidates.size(), 2u);
  EXPECT_TRUE(explanation.candidates.front().is_best);
  EXPECT_EQ(model.router_id(explanation.candidates.front().route.sender).asn(),
            2u);
  const auto* loser = candidate_via(explanation, model, 1);
  ASSERT_NE(loser, nullptr);
  EXPECT_EQ(loser->lost_at, DecisionStep::kMed);
  EXPECT_NE(explanation.str(model).find("lost(med)"), std::string::npos);
}

TEST(ExplainTest, LocalPrefElimination) {
  // A local-pref override outranks everything, including the MED ranking.
  Model model = diamond();
  model.set_ranking(RouterId{5, 0}, Prefix::for_asn(9), 1);
  model.set_lp_override(RouterId{5, 0}, Prefix::for_asn(9), 2, 200);
  const auto explanation = explain_at(model, 5, 9);
  ASSERT_EQ(explanation.candidates.size(), 2u);
  EXPECT_EQ(model.router_id(explanation.candidates.front().route.sender).asn(),
            2u);
  const auto* loser = candidate_via(explanation, model, 1);
  ASSERT_NE(loser, nullptr);
  EXPECT_EQ(loser->lost_at, DecisionStep::kLocalPref);
}

TEST(ExplainTest, PathLengthElimination) {
  // Lengthen the AS 2 branch (9 - 3 - 2 - 5): it now loses on path length.
  topo::AsGraph graph;
  graph.add_edge(9, 1);
  graph.add_edge(9, 3);
  graph.add_edge(3, 2);
  graph.add_edge(1, 5);
  graph.add_edge(2, 5);
  const Model model = Model::one_router_per_as(graph);
  const auto explanation = explain_at(model, 5, 9);
  ASSERT_EQ(explanation.candidates.size(), 2u);
  EXPECT_EQ(model.router_id(explanation.candidates.front().route.sender).asn(),
            1u);
  const auto* loser = candidate_via(explanation, model, 2);
  ASSERT_NE(loser, nullptr);
  EXPECT_EQ(loser->lost_at, DecisionStep::kPathLength);
}

TEST(ExplainTest, NoRoutesRendersPlaceholder) {
  // Chain 9 - 1 - 5 with a kDenyAll filter on 1 -> 5: router 5.0 ends the
  // run with an empty RIB-In.
  topo::AsGraph graph;
  graph.add_edge(9, 1);
  graph.add_edge(1, 5);
  Model model = Model::one_router_per_as(graph);
  model.set_export_filter(RouterId{1, 0}, RouterId{5, 0}, Prefix::for_asn(9),
                          topo::ExportFilter::kDenyAll, RouterId{5, 0});
  const auto explanation = explain_at(model, 5, 9);
  EXPECT_TRUE(explanation.candidates.empty());
  EXPECT_NE(explanation.str(model).find("(no routes)"), std::string::npos);
}

TEST(ExplainTest, StrRendersOneLinePerCandidate) {
  // The rendering contract: a "router X:" header, then exactly one line
  // per candidate -- "BEST" for the winner, "lost(<step>)" for each loser
  // -- each naming the announcing router after "via".
  const Model model = diamond();
  const auto explanation = explain_at(model, 5, 9);
  ASSERT_EQ(explanation.candidates.size(), 2u);
  const std::string text = explanation.str(model);

  std::vector<std::string> lines;
  std::stringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), explanation.candidates.size() + 1);
  EXPECT_EQ(lines[0], "router " + explanation.router.str() + ":");
  std::size_t best_lines = 0;
  for (std::size_t i = 0; i < explanation.candidates.size(); ++i) {
    const auto& candidate = explanation.candidates[i];
    const std::string& rendered = lines[i + 1];
    if (candidate.is_best) {
      ++best_lines;
      EXPECT_NE(rendered.find("BEST"), std::string::npos) << rendered;
      EXPECT_EQ(rendered.find("lost("), std::string::npos) << rendered;
    } else {
      const std::string marker =
          std::string("lost(") + bgp::decision_step_name(candidate.lost_at) +
          ")";
      EXPECT_NE(rendered.find(marker), std::string::npos) << rendered;
    }
    EXPECT_NE(rendered.find(" via " +
                            model.router_id(candidate.route.sender).str()),
              std::string::npos)
        << rendered;
  }
  EXPECT_EQ(best_lines, 1u);
}

TEST(ExplainTest, CandidatesCoverEntireRibIn) {
  // Every Adj-RIB-In entry of the observed router must appear exactly once
  // in the explanation, with exactly one marked best -- the property the
  // obs elimination histogram's totals rely on.
  topo::AsGraph graph;
  graph.add_edge(9, 1);
  graph.add_edge(9, 2);
  graph.add_edge(9, 3);
  graph.add_edge(1, 5);
  graph.add_edge(2, 5);
  graph.add_edge(3, 5);
  const Model model = Model::one_router_per_as(graph);
  const bgp::Engine engine(model);
  const bgp::PrefixSimResult sim = engine.run(Prefix::for_asn(9), 9);
  const Model::Dense observer = model.routers_of(5).front();
  const auto explanation = bgp::explain_selection(model, sim, observer);
  EXPECT_EQ(explanation.candidates.size(),
            sim.rows(observer).size());
  std::size_t best = 0;
  for (const auto& candidate : explanation.candidates)
    if (candidate.is_best) ++best;
  EXPECT_EQ(best, 1u);
}

TEST(ExplainTest, BestRouteSortsFirstAmongMany) {
  // Three equal-length branches; the best must lead the candidate list and
  // every loser must carry a decisive step.
  topo::AsGraph graph;
  graph.add_edge(9, 1);
  graph.add_edge(9, 2);
  graph.add_edge(9, 3);
  graph.add_edge(1, 5);
  graph.add_edge(2, 5);
  graph.add_edge(3, 5);
  Model model = Model::one_router_per_as(graph);
  model.set_ranking(RouterId{5, 0}, Prefix::for_asn(9), 3);
  const auto explanation = explain_at(model, 5, 9);
  ASSERT_EQ(explanation.candidates.size(), 3u);
  EXPECT_TRUE(explanation.candidates.front().is_best);
  EXPECT_EQ(model.router_id(explanation.candidates.front().route.sender).asn(),
            3u);
  for (std::size_t i = 1; i < explanation.candidates.size(); ++i) {
    EXPECT_FALSE(explanation.candidates[i].is_best);
    EXPECT_EQ(explanation.candidates[i].lost_at, DecisionStep::kMed);
  }
}

}  // namespace

// Tests for the C-BGP-style model serialization.
#include <gtest/gtest.h>

#include "bgp/engine.hpp"
#include "core/pipeline.hpp"
#include "topology/model_io.hpp"

namespace {

using nb::Prefix;
using nb::RouterId;
using topo::Model;

Model sample_model() {
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 3);
  Model m = Model::one_router_per_as(g);
  m.duplicate_router(RouterId{1, 0});
  Prefix p = Prefix::for_asn(3);
  m.set_export_filter(RouterId{2, 0}, RouterId{1, 0}, p, 3, RouterId{1, 0});
  m.set_export_filter(RouterId{3, 0}, RouterId{1, 1}, p,
                      topo::ExportFilter::kDenyAll, nb::kInvalidRouterId);
  m.set_ranking(RouterId{1, 1}, p, 3);
  m.set_lp_override(RouterId{2, 0}, p, 3, 150);
  m.set_export_allow(RouterId{2, 0}, RouterId{1, 0}, p);
  m.set_igp_cost(RouterId{1, 0}, RouterId{2, 0}, 7);
  m.set_neighbor_class(1, 2, topo::NeighborClass::kProvider);
  m.set_neighbor_class(2, 1, topo::NeighborClass::kCustomer);
  return m;
}

TEST(ModelIoTest, RoundTripPreservesEverything) {
  Model original = sample_model();
  std::string text = topo::model_to_string(original);
  std::string error;
  auto parsed = topo::model_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  // Re-serializing must be byte-identical (canonical form).
  EXPECT_EQ(topo::model_to_string(*parsed), text);
  EXPECT_EQ(parsed->num_routers(), original.num_routers());
  EXPECT_EQ(parsed->num_sessions(), original.num_sessions());
  EXPECT_TRUE(parsed->has_session(RouterId{1, 1}, RouterId{2, 0}));
  EXPECT_EQ(parsed->neighbor_class(1, 2), topo::NeighborClass::kProvider);
  EXPECT_EQ(parsed->igp_cost(parsed->dense(RouterId{1, 0}),
                             parsed->dense(RouterId{2, 0})),
            7u);
  const topo::PrefixPolicy* policy =
      parsed->find_policy(Prefix::for_asn(3));
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->filters.size(), 2u);
  EXPECT_EQ(policy->rankings.size(), 1u);
  EXPECT_EQ(policy->lp_overrides.size(), 1u);
  EXPECT_EQ(policy->export_allows.size(), 1u);
}

TEST(ModelIoTest, RoundTrippedModelSimulatesIdentically) {
  Model original = sample_model();
  auto parsed = topo::model_from_string(topo::model_to_string(original));
  ASSERT_TRUE(parsed.has_value());
  bgp::Engine a(original), b(*parsed);
  auto sim_a = a.run(Prefix::for_asn(3), 3);
  auto sim_b = b.run(Prefix::for_asn(3), 3);
  ASSERT_EQ(sim_a.num_routers(), sim_b.num_routers());
  // Dense indices are an internal detail and differ after the round trip
  // (serialization is id-sorted); compare per RouterId.
  for (std::size_t r = 0; r < sim_a.num_routers(); ++r) {
    const RouterId id = original.router_id(static_cast<Model::Dense>(r));
    const auto x = sim_a.best_row(r);
    const auto y = sim_b.best_row(parsed->dense(id));
    ASSERT_EQ(sim_a.best(r) < 0, sim_b.best(parsed->dense(id)) < 0)
        << id.str();
    if (x != bgp::PrefixSimResult::kNoRow) {
      EXPECT_EQ(sim_a.route(x).path, sim_b.route(y).path) << id.str();
    }
  }
}

TEST(ModelIoTest, FittedPipelineModelRoundTrips) {
  auto pipeline = core::run_full_pipeline(core::PipelineConfig::with(0.06, 2));
  std::string text = topo::model_to_string(pipeline.model);
  std::string error;
  auto parsed = topo::model_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(topo::model_to_string(*parsed), text);
  EXPECT_EQ(parsed->num_routers(), pipeline.model.num_routers());
}

TEST(ModelIoTest, RejectsMissingHeader) {
  std::string error;
  EXPECT_FALSE(topo::model_from_string("router 1.0\n", &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(ModelIoTest, RejectsNonDenseRouterIndices) {
  std::string error;
  EXPECT_FALSE(
      topo::model_from_string("model v1\nrouter 1.1\n", &error).has_value());
  EXPECT_NE(error.find("dense"), std::string::npos);
}

TEST(ModelIoTest, RejectsSessionWithUnknownRouter) {
  std::string error;
  EXPECT_FALSE(topo::model_from_string("model v1\nrouter 1.0\nsession 1.0 2.0\n",
                                       &error)
                   .has_value());
}

TEST(ModelIoTest, RejectsUnknownDirective) {
  std::string error;
  EXPECT_FALSE(
      topo::model_from_string("model v1\nfrobnicate\n", &error).has_value());
  EXPECT_NE(error.find("unknown directive"), std::string::npos);
}

TEST(ModelIoTest, RejectsBadFilterThreshold) {
  std::string error;
  std::string text =
      "model v1\nrouter 1.0\nrouter 2.0\nfilter 10.0.3.0/24 2.0 1.0 banana\n";
  EXPECT_FALSE(topo::model_from_string(text, &error).has_value());
}

TEST(ModelIoTest, CommentsIgnored) {
  std::string text = "# hello\nmodel v1\n# another\nrouter 9.0\n";
  auto parsed = topo::model_from_string(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_routers(), 1u);
}

}  // namespace

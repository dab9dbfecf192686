// Tests for the iBGP-mesh experiment mode -- the alternative the paper
// rejected in Section 4.6 ("extremely difficult to control route
// selection").
#include <gtest/gtest.h>

#include "core/refine.hpp"
#include "bgp/engine.hpp"

namespace {

using nb::Asn;
using nb::Prefix;
using nb::RouterId;
using topo::Model;

// AS 1 has two routers: 1.0 peers with AS 2, 1.1 peers with AS 3; both
// upstreams reach origin 9.
Model split_as() {
  Model m;
  RouterId r10 = m.add_router(1);
  RouterId r11 = m.add_router(1);
  RouterId r2 = m.add_router(2);
  RouterId r3 = m.add_router(3);
  RouterId r9 = m.add_router(9);
  m.add_session(r10, r2);
  m.add_session(r11, r3);
  m.add_session(r2, r9);
  m.add_session(r3, r9);
  return m;
}

TEST(IbgpTest, WithoutMeshRoutersAreIsolated) {
  Model m = split_as();
  bgp::Engine engine(m);
  auto sim = engine.run(Prefix::for_asn(9), 9);
  // Each router only knows its own upstream.
  EXPECT_EQ(sim.rows(m.dense(RouterId{1, 0})).size(), 1u);
  EXPECT_EQ(sim.rows(m.dense(RouterId{1, 1})).size(), 1u);
  EXPECT_EQ(sim.route(sim.best_row(m.dense(RouterId{1, 0}))).path,
            (std::vector<Asn>{2, 9}));
  EXPECT_EQ(sim.route(sim.best_row(m.dense(RouterId{1, 1}))).path,
            (std::vector<Asn>{3, 9}));
}

TEST(IbgpTest, MeshSharesExternalRoutes) {
  Model m = split_as();
  bgp::EngineOptions options;
  options.use_ibgp_mesh = true;
  bgp::Engine engine(m, options);
  auto sim = engine.run(Prefix::for_asn(9), 9);
  // Each router of AS 1 now also holds the mate's route, flagged iBGP.
  const auto rib0 = sim.rows(m.dense(RouterId{1, 0}));
  ASSERT_EQ(rib0.size(), 2u);
  bool has_ibgp = false;
  for (const bgp::PrefixSimResult::Row row : rib0) {
    const bgp::Route entry = sim.route(row);
    if (entry.ibgp) {
      has_ibgp = true;
      EXPECT_EQ(entry.path, (std::vector<Asn>{3, 9}));
    }
  }
  EXPECT_TRUE(has_ibgp);
  // eBGP wins over iBGP at equal preference: own external stays best.
  EXPECT_EQ(sim.route(sim.best_row(m.dense(RouterId{1, 0}))).path,
            (std::vector<Asn>{2, 9}));
  EXPECT_FALSE(sim.route(sim.best_row(m.dense(RouterId{1, 0}))).ibgp);
}

TEST(IbgpTest, ShorterIbgpRouteWinsOverLongerExternal) {
  // 1.1's external route is longer (via 3-5-9); the mate's shared route via
  // 2-9 is shorter and must win despite being iBGP.
  Model m;
  RouterId r10 = m.add_router(1);
  RouterId r11 = m.add_router(1);
  RouterId r2 = m.add_router(2);
  RouterId r3 = m.add_router(3);
  RouterId r5 = m.add_router(5);
  RouterId r9 = m.add_router(9);
  m.add_session(r10, r2);
  m.add_session(r11, r3);
  m.add_session(r2, r9);
  m.add_session(r3, r5);
  m.add_session(r5, r9);
  bgp::EngineOptions options;
  options.use_ibgp_mesh = true;
  bgp::Engine engine(m, options);
  auto sim = engine.run(Prefix::for_asn(9), 9);
  const auto best = sim.best_row(m.dense(r11));
  ASSERT_NE(best, bgp::PrefixSimResult::kNoRow);
  EXPECT_TRUE(sim.route(best).ibgp);
  EXPECT_EQ(sim.route(best).path, (std::vector<Asn>{2, 9}));
  // The best external row still holds the eBGP choice.
  EXPECT_EQ(sim.route(sim.best_external_row(m.dense(r11))).path,
            (std::vector<Asn>{3, 5, 9}));
}

TEST(IbgpTest, IbgpRoutesAreNotReAdvertisedIntoTheMesh) {
  // Three routers in AS 1; only 1.0 has an upstream.  1.1 and 1.2 learn the
  // route over iBGP from 1.0 directly; the sender must always be 1.0 (no
  // relay through 1.1).
  Model m;
  RouterId r10 = m.add_router(1);
  RouterId r11 = m.add_router(1);
  RouterId r12 = m.add_router(1);
  RouterId r2 = m.add_router(2);
  m.add_session(r10, r2);
  (void)r11;
  (void)r12;
  bgp::EngineOptions options;
  options.use_ibgp_mesh = true;
  bgp::Engine engine(m, options);
  auto sim = engine.run(Prefix::for_asn(2), 2);
  for (RouterId router : {r11, r12}) {
    const auto rib = sim.rows(m.dense(router));
    ASSERT_EQ(rib.size(), 1u) << router.str();
    EXPECT_TRUE(sim.view(rib.front()).ibgp);
    EXPECT_EQ(sim.sender(rib.front()), m.dense(r10));
    // And since it is iBGP-learned, it IS still advertised over eBGP...
    // (no eBGP peers here to check; covered below).
  }
}

TEST(IbgpTest, IbgpLearnedRouteExportedOverEbgp) {
  // 1.1 has no upstream of its own but peers with AS 4; the iBGP-learned
  // route must be advertised to 4 with AS 1 prepended.
  Model m;
  RouterId r10 = m.add_router(1);
  RouterId r11 = m.add_router(1);
  RouterId r2 = m.add_router(2);
  RouterId r4 = m.add_router(4);
  m.add_session(r10, r2);
  m.add_session(r11, r4);
  bgp::EngineOptions options;
  options.use_ibgp_mesh = true;
  bgp::Engine engine(m, options);
  auto sim = engine.run(Prefix::for_asn(2), 2);
  const auto best = sim.best_row(m.dense(r4));
  ASSERT_NE(best, bgp::PrefixSimResult::kNoRow);
  EXPECT_EQ(sim.route(best).path, (std::vector<Asn>{1, 2}));
  EXPECT_FALSE(sim.route(best).ibgp);  // eBGP again from 4's perspective
}

TEST(IbgpTest, MeshPreservesEqualLengthDiversity) {
  // With EQUAL-length externals the eBGP-over-iBGP step keeps each router
  // on its own exit (hot-potato): diversity survives the mesh.
  Model m;
  RouterId r10 = m.add_router(1);
  RouterId r11 = m.add_router(1);
  RouterId r2 = m.add_router(2);
  RouterId r3 = m.add_router(3);
  RouterId r9 = m.add_router(9);
  RouterId r6a = m.add_router(6);
  RouterId r6b = m.add_router(6);
  m.add_session(r10, r2);
  m.add_session(r11, r3);
  m.add_session(r2, r9);
  m.add_session(r3, r9);
  m.add_session(r10, r6a);
  m.add_session(r11, r6b);

  auto distinct_paths_at_6 = [&](bool mesh) {
    bgp::EngineOptions options;
    options.use_ibgp_mesh = mesh;
    bgp::Engine engine(m, options);
    auto sim = engine.run(Prefix::for_asn(9), 9);
    std::set<std::vector<Asn>> paths;
    for (RouterId router : {r6a, r6b}) {
      const auto best = sim.best_row(m.dense(router));
      if (best != bgp::PrefixSimResult::kNoRow)
        paths.insert(sim.route(best).path);
    }
    return paths.size();
  };
  EXPECT_EQ(distinct_paths_at_6(false), 2u);
  EXPECT_EQ(distinct_paths_at_6(true), 2u);
}

TEST(IbgpTest, MeshCollapsesUnequalLengthDiversity) {
  // The Section 4.6 problem in miniature: the longer external (via 3-5)
  // loses the length step to the mate's iBGP-shared shorter route, so both
  // routers of AS 1 advertise the same path and the downstream diversity
  // disappears -- isolated quasi-routers keep it.
  Model m;
  RouterId r10 = m.add_router(1);
  RouterId r11 = m.add_router(1);
  RouterId r2 = m.add_router(2);
  RouterId r3 = m.add_router(3);
  RouterId r5 = m.add_router(5);
  RouterId r9 = m.add_router(9);
  RouterId r6a = m.add_router(6);
  RouterId r6b = m.add_router(6);
  m.add_session(r10, r2);
  m.add_session(r11, r3);
  m.add_session(r2, r9);
  m.add_session(r3, r5);
  m.add_session(r5, r9);
  m.add_session(r10, r6a);
  m.add_session(r11, r6b);

  auto distinct_paths_at_6 = [&](bool mesh) {
    bgp::EngineOptions options;
    options.use_ibgp_mesh = mesh;
    bgp::Engine engine(m, options);
    auto sim = engine.run(Prefix::for_asn(9), 9);
    std::set<std::vector<Asn>> paths;
    for (RouterId router : {r6a, r6b}) {
      const auto best = sim.best_row(m.dense(router));
      if (best != bgp::PrefixSimResult::kNoRow)
        paths.insert(sim.route(best).path);
    }
    return paths.size();
  };
  EXPECT_EQ(distinct_paths_at_6(false), 2u);
  EXPECT_EQ(distinct_paths_at_6(true), 1u);
}

TEST(IbgpTest, RefinementDegradesUnderMesh) {
  // Fitting observed diversity of UNEQUAL path lengths with an iBGP mesh
  // inside every AS must fail where the isolated quasi-router model
  // succeeds: the mate's shorter external route arrives over the mesh,
  // wins the length step, and no session filter can block it -- the
  // paper's "extremely difficult to control route selection, in particular
  // to install different routes at neighboring ibgp routers" (Section 4.6).
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 9);
  g.add_edge(3, 5);
  g.add_edge(5, 9);
  g.add_edge(6, 1);
  data::BgpDataset training;
  training.points.push_back({RouterId{6, 0}});
  training.records.push_back({0, 9, topo::AsPath{6, 1, 2, 9}});
  training.records.push_back({0, 9, topo::AsPath{6, 1, 3, 5, 9}});

  core::RefineConfig config;
  Model isolated = Model::one_router_per_as(g);
  auto plain = core::refine_model(isolated, training, config);
  EXPECT_TRUE(plain.success);

  Model meshed = Model::one_router_per_as(g);
  core::RefineConfig mesh_config = config;
  mesh_config.engine.use_ibgp_mesh = true;
  mesh_config.max_iterations = 24;
  auto mesh = core::refine_model(meshed, training, mesh_config);
  EXPECT_FALSE(mesh.success);
}

}  // namespace

// Developer probe: rerun the pipeline and dump the simulated state around
// every training path that failed to become a RIB-Out match.  Not part of
// the documented example set, but useful when tuning the heuristic.
#include <cstdio>
#include <map>
#include <set>

#include "core/pipeline.hpp"
#include "netbase/cli.hpp"

using nb::Asn;
using topo::AsPath;
using topo::Model;

namespace {

void dump_as(const Model& model, const bgp::PrefixSimResult& sim, Asn asn) {
  for (Model::Dense r : model.routers_of(asn)) {
    std::printf("    router %s best=%d\n", model.router_id(r).str().c_str(),
                sim.best(r));
    std::size_t i = 0;
    for (const bgp::PrefixSimResult::Row row : sim.rows(r)) {
      std::printf("      rib[%zu] %s (sender=%s)\n", i++,
                  sim.route(row).str().c_str(),
                  model.router_id(sim.sender(row)).str().c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  nb::Cli cli(argc, argv);
  core::PipelineConfig config = core::PipelineConfig::with(
      cli.get_double("scale", 0.25), cli.get_u64("seed", 1));
  core::Pipeline p = core::make_pipeline(config);
  core::run_data_stages(p);
  p.config.refine.debug_origin = static_cast<nb::Asn>(cli.get_u64("debug-origin", nb::kInvalidAsn));
  core::run_model_stages(p);

  bgp::Engine engine(p.model, bgp::EngineOptions{});
  const auto ids = bgp::dense_ids(p.model);
  std::size_t shown = 0;
  for (auto& [origin, paths] : p.split.training.paths_by_origin()) {
    if (!p.model.has_as(origin)) continue;
    auto sim = engine.run(nb::Prefix::for_asn(origin), origin);
    for (const AsPath& path : paths) {
      core::PathMatch match = core::classify_path(p.model, sim, path, ids);
      if (match.kind == core::MatchKind::kRibOut) continue;
      if (++shown > cli.get_u64("max", 5)) return 0;
      std::printf("UNMATCHED origin=%u path=[%s] kind=%s\n", origin,
                  path.str().c_str(), core::match_kind_name(match.kind));
      const auto& hops = path.hops();
      // Walk from origin side and show where the chain breaks.
      for (std::size_t k = hops.size() - 1; k-- > 0;) {
        std::span<const Asn> route_path(hops.data() + k + 1,
                                        hops.size() - k - 1);
        bool rib_out = core::has_rib_out(p.model, sim, hops[k], route_path);
        std::printf("  AS %u (suffix len %zu): rib_out=%d\n", hops[k],
                    route_path.size(), rib_out);
        if (!rib_out) {
          std::printf("  --- state at AS %u:\n", hops[k]);
          dump_as(p.model, sim, hops[k]);
          // Also show the announcing neighbor.
          std::printf("  --- state at announcing AS %u:\n", hops[k + 1]);
          dump_as(p.model, sim, hops[k + 1]);
          // And print filters on sessions into this AS for this prefix.
          const topo::PrefixPolicy* pol =
              p.model.find_policy(nb::Prefix::for_asn(origin));
          if (pol != nullptr) {
            for (Model::Dense r : p.model.routers_of(hops[k])) {
              for (Model::Dense s : p.model.peers(r)) {
                const topo::ExportFilter* f =
                    p.model.find_export_filter(s, r, pol);
                if (f != nullptr) {
                  std::printf("    filter %s->%s deny<%u owner=%s\n",
                              p.model.router_id(s).str().c_str(),
                              p.model.router_id(r).str().c_str(),
                              f->deny_below_len, f->owner_target.str().c_str());
                }
              }
              const auto it = pol->rankings.find(p.model.router_id(r).value());
              if (it != pol->rankings.end()) {
                std::printf("    ranking at %s prefer AS %u\n",
                            p.model.router_id(r).str().c_str(),
                            it->second.preferred_neighbor);
              }
            }
          }
          break;
        }
      }
    }
  }
  std::printf("total unmatched shown: %zu\n", shown);
  return 0;
}

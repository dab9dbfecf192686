#include "core/predict.hpp"

namespace core {

EvalResult evaluate_predictions(
    const topo::Model& model, const data::BgpDataset& dataset,
    const EvalOptions& options,
    const std::function<void(nb::Asn, const topo::AsPath&, const PathMatch&)>&
        inspect) {
  EvalResult result;
  const auto by_origin = dataset.paths_by_origin();

  std::vector<bgp::SimJob> jobs;
  std::vector<const std::vector<topo::AsPath>*> job_paths;
  for (const auto& [origin, paths] : by_origin) {
    if (!model.has_as(origin)) {
      // Origin absent from the model (e.g. an unobserved stub): every path
      // toward it is unavailable by construction.
      auto& outcome = result.by_origin[origin];
      for (const topo::AsPath& path : paths) {
        PathMatch match;  // kNotAvailable
        result.stats.add(match);
        ++outcome.paths;
        if (inspect) inspect(origin, path, match);
      }
      result.stats.add_prefix_coverage(0, paths.size());
      continue;
    }
    jobs.push_back({nb::Prefix::for_asn(origin), origin});
    job_paths.push_back(&paths);
  }

  bgp::Engine engine(model, options.engine);
  // Tie-break ids come from the engine's per-epoch context instead of a
  // bespoke dense_ids pass; the shared_ptr keeps them alive past run_jobs.
  const std::shared_ptr<const bgp::SimContext> ctx = engine.context();
  const std::span<const std::uint32_t> ids = ctx->ids;
  bgp::ThreadPool pool(options.threads);
  bgp::run_jobs(engine, jobs, pool,
                [&](std::size_t j, const bgp::PrefixSimResult& sim) {
                  const auto& paths = *job_paths[j];
                  auto& outcome = result.by_origin[sim.origin];
                  std::size_t matched = 0;
                  for (const topo::AsPath& path : paths) {
                    PathMatch match = classify_path(model, sim, path, ids);
                    result.stats.add(match);
                    ++outcome.paths;
                    if (match.kind == MatchKind::kRibOut) {
                      ++matched;
                      ++outcome.rib_out;
                    }
                    if (inspect) inspect(sim.origin, path, match);
                  }
                  result.stats.add_prefix_coverage(matched, paths.size());
                });
  return result;
}

}  // namespace core

#include "data/observations.hpp"

#include <algorithm>
#include <unordered_set>

namespace data {

using topo::AsPath;

std::set<Asn> BgpDataset::observation_ases() const {
  std::set<Asn> out;
  for (const auto& point : points) out.insert(point.router.asn());
  return out;
}

std::size_t BgpDataset::multi_feed_ases() const {
  std::map<Asn, std::size_t> counts;
  for (const auto& point : points) ++counts[point.router.asn()];
  std::size_t multi = 0;
  for (auto& [asn, count] : counts)
    if (count > 1) ++multi;
  return multi;
}

std::vector<AsPath> BgpDataset::all_paths() const {
  std::vector<AsPath> out;
  out.reserve(records.size());
  for (const auto& record : records) out.push_back(record.path);
  return out;
}

std::map<Asn, std::vector<AsPath>> BgpDataset::paths_by_origin() const {
  std::map<Asn, std::set<AsPath>> sets;
  for (const auto& record : records) sets[record.origin].insert(record.path);
  std::map<Asn, std::vector<AsPath>> out;
  for (auto& [origin, paths] : sets) {
    std::vector<AsPath> list(paths.begin(), paths.end());
    std::stable_sort(list.begin(), list.end(),
                     [](const AsPath& a, const AsPath& b) {
                       if (a.length() != b.length())
                         return a.length() < b.length();
                       return a.hops() < b.hops();
                     });
    out[origin] = std::move(list);
  }
  return out;
}

std::size_t BgpDataset::as_pair_count() const {
  std::set<std::pair<Asn, Asn>> pairs;
  for (const auto& record : records)
    pairs.insert({record.origin, record.path.observer()});
  return pairs.size();
}

BgpDataset observe(const GroundTruth& gt, const Internet& net,
                   const ObservationConfig& config, bgp::ThreadPool& pool) {
  BgpDataset dataset;
  nb::Rng rng{config.seed};

  auto place = [&](const std::vector<Asn>& ases, double fraction) {
    for (Asn asn : ases) {
      if (!rng.chance(fraction)) continue;
      const auto& routers = gt.model.routers_of(asn);
      if (routers.empty()) continue;
      if (routers.size() > 1 && rng.chance(config.multi_point_prob)) {
        for (topo::Model::Dense r : routers)
          dataset.points.push_back({gt.model.router_id(r)});
      } else {
        topo::Model::Dense r =
            routers[rng.below(routers.size())];
        dataset.points.push_back({gt.model.router_id(r)});
      }
    }
  };
  place(net.tier1, config.frac_tier1);
  place(net.level2, config.frac_level2);
  place(net.level3, config.frac_level3);
  place(net.stubs_multi, config.frac_stub);
  place(net.stubs_single, config.frac_stub);

  // Record every feed's best route for every prefix (one per AS).
  bgp::Engine engine(gt.model, gt.config.engine_options());
  std::vector<bgp::SimJob> jobs = bgp::jobs_for_all_ases(gt.model);
  std::vector<std::pair<std::uint32_t, topo::Model::Dense>> feed_routers;
  for (std::uint32_t i = 0; i < dataset.points.size(); ++i)
    feed_routers.emplace_back(i, gt.model.dense(dataset.points[i].router));

  std::vector<std::vector<ObservedRecord>> per_job(jobs.size());
  bgp::run_jobs(engine, jobs, pool,
                [&](std::size_t j, const bgp::PrefixSimResult& result) {
                  auto& out = per_job[j];
                  for (auto& [index, dense] : feed_routers) {
                    const auto best = result.best_row(dense);
                    if (best == bgp::PrefixSimResult::kNoRow) continue;
                    const std::span<const Asn> path = result.path(best);
                    std::vector<Asn> hops;
                    hops.reserve(path.size() + 1);
                    hops.push_back(dataset.points[index].router.asn());
                    hops.insert(hops.end(), path.begin(), path.end());
                    out.push_back({index, result.origin,
                                   AsPath{std::move(hops)}});
                  }
                });
  for (auto& job_records : per_job)
    dataset.records.insert(dataset.records.end(), job_records.begin(),
                           job_records.end());
  return dataset;
}

BgpDataset reduce_stubs(const BgpDataset& dataset,
                        const std::set<Asn>& single_homed) {
  BgpDataset out;
  out.points = dataset.points;
  std::set<std::tuple<std::uint32_t, Asn, std::vector<Asn>>> seen;
  for (const auto& record : dataset.records) {
    if (record.path.has_loop()) continue;
    std::vector<Asn> hops = record.path.hops();
    while (hops.size() > 1 && single_homed.count(hops.back()))
      hops.pop_back();
    std::size_t begin = 0;
    while (begin + 1 < hops.size() && single_homed.count(hops[begin])) ++begin;
    hops.erase(hops.begin(), hops.begin() + static_cast<std::ptrdiff_t>(begin));
    if (hops.empty()) continue;
    // A self-observation at a removed stub carries no path information.
    if (hops.size() == 1 && single_homed.count(hops[0])) continue;
    Asn new_origin = hops.back();
    if (!seen.insert({record.point, new_origin, hops}).second) continue;
    out.records.push_back({record.point, new_origin, AsPath{std::move(hops)}});
  }
  return out;
}

namespace {

BgpDataset filter_records(const BgpDataset& dataset,
                          const std::function<bool(const ObservedRecord&)>& keep) {
  BgpDataset out;
  out.points = dataset.points;
  for (const auto& record : dataset.records)
    if (keep(record)) out.records.push_back(record);
  return out;
}

}  // namespace

DatasetSplit split_by_points(const BgpDataset& dataset,
                             const SplitConfig& config) {
  nb::Rng rng{config.seed};
  std::vector<char> in_training(dataset.points.size(), 0);
  for (std::size_t i = 0; i < dataset.points.size(); ++i)
    in_training[i] = rng.chance(config.training_fraction) ? 1 : 0;
  // Guarantee both sides are non-empty when possible.
  if (dataset.points.size() >= 2) {
    if (std::count(in_training.begin(), in_training.end(), 1) == 0)
      in_training[0] = 1;
    if (std::count(in_training.begin(), in_training.end(), 1) ==
        static_cast<std::ptrdiff_t>(in_training.size()))
      in_training[in_training.size() - 1] = 0;
  }
  DatasetSplit split;
  split.training = filter_records(dataset, [&](const ObservedRecord& r) {
    return in_training[r.point] != 0;
  });
  split.validation = filter_records(dataset, [&](const ObservedRecord& r) {
    return in_training[r.point] == 0;
  });
  return split;
}

DatasetSplit split_by_origins(const BgpDataset& dataset,
                              const SplitConfig& config) {
  nb::Rng rng{config.seed};
  std::set<Asn> origins;
  for (const auto& record : dataset.records) origins.insert(record.origin);
  std::set<Asn> training_origins;
  for (Asn origin : origins)
    if (rng.chance(config.training_fraction)) training_origins.insert(origin);
  if (!origins.empty()) {
    if (training_origins.empty()) training_origins.insert(*origins.begin());
    if (training_origins.size() == origins.size())
      training_origins.erase(*origins.rbegin());
  }
  DatasetSplit split;
  split.training = filter_records(dataset, [&](const ObservedRecord& r) {
    return training_origins.count(r.origin) > 0;
  });
  split.validation = filter_records(dataset, [&](const ObservedRecord& r) {
    return training_origins.count(r.origin) == 0;
  });
  return split;
}

}  // namespace data

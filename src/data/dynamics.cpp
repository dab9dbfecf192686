#include "data/dynamics.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "bgp/driver.hpp"
#include "netbase/strings.hpp"

namespace data {

using topo::AsPath;
using topo::Model;

std::size_t UpdateStream::announcements() const {
  std::size_t count = 0;
  for (const auto& update : updates)
    if (update.path.has_value()) ++count;
  return count;
}

std::size_t UpdateStream::withdrawals() const {
  return updates.size() - announcements();
}

BgpDataset UpdateStream::merge_into(const BgpDataset& base) const {
  BgpDataset merged;
  merged.points = base.points;
  std::set<std::tuple<std::uint32_t, Asn, std::vector<Asn>>> seen;
  for (const auto& record : base.records) {
    if (seen.insert({record.point, record.origin, record.path.hops()})
            .second) {
      merged.records.push_back(record);
    }
  }
  for (const auto& update : updates) {
    if (!update.path.has_value()) continue;
    if (seen.insert({update.point, update.origin, update.path->hops()})
            .second) {
      merged.records.push_back({update.point, update.origin, *update.path});
    }
  }
  return merged;
}

namespace {

// The base dataset's best path per (point, origin), for diffing.
std::map<std::pair<std::uint32_t, Asn>, std::vector<nb::Asn>> base_routes(
    const BgpDataset& base) {
  std::map<std::pair<std::uint32_t, Asn>, std::vector<nb::Asn>> out;
  for (const auto& record : base.records)
    out[{record.point, record.origin}] = record.path.hops();
  return out;
}

}  // namespace

UpdateStream simulate_session_failures(const GroundTruth& gt,
                                       const BgpDataset& base,
                                       const DynamicsConfig& config,
                                       bgp::ThreadPool& pool) {
  UpdateStream stream;
  nb::Rng rng{config.seed};

  // Candidate sessions: well-connected endpoints only, canonical order.
  std::vector<std::pair<nb::RouterId, nb::RouterId>> candidates;
  for (Model::Dense r = 0; r < gt.model.num_routers(); ++r) {
    if (gt.model.peers(r).size() < config.min_endpoint_peers) continue;
    for (Model::Dense peer : gt.model.peers(r)) {
      if (gt.model.peers(peer).size() < config.min_endpoint_peers) continue;
      nb::RouterId a = gt.model.router_id(r);
      nb::RouterId b = gt.model.router_id(peer);
      if (a < b) candidates.emplace_back(a, b);
    }
  }
  if (candidates.empty()) return stream;

  const auto baseline = base_routes(base);
  // Only monitors that contributed records to the base dump are live feeds
  // (a dataset's `points` vector may list monitors of other splits too).
  std::set<std::uint32_t> live_points;
  for (const auto& record : base.records) live_points.insert(record.point);
  std::vector<std::pair<std::uint32_t, Model::Dense>> feeds;
  for (std::uint32_t i = 0; i < base.points.size(); ++i) {
    if (live_points.count(i))
      feeds.emplace_back(i, gt.model.dense(base.points[i].router));
  }

  Model working = gt.model;  // mutated per event, restored afterwards
  bgp::Engine engine(working, gt.config.engine_options());
  std::vector<bgp::SimJob> jobs = bgp::jobs_for_all_ases(working);

  for (std::size_t e = 0; e < config.num_events; ++e) {
    auto [a, b] = candidates[rng.below(candidates.size())];
    stream.events.push_back({a, b});
    const auto event_index = static_cast<std::uint32_t>(stream.events.size() - 1);
    working.remove_session(a, b);

    std::vector<std::vector<UpdateRecord>> per_job(jobs.size());
    bgp::run_jobs(engine, jobs, pool,
                  [&](std::size_t j, const bgp::PrefixSimResult& sim) {
                    auto& out = per_job[j];
                    for (auto& [point, dense] : feeds) {
                      const auto best = sim.best_row(dense);
                      auto it = baseline.find({point, sim.origin});
                      const bool had = it != baseline.end();
                      if (best == bgp::PrefixSimResult::kNoRow) {
                        if (had)
                          out.push_back({event_index, point, sim.origin,
                                         std::nullopt});
                        continue;
                      }
                      const std::span<const nb::Asn> path = sim.path(best);
                      std::vector<nb::Asn> hops;
                      hops.reserve(path.size() + 1);
                      hops.push_back(base.points[point].router.asn());
                      hops.insert(hops.end(), path.begin(), path.end());
                      if (had && it->second == hops) continue;  // unchanged
                      out.push_back({event_index, point, sim.origin,
                                     AsPath{std::move(hops)}});
                    }
                  });
    for (auto& records : per_job)
      stream.updates.insert(stream.updates.end(), records.begin(),
                            records.end());
    working.add_session(a, b);  // restore for the next event
  }
  return stream;
}

void write_updates(std::ostream& out, const UpdateStream& stream) {
  out << "# route-diversity update stream v1\n";
  for (std::size_t e = 0; e < stream.events.size(); ++e) {
    out << "event " << e << " " << stream.events[e].a.str() << " "
        << stream.events[e].b.str() << "\n";
  }
  for (const auto& update : stream.updates) {
    out << "update " << update.event << " " << update.point << " "
        << update.origin << " ";
    if (update.path.has_value()) {
      out << update.path->str();
    } else {
      out << "withdrawn";
    }
    out << "\n";
  }
}

namespace {

bool fail(std::string* error, const std::string& message, std::size_t line) {
  if (error != nullptr)
    *error = "line " + std::to_string(line) + ": " + message;
  return false;
}

std::optional<nb::RouterId> parse_router(std::string_view text) {
  auto dot = text.find('.');
  if (dot == std::string_view::npos) return std::nullopt;
  auto asn = nb::parse_u64(text.substr(0, dot));
  auto index = nb::parse_u64(text.substr(dot + 1));
  if (!asn || !index || *asn > 0xffff || *index > 0xffff)
    return std::nullopt;
  return nb::RouterId{static_cast<Asn>(*asn),
                      static_cast<std::uint16_t>(*index)};
}

bool parse_into(std::istream& in, UpdateStream& stream, std::string* error) {
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text = nb::trim(line);
    if (text.empty() || text[0] == '#') continue;
    auto fields = nb::split_ws(text);
    if (fields[0] == "event") {
      if (fields.size() != 4)
        return fail(error, "event needs 3 fields", line_number);
      auto index = nb::parse_u64(fields[1]);
      auto a = parse_router(fields[2]);
      auto b = parse_router(fields[3]);
      if (!index || *index != stream.events.size() || !a || !b)
        return fail(error, "malformed event", line_number);
      stream.events.push_back({*a, *b});
    } else if (fields[0] == "update") {
      if (fields.size() < 5)
        return fail(error, "update needs at least 4 fields", line_number);
      auto event = nb::parse_u64(fields[1]);
      auto point = nb::parse_u64(fields[2]);
      auto origin = nb::parse_u64(fields[3]);
      if (!event || *event >= stream.events.size() || !point || !origin)
        return fail(error, "malformed update", line_number);
      UpdateRecord record;
      record.event = static_cast<std::uint32_t>(*event);
      record.point = static_cast<std::uint32_t>(*point);
      record.origin = static_cast<Asn>(*origin);
      if (fields.size() == 5 && fields[4] == "withdrawn") {
        record.path = std::nullopt;
      } else {
        std::vector<Asn> hops;
        for (std::size_t i = 4; i < fields.size(); ++i) {
          auto hop = nb::parse_u64(fields[i]);
          if (!hop) return fail(error, "malformed update path", line_number);
          hops.push_back(static_cast<Asn>(*hop));
        }
        if (hops.back() != record.origin)
          return fail(error, "update path must end at origin", line_number);
        record.path = AsPath{std::move(hops)};
      }
      stream.updates.push_back(std::move(record));
    } else {
      return fail(error, "unknown directive", line_number);
    }
  }
  return true;
}

}  // namespace

std::optional<UpdateStream> read_updates(std::istream& in,
                                         std::string* error) {
  UpdateStream stream;
  if (!parse_into(in, stream, error)) return std::nullopt;
  return stream;
}

}  // namespace data

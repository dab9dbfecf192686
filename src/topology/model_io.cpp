#include "topology/model_io.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "netbase/strings.hpp"

namespace topo {
namespace {

const char* class_name(NeighborClass cls) {
  switch (cls) {
    case NeighborClass::kCustomer:
      return "customer";
    case NeighborClass::kPeer:
      return "peer";
    case NeighborClass::kProvider:
      return "provider";
    case NeighborClass::kUnknown:
      return "unknown";
  }
  return "unknown";
}

std::optional<NeighborClass> class_from(std::string_view name) {
  if (name == "customer") return NeighborClass::kCustomer;
  if (name == "peer") return NeighborClass::kPeer;
  if (name == "provider") return NeighborClass::kProvider;
  if (name == "unknown") return NeighborClass::kUnknown;
  return std::nullopt;
}

std::optional<RouterId> parse_router(std::string_view text) {
  auto dot = text.find('.');
  if (dot == std::string_view::npos) return std::nullopt;
  auto asn = nb::parse_u64(text.substr(0, dot));
  auto index = nb::parse_u64(text.substr(dot + 1));
  if (!asn || !index || *asn > 0xffff || *index > 0xffff)
    return std::nullopt;
  return RouterId{static_cast<Asn>(*asn),
                  static_cast<std::uint16_t>(*index)};
}

}  // namespace

void write_model(std::ostream& out, const Model& model) {
  out << "model v1\n";
  out << "# routers=" << model.num_routers()
      << " sessions=" << model.num_sessions() << "\n";

  std::vector<RouterId> routers;
  routers.reserve(model.num_routers());
  for (Model::Dense r = 0; r < model.num_routers(); ++r)
    routers.push_back(model.router_id(r));
  std::sort(routers.begin(), routers.end());
  for (RouterId id : routers) out << "router " << id.str() << "\n";

  std::vector<std::pair<RouterId, RouterId>> sessions;
  for (Model::Dense r = 0; r < model.num_routers(); ++r) {
    for (Model::Dense peer : model.peers(r)) {
      RouterId a = model.router_id(r), b = model.router_id(peer);
      if (a < b) sessions.emplace_back(a, b);
    }
  }
  std::sort(sessions.begin(), sessions.end());
  for (auto& [a, b] : sessions)
    out << "session " << a.str() << " " << b.str() << "\n";

  for (auto& [receiver, sender, cost] : model.igp_costs())
    out << "igp " << receiver.str() << " " << sender.str() << " " << cost
        << "\n";

  for (auto& [pair, cls] : model.neighbor_classes()) {
    if (cls == NeighborClass::kUnknown) continue;
    out << "class " << pair.first << " " << pair.second << " "
        << class_name(cls) << "\n";
  }

  for (auto& [prefix, policy] : model.prefix_policies()) {
    std::vector<std::pair<std::uint64_t, ExportFilter>> filters(
        policy.filters.begin(), policy.filters.end());
    std::sort(filters.begin(), filters.end(),
              [](auto& x, auto& y) { return x.first < y.first; });
    for (auto& [key, filter] : filters) {
      RouterId from = RouterId::from_value(static_cast<std::uint32_t>(key >> 32));
      RouterId to = RouterId::from_value(static_cast<std::uint32_t>(key));
      out << "filter " << prefix.str() << " " << from.str() << " "
          << to.str() << " ";
      if (filter.deny_below_len == ExportFilter::kDenyAll) {
        out << "all";
      } else {
        out << filter.deny_below_len;
      }
      if (filter.owner_target.valid())
        out << " owner " << filter.owner_target.str();
      out << "\n";
    }
    std::vector<std::pair<std::uint32_t, RankingRule>> rankings(
        policy.rankings.begin(), policy.rankings.end());
    std::sort(rankings.begin(), rankings.end(),
              [](auto& x, auto& y) { return x.first < y.first; });
    for (auto& [router, rule] : rankings) {
      out << "ranking " << prefix.str() << " "
          << RouterId::from_value(router).str() << " "
          << rule.preferred_neighbor << "\n";
    }
    std::vector<std::pair<std::uint64_t, std::uint32_t>> lps(
        policy.lp_overrides.begin(), policy.lp_overrides.end());
    std::sort(lps.begin(), lps.end(),
              [](auto& x, auto& y) { return x.first < y.first; });
    for (auto& [key, lp] : lps) {
      RouterId router = RouterId::from_value(static_cast<std::uint32_t>(key >> 32));
      Asn neighbor = static_cast<Asn>(key & 0xffffffffu);
      out << "lp-override " << prefix.str() << " " << router.str() << " "
          << neighbor << " " << lp << "\n";
    }
    std::vector<std::uint64_t> allows(policy.export_allows.begin(),
                                      policy.export_allows.end());
    std::sort(allows.begin(), allows.end());
    for (std::uint64_t key : allows) {
      RouterId from = RouterId::from_value(static_cast<std::uint32_t>(key >> 32));
      RouterId to = RouterId::from_value(static_cast<std::uint32_t>(key));
      out << "export-allow " << prefix.str() << " " << from.str() << " "
          << to.str() << "\n";
    }
  }
}

std::string model_to_string(const Model& model) {
  std::ostringstream out;
  write_model(out, model);
  return out.str();
}

namespace {

bool fail(std::string* error, const std::string& message, std::size_t line) {
  if (error != nullptr)
    *error = "line " + std::to_string(line) + ": " + message;
  return false;
}

bool parse_into(std::istream& in, Model& model, std::string* error) {
  std::string line;
  std::size_t line_number = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text = nb::trim(line);
    if (text.empty() || text[0] == '#') continue;
    auto fields = nb::split_ws(text);
    const std::string_view directive = fields[0];

    if (directive == "model") {
      if (fields.size() != 2 || fields[1] != "v1")
        return fail(error, "unsupported model version", line_number);
      saw_header = true;
      continue;
    }
    if (!saw_header)
      return fail(error, "missing 'model v1' header", line_number);

    if (directive == "router") {
      auto id = fields.size() == 2 ? parse_router(fields[1]) : std::nullopt;
      if (!id) return fail(error, "malformed router", line_number);
      // Routers must be declared in per-AS index order.
      RouterId created = model.add_router(id->asn());
      if (created != *id)
        return fail(error, "router indices must be dense per AS",
                    line_number);
    } else if (directive == "session") {
      if (fields.size() != 3)
        return fail(error, "malformed session", line_number);
      auto a = parse_router(fields[1]);
      auto b = parse_router(fields[2]);
      if (!a || !b || !model.has_router(*a) || !model.has_router(*b))
        return fail(error, "malformed session", line_number);
      model.add_session(*a, *b);
    } else if (directive == "igp") {
      if (fields.size() != 4) return fail(error, "malformed igp", line_number);
      auto receiver = parse_router(fields[1]);
      auto sender = parse_router(fields[2]);
      auto cost = nb::parse_u64(fields[3]);
      if (!receiver || !sender || !cost || !model.has_router(*receiver) ||
          !model.has_router(*sender))
        return fail(error, "malformed igp", line_number);
      if (*cost > 0xffffffffu)
        return fail(error, "igp cost out of range", line_number);
      model.set_igp_cost(*receiver, *sender,
                         static_cast<std::uint32_t>(*cost));
    } else if (directive == "class") {
      if (fields.size() != 4)
        return fail(error, "malformed class", line_number);
      auto of = nb::parse_u64(fields[1]);
      auto neighbor = nb::parse_u64(fields[2]);
      auto cls = class_from(fields[3]);
      if (!of || !neighbor || !cls)
        return fail(error, "malformed class", line_number);
      if (*of >= nb::kInvalidAsn || *neighbor >= nb::kInvalidAsn)
        return fail(error, "class AS number out of range", line_number);
      model.set_neighbor_class(static_cast<Asn>(*of),
                               static_cast<Asn>(*neighbor), *cls);
    } else if (directive == "filter") {
      if (fields.size() != 5 && fields.size() != 7)
        return fail(error, "malformed filter", line_number);
      auto prefix = nb::Prefix::parse(fields[1]);
      auto from = parse_router(fields[2]);
      auto to = parse_router(fields[3]);
      std::uint32_t deny = 0;
      if (fields[4] == "all") {
        deny = ExportFilter::kDenyAll;
      } else if (auto value = nb::parse_u64(fields[4]); value) {
        // kDenyAll is reserved for the "all" keyword; larger values would
        // silently truncate through the uint32_t cast.
        if (*value >= ExportFilter::kDenyAll)
          return fail(error, "filter threshold out of range", line_number);
        deny = static_cast<std::uint32_t>(*value);
      } else {
        return fail(error, "malformed filter threshold", line_number);
      }
      RouterId owner = nb::kInvalidRouterId;
      if (fields.size() == 7) {
        if (fields[5] != "owner")
          return fail(error, "malformed filter owner", line_number);
        auto parsed = parse_router(fields[6]);
        if (!parsed) return fail(error, "malformed filter owner", line_number);
        owner = *parsed;
      }
      if (!prefix || !from || !to)
        return fail(error, "malformed filter", line_number);
      model.set_export_filter(*from, *to, *prefix, deny, owner);
    } else if (directive == "ranking") {
      if (fields.size() != 4)
        return fail(error, "malformed ranking", line_number);
      auto prefix = nb::Prefix::parse(fields[1]);
      auto router = parse_router(fields[2]);
      auto preferred = nb::parse_u64(fields[3]);
      if (!prefix || !router || !preferred)
        return fail(error, "malformed ranking", line_number);
      if (*preferred >= nb::kInvalidAsn)
        return fail(error, "ranking AS number out of range", line_number);
      model.set_ranking(*router, *prefix, static_cast<Asn>(*preferred));
    } else if (directive == "lp-override") {
      if (fields.size() != 5)
        return fail(error, "malformed lp-override", line_number);
      auto prefix = nb::Prefix::parse(fields[1]);
      auto router = parse_router(fields[2]);
      auto neighbor = nb::parse_u64(fields[3]);
      auto lp = nb::parse_u64(fields[4]);
      if (!prefix || !router || !neighbor || !lp)
        return fail(error, "malformed lp-override", line_number);
      if (*neighbor >= nb::kInvalidAsn || *lp > 0xffffffffu)
        return fail(error, "lp-override value out of range", line_number);
      model.set_lp_override(*router, *prefix, static_cast<Asn>(*neighbor),
                            static_cast<std::uint32_t>(*lp));
    } else if (directive == "export-allow") {
      if (fields.size() != 4)
        return fail(error, "malformed export-allow", line_number);
      auto prefix = nb::Prefix::parse(fields[1]);
      auto from = parse_router(fields[2]);
      auto to = parse_router(fields[3]);
      if (!prefix || !from || !to)
        return fail(error, "malformed export-allow", line_number);
      model.set_export_allow(*from, *to, *prefix);
    } else {
      return fail(error, "unknown directive", line_number);
    }
  }
  if (!saw_header) return fail(error, "empty input", line_number);
  return true;
}

}  // namespace

std::optional<Model> read_model(std::istream& in, std::string* error) {
  Model model;
  if (!parse_into(in, model, error)) return std::nullopt;
  return model;
}

std::optional<Model> model_from_string(const std::string& text,
                                       std::string* error) {
  std::istringstream in(text);
  return read_model(in, error);
}

// ---- refinement checkpoints -------------------------------------------------

namespace {

std::string hex16(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> parse_hex64(std::string_view text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
  }
  return value;
}

bool known_prefix_state(std::string_view state) {
  return state == "active" || state == "converged" ||
         state == "oscillating" || state == "budget-exhausted";
}

}  // namespace

void write_refine_checkpoint(std::ostream& out, const RefineCheckpoint& ck) {
  out << "refine-checkpoint v1\n";
  out << "iteration " << ck.iteration << "\n";
  out << "dataset-hash " << hex16(ck.dataset_hash) << "\n";
  out << "messages " << ck.messages_simulated << "\n";
  out << "edits " << ck.routers_added << " " << ck.policies_changed << " "
      << ck.filters_relaxed << "\n";
  for (const PrefixCheckpointState& p : ck.prefixes) {
    out << "prefix " << p.origin << " " << p.state << " " << p.matched << " "
        << p.paths_total << " " << p.active_iterations << " "
        << p.frozen_iteration << " " << p.best_matched << " " << p.hits << " ";
    if (p.freeze_pending) {
      out << p.freeze_countdown;
    } else {
      out << "-";
    }
    out << "\n";
    if (!p.fingerprints.empty()) {
      out << "fp " << p.origin;
      for (std::uint64_t fp : p.fingerprints) out << " " << hex16(fp);
      out << "\n";
    }
  }
  write_model(out, ck.model);
  // Explicit trailer: the model section has no length prefix, so without it
  // a truncation that drops trailing policy lines would still parse -- as a
  // silently wrong model.  The trailer makes every proper-prefix cut of a
  // checkpoint file a detectable error.
  out << "end refine-checkpoint\n";
}

std::optional<RefineCheckpoint> read_refine_checkpoint(std::istream& in,
                                                       std::string* error) {
  RefineCheckpoint ck;
  std::string line;
  std::size_t line_number = 0;
  bool saw_header = false;
  bool saw_iteration = false;
  bool saw_hash = false;
  auto bad = [&](const std::string& message) {
    fail(error, message, line_number);
    return std::optional<RefineCheckpoint>();
  };
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text = nb::trim(line);
    if (text.empty() || text[0] == '#') continue;
    auto fields = nb::split_ws(text);
    const std::string_view directive = fields[0];

    if (directive == "refine-checkpoint") {
      if (fields.size() != 2 || fields[1] != "v1")
        return bad("unsupported checkpoint version");
      saw_header = true;
      continue;
    }
    if (!saw_header)
      return bad("missing 'refine-checkpoint v1' header");

    if (directive == "iteration") {
      auto value = fields.size() == 2 ? nb::parse_u64(fields[1]) : std::nullopt;
      if (!value) return bad("malformed iteration");
      ck.iteration = static_cast<std::size_t>(*value);
      saw_iteration = true;
    } else if (directive == "dataset-hash") {
      auto value = fields.size() == 2 ? parse_hex64(fields[1]) : std::nullopt;
      if (!value || fields[1].size() != 16)
        return bad("malformed dataset-hash");
      ck.dataset_hash = *value;
      saw_hash = true;
    } else if (directive == "messages") {
      auto value = fields.size() == 2 ? nb::parse_u64(fields[1]) : std::nullopt;
      if (!value) return bad("malformed messages");
      ck.messages_simulated = *value;
    } else if (directive == "edits") {
      if (fields.size() != 4) return bad("edits needs 3 fields");
      auto routers = nb::parse_u64(fields[1]);
      auto policies = nb::parse_u64(fields[2]);
      auto filters = nb::parse_u64(fields[3]);
      if (!routers || !policies || !filters) return bad("malformed edits");
      ck.routers_added = static_cast<std::size_t>(*routers);
      ck.policies_changed = static_cast<std::size_t>(*policies);
      ck.filters_relaxed = static_cast<std::size_t>(*filters);
    } else if (directive == "prefix") {
      if (fields.size() != 10) return bad("prefix needs 9 fields");
      auto origin = nb::parse_u64(fields[1]);
      if (!origin || *origin >= nb::kInvalidAsn)
        return bad("malformed prefix origin");
      if (!known_prefix_state(fields[2]))
        return bad("unknown prefix state");
      auto matched = nb::parse_u64(fields[3]);
      auto paths = nb::parse_u64(fields[4]);
      auto active = nb::parse_u64(fields[5]);
      auto frozen = nb::parse_u64(fields[6]);
      auto best = nb::parse_u64(fields[7]);
      auto hits = nb::parse_u64(fields[8]);
      if (!matched || !paths || !active || !frozen || !best || !hits)
        return bad("malformed prefix state");
      PrefixCheckpointState p;
      p.origin = static_cast<nb::Asn>(*origin);
      p.state = std::string(fields[2]);
      p.matched = static_cast<std::size_t>(*matched);
      p.paths_total = static_cast<std::size_t>(*paths);
      p.active_iterations = static_cast<std::size_t>(*active);
      p.frozen_iteration = static_cast<std::size_t>(*frozen);
      p.best_matched = static_cast<std::size_t>(*best);
      p.hits = static_cast<std::size_t>(*hits);
      if (fields[9] == "-") {
        p.freeze_pending = false;
      } else {
        auto countdown = nb::parse_u64(fields[9]);
        if (!countdown) return bad("malformed freeze countdown");
        p.freeze_pending = true;
        p.freeze_countdown = static_cast<std::size_t>(*countdown);
      }
      if (p.matched > p.paths_total)
        return bad("matched exceeds path count");
      for (const PrefixCheckpointState& prev : ck.prefixes) {
        if (prev.origin == p.origin)
          return bad("duplicate prefix origin");
      }
      ck.prefixes.push_back(std::move(p));
    } else if (directive == "fp") {
      if (fields.size() < 3) return bad("fp needs at least 2 fields");
      auto origin = nb::parse_u64(fields[1]);
      if (!origin) return bad("malformed fp origin");
      PrefixCheckpointState* target = nullptr;
      for (PrefixCheckpointState& p : ck.prefixes) {
        if (p.origin == static_cast<nb::Asn>(*origin)) target = &p;
      }
      if (target == nullptr)
        return bad("fp references undeclared prefix");
      if (!target->fingerprints.empty())
        return bad("duplicate fp line for prefix");
      for (std::size_t i = 2; i < fields.size(); ++i) {
        auto fp = parse_hex64(fields[i]);
        if (!fp || fields[i].size() != 16)
          return bad("malformed fingerprint");
        target->fingerprints.push_back(*fp);
      }
    } else if (directive == "model") {
      // The rest of the stream (this line included) is a standard model
      // section; hand it to the model parser and remap error lines to
      // absolute positions in the checkpoint file.
      std::ostringstream rest;
      rest << line << "\n" << in.rdbuf();
      std::string model_text = std::move(rest).str();
      // The trailer must be the final line, exactly; anything else means
      // the file was cut off inside the model section.
      constexpr std::string_view kTrailer = "end refine-checkpoint\n";
      if (model_text.size() < kTrailer.size() ||
          std::string_view(model_text).substr(model_text.size() -
                                              kTrailer.size()) != kTrailer)
        return bad("checkpoint truncated in model section (missing trailer)");
      model_text.resize(model_text.size() - kTrailer.size());
      std::string model_error;
      auto model = model_from_string(model_text, &model_error);
      if (!model) {
        std::size_t relative = 0;
        if (model_error.rfind("line ", 0) == 0) {
          auto end = model_error.find(':');
          auto value = end == std::string::npos
                           ? std::nullopt
                           : nb::parse_u64(std::string_view(model_error)
                                               .substr(5, end - 5));
          if (value) {
            relative = static_cast<std::size_t>(*value);
            model_error = "model section " + model_error.substr(0, 5) +
                          std::to_string(line_number - 1 + relative) +
                          model_error.substr(end);
          }
        }
        if (relative == 0) model_error = "model section: " + model_error;
        if (error != nullptr) *error = model_error;
        return std::nullopt;
      }
      if (!saw_iteration || !saw_hash)
        return bad("checkpoint missing iteration or dataset-hash");
      ck.model = std::move(*model);
      return ck;
    } else {
      return bad("unknown directive");
    }
  }
  if (!saw_header) return bad("empty input");
  return bad("checkpoint truncated before model section");
}

bool save_refine_checkpoint(const std::string& path,
                            const RefineCheckpoint& checkpoint,
                            std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = "cannot open " + tmp + " for writing";
      return false;
    }
    write_refine_checkpoint(out, checkpoint);
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      if (error != nullptr) *error = "short write to " + tmp;
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "cannot rename " + tmp + " to " + path;
    return false;
  }
  return true;
}

std::optional<RefineCheckpoint> load_refine_checkpoint(const std::string& path,
                                                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return read_refine_checkpoint(in, error);
}

}  // namespace topo

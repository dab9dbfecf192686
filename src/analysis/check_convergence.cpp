#include "analysis/check_convergence.hpp"

#include <set>
#include <string>

#include "bgp/decision.hpp"

namespace analysis {
namespace {

using bgp::PrefixSimResult;
using bgp::Route;
using bgp::RouterState;
using nb::Asn;
using topo::Model;

std::string router_loc(const Model& model, Model::Dense r) {
  return "router " + model.router_id(r).str();
}

bool same_attributes(const Route& a, const Route& b) {
  return a.path == b.path && a.local_pref == b.local_pref && a.med == b.med &&
         a.igp_cost == b.igp_cost;
}

class Checker {
 public:
  Checker(const bgp::Engine& engine, const PrefixSimResult& result,
          const ConvergenceOptions& options)
      : engine_(engine),
        model_(engine.model()),
        result_(result),
        options_(options) {}

  Diagnostics run() {
    // The result holds one state per router of the model at run time.
    if (result_.routers.size() != model_.num_routers()) {
      error(codes::kSimStale, "simulation",
            "result covers " + std::to_string(result_.routers.size()) +
                " routers but the model now has " +
                std::to_string(model_.num_routers()) +
                " (model mutated after the run)");
      return std::move(out_);
    }
    if (!result_.converged) {
      error(codes::kSimNotConverged, "simulation",
            "divergence guard tripped: " + std::to_string(result_.messages) +
                " messages exceeded the cap of " +
                std::to_string(result_.message_cap) + " after " +
                std::to_string(result_.activations) +
                " router activations; RIB state is mid-flight");
      return std::move(out_);
    }
    ctx_ = engine_.context();  // shared per-epoch ids, no per-check rebuild
    ids_ = ctx_->ids;
    for (Model::Dense r = 0; r < result_.routers.size(); ++r)
      check_router(r);
    if (options_.check_fixed_point) check_fixed_point();
    return std::move(out_);
  }

 private:
  void error(const char* code, std::string location, std::string message) {
    out_.push_back(Diagnostic{Severity::kError, code, std::move(location),
                              std::move(message)});
  }

  void check_router(Model::Dense r) {
    const RouterState& state = result_.routers[r];
    const Asn own_as = model_.router_id(r).asn();
    const int size = static_cast<int>(state.rib_in.size());
    const std::string loc = router_loc(model_, r);

    if (state.best < -1 || state.best >= size) {
      error(codes::kBestIndexInvalid, loc,
            "best index " + std::to_string(state.best) + " outside RIB-In of " +
                std::to_string(size) + " entries");
      return;
    }
    if (state.best_external < -1 || state.best_external >= size) {
      error(codes::kBestIndexInvalid, loc,
            "best_external index " + std::to_string(state.best_external) +
                " outside RIB-In of " + std::to_string(size) + " entries");
      return;
    }
    if (!engine_.options().use_ibgp_mesh &&
        state.best_external != state.best) {
      error(codes::kBestExternalInvalid, loc,
            "best_external diverges from best outside ibgp-mesh mode");
    }
    if (const Route* external = state.external_route();
        external != nullptr && external->ibgp) {
      error(codes::kBestExternalInvalid, loc,
            "best_external selects an iBGP-learned route");
    }

    if (bgp::select_best(state.rib_in, ids_) != state.best) {
      error(codes::kBestNotWinning, loc,
            "installed best does not win the decision process against the "
            "current candidates");
    }

    std::set<std::uint32_t> senders;
    for (const Route& entry : state.rib_in) {
      if (!senders.insert(entry.sender).second) {
        error(codes::kRibInDuplicateSender, loc,
              "two RIB-In entries from announcing router index " +
                  std::to_string(entry.sender));
      }
      check_entry(r, own_as, entry);
    }

    const bool is_origin = own_as == result_.origin && model_.has_as(own_as);
    if (is_origin) {
      const Route* best = state.best_route();
      if (best == nullptr || !best->originated() || best->sender != r) {
        error(codes::kOriginNotOriginating, loc,
              "origin-AS router does not select its self-originated route");
      }
    }
  }

  void check_entry(Model::Dense r, Asn own_as, const Route& entry) {
    const std::string loc = router_loc(model_, r);
    if (entry.sender >= model_.num_routers()) {
      error(codes::kRibInUnknownSender, loc,
            "RIB-In entry from dead router index " +
                std::to_string(entry.sender));
      return;
    }
    const Model::Dense sender = entry.sender;
    if (sender == r) {
      if (own_as != result_.origin || !entry.originated()) {
        error(codes::kRibInUnknownSender, loc,
              "self-announced entry at a non-origin router");
      }
    } else if (entry.ibgp) {
      const bool mate = model_.router_id(sender).asn() == own_as;
      if (!engine_.options().use_ibgp_mesh || !mate) {
        error(codes::kRibInUnknownSender, loc,
              "iBGP entry from " + model_.router_id(sender).str() +
                  " outside an ibgp-mesh AS");
      }
    } else if (!model_.has_session(model_.router_id(r),
                                   model_.router_id(sender))) {
      error(codes::kRibInUnknownSender, loc,
            "entry from " + model_.router_id(sender).str() +
                " without a session");
    }
    // AS-loop freedom: the stored path never revisits an AS and never
    // contains the storing router's own AS.
    std::set<Asn> seen;
    for (Asn hop : entry.path) {
      if (hop == own_as || !seen.insert(hop).second) {
        error(codes::kAsLoop, loc,
              "RIB-In path from " + model_.router_id(sender).str() +
                  " loops through AS " + std::to_string(hop));
        break;
      }
    }
  }

  void check_fixed_point() {
    const topo::PrefixPolicy* policy = model_.find_policy(result_.prefix);
    for (Model::Dense r = 0; r < result_.routers.size(); ++r) {
      const Route* best = result_.routers[r].best_route();
      for (Model::Dense peer : model_.peers(r)) {
        if (peer >= result_.routers.size()) continue;  // linter territory
        std::optional<Route> expected;
        if (best != nullptr)
          expected = engine_.propagate(*ctx_, policy, r, peer, *best);
        compare_adjacency(r, peer, /*ibgp=*/false, expected);
      }
      if (engine_.options().use_ibgp_mesh) check_mesh_adjacencies(r);
    }
  }

  void check_mesh_adjacencies(Model::Dense r) {
    const Route* external = result_.routers[r].external_route();
    for (Model::Dense mate :
         model_.routers_of(model_.router_id(r).asn())) {
      if (mate == r || mate >= result_.routers.size()) continue;
      std::optional<Route> expected;
      if (external != nullptr) {
        Route shared = *external;
        shared.sender = r;
        shared.ibgp = true;
        shared.igp_cost = engine_.options().use_igp_cost
                              ? model_.igp_cost(mate, r)
                              : 0;
        expected = std::move(shared);
      }
      compare_adjacency(r, mate, /*ibgp=*/true, expected);
    }
  }

  /// The stability core: the stored entry at `to` from announcer `from` must
  /// equal what one more propagation step would deliver right now.
  void compare_adjacency(Model::Dense from, Model::Dense to, bool ibgp,
                         const std::optional<Route>& expected) {
    const RouterState& state = result_.routers[to];
    const Route* actual = nullptr;
    for (const Route& entry : state.rib_in) {
      if (entry.sender == from && entry.ibgp == ibgp && from != to) {
        actual = &entry;
        break;
      }
    }
    const std::string loc = "adjacency " + model_.router_id(from).str() +
                            "->" + model_.router_id(to).str();
    if (expected.has_value() && actual == nullptr) {
      error(codes::kRibInStale, loc,
            "announcer's best route is missing from the receiver's RIB-In "
            "(a message is still pending)");
    } else if (!expected.has_value() && actual != nullptr) {
      error(codes::kRibInStale, loc,
            "RIB-In holds a route the announcer would no longer advertise");
    } else if (expected.has_value() && actual != nullptr &&
               !same_attributes(*expected, *actual)) {
      error(codes::kRibInStale, loc,
            "stored route differs from a fresh propagation of the "
            "announcer's best");
    }
  }

  const bgp::Engine& engine_;
  const Model& model_;
  const PrefixSimResult& result_;
  const ConvergenceOptions& options_;
  std::shared_ptr<const bgp::SimContext> ctx_;
  std::span<const std::uint32_t> ids_;
  Diagnostics out_;
};

}  // namespace

Diagnostics check_convergence(const bgp::Engine& engine,
                              const bgp::PrefixSimResult& result,
                              const ConvergenceOptions& options) {
  return Checker(engine, result, options).run();
}

}  // namespace analysis

// Steady-state, per-prefix BGP route propagation over a quasi-router model --
// the functional equivalent of C-BGP as the paper uses it (Section 4.1):
// "C-BGP only computes the steady-state choice of the BGP routers after the
// exchange of the BGP messages has converged", supporting multiple routers
// per AS, eBGP sessions, route filters and policies.
//
// The engine runs one prefix at a time (route decisions are independent per
// prefix), which is also how the paper's refinement loop consumes it.
//
// Mechanics: the origin AS's routers originate the prefix; a FIFO queue of
// "dirty" routers propagates best-route changes over sessions.  Export
// applies (a) the valley-free relationship rule when relationship policies
// are enabled (Section 3.3 baseline / ground truth) and (b) per-prefix
// deny-below-length filters (refinement).  Import applies receiver-side
// AS-loop detection, local-pref (relationship class or per-prefix override)
// and the per-prefix MED ranking.  Everything that depends only on the
// session is resolved once per prefix into a PrefixView, which the one
// simulation loop (run_into) walks.  Determinism: peers are visited in
// router-id order and the queue is FIFO, so results are reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "bgp/decision.hpp"
#include "bgp/route.hpp"
#include "netbase/ids.hpp"
#include "netbase/ip.hpp"
#include "topology/model.hpp"

namespace bgp {

using nb::Prefix;
using topo::Model;

struct EngineOptions {
  /// Apply relationship-based local-pref and valley-free export rules
  /// (Section 3.3 baseline and the ground-truth network).
  bool use_relationship_policies = false;
  /// Apply per-session IGP costs in the decision process (hot-potato step;
  /// used by the ground truth to create intra-AS route diversity).
  bool use_igp_cost = false;
  /// Connect the routers of each AS with an implicit full iBGP mesh: every
  /// router shares its best EXTERNAL route with its AS-mates (no
  /// re-advertisement of iBGP-learned routes), and the decision process
  /// prefers eBGP over iBGP.  This is the alternative the paper REJECTED in
  /// Section 4.6 ("extremely difficult to control route selection");
  /// bench_ibgp_mesh reproduces why.
  bool use_ibgp_mesh = false;

  std::uint32_t lp_customer = 130;
  std::uint32_t lp_peer = 100;
  std::uint32_t lp_provider = 80;
  std::uint32_t lp_unknown = 100;

  /// Message-processing cap = factor * max(#sessions, 1); exceeding it marks
  /// the run non-converged (divergence guard; see paper Section 4.6 on why
  /// local-pref games can diverge -- our policies cannot, but the guard stays).
  std::uint64_t message_cap_factor = 512;
};

/// Per-router outcome of a prefix simulation.
struct RouterState {
  /// Adj-RIB-In after import processing; at most one entry per announcing
  /// router.  Includes the self-originated route at origin routers and,
  /// in ibgp-mesh mode, one iBGP entry per AS-mate.
  std::vector<Route> rib_in;
  /// Index of the best route in rib_in, -1 if none.
  int best = -1;
  /// Index of the best non-iBGP route (== best unless ibgp-mesh mode).
  int best_external = -1;

  const Route* best_route() const {
    return best < 0 ? nullptr : &rib_in[static_cast<std::size_t>(best)];
  }
  const Route* external_route() const {
    return best_external < 0
               ? nullptr
               : &rib_in[static_cast<std::size_t>(best_external)];
  }
};

/// Per-prefix simulation view (Engine::identity_view): every router of the
/// model with its adjacency flattened, and every attribute that depends
/// only on (prefix, session) resolved once -- export filter threshold,
/// valley-free gate, local-pref, MED ranking and IGP cost -- so
/// Engine::run_into never probes a policy map per message.  Slots are
/// dense router indices.  See DESIGN.md section 12.
struct PrefixView {
  std::uint64_t epoch = 0;  // Model::generation() the view was built from
  Prefix prefix;
  nb::Asn origin = nb::kInvalidAsn;

  /// One directed session with its import attributes pre-resolved for
  /// this prefix (receiver side, routes from the sender's AS).  Kept at
  /// 16 bytes: the view holds one per directed session.
  struct Edge {
    std::uint32_t to = 0;              // dense receiver index
    std::uint32_t deny_below_len = 0;  // 0: no filter; kDenyAll drops all
    std::uint32_t local_pref = kDefaultLocalPref;
    /// The receiver ranks the sender's AS first (per-prefix ranking, else
    /// its default ranking): MED kPreferredMed instead of kDefaultMed.
    bool preferred = false;
    /// Valley-free export gate (relationship policies): the receiver is a
    /// peer or provider of the sender and no export-allow exempts the
    /// session, so only routes learned from a customer (or originated)
    /// cross it.  The route-dependent half is checked per activation.
    bool customer_routes_only = false;
  };
  /// edge_offset[r] .. edge_offset[r+1] delimit router r's out-edges in
  /// `edges`, in Model::peers order.
  std::vector<std::uint32_t> edge_offset;
  std::vector<Edge> edges;
  /// EngineOptions::use_igp_cost only: the IGP cost of each edge (parallel
  /// to `edges`); empty otherwise.
  std::vector<std::uint32_t> edge_igp;
  /// An AS-mate of an iBGP-mesh router and the IGP cost it assigns to
  /// routes pushed from that router.
  struct Mate {
    std::uint32_t to = 0;  // dense index
    std::uint32_t igp_cost = 0;
  };
  /// EngineOptions::use_ibgp_mesh only: mate_offset[r] .. mate_offset[r+1]
  /// delimit router r's AS-mates in `mates` (Model::routers_of order); all
  /// zero otherwise.
  std::vector<std::uint32_t> mate_offset;
  std::vector<Mate> mates;

  /// Number of routers (slots) the view covers.
  std::size_t size() const { return edge_offset.size() - 1; }
};

struct PrefixSimResult {
  Prefix prefix;
  nb::Asn origin = nb::kInvalidAsn;
  /// Per-router outcomes, indexed by dense router index (the model's
  /// router count at run time).
  std::vector<RouterState> routers;
  bool converged = true;
  std::uint64_t messages = 0;
  /// Router wake-ups processed (always filled, with or without SimCounters):
  /// together with `messages` and `message_cap` this makes a divergence-
  /// guard trip a structured outcome callers can report, not a silent
  /// partial RIB (core/refine emits R701, check_convergence C401).
  std::uint64_t activations = 0;
  /// The divergence-guard threshold this run used
  /// (EngineOptions::message_cap_factor x max(#sessions, 1)).
  std::uint64_t message_cap = 0;
};

/// Optional hot-loop instrumentation for the obs layer, filled by run()
/// when a non-null pointer is passed.  Pure observation: the counts are
/// accumulated in locals either way (a handful of register increments per
/// message) and only stored through the pointer at the end, so passing or
/// omitting the struct never changes routing decisions, message order or
/// the resulting RIBs.
struct SimCounters {
  std::uint64_t messages = 0;     // == PrefixSimResult::messages
  /// Queue pops, i.e. router wake-ups; activations / routers reached is
  /// the mean number of convergence rounds a router needed.
  std::uint64_t activations = 0;
  std::uint64_t rib_inserts = 0;       // Adj-RIB-In entries created
  std::uint64_t rib_replacements = 0;  // entries updated in place
  std::uint64_t withdrawals = 0;       // entries erased
  /// Reselections that changed the (external) best and forced
  /// re-advertisement -- the engine's churn measure.
  std::uint64_t selection_changes = 0;

  /// Adj-RIB-In entries alive at convergence (inserts minus withdrawals).
  std::uint64_t rib_entries() const { return rib_inserts - withdrawals; }
};

/// Maps dense index -> router-id value for tie-breaking and reporting.
std::vector<std::uint32_t> dense_ids(const Model& model);

/// Reusable struct-of-arrays run storage (sim_memory.hpp).
class SimMemory;

/// Model-derived state every run() against the same model version shares:
/// dense router ids, per-router AS numbers, the per-router peer lists
/// flattened into one contiguous span array and the model-only attributes
/// of each of those sessions.  Built once per model epoch
/// (Model::generation()) instead of per run() call, and immutable once
/// published, so concurrent simulations can share a single instance.
struct SimContext {
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> ids;  // dense index -> router-id value
  std::vector<nb::Asn> asn_of;     // dense index -> owning AS
  /// peer_offset[r] .. peer_offset[r+1] delimit r's peers in peer_flat,
  /// ascending by RouterId (same order as Model::peers).
  std::vector<std::uint32_t> peer_offset;
  std::vector<Model::Dense> peer_flat;
  /// Per directed session (parallel to peer_flat: entry k is the session
  /// from r to peer_flat[k]), the import attributes that depend on the
  /// model alone, resolved once per epoch so every view of that epoch
  /// copies them instead of probing the model per prefix.  Relationship
  /// policies: the receiver's local-pref for the sender's class
  /// (session_lp) and whether the receiver is the sender's peer or
  /// provider (session_gated, the valley-free gate before per-prefix
  /// export-allows).  IGP costs: session_igp.  Empty when the option is off.
  std::vector<std::uint32_t> session_lp;
  std::vector<char> session_gated;
  std::vector<std::uint32_t> session_igp;

  std::span<const Model::Dense> peers(Model::Dense r) const {
    return {peer_flat.data() + peer_offset[r],
            peer_offset[r + 1] - peer_offset[r]};
  }
};

class Engine {
 public:
  explicit Engine(const Model& model, EngineOptions options = {});

  /// Simulates propagation of `prefix` originated by all routers of
  /// `origin` over the identity view, in a temporary arena -- the
  /// allocating convenience around run_into.  Re-reads the model on every
  /// call, so model mutations between calls (refinement) are picked up.
  PrefixSimResult run(const Prefix& prefix, nb::Asn origin,
                      SimCounters* counters = nullptr,
                      std::vector<char>* activated = nullptr) const;

  /// The simulation loop.  Propagates `view.prefix` from `view.origin`
  /// over every router; `memory` supplies every per-run buffer (and keeps
  /// them for the next call -- a sweep reuses one instance per worker),
  /// `out` is overwritten with the result and its rib_in / path capacities
  /// are likewise recycled.  The view must come from identity_view against
  /// the model's CURRENT generation and need only outlive the call.
  /// `counters`, when non-null, receives hot-loop instrumentation (see
  /// SimCounters).  `activated`, when non-null, is resized to the router
  /// count and flags every dense index the run popped off the dirty queue
  /// -- the dynamic ground truth the static working set
  /// (analysis/workset.hpp) must over-approximate.  Both are pure
  /// observation: the result is bit-for-bit the same with or without them,
  /// and for any SimMemory history.
  void run_into(const PrefixView& view, SimMemory& memory,
                SimCounters* counters, std::vector<char>* activated,
                PrefixSimResult& out) const;

  /// Compiles the simulation view of (prefix, origin) for the model's
  /// CURRENT generation, resolving every per-session attribute under this
  /// engine's options.
  PrefixView identity_view(const Prefix& prefix, nb::Asn origin) const;

  /// The simulation context for the model's CURRENT generation, (re)building
  /// it if the model mutated since the last call.  Thread-safe: concurrent
  /// run() calls against an unmutated model share one immutable context.
  /// (Mutating the model while a simulation is in flight was never legal;
  /// the epoch cache does not change that contract.)
  std::shared_ptr<const SimContext> context() const;

  /// One hop of propagation in isolation: the route `to` would install if
  /// `from` advertised `best` over their session right now, or nullopt when
  /// export rules, filters or loop detection drop it.  This is the
  /// reference semantics the per-edge resolution in identity_view and the
  /// run_into loop must reproduce; analysis::check_convergence replays it
  /// per session to prove a simulation result is a fixed point.
  std::optional<Route> propagate(const topo::PrefixPolicy* policy,
                                 Model::Dense from, Model::Dense to,
                                 const Route& best) const;
  /// propagate() against a context the caller already holds (context() of
  /// the model's current generation): the same route, without the
  /// per-call context lookup, whose mutex and shared reference count
  /// serialize concurrent callers -- hot analyzers (route_space, the
  /// convergence replay) take the context once and call this.
  std::optional<Route> propagate(const SimContext& ctx,
                                 const topo::PrefixPolicy* policy,
                                 Model::Dense from, Model::Dense to,
                                 const Route& best) const;

  const Model& model() const { return *model_; }
  const EngineOptions& options() const { return options_; }

 private:
  /// The implementation behind propagate(): export gating (valley-free
  /// rule, filters), receiver-side loop detection, and import attribute
  /// rewrite, writing the resulting route into `out`.  The advertised best
  /// route enters as its AS-path alone (`best_path`, empty iff originated)
  /// -- the decision process rewrites every other attribute on import.
  /// Returns false when the route would be dropped, leaving `out`
  /// unspecified.
  bool propagate_into(const topo::PrefixPolicy* policy, Model::Dense from,
                      Model::Dense to, std::span<const Asn> best_path,
                      const SimContext& ctx, Route& out) const;
  /// Local-pref for routes from a neighbor of class `cls` under
  /// relationship policies.
  std::uint32_t relationship_local_pref(topo::NeighborClass cls) const;
  const Model* model_;
  EngineOptions options_;
  mutable std::mutex context_mutex_;
  mutable std::shared_ptr<const SimContext> context_;
};

}  // namespace bgp

// Engine post-state checker: proves a PrefixSimResult is a genuine BGP
// fixed point of the model it was computed from (diagnostic codes C4xx).
//
// What "converged" must mean for the steady-state engine (and what this
// checker verifies, without trusting the engine's own bookkeeping):
//
//   * the dirty queue drained below the message cap (converged flag);
//   * every installed best route wins the decision process against every
//     current Adj-RIB-In candidate at its router (select_best replay);
//   * no installed route's AS-path loops through the storing router's AS or
//     revisits an AS;
//   * Adj-RIB-In is well-formed: at most one entry per announcing router,
//     every sender is a live session peer (or self at the origin, or an
//     AS-mate in ibgp-mesh mode), origin routers select their originated
//     route;
//   * stability ("empty dirty queue"): replaying one propagation step over
//     every session -- Engine::propagate on the announcer's best route --
//     reproduces exactly the receiver's stored Adj-RIB-In entry, i.e. no
//     message could still change any RIB.
//
// The checks materialize the result's rows as Routes and replay them
// through the reference bgp::select_best and Engine::propagate, never the
// engine's own row selector, so they remain valid as the engine gains
// optimizations.
#pragma once

#include "analysis/diagnostics.hpp"
#include "bgp/engine.hpp"

namespace analysis {

struct ConvergenceOptions {
  /// Replay export+import over every session and compare against the stored
  /// Adj-RIB-In (the expensive part, O(sessions); on in tests).
  bool check_fixed_point = true;
};

/// Checks `result` against the engine's CURRENT model; if the model was
/// mutated after the simulation, C400-sim-stale is reported and the
/// remaining checks are skipped.
Diagnostics check_convergence(const bgp::Engine& engine,
                              const bgp::PrefixSimResult& result,
                              const ConvergenceOptions& options = {});

}  // namespace analysis

// Structured findings emitted by the static-analysis layer (the model
// linter in validate_model and the engine post-state checker in
// check_convergence).  Checks report diagnostics instead of asserting so
// that callers -- tests, the refinement hooks, `rdtool lint` -- decide
// whether a finding is fatal.
//
// Diagnostic codes are stable identifiers (grep for the code to find the
// emitting check).  Numbering groups:
//   M1xx  model structure (sessions, router indexing, relationship table)
//   P2xx  per-prefix policy tables (filters, rankings, overrides, leaks)
//   F3xx  fitted-model invariants (opt-in; refinement-specific closure)
//   C4xx  engine post-state / convergence fixed point
//   S5xx  static safety (policy_audit: dispute-wheel detection)
//   D6xx  dead policies (policy_audit: rules that can never take effect)
//   R7xx  runtime refinement faults (core/refine: oscillation freezes,
//         budget exhaustion, sweep faults, checkpoint errors)
//   A8xx  static route-space analysis (route_space / model_diff: blackholes,
//         enumeration caps, abstract route-set differences)
//
// Every code, its family and its numeric slot are registered in
// codes::kRegistry below; tests/test_diagnostics_registry.cpp asserts the
// table is unique, family-consistent, covers every code emitted anywhere in
// src/, and that each code is documented in DESIGN.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace analysis {

enum class Severity : std::uint8_t {
  kWarning,  // suspicious but cannot corrupt predictions by itself
  kError,    // violates an invariant the engine or refinement relies on
};

const char* severity_name(Severity severity);

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;      // stable identifier, e.g. "M102-session-intra-as"
  std::string location;  // model/result coordinates, e.g. "session 12.0->47.1"
  std::string message;   // human explanation of the violated invariant
};

using Diagnostics = std::vector<Diagnostic>;

bool has_errors(const Diagnostics& diagnostics);
std::size_t count(const Diagnostics& diagnostics, Severity severity);
/// True if any diagnostic carries `code`.
bool contains_code(const Diagnostics& diagnostics, std::string_view code);

/// One line per diagnostic: "error M102-session-intra-as: <location>: <msg>".
std::string render_diagnostics(const Diagnostics& diagnostics);

/// Machine-readable rendering shared by `rdtool lint --json` and
/// `rdtool audit --json`:
///   {"tool": <tool>, "subject": <subject>, "errors": N, "warnings": N,
///    "diagnostics": [{"severity","code","location","message"}, ...]}
/// `extra_json`, when non-empty, is spliced verbatim as additional top-level
/// fields (callers pass pre-rendered `"key": value, ...` pairs, e.g.
/// timings), keeping the base schema stable for existing consumers.
std::string diagnostics_to_json(std::string_view tool, std::string_view subject,
                                const Diagnostics& diagnostics,
                                std::string_view extra_json = {});

// ---- stable code registry ---------------------------------------------------

namespace codes {

// Model structure.
inline constexpr const char* kSessionPeerDead = "M100-session-peer-dead";
inline constexpr const char* kSessionAsymmetric = "M101-session-asymmetric";
inline constexpr const char* kSessionIntraAs = "M102-session-intra-as";
inline constexpr const char* kSessionCountMismatch =
    "M103-session-count-mismatch";
inline constexpr const char* kRouterIndexBroken = "M104-router-index-broken";
inline constexpr const char* kPeerOrderBroken = "M105-peer-order-broken";
inline constexpr const char* kRelationshipAsymmetric =
    "M110-relationship-asymmetric";
inline constexpr const char* kRelationshipDangling =
    "M111-relationship-dangling";

// Per-prefix policies.
inline constexpr const char* kFilterDanglingSession =
    "P200-filter-dangling-session";
inline constexpr const char* kFilterOwnerMismatch =
    "P201-filter-owner-mismatch";
inline constexpr const char* kFilterNoop = "P202-filter-noop";
inline constexpr const char* kIgpCostDanglingSession =
    "P203-igp-cost-dangling-session";
inline constexpr const char* kRankingOrphanRouter =
    "P210-ranking-orphan-router";
inline constexpr const char* kRankingNonNeighbor =
    "P211-ranking-non-neighbor";
inline constexpr const char* kDefaultRankingOrphan =
    "P212-default-ranking-orphan";
inline constexpr const char* kLpOverrideOrphan = "P220-lp-override-orphan";
inline constexpr const char* kExportAllowDangling =
    "P230-export-allow-dangling";
inline constexpr const char* kPolicyEmpty = "P240-policy-empty";

// Fitted-model invariants (ValidateOptions opt-ins).
inline constexpr const char* kSessionsNotPairwiseComplete =
    "F300-sessions-not-pairwise-complete";
inline constexpr const char* kNeighborSetDivergence =
    "F301-neighbor-set-divergence";
inline constexpr const char* kModelNotAgnostic = "F302-model-not-agnostic";

// Engine post-state.
inline constexpr const char* kSimStale = "C400-sim-stale";
inline constexpr const char* kSimNotConverged = "C401-sim-not-converged";
inline constexpr const char* kBestIndexInvalid = "C402-best-index-invalid";
inline constexpr const char* kBestNotWinning = "C403-best-not-winning";
inline constexpr const char* kAsLoop = "C404-as-loop";
inline constexpr const char* kRibInDuplicateSender =
    "C405-rib-in-duplicate-sender";
inline constexpr const char* kRibInUnknownSender =
    "C406-rib-in-unknown-sender";
inline constexpr const char* kOriginNotOriginating =
    "C407-origin-not-originating";
inline constexpr const char* kRibInStale = "C408-rib-in-stale";
inline constexpr const char* kBestExternalInvalid =
    "C409-best-external-invalid";

// Static safety (policy_audit / dispute_graph).
inline constexpr const char* kDisputeWheel = "S500-dispute-wheel";
inline constexpr const char* kAuditTruncated = "S501-audit-truncated";
inline constexpr const char* kAuditSkippedPrefix = "S502-audit-skipped-prefix";

// Dead policies (policy_audit).
inline constexpr const char* kFilterNeverBlocks = "D600-filter-never-blocks";
inline constexpr const char* kFilterShadowed = "D601-filter-shadowed";
inline constexpr const char* kRankingDead = "D610-ranking-dead";

// Runtime refinement faults (core/refine).  R700/R701 freeze a prefix at
// its best-matched state and name the suspected dispute wheel (see
// dispute_graph.hpp); R702/R703 report budget exhaustion; R704/R705 report
// faults of the loop machinery itself.
inline constexpr const char* kRefineOscillation = "R700-refine-oscillation";
inline constexpr const char* kEngineDiverged = "R701-engine-diverged";
inline constexpr const char* kPrefixBudgetExhausted =
    "R702-prefix-budget-exhausted";
inline constexpr const char* kWallClockExhausted =
    "R703-wall-clock-exhausted";
inline constexpr const char* kSweepFault = "R704-sweep-fault";
inline constexpr const char* kCheckpointError = "R705-checkpoint-error";
inline constexpr const char* kResumeMismatch = "R706-resume-mismatch";
inline constexpr const char* kFlightDumpError = "R707-flight-dump-error";

// Serve-daemon runtime faults (serve/server; DESIGN.md section 15).  These
// travel in the `code` member of serve protocol responses rather than
// through analysis::Diagnostics: R710 marks a degraded (deadline-truncated)
// answer, R711 a load-shed rejection, R712 a handler fault the worker
// absorbed, R713 a quarantined connection (persistent malformed frames),
// R714 a rejection because the daemon is draining, R715 a malformed or
// unintelligible request.
inline constexpr const char* kServeDeadline = "R710-serve-deadline";
inline constexpr const char* kServeOverload = "R711-serve-overload";
inline constexpr const char* kServeHandlerFault = "R712-serve-handler-fault";
inline constexpr const char* kServeQuarantine = "R713-serve-quarantine";
inline constexpr const char* kServeDraining = "R714-serve-draining";
inline constexpr const char* kServeBadRequest = "R715-serve-bad-request";

// Static route-space analysis (route_space / model_diff).  A800 proves a
// router can never install any route for a prefix; A801 marks the proof
// surface as incomplete (enumeration caps hit); A81x report abstract
// route-set / structural differences found by `rdtool diff`.
inline constexpr const char* kStaticBlackhole = "A800-static-blackhole";
inline constexpr const char* kRouteSpaceTruncated =
    "A801-route-space-truncated";
inline constexpr const char* kRouteSetDiffers = "A810-route-set-differs";
inline constexpr const char* kStructureDiffers = "A811-structure-differs";

// Working-set & shard-plan analysis (workset / partition).  A820 marks a
// prefix whose working set fell back to the relaxed reachability bound
// (MAY enumeration truncated), so its cost estimate is coarse; A821 warns
// that the emitted shard plan exceeds the balanced-load target.
inline constexpr const char* kWorksetRelaxed = "A820-workset-relaxed";
inline constexpr const char* kPlanImbalance = "A821-plan-imbalance";

// Single source of truth for every stable diagnostic code.  New codes must
// be added here (and documented in DESIGN.md); tests assert the table is
// duplicate-free, that each entry's family letter matches its hundreds
// digit group, and that every code string emitted from src/ appears here.
inline constexpr const char* kRegistry[] = {
    // M1xx model structure
    kSessionPeerDead, kSessionAsymmetric, kSessionIntraAs,
    kSessionCountMismatch, kRouterIndexBroken, kPeerOrderBroken,
    kRelationshipAsymmetric, kRelationshipDangling,
    // P2xx per-prefix policies
    kFilterDanglingSession, kFilterOwnerMismatch, kFilterNoop,
    kIgpCostDanglingSession, kRankingOrphanRouter, kRankingNonNeighbor,
    kDefaultRankingOrphan, kLpOverrideOrphan, kExportAllowDangling,
    kPolicyEmpty,
    // F3xx fitted-model invariants
    kSessionsNotPairwiseComplete, kNeighborSetDivergence, kModelNotAgnostic,
    // C4xx engine post-state
    kSimStale, kSimNotConverged, kBestIndexInvalid, kBestNotWinning, kAsLoop,
    kRibInDuplicateSender, kRibInUnknownSender, kOriginNotOriginating,
    kRibInStale, kBestExternalInvalid,
    // S5xx static safety
    kDisputeWheel, kAuditTruncated, kAuditSkippedPrefix,
    // D6xx dead policies
    kFilterNeverBlocks, kFilterShadowed, kRankingDead,
    // R7xx runtime refinement faults
    kRefineOscillation, kEngineDiverged, kPrefixBudgetExhausted,
    kWallClockExhausted, kSweepFault, kCheckpointError, kResumeMismatch,
    kFlightDumpError,
    // R71x serve-daemon runtime faults
    kServeDeadline, kServeOverload, kServeHandlerFault, kServeQuarantine,
    kServeDraining, kServeBadRequest,
    // A8xx static route-space analysis
    kStaticBlackhole, kRouteSpaceTruncated, kRouteSetDiffers,
    kStructureDiffers, kWorksetRelaxed, kPlanImbalance,
};

inline constexpr std::size_t kRegistrySize =
    sizeof(kRegistry) / sizeof(kRegistry[0]);

}  // namespace codes

}  // namespace analysis

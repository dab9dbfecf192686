// rdtool -- command-line front end for the route-diversity library.
//
// Subcommands (all file formats are the library's text formats, see
// data/rib_io.hpp and topology/model_io.hpp):
//
//   rdtool generate --out feeds.dump [--scale S] [--seed N] [--raw]
//              [--updates N --updates-out stream.upd]
//       Generate a synthetic Internet, observe it and write the (stub-
//       reduced unless --raw) RIB dump; optionally also simulate N
//       single-session failures and write the update stream.
//
//   rdtool info --dataset feeds.dump | --model fitted.model
//       Summarize a dump or a model.
//
//   rdtool refine --dataset feeds.dump --out fitted.model
//              [--training-fraction F] [--split-seed N] [--all]
//              [--updates stream.upd]
//              [--checkpoint ck [--checkpoint-every N]] [--resume ck]
//              [--budget-seconds S] [--prefix-budget N]
//       Split the feeds by observation point, fit the quasi-router model to
//       the training side (--all: to every record) and write it.  SIGINT/
//       SIGTERM interrupt the fit cleanly (exit 130): with --checkpoint a
//       resumable checkpoint lands on disk and a later --resume run
//       continues the fit, producing a byte-identical final model to an
//       uninterrupted one.  --budget-seconds / --prefix-budget bound the fit;
//       on exhaustion (or a confirmed refinement oscillation, R700) the
//       affected prefixes freeze and the fit completes degraded (exit 3)
//       with per-prefix outcomes in the log and in --json.
//
//   rdtool predict --dataset feeds.dump --model fitted.model
//              [--training-fraction F] [--split-seed N] [--validation-only]
//       Evaluate the model's predictions with the Section 4.2 metrics.
//
//   rdtool whatif --model fitted.model --remove-link A:B [--prefixes N]
//       Predict the routing impact of removing an AS link.
//
//   rdtool explain --model fitted.model --origin O --as A
//       Show every quasi-router's decision at AS A for O's prefix.
//
//   rdtool lint --model fitted.model [--fitted] [--json]
//          | --generated [--scale S] [--seed N]
//          | --fixture NAME | --list-fixtures
//       Run the model linter (analysis::validate_model) and print structured
//       diagnostics.  --fitted adds the refinement-closure and agnosticism
//       checks.  --generated lints the one-quasi-router-per-AS model of a
//       freshly generated topology.  --fixture lints a deliberately
//       corrupted in-process model (ctest asserts these fail).
//
//   rdtool audit --model fitted.model [--origin N] [--json]
//          | --generated [--scale S] [--seed N]
//          | --fixture NAME | --list-fixtures
//       Run the static policy auditor (analysis::audit_model): dispute-wheel
//       safety (S5xx), dead policies (D6xx) and per-prefix route-diversity
//       bounds, all without simulation.  --generated audits the ground-truth
//       model of a freshly generated topology under its relationship
//       policies.  --fixture audits a deliberately unsafe/wasteful in-process
//       model (ctest asserts these fail).
//
//   rdtool diff A.model B.model [--origin N] [--a-raw] [--b-raw]
//              [--threads N] [--json]
//       Static model diff (analysis::diff_models): compares the per-router
//       abstract route sets of the two models per prefix -- proving
//       equivalence or naming the differing routers (A810) and structural
//       deltas (A811) without simulating either model.  Engine
//       interpretation per side is auto-detected (relationship policies /
//       IGP costs switch on when the model carries classes / costs);
//       --a-raw / --b-raw force the plain fitted-model interpretation.
//       A model diffed against itself exits 0 with no findings.
//
//   rdtool impact --model F --edit session-down --session A.I:B.J
//          | --edit policy-change --router A.I --origin N [--prefer ASN]
//          | --edit filter-edit --session A.I:B.J --origin N [--deny-below L]
//          [--origin N] [--json]
//       Static edit-impact set (analysis::compute_impact): the routers whose
//       steady-state selection MAY change under the edit, per prefix --
//       the dirty frontier an incremental re-fit has to re-simulate.
//
//   rdtool stats TRACE [--json]
//       Summarize a refinement trace (written by refine --trace) into a
//       Table-3-style per-iteration convergence table plus a phase-time
//       breakdown.  Accepts both the Chrome trace_event and the JSONL form.
//
//   rdtool profile TRACE [--json]
//       Sweep profiler (DESIGN.md section 14): read the per-prefix worker
//       spans ("shard" spans, one prefix each) of a refine --trace run
//       (trace level iteration or above) and attribute parallel speedup
//       loss to imbalance vs idle vs serial sections.
//
//   rdtool selftest [--dir DIR]
//       End-to-end smoke test over real files (used by ctest).
//
// refine, predict and audit additionally take the observability flags
//   --trace FILE [--trace-level off|phase|iteration|prefix] --metrics FILE
// (DESIGN.md section 9): --trace writes Chrome trace_event JSON -- load it
// in Perfetto / chrome://tracing, or summarize with `rdtool stats` -- or
// JSONL when FILE ends in .jsonl; --metrics writes the metric registry as
// JSON.  Observation never changes results: fitted models are byte-
// identical with and without these flags.
//
// refine additionally keeps a flight recorder attached by default
// (DESIGN.md section 14): a lock-free per-worker event ring whose contents
// are dumped to MODEL.flight.json (override: --flight-dump F; capacity:
// --flight-capacity N; off: --no-flight-recorder) whenever the fit ends
// degraded or faulted, so a bad run always leaves a post-mortem.
//
// Exit codes for lint, audit and refine are uniform; the single source of
// truth is kExitCodeTable below (printed by `rdtool help`).  Other
// subcommands exit 0 on success and non-zero on failure.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/fixtures.hpp"
#include "bgp/threadpool.hpp"
#include "analysis/impact.hpp"
#include "analysis/model_diff.hpp"
#include "analysis/partition.hpp"
#include "analysis/policy_audit.hpp"
#include "analysis/validate_model.hpp"
#include "analysis/workset.hpp"
#include "bgp/explain.hpp"
#include "core/fault_inject.hpp"
#include "core/pipeline.hpp"
#include "core/predict.hpp"
#include "core/report.hpp"
#include "core/whatif.hpp"
#include "data/dataset_stats.hpp"
#include "data/dynamics.hpp"
#include "data/rib_io.hpp"
#include "netbase/cli.hpp"
#include "netbase/fsio.hpp"
#include "netbase/json.hpp"
#include "netbase/strings.hpp"
#include "netbase/sysinfo.hpp"
#include "netbase/table.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/flush.hpp"
#include "obs/observer.hpp"
#include "obs/profiler.hpp"
#include "serve/server.hpp"
#include "topology/model_io.hpp"

namespace {

/// The lint/audit exit-code contract, in one place (header comment and
/// print_help both defer here).
constexpr char kExitCodeTable[] =
    "exit codes (lint, audit):\n"
    "  0  clean: no diagnostics at all\n"
    "  1  diagnostics found (any severity)\n"
    "  2  usage or I/O error\n"
    "exit codes (diff):\n"
    "  0  no differences (A801 truncation notes may still print)\n"
    "  1  models differ (A810 route sets or A811 structure)\n"
    "  2  usage or I/O error\n"
    "exit codes (impact):\n"
    "  0  impact set computed (possibly empty)\n"
    "  2  usage or I/O error\n"
    "exit codes (plan):\n"
    "  0  shard plan emitted (A820/A821 advisories may print)\n"
    "  2  usage or I/O error\n"
    "exit codes (profile):\n"
    "  0  profile report produced\n"
    "  1  trace has no sweep shard spans (not an iteration-level refine "
    "trace)\n"
    "  2  usage or I/O error\n"
    "exit codes (refine):\n"
    "  0  fit converged: every training path RIB-Out matched\n"
    "  1  I/O error, resume mismatch or unrecoverable fault\n"
    "  2  usage error\n"
    "  3  fit completed degraded: oscillating or budget-exhausted\n"
    "     prefixes were frozen, or the iteration cap left paths unmatched\n"
    "  130  interrupted (SIGINT/SIGTERM); resume with --resume\n"
    "exit codes (serve):\n"
    "  0  drained cleanly after SIGINT/SIGTERM (or --once answered ok/\n"
    "     degraded/rejected)\n"
    "  1  model unreadable, bind or artifact-flush failure, or --once\n"
    "     answered status \"error\"\n"
    "  2  usage error\n"
    "other subcommands exit 0 on success, non-zero on failure;\n"
    "see the header of tools/rdtool.cpp for details\n";

void print_help(std::FILE* out) {
  std::fprintf(
      out,
      "usage: rdtool <generate|info|refine|predict|whatif|explain|"
      "lint|audit|diff|impact|plan|stats|profile|serve|selftest|help> "
      "[options]\n"
      "\n"
      "  generate  write a synthetic RIB dump (--out F [--scale S --seed N\n"
      "            --model-out F: also write the ground-truth model])\n"
      "  info      summarize --dataset F or --model F\n"
      "  refine    fit a quasi-router model (--dataset F --out F\n"
      "            [--threads N] [--json]); the parallel sweep yields the\n"
      "            same model for every thread count.  Fault tolerance:\n"
      "            --checkpoint F [--checkpoint-every N] --resume F\n"
      "            --budget-seconds S --prefix-budget N; SIGINT checkpoints\n"
      "            and exits 130, --resume continues to a byte-identical\n"
      "            final model\n"
      "  predict   evaluate a model (--dataset F --model F)\n"
      "  whatif    impact of removing a link (--model F --remove-link A:B)\n"
      "  explain   per-router decisions (--model F --origin O --as A)\n"
      "  lint      structural model linter (--model F [--fitted] | "
      "--generated | --fixture NAME | --list-fixtures) [--json]\n"
      "  audit     static policy auditor: dispute-wheel safety, dead\n"
      "            policies, diversity bounds (--model F [--origin N] | "
      "--generated | --fixture NAME | --list-fixtures)\n"
      "            [--blackholes] [--threads N] [--json]\n"
      "  diff      static model diff over abstract route sets\n"
      "            (rdtool diff A.model B.model [--origin N] [--a-raw]\n"
      "            [--b-raw] [--threads N] [--json])\n"
      "  impact    static edit-impact set (--model F --edit\n"
      "            session-down|policy-change|filter-edit\n"
      "            [--session A.I:B.J] [--router A.I] [--origin N]\n"
      "            [--prefer ASN] [--deny-below L] [--json])\n"
      "  plan      static working-set & shard plan: per-prefix working\n"
      "            sets, cost model, balanced prefix partition\n"
      "            (--model F | --generated [--scale S --seed N])\n"
      "            [--shards N] [--no-exact] [--json]; deterministic for\n"
      "            identical inputs\n"
      "  stats     summarize a refinement trace (rdtool stats TRACE):\n"
      "            per-iteration convergence table + phase timings\n"
      "  profile   sweep profiler (rdtool profile TRACE [--json]):\n"
      "            per-worker busy/idle lanes, speedup-loss attribution\n"
      "            (imbalance vs idle vs serial) from a refine --trace run\n"
      "  serve     long-lived route-prediction daemon (--model F [--port P]\n"
      "            [--port-file F] [--threads N] [--queue-capacity N]\n"
      "            [--deadline-seconds S] [--drain-seconds S]\n"
      "            [--whatif-origins N] [--once REQUEST]); length-prefixed\n"
      "            JSON protocol, SIGTERM drains and exits 0 (see DESIGN.md\n"
      "            section 15)\n"
      "  selftest  end-to-end smoke test over real files (--dir D)\n"
      "\n"
      "refine/predict/audit observability: --trace FILE writes Chrome\n"
      "trace_event JSON (Perfetto-loadable; JSONL when FILE ends in .jsonl)\n"
      "at --trace-level off|phase|iteration|prefix (default iteration);\n"
      "--metrics FILE writes the metric registry as JSON.  Results are\n"
      "byte-identical with and without observability attached.\n"
      "\n"
      "refine keeps a flight recorder on by default; a degraded or faulted\n"
      "fit dumps a post-mortem to MODEL.flight.json (--flight-dump F,\n"
      "--flight-capacity N, --no-flight-recorder)\n"
      "\n"
      "--threads 0 selects the hardware thread count; refine/audit --json\n"
      "reports include wall-clock phase timings\n"
      "\n"
      "%s",
      kExitCodeTable);
}

int usage() {
  print_help(stderr);
  return 2;
}

/// Set by the SIGINT/SIGTERM handlers installed around refine_model; the
/// loop polls it between iterations, checkpoints and returns kInterrupted.
std::atomic<bool> g_interrupt{false};

void handle_interrupt(int) { g_interrupt.store(true); }

std::optional<data::BgpDataset> load_dataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rdtool: cannot open dataset %s\n", path.c_str());
    return std::nullopt;
  }
  std::string error;
  auto dataset = data::read_dataset(in, &error);
  if (!dataset)
    std::fprintf(stderr, "rdtool: %s: %s\n", path.c_str(), error.c_str());
  return dataset;
}

std::optional<topo::Model> load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rdtool: cannot open model %s\n", path.c_str());
    return std::nullopt;
  }
  std::string error;
  auto model = topo::read_model(in, &error);
  if (!model)
    std::fprintf(stderr, "rdtool: %s: %s\n", path.c_str(), error.c_str());
  return model;
}

/// Shared --trace / --metrics / --trace-level plumbing for refine, predict
/// and audit.  Owns the optional sinks and writes the artifacts at the end
/// of the command; when neither flag is given nothing is constructed and
/// the commands run the zero-observer paths.
struct ObsSession {
  std::string trace_path;
  std::string metrics_path;
  std::optional<obs::Registry> registry;
  std::optional<obs::TraceSink> trace;
  obs::Observer observer;

  bool attached() const { return registry.has_value() || trace.has_value(); }
  obs::Registry* reg() { return registry.has_value() ? &*registry : nullptr; }
  obs::TraceSink* sink() { return trace.has_value() ? &*trace : nullptr; }

  /// False on a malformed --trace-level (usage error).
  bool init(const nb::Cli& cli, std::string_view process_name) {
    trace_path = cli.get_string("trace", "");
    metrics_path = cli.get_string("metrics", "");
    obs::TraceLevel level = obs::TraceLevel::kIteration;
    const std::string level_text = cli.get_string("trace-level", "");
    if (!level_text.empty() && !obs::parse_trace_level(level_text, &level)) {
      std::fprintf(stderr,
                   "rdtool: bad --trace-level %s "
                   "(off|phase|iteration|prefix)\n",
                   level_text.c_str());
      return false;
    }
    if (!metrics_path.empty()) {
      registry.emplace();
      observer.registry = &*registry;
    }
    if (!trace_path.empty()) {
      trace.emplace(level);
      trace->name_process(process_name);
      observer.trace = &*trace;
    }
    return true;
  }

  /// Writes whichever artifacts were requested -- plus `flight`, when the
  /// caller wants the flight ring published on this exit edge -- through
  /// the shared atomic flush path (obs::flush_observability, temp +
  /// rename): an interrupt or crash during the flush leaves either the
  /// complete file or no file, never truncated JSON that `rdtool stats` /
  /// Perfetto would choke on.  False on any I/O error (all artifacts are
  /// still attempted).
  bool flush(const obs::FlightRecorder* flight = nullptr,
             const std::string& flight_path = std::string()) {
    obs::FlushPlan plan;
    if (trace.has_value()) {
      plan.trace = &*trace;
      plan.trace_path = trace_path;
    }
    if (registry.has_value()) {
      plan.registry = &*registry;
      plan.metrics_path = metrics_path;
    }
    plan.flight = flight;
    plan.flight_path = flight_path;
    const obs::FlushResult result = obs::flush_observability(plan);
    if (result.trace_written)
      std::fprintf(stderr, "rdtool: wrote %zu trace events to %s\n",
                   trace->size(), trace_path.c_str());
    if (result.metrics_written)
      std::fprintf(stderr, "rdtool: wrote metrics to %s\n",
                   metrics_path.c_str());
    if (result.flight_written)
      std::fprintf(stderr, "rdtool: wrote flight dump to %s\n",
                   flight_path.c_str());
    if (!result.ok())
      std::fprintf(stderr, "rdtool: %s\n", result.error.c_str());
    return result.ok();
  }
};

int cmd_generate(const nb::Cli& cli) {
  const std::string out_path = cli.get_string("out", "");
  if (out_path.empty()) return usage();
  core::PipelineConfig config = core::PipelineConfig::with(
      cli.get_double("scale", 0.5), cli.get_u64("seed", 1));
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);
  const data::BgpDataset& dataset =
      cli.get_bool("raw") ? pipeline.raw_dataset : pipeline.dataset;
  std::string error;
  if (!nb::write_file_atomic(out_path, data::dataset_to_string(dataset),
                             &error)) {
    std::fprintf(stderr, "rdtool: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %zu records from %zu feeds to %s\n",
              dataset.records.size(), dataset.points.size(),
              out_path.c_str());

  if (cli.has("model-out")) {
    // The ground-truth model serializes like any fitted one; used by the
    // diff CI gate (fitted vs ground truth) and handy for inspection.
    std::ostringstream model_text;
    topo::write_model(model_text, pipeline.ground_truth.model);
    const std::string model_out = cli.get_string("model-out", "");
    if (!nb::write_file_atomic(model_out, model_text.str(), &error)) {
      std::fprintf(stderr, "rdtool: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote ground-truth model (%zu routers) to %s\n",
                pipeline.ground_truth.model.num_routers(), model_out.c_str());
  }

  if (cli.has("updates-out")) {
    data::DynamicsConfig dynamics;
    dynamics.num_events = cli.get_u64("updates", 16);
    bgp::ThreadPool pool(1);
    // Diff against the RAW feeds; update paths are reduced on merge.
    auto stream = data::simulate_session_failures(
        pipeline.ground_truth, pipeline.raw_dataset, dynamics, pool);
    std::ostringstream out;
    data::write_updates(out, stream);
    const std::string updates_path = cli.get_string("updates-out", "");
    if (!nb::write_file_atomic(updates_path, out.str(), &error)) {
      std::fprintf(stderr, "rdtool: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %zu events / %zu updates to %s\n",
                stream.events.size(), stream.updates.size(),
                updates_path.c_str());
  }
  return 0;
}

int cmd_info(const nb::Cli& cli) {
  if (cli.has("dataset")) {
    auto dataset = load_dataset(cli.get_string("dataset", ""));
    if (!dataset) return 1;
    auto stats = data::compute_diversity(*dataset);
    std::printf("feeds: %zu   observation ASes: %zu (multi-feed %zu)\n",
                dataset->points.size(), dataset->observation_ases().size(),
                dataset->multi_feed_ases());
    std::printf("records: %zu   unique paths: %zu   AS pairs: %zu\n",
                dataset->records.size(), stats.unique_paths, stats.as_pairs);
    std::printf("AS pairs with >1 distinct path: %s\n",
                nb::fmt_percent(stats.paths_per_pair.fraction_at_least(2))
                    .c_str());
    return 0;
  }
  if (cli.has("model")) {
    auto model = load_model(cli.get_string("model", ""));
    if (!model) return 1;
    auto stats = model->policy_stats();
    std::size_t multi = 0;
    for (auto& [asn, count] : model->router_counts())
      if (count > 1) ++multi;
    std::printf("ASes: %zu   quasi-routers: %zu (multi-router ASes: %zu)   "
                "sessions: %zu\n",
                model->num_ases(), model->num_routers(), multi,
                model->num_sessions());
    std::printf("policies: %zu filters, %zu rankings, %zu lp-overrides, "
                "%zu export-allows over %zu prefixes\n",
                stats.filters, stats.rankings, stats.lp_overrides,
                stats.export_allows, stats.prefixes_with_policy);
    return 0;
  }
  return usage();
}

int cmd_refine(const nb::Cli& cli) {
  // Absent flags are usage errors (2); an unreadable dataset is I/O (1).
  if (!cli.has("dataset") || !cli.has("out")) return usage();
  auto dataset = load_dataset(cli.get_string("dataset", ""));
  if (!dataset) return 1;
  const std::string out_path = cli.get_string("out", "");

  data::BgpDataset training = *dataset;
  if (!cli.get_bool("all")) {
    data::SplitConfig split_config;
    split_config.seed = cli.get_u64("split-seed", 4);
    split_config.training_fraction =
        cli.get_double("training-fraction", 2.0 / 3.0);
    training = data::split_by_points(*dataset, split_config).training;
  }
  if (cli.has("updates")) {
    std::ifstream in(cli.get_string("updates", ""));
    std::string error;
    auto stream = data::read_updates(in, &error);
    if (!stream) {
      std::fprintf(stderr, "rdtool: updates: %s\n", error.c_str());
      return 1;
    }
    const std::size_t before = training.records.size();
    training = stream->merge_into(training);
    std::printf("merged update stream: %zu -> %zu training records\n",
                before, training.records.size());
  }

  auto graph = topo::AsGraph::from_paths(dataset->all_paths());
  topo::Model model = topo::Model::one_router_per_as(graph);
  core::RefineConfig config;
  config.verbose = cli.get_bool("verbose");
  // 0 = hardware concurrency; the fitted model is identical for every
  // thread count (see refine.hpp), so this is purely a speed knob.
  config.threads = static_cast<unsigned>(cli.get_u64("threads", 1));
  config.wall_clock_budget_seconds = cli.get_double("budget-seconds", 0);
  config.prefix_iteration_budget = cli.get_u64("prefix-budget", 0);
  config.checkpoint_path = cli.get_string("checkpoint", "");
  config.checkpoint_every = cli.get_u64("checkpoint-every", 8);

  // --resume: the checkpoint replaces the fresh one-router-per-AS start;
  // refine_model verifies the dataset hash and per-prefix state (R706).
  std::optional<topo::RefineCheckpoint> checkpoint;
  if (cli.has("resume")) {
    const std::string resume_path = cli.get_string("resume", "");
    std::string error;
    checkpoint = topo::load_refine_checkpoint(resume_path, &error);
    if (!checkpoint) {
      std::fprintf(stderr, "rdtool: %s: %s\n", resume_path.c_str(),
                   error.c_str());
      return 1;
    }
    model = checkpoint->model;
    config.resume = &*checkpoint;
    // Keep checkpointing to the same file unless redirected.
    if (config.checkpoint_path.empty()) config.checkpoint_path = resume_path;
    std::fprintf(stderr, "rdtool: resuming from %s after iteration %zu\n",
                 resume_path.c_str(), checkpoint->iteration);
  }

  core::FaultPlan fault_plan;
#ifdef RD_FAULT_INJECTION
  // Deterministic stand-in for a real SIGINT (CI and the selftest use it to
  // exercise the interrupt path without signal timing races).
  if (cli.has("interrupt-after")) {
    fault_plan.interrupt_iteration = cli.get_u64("interrupt-after", 0);
    config.fault_plan = &fault_plan;
  }
#else
  (void)fault_plan;
#endif

  ObsSession obs_session;
  if (!obs_session.init(cli, "rdtool refine")) return 2;
  if (obs_session.attached()) config.observer = &obs_session.observer;

  // Flight recorder (DESIGN.md section 14): on by default -- the per-event
  // cost is one ring-slot write, and a degraded or faulted fit then always
  // leaves a post-mortem dump next to the model.  --no-flight-recorder
  // opts out; --flight-dump redirects the dump path.
  std::optional<obs::FlightRecorder> flight;
  if (!cli.get_bool("no-flight-recorder")) {
    // Track count must cover every sweep slot; resolve() maps the
    // --threads request (0 = hardware) the same way the pool will.
    const unsigned threads = bgp::ThreadPool::resolve(config.threads);
    flight.emplace(1 + threads,
                   cli.get_u64("flight-capacity",
                               obs::FlightRecorder::kDefaultCapacity));
    config.flight_recorder = &*flight;
    config.flight_dump_path =
        cli.get_string("flight-dump", out_path + ".flight.json");
  }

  g_interrupt.store(false);
  config.interrupt = &g_interrupt;
  auto prev_int = std::signal(SIGINT, handle_interrupt);
  auto prev_term = std::signal(SIGTERM, handle_interrupt);
  auto result = core::refine_model(model, training, config);
  // Flush observability BEFORE restoring the default signal disposition
  // and before any early return below: with the handlers still installed a
  // second SIGINT stays cooperative instead of killing the process during
  // a long trace write, and the flush itself is atomic (temp + rename), so
  // an interrupted fit always leaves loadable artifacts.  An interrupted
  // fit also publishes the flight rings (refine_model itself only dumps on
  // degraded/faulted stops): the 130 edge is exactly where a post-mortem
  // of the final iterations is wanted.
  const bool dump_flight_here =
      flight.has_value() && !result.flight_dump_written &&
      result.stop == core::RefineStop::kInterrupted &&
      !config.flight_dump_path.empty();
  const bool obs_flushed =
      obs_session.flush(dump_flight_here ? &*flight : nullptr,
                        dump_flight_here ? config.flight_dump_path : "");
  if (dump_flight_here && obs_flushed) result.flight_dump_written = true;
  std::signal(SIGINT, prev_int);
  std::signal(SIGTERM, prev_term);

  const bool interrupted = result.stop == core::RefineStop::kInterrupted;
  if (result.stop == core::RefineStop::kFault) {
    // Resume mismatch or an unrecoverable sweep fault: the diagnostics say
    // what happened; any partial state was already checkpointed.
    std::fprintf(stderr, "%s",
                 analysis::render_diagnostics(result.diagnostics).c_str());
    return 1;
  }
  // An interrupted fit leaves no --out model: the partial state lives in
  // the checkpoint, and a half-refined model file would be easy to mistake
  // for a finished one.
  std::string error;
  if (!interrupted &&
      !nb::write_file_atomic(out_path, topo::model_to_string(model), &error)) {
    std::fprintf(stderr, "rdtool: %s\n", error.c_str());
    return 1;
  }
  if (!obs_flushed) return 1;
  if (cli.get_bool("json")) {
    // Single JSON object on stdout; the model still lands in --out.
    nb::JsonWriter w;
    w.begin_object();
    w.key("tool").value("refine");
    w.key("success").value(result.success);
    w.key("stop").value(core::refine_stop_name(result.stop));
    w.key("degraded").value(result.degraded());
    w.key("iterations").value(static_cast<std::uint64_t>(result.iterations));
    w.key("unmatched_paths")
        .value(static_cast<std::uint64_t>(result.unmatched_paths));
    w.key("routers").value(static_cast<std::uint64_t>(model.num_routers()));
    w.key("messages_simulated").value(result.messages_simulated);
    w.key("threads").value(result.threads_used);
    w.key("prefixes_converged")
        .value(static_cast<std::uint64_t>(result.prefixes_converged));
    w.key("prefixes_oscillating")
        .value(static_cast<std::uint64_t>(result.prefixes_oscillating));
    w.key("prefixes_budget_exhausted")
        .value(static_cast<std::uint64_t>(result.prefixes_budget_exhausted));
    w.key("checkpoint_written").value(result.checkpoint_written);
    w.key("flight_dump_written").value(result.flight_dump_written);
    if (result.flight_dump_written)
      w.key("flight_dump").value(config.flight_dump_path);
    w.key("outcomes").begin_array();
    for (const core::PrefixFitOutcome& o : result.outcomes) {
      // The converged majority is summarized by prefixes_converged; listing
      // only the exceptions keeps the report small at full scale.
      if (o.outcome == core::PrefixOutcome::kConverged) continue;
      w.begin_object();
      w.key("origin").value(static_cast<std::uint64_t>(o.origin));
      w.key("outcome").value(core::prefix_outcome_name(o.outcome));
      w.key("matched").value(static_cast<std::uint64_t>(o.matched));
      w.key("paths_total").value(static_cast<std::uint64_t>(o.paths_total));
      w.key("frozen_iteration")
          .value(static_cast<std::uint64_t>(o.frozen_iteration));
      w.end_object();
    }
    w.end_array();
    w.key("phase_seconds").begin_object();
    w.key("simulate").value_fixed(result.phase_seconds.simulate, 6);
    w.key("heuristic").value_fixed(result.phase_seconds.heuristic, 6);
    w.key("validate").value_fixed(result.phase_seconds.validate, 6);
    w.key("total").value_fixed(result.phase_seconds.total, 6);
    w.end_object();
    w.key("peak_rss_bytes").value(nb::peak_rss_bytes());
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%s", core::render_refine_log(result).c_str());
    if (!result.diagnostics.empty())
      std::printf("%s",
                  analysis::render_diagnostics(result.diagnostics).c_str());
    std::printf("fit took %.3fs (simulate %.3fs, heuristic %.3fs) on %u "
                "thread(s), %llu messages\n",
                result.phase_seconds.total, result.phase_seconds.simulate,
                result.phase_seconds.heuristic, result.threads_used,
                static_cast<unsigned long long>(result.messages_simulated));
    if (!interrupted)
      std::printf("wrote model (%zu quasi-routers) to %s\n",
                  model.num_routers(), out_path.c_str());
  }
  if (interrupted) {
    if (result.checkpoint_written)
      std::fprintf(stderr,
                   "rdtool: interrupted after iteration %zu; resume with "
                   "--resume %s\n",
                   result.iterations, config.checkpoint_path.c_str());
    else
      std::fprintf(stderr,
                   "rdtool: interrupted after iteration %zu (no --checkpoint "
                   "given, progress discarded)\n",
                   result.iterations);
    return 130;
  }
  return result.success && !result.degraded() ? 0 : 3;
}

int cmd_predict(const nb::Cli& cli) {
  auto dataset = load_dataset(cli.get_string("dataset", ""));
  auto model = load_model(cli.get_string("model", ""));
  if (!dataset || !model) return 1;

  data::BgpDataset target = *dataset;
  std::string title = "all records";
  if (cli.get_bool("validation-only")) {
    data::SplitConfig split_config;
    split_config.seed = cli.get_u64("split-seed", 4);
    split_config.training_fraction =
        cli.get_double("training-fraction", 2.0 / 3.0);
    target = data::split_by_points(*dataset, split_config).validation;
    title = "validation records (held-out feeds)";
  }
  ObsSession obs_session;
  if (!obs_session.init(cli, "rdtool predict")) return 2;
  obs::Registry* reg = obs_session.reg();
  obs::TraceSink* sink = obs_session.sink();

  core::EvalOptions options;
  core::EvalResult eval;
  {
    obs::CounterId total_ns;
    if (reg != nullptr) total_ns = reg->counter("predict.phase.total_ns");
    obs::PhaseTimer timer(reg, total_ns, sink, "predict");
    eval = core::evaluate_predictions(*model, target, options);
  }
  if (reg != nullptr) {
    const core::MatchStats& s = eval.stats;
    reg->add(reg->counter("predict.paths_total"), s.total);
    reg->add(reg->counter("predict.rib_out"), s.rib_out);
    reg->add(reg->counter("predict.potential_rib_out"), s.potential_rib_out);
    reg->add(reg->counter("predict.rib_in_only"), s.rib_in_only);
    reg->add(reg->counter("predict.not_available"), s.not_available);
    reg->add(reg->counter("predict.prefixes"), s.prefixes);
    // Same decision-step axis as refine's engine.eliminated.<step>.
    for (std::size_t step = 0; step < bgp::kNumDecisionSteps; ++step) {
      reg->add(reg->counter(
                   std::string("predict.lost_at.") +
                   bgp::decision_step_name(static_cast<bgp::DecisionStep>(
                       step))),
               s.lost_at[step]);
    }
  }
  if (sink != nullptr && sink->enabled(obs::TraceLevel::kIteration)) {
    nb::JsonWriter args;
    args.begin_object();
    args.key("paths_total").value(static_cast<std::uint64_t>(eval.stats.total));
    args.key("rib_out").value(static_cast<std::uint64_t>(eval.stats.rib_out));
    args.key("potential_rib_out")
        .value(static_cast<std::uint64_t>(eval.stats.potential_rib_out));
    args.key("prefixes").value(static_cast<std::uint64_t>(eval.stats.prefixes));
    args.end_object();
    sink->instant("predict", "match_stats", sink->now_us(), 0, args.str());
  }
  if (!obs_session.flush()) return 1;
  std::printf("%s", core::render_validation(title, eval.stats).c_str());
  return 0;
}

std::optional<std::pair<nb::Asn, nb::Asn>> parse_link(std::string_view text) {
  auto colon = text.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  auto a = nb::parse_u64(text.substr(0, colon));
  auto b = nb::parse_u64(text.substr(colon + 1));
  if (!a || !b) return std::nullopt;
  return std::make_pair(static_cast<nb::Asn>(*a), static_cast<nb::Asn>(*b));
}

int cmd_whatif(const nb::Cli& cli) {
  auto model = load_model(cli.get_string("model", ""));
  if (!model) return 1;
  auto link = parse_link(cli.get_string("remove-link", ""));
  if (!link) {
    std::fprintf(stderr, "rdtool: --remove-link A:B required\n");
    return usage();
  }
  core::WhatIfScenario scenario;
  scenario.remove_as_links.push_back(*link);
  std::vector<nb::Asn> origins = model->asns();
  const std::size_t limit = cli.get_u64("prefixes", 50);
  if (origins.size() > limit) origins.resize(limit);
  auto result = core::evaluate_whatif(*model, scenario, origins);
  std::printf("prefixes evaluated: %zu   (prefix, AS) pairs: %zu\n",
              result.prefixes_evaluated, result.pairs_evaluated);
  std::printf("changed: %zu   lost reachability: %zu   gained: %zu\n",
              result.pairs_changed, result.pairs_lost_reachability,
              result.pairs_gained_reachability);
  std::size_t shown = 0;
  for (const auto& change : result.changes) {
    if (++shown > cli.get_u64("show", 10)) break;
    std::printf("AS %u, prefix of AS %u:\n", change.observer, change.origin);
    for (const auto& path : change.before) {
      std::string text;
      for (nb::Asn hop : path) text += std::to_string(hop) + " ";
      std::printf("  before: %s\n", text.c_str());
    }
    for (const auto& path : change.after) {
      std::string text;
      for (nb::Asn hop : path) text += std::to_string(hop) + " ";
      std::printf("  after:  %s\n", text.c_str());
    }
  }
  return 0;
}

int cmd_explain(const nb::Cli& cli) {
  auto model = load_model(cli.get_string("model", ""));
  if (!model) return 1;
  const auto origin = static_cast<nb::Asn>(cli.get_u64("origin", 0));
  const auto observer = static_cast<nb::Asn>(cli.get_u64("as", 0));
  if (!model->has_as(origin) || !model->has_as(observer)) {
    std::fprintf(stderr, "rdtool: --origin and --as must name ASes in the "
                         "model\n");
    return 1;
  }
  bgp::Engine engine(*model);
  auto sim = engine.run(nb::Prefix::for_asn(origin), origin);
  for (topo::Model::Dense r : model->routers_of(observer))
    std::printf("%s", bgp::explain_selection(*model, sim, r).str(*model).c_str());
  return 0;
}

int cmd_lint(const nb::Cli& cli) {
  if (cli.get_bool("list-fixtures")) {
    for (std::string_view name : analysis::fixture_names())
      std::printf("%.*s -> %s\n", static_cast<int>(name.size()), name.data(),
                  analysis::fixture_expected_code(name));
    return 0;
  }

  std::optional<topo::Model> model;
  std::string what;
  analysis::ValidateOptions options;
  if (cli.has("fixture")) {
    const std::string name = cli.get_string("fixture", "");
    model = analysis::corrupted_fixture(name);
    if (!model) {
      std::fprintf(stderr, "rdtool: unknown fixture %s (see --list-fixtures)\n",
                   name.c_str());
      return 2;
    }
    what = "fixture " + name;
  } else if (cli.has("model")) {
    const std::string path = cli.get_string("model", "");
    model = load_model(path);
    if (!model) return 2;
    options.pairwise_sessions = cli.get_bool("fitted");
    options.agnostic = cli.get_bool("fitted");
    what = path;
  } else if (cli.get_bool("generated")) {
    core::PipelineConfig config = core::PipelineConfig::with(
        cli.get_double("scale", 0.2), cli.get_u64("seed", 1));
    core::Pipeline pipeline = core::make_pipeline(config);
    core::run_data_stages(pipeline);
    model = topo::Model::one_router_per_as(pipeline.graph);
    options.pairwise_sessions = true;  // trivially one router per AS
    options.agnostic = true;
    what = "one-router-per-AS model of generated topology (" +
           std::to_string(pipeline.graph.num_nodes()) + " ASes)";
  } else {
    return usage();
  }

  const analysis::Diagnostics diagnostics =
      analysis::validate_model(*model, options);
  if (cli.get_bool("json")) {
    std::printf("%s",
                analysis::diagnostics_to_json("lint", what, diagnostics).c_str());
  } else {
    std::printf("%s", analysis::render_diagnostics(diagnostics).c_str());
    std::printf("lint: %zu error(s), %zu warning(s) in %s\n",
                analysis::count(diagnostics, analysis::Severity::kError),
                analysis::count(diagnostics, analysis::Severity::kWarning),
                what.c_str());
  }
  return diagnostics.empty() ? 0 : 1;
}

int cmd_audit(const nb::Cli& cli) {
  if (cli.get_bool("list-fixtures")) {
    for (std::string_view name : analysis::audit_fixture_names())
      std::printf("%.*s -> %s\n", static_cast<int>(name.size()), name.data(),
                  analysis::audit_fixture_expected_code(name));
    return 0;
  }

  std::optional<topo::Model> model;
  analysis::AuditOptions options;
  std::string what;
  if (cli.has("fixture")) {
    const std::string name = cli.get_string("fixture", "");
    model = analysis::audit_fixture(name);
    if (!model) {
      std::fprintf(stderr, "rdtool: unknown fixture %s (see --list-fixtures)\n",
                   name.c_str());
      return 2;
    }
    what = "fixture " + name;
  } else if (cli.has("model")) {
    const std::string path = cli.get_string("model", "");
    model = load_model(path);
    if (!model) return 2;
    what = path;
  } else if (cli.get_bool("generated")) {
    core::PipelineConfig config = core::PipelineConfig::with(
        cli.get_double("scale", 0.2), cli.get_u64("seed", 1));
    core::Pipeline pipeline = core::make_pipeline(config);
    core::run_data_stages(pipeline);
    model = std::move(pipeline.ground_truth.model);
    options.engine = pipeline.ground_truth.config.engine_options();
    what = "ground-truth model of generated topology (" +
           std::to_string(model->num_ases()) + " ASes)";
  } else {
    return usage();
  }
  if (cli.has("origin"))
    options.origins.push_back(static_cast<nb::Asn>(cli.get_u64("origin", 0)));
  options.check_blackholes = cli.get_bool("blackholes");
  // 0 = hardware concurrency; per-prefix passes fan out, results are
  // thread-count invariant (see policy_audit.hpp).
  options.threads = static_cast<unsigned>(cli.get_u64("threads", 1));

  ObsSession obs_session;
  if (!obs_session.init(cli, "rdtool audit")) return 2;
  obs::Registry* reg = obs_session.reg();

  obs::CounterId total_ns;
  if (reg != nullptr) total_ns = reg->counter("audit.phase.total_ns");
  obs::PhaseTimer timer(reg, total_ns, obs_session.sink(), "audit");
  const analysis::AuditResult result = analysis::audit_model(*model, options);
  timer.stop();
  const double audit_seconds = timer.seconds();
  if (reg != nullptr) {
    reg->add(reg->counter("audit.prefixes"), result.prefixes.size());
    reg->add(reg->counter("audit.errors"),
             analysis::count(result.diagnostics, analysis::Severity::kError));
    reg->add(reg->counter("audit.warnings"),
             analysis::count(result.diagnostics,
                             analysis::Severity::kWarning));
  }
  if (!obs_session.flush()) return 2;
  if (cli.get_bool("json")) {
    // Render the extra members as an object, then splice them (braces
    // stripped) after the diagnostics array.
    nb::JsonWriter extra;
    extra.begin_object();
    extra.key("seconds").value_fixed(audit_seconds, 6);
    extra.key("threads").value(bgp::ThreadPool::resolve(options.threads));
    extra.key("prefixes")
        .value(static_cast<std::uint64_t>(result.prefixes.size()));
    extra.end_object();
    const std::string& rendered = extra.str();
    std::printf("%s",
                analysis::diagnostics_to_json(
                    "audit", what, result.diagnostics,
                    std::string_view(rendered).substr(1, rendered.size() - 2))
                    .c_str());
  } else {
    std::printf("%s", core::render_audit(result).c_str());
    std::printf("%s", analysis::render_diagnostics(result.diagnostics).c_str());
    std::printf("audit: %zu error(s), %zu warning(s) in %s\n",
                analysis::count(result.diagnostics, analysis::Severity::kError),
                analysis::count(result.diagnostics,
                                analysis::Severity::kWarning),
                what.c_str());
  }
  return result.diagnostics.empty() ? 0 : 1;
}

/// Parses "ASN.IDX" (or bare "ASN", index 0) into a RouterId; nullopt on
/// malformed text.
std::optional<nb::RouterId> parse_router(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t asn = 0;
  std::uint64_t index = 0;
  const std::size_t dot = text.find('.');
  const auto number = [](const std::string& s, std::uint64_t* out) {
    if (s.empty()) return false;
    for (const char c : s) {
      if (c < '0' || c > '9') return false;
      *out = *out * 10 + static_cast<std::uint64_t>(c - '0');
      if (*out > 0xffffffffull) return false;
    }
    return true;
  };
  if (dot == std::string::npos) {
    if (!number(text, &asn)) return std::nullopt;
  } else {
    if (!number(text.substr(0, dot), &asn) ||
        !number(text.substr(dot + 1), &index)) {
      return std::nullopt;
    }
  }
  if (asn > 0xffffu || index > 0xffffu) return std::nullopt;
  return nb::RouterId(static_cast<nb::Asn>(asn),
                      static_cast<std::uint16_t>(index));
}

/// Parses "A.I:B.J" into two RouterIds.
bool parse_session(const std::string& text, nb::RouterId* a, nb::RouterId* b) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return false;
  const auto left = parse_router(text.substr(0, colon));
  const auto right = parse_router(text.substr(colon + 1));
  if (!left || !right) return false;
  *a = *left;
  *b = *right;
  return true;
}

/// Relationship policies / IGP costs switch on when the model carries them
/// (ground-truth models serialize their classes and costs; fitted models
/// have neither), so a diff interprets each side the way its simulations
/// would run.
bgp::EngineOptions detect_engine_options(const topo::Model& model) {
  bgp::EngineOptions options;
  options.use_relationship_policies = !model.neighbor_classes().empty();
  options.use_igp_cost = !model.igp_costs().empty();
  return options;
}

int cmd_diff(const nb::Cli& cli) {
  if (cli.positional().size() != 2) {
    std::fprintf(stderr,
                 "rdtool: diff needs two models (rdtool diff A.model "
                 "B.model)\n");
    return 2;
  }
  auto model_a = load_model(cli.positional()[0]);
  if (!model_a) return 2;
  auto model_b = load_model(cli.positional()[1]);
  if (!model_b) return 2;

  analysis::DiffOptions options;
  options.engine_a = cli.get_bool("a-raw") ? bgp::EngineOptions{}
                                           : detect_engine_options(*model_a);
  options.engine_b = cli.get_bool("b-raw") ? bgp::EngineOptions{}
                                           : detect_engine_options(*model_b);
  if (cli.has("origin"))
    options.origins.push_back(static_cast<nb::Asn>(cli.get_u64("origin", 0)));
  options.threads = static_cast<unsigned>(cli.get_u64("threads", 1));

  const auto start = std::chrono::steady_clock::now();
  const analysis::DiffResult result =
      analysis::diff_models(*model_a, *model_b, options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const std::string subject =
      cli.positional()[0] + " vs " + cli.positional()[1];
  if (cli.get_bool("json")) {
    nb::JsonWriter extra;
    extra.begin_object();
    extra.key("seconds").value_fixed(seconds, 6);
    extra.key("identical").value(result.identical());
    extra.key("prefixes_compared")
        .value(static_cast<std::uint64_t>(result.prefixes_compared));
    extra.key("prefixes_skipped")
        .value(static_cast<std::uint64_t>(result.prefixes_skipped));
    extra.key("routers_differing")
        .value(static_cast<std::uint64_t>(result.routers_differing));
    extra.key("structure_findings")
        .value(static_cast<std::uint64_t>(result.structure_findings));
    extra.key("truncated").value(result.truncated);
    extra.end_object();
    const std::string& rendered = extra.str();
    std::printf("%s",
                analysis::diagnostics_to_json(
                    "diff", subject, result.diagnostics,
                    std::string_view(rendered).substr(1, rendered.size() - 2))
                    .c_str());
  } else {
    std::printf("%s", analysis::render_diagnostics(result.diagnostics).c_str());
    if (result.identical()) {
      std::printf("diff: no differences across %zu prefix(es)%s\n",
                  result.prefixes_compared,
                  result.truncated
                      ? " (enumeration capped: equivalence holds for the "
                        "enumerated route space only)"
                      : " (models are route-equivalent)");
    } else {
      std::printf("diff: %zu router(s) differ across %zu prefix(es), "
                  "%zu structural finding(s)\n",
                  result.routers_differing, result.prefixes_compared,
                  result.structure_findings);
    }
  }
  return result.identical() ? 0 : 1;
}

int cmd_impact(const nb::Cli& cli) {
  auto model = load_model(cli.get_string("model", ""));
  if (!model) return 2;

  analysis::ModelEdit edit;
  const std::string kind = cli.get_string("edit", "");
  const std::string session = cli.get_string("session", "");
  if (kind == "session-down") {
    edit.kind = analysis::ModelEdit::Kind::kSessionDown;
    if (!parse_session(session, &edit.a, &edit.b)) {
      std::fprintf(stderr, "rdtool: session-down needs --session A.I:B.J\n");
      return 2;
    }
  } else if (kind == "policy-change") {
    edit.kind = analysis::ModelEdit::Kind::kPolicyChange;
    const auto router = parse_router(cli.get_string("router", ""));
    if (!router || !cli.has("origin")) {
      std::fprintf(stderr,
                   "rdtool: policy-change needs --router A.I and --origin N "
                   "[--prefer ASN]\n");
      return 2;
    }
    edit.router = *router;
    edit.prefix =
        nb::Prefix::for_asn(static_cast<nb::Asn>(cli.get_u64("origin", 0)));
    edit.preferred = cli.has("prefer")
                         ? static_cast<nb::Asn>(cli.get_u64("prefer", 0))
                         : nb::kInvalidAsn;
  } else if (kind == "filter-edit") {
    edit.kind = analysis::ModelEdit::Kind::kFilterEdit;
    if (!parse_session(session, &edit.a, &edit.b) || !cli.has("origin")) {
      std::fprintf(stderr,
                   "rdtool: filter-edit needs --session A.I:B.J and "
                   "--origin N [--deny-below L]\n");
      return 2;
    }
    edit.prefix =
        nb::Prefix::for_asn(static_cast<nb::Asn>(cli.get_u64("origin", 0)));
    edit.deny_below_len =
        static_cast<std::uint32_t>(cli.get_u64("deny-below", 0));
  } else {
    std::fprintf(stderr,
                 "rdtool: --edit must be session-down, policy-change or "
                 "filter-edit\n");
    return 2;
  }

  analysis::ImpactOptions options;
  options.engine = detect_engine_options(*model);
  if (cli.has("origin"))
    options.origins.push_back(static_cast<nb::Asn>(cli.get_u64("origin", 0)));

  const auto start = std::chrono::steady_clock::now();
  const analysis::ImpactResult result =
      analysis::compute_impact(*model, edit, options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (cli.get_bool("json")) {
    nb::JsonWriter json;
    json.begin_object();
    json.key("tool").value("impact");
    json.key("edit").value(edit.str());
    json.key("seconds").value_fixed(seconds, 6);
    json.key("routers_total")
        .value(static_cast<std::uint64_t>(result.routers_total));
    json.key("truncated").value(result.truncated);
    json.key("prefixes").begin_array();
    for (const analysis::PrefixImpact& impact : result.prefixes) {
      json.begin_object();
      json.key("prefix").value(impact.prefix.str());
      json.key("origin").value(static_cast<std::uint64_t>(impact.origin));
      json.key("truncated").value(impact.truncated);
      json.key("routers").begin_array();
      for (const nb::RouterId id : impact.routers) json.value(id.str());
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::printf("%s\n", json.str().c_str());
  } else {
    std::printf("impact of %s:\n", edit.str().c_str());
    for (const analysis::PrefixImpact& impact : result.prefixes) {
      std::printf("  prefix %s (origin AS %u): %zu router(s)%s\n",
                  impact.prefix.str().c_str(), impact.origin,
                  impact.routers.size(),
                  impact.truncated
                      ? " [enumeration capped: relaxed-reachability bound]"
                      : "");
      std::string line;
      for (const nb::RouterId id : impact.routers) {
        if (!line.empty()) line += " ";
        line += id.str();
      }
      if (!line.empty()) std::printf("    %s\n", line.c_str());
    }
    std::printf("impact: %zu router(s) across %zu prefix(es)\n",
                result.routers_total, result.prefixes.size());
  }
  return 0;
}

/// `rdtool plan`: static working-set and shard-plan analyzer
/// (analysis/workset.hpp + analysis/partition.hpp).  Deliberately emits no
/// timings in --json mode: the CI determinism gate asserts byte-identical
/// output for identical inputs.
int cmd_plan(const nb::Cli& cli) {
  std::optional<topo::Model> model;
  bgp::EngineOptions engine_options;
  std::string what;
  if (cli.has("model")) {
    const std::string path = cli.get_string("model", "");
    model = load_model(path);
    if (!model) return 2;
    engine_options = detect_engine_options(*model);
    what = path;
  } else if (cli.get_bool("generated")) {
    core::PipelineConfig config = core::PipelineConfig::with(
        cli.get_double("scale", 0.2), cli.get_u64("seed", 1));
    core::Pipeline pipeline = core::make_pipeline(config);
    core::run_data_stages(pipeline);
    model = std::move(pipeline.ground_truth.model);
    engine_options = pipeline.ground_truth.config.engine_options();
    what = "ground-truth model of generated topology (" +
           std::to_string(model->num_ases()) + " ASes)";
  } else {
    return usage();
  }

  analysis::PlanOptions plan_options;
  plan_options.shards = cli.get_u64("shards", 4);
  if (plan_options.shards == 0) {
    std::fprintf(stderr, "rdtool: --shards must be at least 1\n");
    return 2;
  }
  analysis::WorksetOptions workset_options;
  workset_options.exact = !cli.get_bool("no-exact");

  bgp::Engine engine(*model, engine_options);
  analysis::Diagnostics diagnostics;
  const std::vector<analysis::PrefixWorkset> worksets =
      analysis::compute_all_worksets(engine, workset_options, &diagnostics);
  const analysis::ShardPlan plan = analysis::plan_shards(
      worksets, model->num_routers(), plan_options, &diagnostics);

  if (cli.get_bool("json")) {
    std::printf("%s\n", analysis::plan_to_json(plan, worksets).c_str());
  } else {
    std::printf("shard plan for %s:\n", what.c_str());
    for (std::size_t s = 0; s < plan.shards.size(); ++s) {
      const analysis::ShardPlan::Shard& shard = plan.shards[s];
      std::printf("  shard %zu: %zu prefix(es), cost %llu, %zu router(s)\n",
                  s, shard.prefixes.size(),
                  static_cast<unsigned long long>(shard.cost), shard.routers);
    }
    std::printf("plan: %zu prefix(es) over %zu shard(s), total cost %llu, "
                "cut weight %llu, imbalance %.3f, %zu relaxed prefix(es)\n",
                worksets.size(), plan.num_shards,
                static_cast<unsigned long long>(plan.total_cost),
                static_cast<unsigned long long>(plan.cut_weight),
                plan.imbalance, plan.relaxed_prefixes);
    std::printf("%s", analysis::render_diagnostics(diagnostics).c_str());
  }
  return 0;
}

/// `rdtool stats TRACE`: reads a trace written by `refine --trace` (Chrome
/// trace_event or JSONL) and summarizes it -- per-iteration convergence
/// table (the trace-side twin of render_refine_log, from the "iteration"
/// span args) plus a phase-time breakdown and per-prefix span totals.
/// Loads a refinement trace -- the Chrome trace_event envelope or the
/// JSONL form -- into a flat event list.  Shared by `rdtool stats` and
/// `rdtool profile`.  False after printing the error (exit-2 semantics).
bool load_trace_events(const std::string& path,
                       std::vector<nb::JsonValue>* events) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rdtool: cannot open trace %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::string error;
  if (auto doc = nb::json_parse(text, &error); doc.has_value()) {
    // One document: the Chrome envelope (or a single bare event).
    if (const nb::JsonValue* list = doc->find("traceEvents");
        list != nullptr && list->is_array()) {
      *events = list->array;
    } else if (doc->find("ph") != nullptr) {
      events->push_back(std::move(*doc));
    } else {
      std::fprintf(stderr, "rdtool: %s: no traceEvents array\n", path.c_str());
      return false;
    }
    return true;
  }
  // JSONL: one event object per line.
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto event = nb::json_parse(line, &error);
    if (!event) {
      std::fprintf(stderr, "rdtool: %s:%zu: %s\n", path.c_str(), line_no,
                   error.c_str());
      return false;
    }
    events->push_back(std::move(*event));
  }
  return true;
}

int cmd_stats(const nb::Cli& cli) {
  std::string path = cli.get_string("trace", "");
  if (path.empty() && !cli.positional().empty()) path = cli.positional().front();
  if (path.empty()) {
    std::fprintf(stderr, "rdtool: stats needs a trace file "
                         "(rdtool stats TRACE)\n");
    return 2;
  }
  std::vector<nb::JsonValue> events;
  if (!load_trace_events(path, &events)) return 2;

  struct PhaseAgg {
    std::uint64_t count = 0;
    std::uint64_t us = 0;
  };
  std::vector<std::pair<std::string, PhaseAgg>> phases;  // first-seen order
  const auto phase_slot = [&phases](std::string_view name) -> PhaseAgg& {
    for (auto& [known, agg] : phases)
      if (known == name) return agg;
    phases.emplace_back(std::string(name), PhaseAgg{});
    return phases.back().second;
  };

  nb::TextTable table({"iter", "active", "matched", "routers", "+routers",
                       "filters", "rankings", "~policies", "messages"});
  std::size_t iterations = 0;
  std::uint64_t prefix_spans = 0;
  std::uint64_t prefix_messages = 0;
  for (const nb::JsonValue& event : events) {
    if (event.string_or("ph") != "X") continue;
    const std::string_view cat = event.string_or("cat");
    const std::string_view name = event.string_or("name");
    const nb::JsonValue* args = event.find("args");
    if (cat == "prefix") {
      ++prefix_spans;
      if (args != nullptr)
        prefix_messages +=
            static_cast<std::uint64_t>(args->number_or("messages"));
      continue;
    }
    if (cat == "phase") {
      PhaseAgg& agg = phase_slot(name);
      ++agg.count;
      agg.us += static_cast<std::uint64_t>(event.number_or("dur"));
      continue;
    }
    if (name != "iteration" || args == nullptr) continue;
    ++iterations;
    const auto u64 = [args](std::string_view key) {
      return static_cast<std::uint64_t>(args->number_or(key));
    };
    table.add_row({std::to_string(u64("iteration")),
                   std::to_string(u64("active_prefixes")),
                   std::to_string(u64("matched")) + "/" +
                       std::to_string(u64("paths_total")),
                   std::to_string(u64("routers")),
                   "+" + std::to_string(u64("routers_added")),
                   std::to_string(u64("filters")),
                   std::to_string(u64("rankings")),
                   "~" + std::to_string(u64("policies_changed")),
                   std::to_string(u64("messages"))});
  }

  std::printf("trace: %s (%zu events)\n", path.c_str(), events.size());
  if (iterations == 0) {
    std::printf("no refinement iteration spans (trace level below "
                "'iteration', or not a refine trace)\n");
  } else {
    std::printf("\n%s", table.render().c_str());
  }
  if (!phases.empty()) {
    nb::TextTable phase_table({"phase", "spans", "seconds"});
    for (const auto& [name, agg] : phases) {
      char seconds[32];
      std::snprintf(seconds, sizeof seconds, "%.3f",
                    static_cast<double>(agg.us) / 1e6);
      phase_table.add_row({name, std::to_string(agg.count), seconds});
    }
    std::printf("\n%s", phase_table.render().c_str());
  }
  if (prefix_spans > 0) {
    std::printf("\nper-prefix sims: %llu spans, %llu messages\n",
                static_cast<unsigned long long>(prefix_spans),
                static_cast<unsigned long long>(prefix_messages));
  }
  return 0;
}

/// `rdtool profile TRACE [--json]`: the post-run sweep profiler (DESIGN.md
/// section 14).  Reads the per-prefix "shard" spans a `refine --trace` run
/// emits at trace level iteration or above and attributes parallel speedup
/// loss to imbalance vs idle vs serial sections.
int cmd_profile(const nb::Cli& cli) {
  std::string path = cli.get_string("trace", "");
  if (path.empty() && !cli.positional().empty()) path = cli.positional().front();
  if (path.empty()) {
    std::fprintf(stderr, "rdtool: profile needs a trace file "
                         "(rdtool profile TRACE)\n");
    return 2;
  }
  std::vector<nb::JsonValue> events;
  if (!load_trace_events(path, &events)) return 2;

  std::vector<obs::SweepShardSample> samples;
  std::vector<obs::SweepIterationSpan> all_sweeps;
  double total_seconds = 0;
  for (const nb::JsonValue& event : events) {
    if (event.string_or("ph") != "X") continue;
    const std::string_view cat = event.string_or("cat");
    const std::string_view name = event.string_or("name");
    const nb::JsonValue* args = event.find("args");
    if (cat == "sweep" && name == "shard" && args != nullptr) {
      obs::SweepShardSample s;
      s.iteration = static_cast<std::size_t>(args->number_or("iteration"));
      s.shard = static_cast<std::size_t>(args->number_or("shard"));
      const auto tid = static_cast<std::uint64_t>(event.number_or("tid"));
      s.worker = tid >= 1000 ? static_cast<unsigned>(tid - 1000) : 0;
      s.start_us = static_cast<std::uint64_t>(event.number_or("ts"));
      s.dur_us = static_cast<std::uint64_t>(event.number_or("dur"));
      s.messages = static_cast<std::uint64_t>(args->number_or("messages"));
      s.prefixes = static_cast<std::size_t>(args->number_or("prefixes"));
      s.arena_bytes =
          static_cast<std::uint64_t>(args->number_or("arena_bytes"));
      samples.push_back(s);
    } else if (cat == "phase" && name == "simulate") {
      obs::SweepIterationSpan span;
      span.iteration =
          args != nullptr
              ? static_cast<std::size_t>(args->number_or("iteration"))
              : 0;
      span.start_us = static_cast<std::uint64_t>(event.number_or("ts"));
      span.dur_us = static_cast<std::uint64_t>(event.number_or("dur"));
      all_sweeps.push_back(span);
    } else if (cat == "phase" && name == "refine") {
      total_seconds = event.number_or("dur") / 1e6;
    }
  }
  if (samples.empty()) {
    std::fprintf(stderr,
                 "rdtool: %s has no sweep shard spans; profile needs a trace "
                 "from `refine --trace F` at --trace-level iteration or "
                 "above\n",
                 path.c_str());
    return 1;
  }
  // Attribute only the sweeps that carry samples (matching what an
  // in-process RefineResult would carry); simulate spans without them stay
  // in the serial share.
  std::vector<obs::SweepIterationSpan> sweeps;
  for (const obs::SweepIterationSpan& span : all_sweeps) {
    for (const obs::SweepShardSample& s : samples) {
      if (s.iteration == span.iteration) {
        sweeps.push_back(span);
        break;
      }
    }
  }
  const obs::SweepProfile profile =
      obs::profile_sweep(samples, sweeps, total_seconds);

  if (cli.get_bool("json")) {
    nb::JsonWriter w;
    w.begin_object();
    w.key("tool").value("profile");
    w.key("version").value(1);
    w.key("trace").value(path);
    w.key("workers").value(profile.workers);
    w.key("iterations").value(static_cast<std::uint64_t>(profile.iterations));
    w.key("shard_samples")
        .value(static_cast<std::uint64_t>(profile.shard_samples));
    w.key("total_seconds").value_fixed(profile.total_seconds, 6);
    w.key("parallel_seconds").value_fixed(profile.parallel_seconds, 6);
    w.key("serial_seconds").value_fixed(profile.serial_seconds, 6);
    w.key("busy_seconds").value_fixed(profile.busy_seconds, 6);
    w.key("idle_seconds").value_fixed(profile.idle_seconds, 6);
    w.key("imbalance_seconds").value_fixed(profile.imbalance_seconds, 6);
    w.key("overhead_seconds").value_fixed(profile.overhead_seconds, 6);
    w.key("measured_speedup").value_fixed(profile.measured_speedup, 4);
    w.key("lanes").begin_array();
    for (const obs::WorkerLane& lane : profile.lanes) {
      w.begin_object();
      w.key("worker").value(lane.worker);
      w.key("shards").value(lane.shards);
      w.key("busy_seconds")
          .value_fixed(static_cast<double>(lane.busy_us) / 1e6, 6);
      w.key("idle_seconds")
          .value_fixed(static_cast<double>(lane.idle_us) / 1e6, 6);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("profile: %s\n", path.c_str());
  std::printf("%u worker(s), %zu sweep(s), %zu shard sample(s)\n",
              profile.workers, profile.iterations, profile.shard_samples);
  std::printf("wall clock %.3fs = parallel %.3fs + serial %.3fs\n",
              profile.total_seconds, profile.parallel_seconds,
              profile.serial_seconds);
  std::printf(
      "speedup loss: imbalance %.3fs, sweep overhead (scheduling) %.3fs, "
      "worker idle %.3fs\n",
      profile.imbalance_seconds, profile.overhead_seconds,
      profile.idle_seconds);
  std::printf("measured speedup %.2fx over the same work serialized\n",
              profile.measured_speedup);
  nb::TextTable lanes({"worker", "shards", "busy s", "idle s", "busy %"});
  for (const obs::WorkerLane& lane : profile.lanes) {
    const double busy = static_cast<double>(lane.busy_us) / 1e6;
    const double idle = static_cast<double>(lane.idle_us) / 1e6;
    char busy_s[32], idle_s[32], util[32];
    std::snprintf(busy_s, sizeof busy_s, "%.3f", busy);
    std::snprintf(idle_s, sizeof idle_s, "%.3f", idle);
    std::snprintf(util, sizeof util, "%.1f",
                  busy + idle > 0 ? 100.0 * busy / (busy + idle) : 0.0);
    lanes.add_row({std::to_string(lane.worker),
                   std::to_string(lane.shards), busy_s, idle_s, util});
  }
  std::printf("\n%s", lanes.render().c_str());
  return 0;
}

/// `rdtool serve`: the long-lived route-prediction daemon (DESIGN.md
/// section 15).  Loads the fitted model once, then answers predict /
/// explain / what-if / health queries over the length-prefixed JSON
/// protocol until SIGINT/SIGTERM, which triggers the cooperative drain:
/// stop accepting, finish the admitted queue within --drain-seconds, flush
/// observability atomically, exit 0.  `--once REQUEST` answers a single
/// request on stdout through the exact worker code path (no sockets) --
/// the byte-identity oracle the tests and quick-start examples use.
int cmd_serve(const nb::Cli& cli) {
  if (!cli.has("model")) return usage();
  auto model = load_model(cli.get_string("model", ""));
  if (!model) return 1;

  serve::ServeConfig config;
  config.threads = static_cast<unsigned>(cli.get_u64("threads", 0));
  config.queue_capacity =
      static_cast<std::size_t>(cli.get_u64("queue-capacity", 0));
  config.deadline_seconds = cli.get_double("deadline-seconds", 2.0);
  config.drain_seconds = cli.get_double("drain-seconds", 5.0);
  config.whatif_max_origins =
      static_cast<std::size_t>(cli.get_u64("whatif-origins", 8));
  config.engine = detect_engine_options(*model);
#ifdef RD_FAULT_INJECTION
  // Request-addressed fault points (throw/stall/bad-alloc/diverge) stay
  // inert unless the operator opts in: a daemon exposed to real clients
  // must not let them stall its workers.
  config.fault.honor_request_faults = cli.get_bool("allow-request-faults");
  config.fault.stall_ms = cli.get_u64("stall-ms", 200);
#endif

  ObsSession obs_session;
  if (!obs_session.init(cli, "rdtool serve")) return 2;
  config.trace = obs_session.sink();

  if (cli.has("once")) {
    // One request, no sockets, no threads: parse -> execute -> render on
    // stdout.  Exit 0 unless the answer itself is an error.
    serve::Server server(*model, config);
    const std::string response = server.answer(cli.get_string("once", ""));
    std::printf("%s\n", response.c_str());
    if (!obs_session.flush()) return 1;
    const auto doc = nb::json_parse(response, nullptr);
    return doc && doc->string_or("status") != "error" ? 0 : 1;
  }

  std::optional<obs::FlightRecorder> flight;
  std::string flight_dump_path;
  if (!cli.get_bool("no-flight-recorder")) {
    flight.emplace(
        serve::Server::flight_tracks(nb::resolve_threads(config.threads)),
        cli.get_u64("flight-capacity", obs::FlightRecorder::kDefaultCapacity));
    flight->set_label(0, "accept");
    flight->set_label(1, "admission");
    config.flight = &*flight;
    flight_dump_path = cli.get_string(
        "flight-dump", cli.get_string("model", "") + ".serve.flight.json");
  }

  serve::Server server(*model, config);
  std::string error;
  const auto port = static_cast<std::uint16_t>(cli.get_u64("port", 0));
  if (!server.listen(port, &error)) {
    std::fprintf(stderr, "rdtool: %s\n", error.c_str());
    return 1;
  }
  // CI and scripts pass --port 0 (ephemeral) plus --port-file to learn the
  // kernel's pick without a race.
  if (cli.has("port-file") &&
      !nb::write_file_atomic(cli.get_string("port-file", ""),
                             std::to_string(server.port()) + "\n", &error)) {
    std::fprintf(stderr, "rdtool: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "rdtool: serving %s on 127.0.0.1:%u (%u workers, queue %zu, "
               "deadline %.3fs)\n",
               cli.get_string("model", "").c_str(), server.port(),
               server.workers(), server.queue_capacity(),
               config.deadline_seconds);

  g_interrupt.store(false);
  auto prev_int = std::signal(SIGINT, handle_interrupt);
  auto prev_term = std::signal(SIGTERM, handle_interrupt);
#ifdef SIGPIPE
  // A client hanging up mid-response must surface as a write error on that
  // connection, never kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  while (!g_interrupt.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Cooperative drain (the acceptance contract: SIGTERM always reaches
  // exit 0 with complete artifacts).  shutdown() returns only after every
  // worker and connection thread joined, so the sinks are quiescent for
  // the atomic flush below.
  std::fprintf(stderr, "rdtool: draining (budget %.3fs)\n",
               config.drain_seconds);
  server.request_stop();
  server.shutdown();
  std::signal(SIGINT, prev_int);
  std::signal(SIGTERM, prev_term);

  server.export_metrics(obs_session.reg());
  const bool flushed = obs_session.flush(
      flight.has_value() ? &*flight : nullptr, flight_dump_path);

  const serve::ServeStatus status = server.status();
  std::fprintf(stderr,
               "rdtool: served %llu requests (%llu ok, %llu degraded, "
               "%llu errors, %llu shed) over %llu connections in %.3fs\n",
               static_cast<unsigned long long>(status.requests),
               static_cast<unsigned long long>(status.ok),
               static_cast<unsigned long long>(status.degraded),
               static_cast<unsigned long long>(status.errors),
               static_cast<unsigned long long>(status.shed),
               static_cast<unsigned long long>(status.connections),
               status.uptime_seconds);
  return flushed ? 0 : 1;
}

int cmd_selftest(const nb::Cli& cli) {
  const std::string dir = cli.get_string("dir", "/tmp");
  const std::string dump = dir + "/rdtool_selftest.dump";
  const std::string model_path = dir + "/rdtool_selftest.model";
  const auto slurp = [](const std::string& p) {
    std::ifstream f(p);
    std::ostringstream s;
    s << f.rdbuf();
    return s.str();
  };

  // generate
  {
    const char* argv[] = {"rdtool", "--out",   dump.c_str(), "--scale",
                          "0.12",   "--seed",  "5"};
    nb::Cli sub(7, const_cast<char**>(argv));
    if (cmd_generate(sub) != 0) return 1;
  }
  // refine
  {
    const char* argv[] = {"rdtool", "--dataset", dump.c_str(), "--out",
                          model_path.c_str()};
    nb::Cli sub(5, const_cast<char**>(argv));
    if (cmd_refine(sub) != 0) return 1;
  }
  // refine again with full observability attached: the fitted model must
  // be byte-identical to the unobserved one, and the trace must summarize.
  {
    const std::string traced_model = dir + "/rdtool_selftest_traced.model";
    const std::string trace_path = dir + "/rdtool_selftest.trace";
    const std::string metrics_path = dir + "/rdtool_selftest.metrics.json";
    {
      const char* argv[] = {"rdtool", "--dataset", dump.c_str(),
                            "--out", traced_model.c_str(),
                            "--trace", trace_path.c_str(),
                            "--trace-level", "prefix",
                            "--metrics", metrics_path.c_str()};
      nb::Cli sub(11, const_cast<char**>(argv));
      if (cmd_refine(sub) != 0) return 1;
    }
    if (slurp(model_path) != slurp(traced_model)) {
      std::fprintf(stderr, "selftest: traced refine produced a different "
                           "model\n");
      return 1;
    }
    {
      const char* argv[] = {"rdtool", trace_path.c_str()};
      nb::Cli sub(2, const_cast<char**>(argv));
      if (cmd_stats(sub) != 0) return 1;
    }
    // The same trace must profile: the sweep emits one span per simulated
    // prefix at trace level iteration and above.
    {
      const char* argv[] = {"rdtool", trace_path.c_str(), "--json"};
      nb::Cli sub(3, const_cast<char**>(argv));
      if (cmd_profile(sub) != 0) {
        std::fprintf(stderr, "selftest: profile failed on the refine "
                             "trace\n");
        return 1;
      }
    }
  }
  // Forced degraded fit (--prefix-budget 1 freezes every prefix as R702,
  // exit 3): the default-on flight recorder must leave a post-mortem dump
  // next to the model.
  {
    const std::string degraded_model = dir + "/rdtool_selftest_degraded.model";
    const std::string flight_path = degraded_model + ".flight.json";
    std::remove(flight_path.c_str());
    {
      const char* argv[] = {"rdtool", "--dataset", dump.c_str(),
                            "--out", degraded_model.c_str(),
                            "--prefix-budget", "1"};
      nb::Cli sub(7, const_cast<char**>(argv));
      if (cmd_refine(sub) != 3) {
        std::fprintf(stderr, "selftest: budget-starved refine did not exit "
                             "3\n");
        return 1;
      }
    }
    const std::string flight_doc = slurp(flight_path);
    if (flight_doc.find("flight-recorder") == std::string::npos) {
      std::fprintf(stderr, "selftest: degraded refine left no flight dump "
                           "at %s\n", flight_path.c_str());
      return 1;
    }
  }
#ifdef RD_FAULT_INJECTION
  // Fault tolerance: interrupt a fit mid-flight (deterministically, via the
  // injected interrupt), resume from the checkpoint, and require the
  // resumed fit to land on a byte-identical model.
  {
    const std::string ck_path = dir + "/rdtool_selftest.ckpt";
    const std::string resumed_model = dir + "/rdtool_selftest_resumed.model";
    {
      const char* argv[] = {"rdtool", "--dataset", dump.c_str(),
                            "--out", resumed_model.c_str(),
                            "--checkpoint", ck_path.c_str(),
                            "--checkpoint-every", "1",
                            "--interrupt-after", "2"};
      nb::Cli sub(11, const_cast<char**>(argv));
      if (cmd_refine(sub) != 130) {
        std::fprintf(stderr, "selftest: interrupted refine did not exit "
                             "130\n");
        return 1;
      }
    }
    {
      const char* argv[] = {"rdtool", "--dataset", dump.c_str(),
                            "--out", resumed_model.c_str(),
                            "--resume", ck_path.c_str()};
      nb::Cli sub(7, const_cast<char**>(argv));
      if (cmd_refine(sub) != 0) return 1;
    }
    if (slurp(model_path) != slurp(resumed_model)) {
      std::fprintf(stderr, "selftest: resumed refine produced a different "
                           "model\n");
      return 1;
    }
  }
#endif
  // predict on held-out feeds
  {
    const char* argv[] = {"rdtool", "--dataset", dump.c_str(), "--model",
                          model_path.c_str(), "--validation-only"};
    nb::Cli sub(6, const_cast<char**>(argv));
    if (cmd_predict(sub) != 0) return 1;
  }
  // info on both artifacts
  {
    const char* argv[] = {"rdtool", "--dataset", dump.c_str()};
    nb::Cli sub(3, const_cast<char**>(argv));
    if (cmd_info(sub) != 0) return 1;
  }
  {
    const char* argv[] = {"rdtool", "--model", model_path.c_str()};
    nb::Cli sub(3, const_cast<char**>(argv));
    if (cmd_info(sub) != 0) return 1;
  }
  // lint the fitted model, including the refinement-closure checks; once
  // more in JSON to keep the machine-readable path exercised.
  {
    const char* argv[] = {"rdtool", "--model", model_path.c_str(),
                          "--fitted"};
    nb::Cli sub(4, const_cast<char**>(argv));
    if (cmd_lint(sub) != 0) return 1;
  }
  {
    const char* argv[] = {"rdtool", "--model", model_path.c_str(),
                          "--fitted", "--json"};
    nb::Cli sub(5, const_cast<char**>(argv));
    if (cmd_lint(sub) != 0) return 1;
  }
  // static audit of the fitted model.  Advisory findings (dead policies,
  // truncation) exit 1 and are fine here; only usage/IO failures (exit >= 2)
  // fail the selftest.  test_audit separately asserts fitted models carry no
  // S500 dispute wheel.
  {
    const char* argv[] = {"rdtool", "--model", model_path.c_str()};
    nb::Cli sub(3, const_cast<char**>(argv));
    if (cmd_audit(sub) >= 2) return 1;
  }
  // static diff of the fitted model against itself: must be empty (exit 0).
  {
    const char* argv[] = {"rdtool", model_path.c_str(), model_path.c_str()};
    nb::Cli sub(3, const_cast<char**>(argv));
    if (cmd_diff(sub) != 0) {
      std::fprintf(stderr, "selftest: self-diff reported differences\n");
      return 1;
    }
  }
  // static impact of downing the first session of the fitted model; exit 0
  // regardless of the set's size.
  {
    auto model = load_model(model_path);
    if (!model) return 1;
    std::string session;
    for (topo::Model::Dense r = 0;
         r < model->num_routers() && session.empty(); ++r) {
      if (!model->peers(r).empty()) {
        session = model->router_id(r).str() + ":" +
                  model->router_id(model->peers(r).front()).str();
      }
    }
    const char* argv[] = {"rdtool", "--model", model_path.c_str(),
                          "--edit", "session-down",
                          "--session", session.c_str(), "--json"};
    nb::Cli sub(8, const_cast<char**>(argv));
    if (cmd_impact(sub) != 0) return 1;
  }
  // what-if on the fitted model: remove the first link we can find.
  {
    auto model = load_model(model_path);
    if (!model) return 1;
    nb::Asn a = nb::kInvalidAsn, b = nb::kInvalidAsn;
    for (topo::Model::Dense r = 0; r < model->num_routers() && a == nb::kInvalidAsn; ++r) {
      if (!model->peers(r).empty()) {
        a = model->router_id(r).asn();
        b = model->router_id(model->peers(r).front()).asn();
      }
    }
    std::string link = std::to_string(a) + ":" + std::to_string(b);
    const char* argv[] = {"rdtool", "--model", model_path.c_str(),
                          "--remove-link", link.c_str(), "--prefixes", "10"};
    nb::Cli sub(7, const_cast<char**>(argv));
    if (cmd_whatif(sub) != 0) return 1;
  }
  std::printf("selftest OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  nb::Cli cli(argc - 1, argv + 1);
  if (command == "generate") return cmd_generate(cli);
  if (command == "info") return cmd_info(cli);
  if (command == "refine") return cmd_refine(cli);
  if (command == "predict") return cmd_predict(cli);
  if (command == "whatif") return cmd_whatif(cli);
  if (command == "explain") return cmd_explain(cli);
  if (command == "lint") return cmd_lint(cli);
  if (command == "audit") return cmd_audit(cli);
  if (command == "diff") return cmd_diff(cli);
  if (command == "impact") return cmd_impact(cli);
  if (command == "plan") return cmd_plan(cli);
  if (command == "stats") return cmd_stats(cli);
  if (command == "profile") return cmd_profile(cli);
  if (command == "serve") return cmd_serve(cli);
  if (command == "selftest") return cmd_selftest(cli);
  if (command == "help" || command == "--help" || command == "-h") {
    print_help(stdout);
    return 0;
  }
  return usage();
}

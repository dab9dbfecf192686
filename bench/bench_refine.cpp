// PERF -- refinement fit benchmark (the perf counterpart of bench_scale).
//
// Times core::refine_model end to end at several topology scales, for one
// thread and for the hardware thread count, reporting wall-clock, the
// simulate/heuristic/validate phase split and engine message throughput.
// Also asserts the parallel sweep's core guarantee: the fitted model is
// byte-identical for every thread count (exit 1 if not).
//
// Output: a human-readable table on stdout plus a JSON report (default
// BENCH_refine.json) for CI artifacts.  With baseline=FILE the 1-thread
// total at each scale is gated against the recorded baseline:
// exit 1 if current > max-regress x baseline (CI perf smoke).
//
// Also times the static route-space analyzer (a 1-thread self-diff of the
// fitted model -- two MAY-set enumerations per prefix plus the comparison,
// the same path CI's diff gate exercises) and gates it against the
// baseline alongside the fit, re-proving self-diff emptiness on the way.
//
// The static working-set analyzer (analysis/workset.hpp) gets the same
// treatment: 1-thread runs time compute_all_worksets + plan_shards over the
// fitted model (the `rdtool plan` path) as `workset_seconds`, then replay
// one sweep per prefix over its identity view (the view the refinement
// sweep simulates, charged its view construction).  The per-prefix (static
// cost, measured sweep seconds) samples from every 1-thread run are pooled
// ACROSS scales and their correlation gated positive: within one scale the
// fitted models' per-prefix workloads are deliberately uniform (measured
// message counts are constant), so only the cross-scale pool carries
// predictable variance.
//
// Every run also records fit throughput in routers/sec (fitted quasi-
// routers over fit wall-clock) and the process peak RSS
// (nb::peak_rss_bytes -- a process-wide high-water mark, so later scales
// report the running maximum), and each scale's hardware-thread leg
// reports its parallel_speedup over the 1-thread leg.  Above the
// timer-noise floor, whenever more than one hardware thread is available,
// the speedup is gated >= 1x: the scale re-fits 1-thread and multi-thread
// alternately three times and compares the best fit times.
//
// The observer-overhead leg (DESIGN.md section 14) re-fits the largest
// requested scale at the multi-thread count twice -- once bare (no
// observer, no trace, no flight recorder: the zero-observer path) and once
// fully profiled (metric registry + kIteration trace sink + flight
// recorder) -- best-of-3 each, asserts the two fitted models are
// byte-identical, and gates profiled/bare <= --observer-overhead-max
// (default 1.05, the CI perf-smoke gate) at scales above the noise floor.
//
//   bench_refine [--scales=0.05,0.1,0.2] [--seed=1] [--threads=0]
//                [--out=BENCH_refine.json] [--baseline=FILE]
//                [--max-regress=2.0] [--write-baseline=FILE]
//                [--observer-overhead-max=1.05] [--skip-overhead]
//
// The baseline file is plain text, one `scale <fit-seconds>
// <route-space-seconds> <workset-seconds> <routers-per-sec> <peak-rss-mb>`
// line per scale, written by --write-baseline on a reference machine and
// parsed here without any JSON dependency.  The column count is STRICT:
// each metric column mirrors a gated BENCH_refine.json key, and a file
// whose lines disagree with the expected count is a named
// baseline-column-mismatch error, not a silent skip -- stale baselines
// previously disabled the gate without a trace.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/model_diff.hpp"
#include "analysis/partition.hpp"
#include "analysis/workset.hpp"
#include "bgp/sim_memory.hpp"
#include "bgp/threadpool.hpp"
#include "core/pipeline.hpp"
#include "netbase/cli.hpp"
#include "netbase/json.hpp"
#include "netbase/sysinfo.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "topology/model_io.hpp"

namespace {

struct RunResult {
  double scale = 0;
  unsigned threads = 0;       // requested (resolved, see threads_used)
  unsigned threads_used = 0;
  core::RefineResult refine;
  std::size_t routers = 0;
  std::string model_text;     // serialized fit, for cross-thread identity
  /// Phase timings as recorded by the obs registry (refine.phase.*_ns):
  /// every run attaches a metric registry -- never a trace sink, so the
  /// timed sweep stays on the cheap counters-only path -- and the JSON
  /// report carries both the wall-clock and the registry view.
  std::uint64_t simulate_ns = 0;
  std::uint64_t heuristic_ns = 0;
  std::uint64_t validate_ns = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t engine_messages = 0;
  /// Route-space analyzer wall-clock: 1-thread self-diff of the fitted
  /// model (0 on multi-thread runs, which skip it).
  double route_space_seconds = 0;
  bool self_diff_identical = true;
  /// Working-set analyzer wall-clock: compute_all_worksets + plan_shards
  /// over the fitted model (1-thread runs only; 0 elsewhere).
  double workset_seconds = 0;
  double plan_imbalance = 0;
  /// Process peak RSS right after the fit (getrusage high-water mark:
  /// monotone across the process, so per-scale values are running maxima).
  std::uint64_t peak_rss_bytes = 0;
  /// 1-thread total / this run's total; only set on the multi-thread leg
  /// (best-of-3 fit times at gated scales).
  double parallel_speedup = 0;
  /// Per-prefix (static cost, measured full-run seconds) samples; pooled
  /// across scales in main for the cost-model validation.
  std::vector<double> prefix_costs;
  std::vector<double> prefix_times;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  if (n < 2) return 0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> parse_scales(const std::string& text) {
  std::vector<double> scales;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) scales.push_back(std::stod(item));
  }
  return scales;
}

RunResult run_once(double scale, std::uint64_t seed, unsigned threads) {
  core::PipelineConfig config = core::PipelineConfig::with(scale, seed);
  config.threads = threads;
  config.refine.threads = threads;
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);

  topo::Model model = topo::Model::one_router_per_as(pipeline.graph);
  RunResult run;
  run.scale = scale;
  run.threads = threads;
  obs::Registry registry;
  obs::Observer observer;
  observer.registry = &registry;
  config.refine.observer = &observer;
  run.refine =
      core::refine_model(model, pipeline.split.training, config.refine);
  run.simulate_ns = registry.counter_value("refine.phase.simulate_ns");
  run.heuristic_ns = registry.counter_value("refine.phase.heuristic_ns");
  run.validate_ns = registry.counter_value("refine.phase.validate_ns");
  run.total_ns = registry.counter_value("refine.phase.total_ns");
  run.engine_messages = registry.counter_value("engine.messages");
  run.threads_used = run.refine.threads_used;
  run.routers = model.num_routers();
  run.peak_rss_bytes = nb::peak_rss_bytes();
  run.model_text = topo::model_to_string(model);
  if (threads == 1) {
    // Static route-space analyzer leg: a 1-thread self-diff of the fitted
    // model enumerates every prefix's MAY sets twice and compares them --
    // the hot path behind `rdtool diff`/`impact` -- and must come back
    // empty (the analyzer's own CI invariant).
    analysis::DiffOptions diff_options;
    diff_options.threads = 1;
    const auto start = std::chrono::steady_clock::now();
    const analysis::DiffResult self =
        analysis::diff_models(model, model, diff_options);
    run.route_space_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    run.self_diff_identical = self.identical();

    // Working-set analyzer leg: per-prefix working sets + shard plan over
    // the fitted model -- the path behind `rdtool plan`.
    bgp::Engine engine(model, config.refine.engine);
    const auto ws_start = std::chrono::steady_clock::now();
    const std::vector<analysis::PrefixWorkset> worksets =
        analysis::compute_all_worksets(engine);
    const analysis::ShardPlan plan =
        analysis::plan_shards(worksets, model.num_routers(), {}, nullptr);
    run.workset_seconds = seconds_since(ws_start);
    run.plan_imbalance = plan.imbalance;

    // Cost-model samples: one sweep over every prefix through identity
    // views, reusing one scratch and one result like a sweep worker and
    // charging view construction.  The (cost, seconds) pairs feed the
    // pooled cross-scale predicted-vs-measured correlation in main.
    bgp::SimMemory memory;
    bgp::PrefixSimResult sim;
    for (const analysis::PrefixWorkset& ws : worksets) {
      const auto start = std::chrono::steady_clock::now();
      engine.run_into(engine.identity_view(ws.prefix, ws.origin), memory,
                      nullptr, nullptr, sim);
      run.prefix_costs.push_back(static_cast<double>(ws.cost));
      run.prefix_times.push_back(seconds_since(start));
    }
  }
  return run;
}

/// One timed fit for the observer-overhead and parallel-speedup legs.
/// `profiled` attaches the full
/// observability stack -- metric registry, kIteration trace sink and a
/// flight recorder -- exactly like `rdtool refine --trace`; bare runs
/// attach nothing, so they exercise the zero-observer path the overhead
/// ratio is measured against.
struct OverheadRun {
  double seconds = 0;
  std::string model_text;
};

OverheadRun run_overhead_leg(double scale, std::uint64_t seed,
                             unsigned threads, bool profiled) {
  core::PipelineConfig config = core::PipelineConfig::with(scale, seed);
  config.threads = threads;
  config.refine.threads = threads;
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);
  topo::Model model = topo::Model::one_router_per_as(pipeline.graph);

  obs::Registry registry;
  obs::TraceSink trace(obs::TraceLevel::kIteration);
  obs::Observer observer;
  observer.registry = &registry;
  observer.trace = &trace;
  obs::FlightRecorder flight(1 + bgp::ThreadPool::resolve(threads));
  if (profiled) {
    config.refine.observer = &observer;
    config.refine.flight_recorder = &flight;
  }
  const auto start = std::chrono::steady_clock::now();
  core::refine_model(model, pipeline.split.training, config.refine);
  OverheadRun run;
  run.seconds = seconds_since(start);
  run.model_text = topo::model_to_string(model);
  return run;
}

double messages_per_second(const RunResult& run) {
  const double sim = run.refine.phase_seconds.simulate;
  if (sim <= 0) return 0;
  return static_cast<double>(run.refine.messages_simulated) / sim;
}

/// Fit throughput: fitted quasi-routers over end-to-end fit wall-clock --
/// the paper-scale headline number (README "Scaling up").
double routers_per_second(const RunResult& run) {
  const double total = run.refine.phase_seconds.total;
  if (total <= 0) return 0;
  return static_cast<double>(run.routers) / total;
}

void append_json(nb::JsonWriter& w, const RunResult& run) {
  w.begin_object();
  w.key("scale").value_fixed(run.scale, 3);
  w.key("threads").value(run.threads);
  w.key("threads_used").value(run.threads_used);
  w.key("success").value(run.refine.success);
  w.key("iterations").value(static_cast<std::uint64_t>(run.refine.iterations));
  w.key("routers").value(static_cast<std::uint64_t>(run.routers));
  w.key("messages").value(run.refine.messages_simulated);
  w.key("messages_per_second").value_fixed(messages_per_second(run), 0);
  w.key("routers_per_second").value_fixed(routers_per_second(run), 1);
  w.key("peak_rss_bytes").value(run.peak_rss_bytes);
  // 0 on 1-thread legs; the multi-thread leg carries its speedup over the
  // 1-thread fit at the same scale.
  w.key("parallel_speedup").value_fixed(run.parallel_speedup, 3);
  w.key("phase_seconds").begin_object();
  w.key("simulate").value_fixed(run.refine.phase_seconds.simulate, 6);
  w.key("heuristic").value_fixed(run.refine.phase_seconds.heuristic, 6);
  w.key("validate").value_fixed(run.refine.phase_seconds.validate, 6);
  w.key("total").value_fixed(run.refine.phase_seconds.total, 6);
  w.end_object();
  // The same phases as recorded by the metric registry the run attaches
  // (see bench/README.md for the full schema).
  w.key("registry").begin_object();
  w.key("simulate_ns").value(run.simulate_ns);
  w.key("heuristic_ns").value(run.heuristic_ns);
  w.key("validate_ns").value(run.validate_ns);
  w.key("total_ns").value(run.total_ns);
  w.key("engine_messages").value(run.engine_messages);
  w.end_object();
  // Route-space analyzer leg (1-thread runs only; 0 elsewhere).
  w.key("route_space_seconds").value_fixed(run.route_space_seconds, 6);
  w.key("self_diff_identical").value(run.self_diff_identical);
  // Working-set analyzer leg (1-thread runs only; 0 elsewhere).
  w.key("workset_seconds").value_fixed(run.workset_seconds, 6);
  w.key("plan_imbalance").value_fixed(run.plan_imbalance, 4);
  w.end_object();
}

struct BaselineEntry {
  double refine_seconds = 0;
  double route_space_seconds = 0;
  double workset_seconds = 0;
  double routers_per_second = 0;
  double peak_rss_mb = 0;
};

/// One column per gated BENCH_refine.json key, plus the scale.  Bump in
/// lockstep with the keys listed in the mismatch message below, and
/// regenerate bench/refine_baseline.txt with --write-baseline.
constexpr std::size_t kBaselineColumns = 6;

/// Strict parse: every non-empty line must carry exactly kBaselineColumns
/// whitespace-separated numbers.  A mismatch means the baseline file and
/// the gated BENCH_refine.json keys drifted apart; that used to silently
/// skip the gate, now it is a named error the caller turns into exit 1.
std::map<double, BaselineEntry> read_baseline(const std::string& path,
                                              std::string* error) {
  std::map<double, BaselineEntry> baseline;
  std::ifstream in(path);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::stringstream fields(line);
    std::vector<double> columns;
    double value = 0;
    while (fields >> value) columns.push_back(value);
    if (columns.empty()) continue;  // blank line
    if (columns.size() != kBaselineColumns) {
      *error = "baseline-column-mismatch: " + path + " line " +
               std::to_string(line_no) + " has " +
               std::to_string(columns.size()) + " columns, expected " +
               std::to_string(kBaselineColumns) +
               " (scale refine-seconds route-space-seconds workset-seconds "
               "routers-per-sec peak-rss-mb, mirroring the gated "
               "BENCH_refine.json keys phase_seconds.total/"
               "route_space_seconds/workset_seconds/routers_per_second/"
               "peak_rss_bytes); regenerate with --write-baseline";
      return {};
    }
    BaselineEntry entry;
    entry.refine_seconds = columns[1];
    entry.route_space_seconds = columns[2];
    entry.workset_seconds = columns[3];
    entry.routers_per_second = columns[4];
    entry.peak_rss_mb = columns[5];
    baseline[columns[0]] = entry;
  }
  return baseline;
}

}  // namespace

int main(int argc, char** argv) {
  nb::Cli cli(argc, argv);
  const std::vector<double> scales =
      parse_scales(cli.get_string("scales", "0.05,0.1,0.2"));
  const std::uint64_t seed = cli.get_u64("seed", 1);
  const unsigned multi = bgp::ThreadPool::resolve(
      static_cast<unsigned>(cli.get_u64("threads", 0)));
  const std::string out_path = cli.get_string("out", "BENCH_refine.json");

  std::printf("bench_refine: refinement fit wall-clock and throughput\n");
  std::printf("hardware threads: %u, multi-thread runs use %u\n\n",
              bgp::ThreadPool::resolve(0), multi);
  std::printf("%-7s %-8s %-6s %-9s %-10s %-10s %-10s %-12s %-9s %-8s %-8s "
              "%-8s\n",
              "scale", "threads", "iters", "routers", "simulate", "heuristic",
              "total", "msgs/sec", "rts/sec", "rss-mb", "rspace", "workset");

  bool ok = true;
  bool identical = true;
  std::vector<RunResult> runs;
  for (const double scale : scales) {
    // Index (not address) of this scale's 1-thread run: later push_backs
    // reallocate `runs`.
    const std::size_t one_thread_run = runs.size();
    double one_thread_total = 0;
    std::vector<unsigned> thread_counts{1};
    if (multi != 1) thread_counts.push_back(multi);
    for (const unsigned threads : thread_counts) {
      RunResult run = run_once(scale, seed, threads);
      ok &= run.refine.success;
      if (!run.self_diff_identical) {
        ok = false;
        std::fprintf(stderr,
                     "bench_refine: SELF-DIFF NOT EMPTY at scale %.3f\n",
                     scale);
      }
      if (threads == 1) {
        one_thread_total = run.refine.phase_seconds.total;
      } else if (run.refine.phase_seconds.total > 0) {
        run.parallel_speedup =
            one_thread_total / run.refine.phase_seconds.total;
      }
      std::printf(
          "%-7.3f %-8u %-6zu %-9zu %-10.3f %-10.3f %-10.3f %-12.0f %-9.1f "
          "%-8.1f %-8.3f %-8.3f\n",
          scale, run.threads_used, run.refine.iterations, run.routers,
          run.refine.phase_seconds.simulate, run.refine.phase_seconds.heuristic,
          run.refine.phase_seconds.total, messages_per_second(run),
          routers_per_second(run),
          static_cast<double>(run.peak_rss_bytes) / (1024.0 * 1024.0),
          run.route_space_seconds, run.workset_seconds);
      runs.push_back(std::move(run));
      if (runs.size() - 1 != one_thread_run &&
          runs[one_thread_run].model_text != runs.back().model_text) {
        identical = false;
        std::fprintf(stderr,
                     "bench_refine: FITTED MODEL DIFFERS between 1 and %u "
                     "threads at scale %.3f\n",
                     threads, scale);
      }
    }
  }
  if (identical)
    std::printf("\nfitted models byte-identical across thread counts\n");

  // Perf gate against a recorded 1-thread baseline (CI smoke).
  bool baseline_checked = false;
  bool baseline_pass = true;
  if (cli.has("baseline")) {
    const double max_regress = cli.get_double("max-regress", 2.0);
    std::string baseline_error;
    const std::map<double, BaselineEntry> baseline =
        read_baseline(cli.get_string("baseline", ""), &baseline_error);
    if (!baseline_error.empty()) {
      std::fprintf(stderr, "bench_refine: %s\n", baseline_error.c_str());
      return 1;
    }
    for (const RunResult& run : runs) {
      if (run.threads != 1) continue;
      const auto it = baseline.find(run.scale);
      if (it == baseline.end()) continue;
      baseline_checked = true;
      const double total = run.refine.phase_seconds.total;
      const bool pass = total <= it->second.refine_seconds * max_regress;
      baseline_pass &= pass;
      std::printf("baseline scale %.3f: %.3fs vs %.3fs recorded (%.2fx, "
                  "limit %.2fx) %s\n",
                  run.scale, total, it->second.refine_seconds,
                  total / it->second.refine_seconds, max_regress,
                  pass ? "ok" : "REGRESSION");
      // Route-space leg, gated the same way when the baseline records it.
      if (it->second.route_space_seconds > 0) {
        const double rs = run.route_space_seconds;
        const bool rs_pass = rs <= it->second.route_space_seconds * max_regress;
        baseline_pass &= rs_pass;
        std::printf("baseline scale %.3f route-space: %.3fs vs %.3fs recorded "
                    "(%.2fx, limit %.2fx) %s\n",
                    run.scale, rs, it->second.route_space_seconds,
                    rs / it->second.route_space_seconds, max_regress,
                    rs_pass ? "ok" : "REGRESSION");
      }
      // Working-set analyzer leg, fourth baseline column.
      if (it->second.workset_seconds > 0) {
        const double ws = run.workset_seconds;
        const bool ws_pass = ws <= it->second.workset_seconds * max_regress;
        baseline_pass &= ws_pass;
        std::printf("baseline scale %.3f workset: %.3fs vs %.3fs recorded "
                    "(%.2fx, limit %.2fx) %s\n",
                    run.scale, ws, it->second.workset_seconds,
                    ws / it->second.workset_seconds, max_regress,
                    ws_pass ? "ok" : "REGRESSION");
      }
      // Throughput column: a regression is the fit slowing DOWN, so the
      // gate is current >= recorded / max-regress.
      if (it->second.routers_per_second > 0) {
        const double rps = routers_per_second(run);
        const bool rps_pass =
            rps >= it->second.routers_per_second / max_regress;
        baseline_pass &= rps_pass;
        std::printf("baseline scale %.3f routers/sec: %.1f vs %.1f recorded "
                    "(%.2fx, floor 1/%.2fx) %s\n",
                    run.scale, rps, it->second.routers_per_second,
                    rps / it->second.routers_per_second, max_regress,
                    rps_pass ? "ok" : "REGRESSION");
      }
      // Peak-RSS column (MB).  Both sides are process-monotone high-water
      // marks taken right after the fit at this scale, so like-for-like.
      if (it->second.peak_rss_mb > 0) {
        const double rss_mb =
            static_cast<double>(run.peak_rss_bytes) / (1024.0 * 1024.0);
        const bool rss_pass = rss_mb <= it->second.peak_rss_mb * max_regress;
        baseline_pass &= rss_pass;
        std::printf("baseline scale %.3f peak-rss: %.1fMB vs %.1fMB recorded "
                    "(%.2fx, limit %.2fx) %s\n",
                    run.scale, rss_mb, it->second.peak_rss_mb,
                    rss_mb / it->second.peak_rss_mb, max_regress,
                    rss_pass ? "ok" : "REGRESSION");
      }
    }
  }
  if (cli.has("write-baseline")) {
    std::ofstream out(cli.get_string("write-baseline", ""));
    for (const RunResult& run : runs) {
      if (run.threads == 1)
        out << run.scale << ' ' << run.refine.phase_seconds.total << ' '
            << run.route_space_seconds << ' ' << run.workset_seconds << ' '
            << routers_per_second(run) << ' '
            << static_cast<double>(run.peak_rss_bytes) / (1024.0 * 1024.0)
            << '\n';
    }
  }

  // Parallel-speedup gate: whenever a real multi-thread leg ran, fits at
  // scales above the timer-noise floor must not be slower than 1-thread.
  // One fit per side is at the mercy of the scheduler, so each gated scale
  // re-fits 1-thread and multi-thread alternately three times and compares
  // the best times (noise only ever adds time).
  bool parallel_pass = true;
  for (RunResult& run : runs) {
    if (run.threads == 1 || multi == 1 || run.scale < 0.15) continue;
    double best_one = std::numeric_limits<double>::infinity();
    double best_multi = best_one;
    for (int rep = 0; rep < 3; ++rep) {
      const double one = run_overhead_leg(run.scale, seed, 1, false).seconds;
      const double many =
          run_overhead_leg(run.scale, seed, multi, false).seconds;
      best_one = std::min(best_one, one);
      best_multi = std::min(best_multi, many);
    }
    if (best_multi > 0) run.parallel_speedup = best_one / best_multi;
    std::printf("parallel speedup: %.3fx at scale %.3f (best of 3: 1 thread "
                "%.3fs, %u threads %.3fs)\n",
                run.parallel_speedup, run.scale, best_one, run.threads_used,
                best_multi);
    if (run.parallel_speedup > 0 && run.parallel_speedup < 1.0) {
      parallel_pass = false;
      std::fprintf(stderr,
                   "bench_refine: PARALLEL SWEEP SLOWER THAN SERIAL at scale "
                   "%.3f (%.3fx with %u threads)\n",
                   run.scale, run.parallel_speedup, run.threads_used);
    }
  }

  // Cost-model validation: predicted per-prefix cost vs measured sweep
  // seconds, pooled across every 1-thread run.  Within one scale the
  // fitted models' workloads are near-uniform (constant message counts),
  // so the gate needs at least two scales' worth of variance to mean
  // anything -- with one scale the correlation is reported but not gated.
  bool cost_pass = true;
  std::vector<double> pooled_costs, pooled_times;
  std::size_t scales_pooled = 0;
  for (const RunResult& run : runs) {
    if (run.threads != 1 || run.prefix_costs.empty()) continue;
    ++scales_pooled;
    pooled_costs.insert(pooled_costs.end(), run.prefix_costs.begin(),
                        run.prefix_costs.end());
    pooled_times.insert(pooled_times.end(), run.prefix_times.begin(),
                        run.prefix_times.end());
  }
  const double cost_correlation = pearson(pooled_costs, pooled_times);
  if (!pooled_costs.empty())
    std::printf("cost model: r=%.3f over %zu per-prefix samples (%zu "
                "scales)\n",
                cost_correlation, pooled_costs.size(), scales_pooled);
  if (scales_pooled >= 2 && cost_correlation <= 0) {
    cost_pass = false;
    std::fprintf(stderr,
                 "bench_refine: COST MODEL UNCORRELATED with measured "
                 "sweep time (r=%.3f over %zu samples)\n",
                 cost_correlation, pooled_costs.size());
  }

  // Observer-overhead leg: bare vs fully profiled fit at the largest
  // requested scale, best-of-3 each (the minimum is the right statistic
  // for a ratio gate -- it strips scheduler noise, which only ever adds
  // time).  Byte-identity between the two fitted models re-proves the
  // zero-observer guarantee from the other side: attaching the full
  // profiler stack must not perturb the fit.
  bool overhead_pass = true;
  double overhead_ratio = 0;
  const double overhead_max = cli.get_double("observer-overhead-max", 1.05);
  if (!cli.has("skip-overhead") && !scales.empty()) {
    const double gate_scale = *std::max_element(scales.begin(), scales.end());
    double best_bare = std::numeric_limits<double>::infinity();
    double best_profiled = std::numeric_limits<double>::infinity();
    std::string bare_model, profiled_model;
    for (int rep = 0; rep < 3; ++rep) {
      OverheadRun bare = run_overhead_leg(gate_scale, seed, multi, false);
      OverheadRun profiled = run_overhead_leg(gate_scale, seed, multi, true);
      if (bare.seconds < best_bare) best_bare = bare.seconds;
      if (profiled.seconds < best_profiled) best_profiled = profiled.seconds;
      bare_model = std::move(bare.model_text);
      profiled_model = std::move(profiled.model_text);
    }
    if (bare_model != profiled_model) {
      identical = false;
      std::fprintf(stderr,
                   "bench_refine: FITTED MODEL DIFFERS with profiler "
                   "attached at scale %.3f\n",
                   gate_scale);
    }
    if (best_bare > 0) overhead_ratio = best_profiled / best_bare;
    std::printf("observer overhead: %.3fx at scale %.3f (bare %.3fs, "
                "profiled %.3fs, limit %.2fx)\n",
                overhead_ratio, gate_scale, best_bare, best_profiled,
                overhead_max);
    // Gate only above the timer-noise floor, like the other perf gates.
    if (gate_scale >= 0.15 && overhead_ratio > overhead_max) {
      overhead_pass = false;
      std::fprintf(stderr,
                   "bench_refine: OBSERVER OVERHEAD %.3fx EXCEEDS %.2fx at "
                   "scale %.3f\n",
                   overhead_ratio, overhead_max, gate_scale);
    }
  }

  nb::JsonWriter json(2);
  json.begin_object();
  json.key("bench").value("refine");
  json.key("seed").value(seed);
  json.key("hardware_threads").value(bgp::ThreadPool::resolve(0));
  json.key("identical_across_threads").value(identical);
  json.key("observer_overhead_ratio").value_fixed(overhead_ratio, 3);
  json.key("observer_overhead_max").value_fixed(overhead_max, 3);
  json.key("cost_correlation").value_fixed(cost_correlation, 3);
  json.key("cost_samples")
      .value(static_cast<std::uint64_t>(pooled_costs.size()));
  json.key("runs").begin_array();
  for (const RunResult& run : runs) append_json(json, run);
  json.end_array();
  json.end_object();
  std::ofstream out(out_path);
  out << json.str() << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  if (!ok) std::fprintf(stderr, "bench_refine: a fit failed to converge\n");
  if (!baseline_pass)
    std::fprintf(stderr, "bench_refine: 1-thread wall-clock regression\n");
  if (baseline_checked && baseline_pass)
    std::printf("baseline check passed\n");
  return (ok && identical && baseline_pass && cost_pass && parallel_pass &&
          overhead_pass)
             ? 0
             : 1;
}

// perfbench harness: runs one benchmark workload and prints its result as
// the last line of standard output (README.md has the full contract).
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --expected FILE [--instance N] [--trace-out FILE]
//
// Every workload walks the same journey -- set-up, fit at 1 and at 4
// threads, validation, model text round trip, static analysis, serving --
// once per round, so every end-to-end metric is measured on every
// workload.  The workload decides each leg's model scale, the rounds and
// which leg is the measured phase that peak RSS covers.
//
// The fitted inputs are the workload's instance (--instance, default 1),
// not the seed: at these scales one instance's fit time differs from the
// next by up to half, more than any regression bound a fit gate could use.
// --seed draws everything that is sampled many times per run: the serve
// request stream and the impact queries.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "legs.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

/// The serve leg (README.md, "Request mix").  The open-loop rate is fixed
/// and never rescaled to the host: about a third of the saturation
/// throughput seed 1 reached on a scale-0.5 model on the reference host
/// (about 300/s).
constexpr double kServeRateQps = 110;
constexpr double kSaturationShare = 0.2;  // of the open-loop time
constexpr std::size_t kAnswerRequests = 40;
/// Request indices of round r start at r times this, so that every round
/// serves fresh requests from the seeded stream.
constexpr std::uint64_t kRequestsPerRound = 1000000;

enum class Focus { kFits, kServe, kAnalysis };

struct Workload {
  const char* name;
  double fit_scale;       // set up, fitted and validated every round
  double analysis_scale;  // the analysed model
  double serve_scale;     // the served model
  int rounds;
  double open_share;      // open-loop serve time per round, of --seconds
  std::size_t impact_queries;  // per round, fresh ones every round
  Focus focus;  // the measured phase, which peak RSS covers
};

// Why each workload exists is documented in README.md.  A model of another
// scale than fit_scale is a companion, set up and fitted once before the
// rounds: the analysers at scale 0.5 take longer than a whole run may.
constexpr Workload kWorkloads[] = {
    {"fit-sweep", 0.5, 0.1, 0.5, 4, 0.075, 16, Focus::kFits},
    {"serve-mixed", 0.2, 0.1, 0.5, 6, 0.2, 12, Focus::kServe},
    {"analyze", 0.2, 0.2, 0.2, 4, 0.05, 12, Focus::kAnalysis},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

const Expected* find_expected(const ExpectedTable& table, double scale,
                              std::uint64_t instance) {
  char key[32];
  std::snprintf(key, sizeof(key), "%.2f", scale);
  const auto it = table.find({key, instance});
  return it == table.end() ? nullptr : &it->second;
}

void merge_tally(Tally* into, const Tally& from) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (const std::string& failure : from.failures)
    if (into->failures.size() < 20) into->failures.push_back(failure);
}

/// The median of each metric over the rounds.  Every round does the same
/// work; what varies between rounds is the host, whose memory system other
/// tenants share: the same fit's CPU time moved by up to 40% between spells
/// of a few seconds.
Metrics median_over(const std::vector<Report>& rounds,
                    Metrics Report::*group) {
  std::map<std::string, std::vector<double>> values;
  Metrics merged;
  for (const Report& round : rounds) {
    for (const auto& [name, metric] : round.*group) {
      values[name].push_back(metric.value);
      merged[name].unit = metric.unit;
    }
  }
  for (auto& [name, metric] : merged) metric.value = median(values[name]);
  return merged;
}

/// A model of another scale than the rounds fit: set up once and fitted
/// once at kThreads.  Its metrics are not reported; its fit and validation
/// are still checked.
topo::Model companion(double scale, std::uint64_t instance,
                      const ExpectedTable& expected, Tracer& tracer,
                      Tally* tally) {
  Report side;
  const Prepared prepared = set_up(scale, instance, tracer, &side);
  const Expected* expect = find_expected(expected, scale, instance);
  topo::Model model = fit_leg(prepared, false, expect, tracer, &side);
  validate_leg(model, prepared, expect, tracer, &side);
  merge_tally(tally, side.tally);
  return model;
}

/// Every workload walks the same journey -- set-up, fits at 1 and at 4
/// threads, validation, model text round trip, static analysis, serving --
/// once per round.  Interleaving the legs spreads each metric's samples
/// over the whole run, so that a spell of host interference moves one
/// sample of each rather than every sample of one.
Report run_journey(const Workload& w, std::uint64_t seed, double seconds,
                   std::uint64_t instance, const ExpectedTable& expected,
                   Tracer& tracer) {
  Report total;
  Tracer::Scope root(tracer, "bench", w.name);
  const Expected* expect = find_expected(expected, w.fit_scale, instance);
  std::map<double, topo::Model> companions;
  for (const double scale : {w.analysis_scale, w.serve_scale})
    if (scale != w.fit_scale && companions.count(scale) == 0)
      companions.emplace(scale, companion(scale, instance, expected, tracer,
                                          &total.tally));

  const double open_seconds = w.open_share * seconds;
  std::vector<Report> rounds(static_cast<std::size_t>(w.rounds));
  std::optional<topo::Model> loaded;  // the fitted model, read back from text
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    Report& round = rounds[r];
    Tracer::Scope span(tracer, "bench", "round");
    bool window_ok = true;
    const auto open_window = [&](Focus focus) {
      if (focus == w.focus) window_ok = reset_peak_rss() && window_ok;
    };
    const auto close_window = [&](Focus focus) {
      if (focus == w.focus)
        round.end_to_end["peak_rss_mb"] = Metric{peak_rss_mb(), "MB"};
    };

    const Prepared prepared = set_up(w.fit_scale, instance, tracer, &round);
    open_window(Focus::kFits);
    const topo::Model fitted = fit_leg(prepared, true, expect, tracer, &round);
    validate_leg(fitted, prepared, expect, tracer, &round);
    close_window(Focus::kFits);
    if (!loaded) loaded = model_io_leg(fitted, tracer, &round);
    const auto model_at = [&](double scale) -> const topo::Model& {
      return scale == w.fit_scale ? *loaded : companions.at(scale);
    };

    open_window(Focus::kAnalysis);
    analysis_leg(model_at(w.analysis_scale), r * w.impact_queries,
                 w.impact_queries, seed, tracer, &round);
    close_window(Focus::kAnalysis);

    ServeParams serve;
    serve.rate_qps = kServeRateQps;
    serve.open_seconds = open_seconds;
    serve.saturation_seconds = kSaturationShare * open_seconds;
    serve.answer_requests = kAnswerRequests;
    serve.first_request = r * kRequestsPerRound;
    open_window(Focus::kServe);
    serve_leg(model_at(w.serve_scale), serve, seed, tracer, &round);
    close_window(Focus::kServe);
    round.tally.check(window_ok,
                      "peak RSS window: cannot write /proc/self/clear_refs");
    merge_tally(&total.tally, round.tally);
    total.impact_ms.insert(total.impact_ms.end(), round.impact_ms.begin(),
                           round.impact_ms.end());
  }
  total.end_to_end = median_over(rounds, &Report::end_to_end);
  total.per_layer = median_over(rounds, &Report::per_layer);
  total.end_to_end["impact_p50_ms"] =
      Metric{quantile(total.impact_ms, 0.50), "cpu_ms"};
  total.end_to_end["impact_p90_ms"] =
      Metric{quantile(total.impact_ms, 0.90), "cpu_ms"};
  return total;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "NAME --seed N --seconds S --trace 0|1 --expected FILE "
               "[--instance N] [--trace-out FILE]\n",
               message);
  return 2;
}

int run(int argc, char** argv) {
  std::string workload_name, expected_path, trace_out;
  std::uint64_t seed = 0, instance = 1;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--expected") {
      expected_path = value;
    } else if (key == "--instance") {
      instance = std::strtoull(value, nullptr, 10);
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  const Workload* workload = find_workload(workload_name);
  if (workload == nullptr) return usage("unknown --workload");
  if (!have_seed || seconds <= 0 || (trace != 0 && trace != 1) ||
      expected_path.empty())
    return usage("--seed, --seconds > 0, --trace 0|1 and --expected are "
                 "required");

  ExpectedTable expected;
  std::string error;
  if (!load_expected(expected_path, &expected, &error))
    return usage(error.c_str());

  // Refuse hosts and builds whose numbers would mislead: a benchmark that
  // asks for 4 threads on fewer cores records no parallelism at all, and
  // an unoptimized build times the wrong program.
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench_harness: refusing an unoptimized build "
                       "(build type " PERFBENCH_BUILD_TYPE ")\n");
  return 3;
#endif
  const unsigned cpus = usable_cpus();
  if (cpus < kThreads) {
    std::fprintf(stderr,
                 "perfbench_harness: workload %s runs %u threads but only %u "
                 "hardware threads are usable; refusing to record\n",
                 workload->name, kThreads, cpus);
    return 3;
  }
  std::printf("# host: nproc %u, compiler %s %s, build %s, workload %s, "
              "threads %u, serve workers %u, seed %llu, instance %llu, "
              "seconds %.3f, trace %d\n",
              cpus,
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__, PERFBENCH_BUILD_TYPE, workload->name, kThreads,
              kServeWorkers, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(instance), seconds, trace);

  Tracer tracer(trace == 1);
  Report report =
      run_journey(*workload, seed, seconds, instance, expected, tracer);
  Metrics metrics = report.end_to_end;
  if (tracer.enabled()) {
    metrics = report.per_layer;
    const std::map<std::string, double> self = tracer.self_seconds();
    for (const char* layer :
         {"data", "topology", "bgp", "core", "analysis", "serve"}) {
      const auto it = self.find(layer);
      metrics[std::string(layer) + ".self_s"] =
          Metric{it == self.end() ? 0 : it->second, "s"};
    }
    if (!trace_out.empty() && !tracer.write_chrome_trace(trace_out))
      report.tally.check(false, "cannot write trace " + trace_out);
  }
  const Tally& tally = report.tally;
  for (const std::string& failure : tally.failures)
    std::printf("# FAILED: %s\n", failure.c_str());
  print_result(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }

#include "legs.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "analysis/impact.hpp"
#include "analysis/model_diff.hpp"
#include "analysis/partition.hpp"
#include "analysis/workset.hpp"
#include "data/rib_io.hpp"
#include "loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "topology/model_io.hpp"

namespace perfbench {

namespace {

void put(Metrics* metrics, const std::string& name, double value,
         const char* unit) {
  (*metrics)[name] = Metric{value, unit};
}

std::string scale_key(double scale) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.2f", scale);
  return text;
}

/// What one call cost: its wall-clock seconds, and the CPU seconds of the
/// whole process while it ran.  The harness makes one call at a time, so
/// the process's CPU time is the call's own, its worker threads included.
/// Bounded metrics use the CPU time, all but diff_s: on the shared host
/// other tenants hold the cores at times, and ten runs of the same code
/// spread the 4-thread fit's wall time by 37% (quartile distance over
/// median).  CPU time does not count that waiting, and the thread pools
/// wait on condition variables, so idle workers add none.
struct Cost {
  double wall = 0;
  double cpu = 0;
};

template <typename F>
Cost timed(Tracer& tracer, const char* layer, const char* name, F&& call) {
  Tracer::Scope span(tracer, layer, name);
  const Clock::time_point start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  call();
  return Cost{seconds_since(start), process_cpu_seconds() - cpu_start};
}


std::string hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

bool load_expected(const std::string& path, ExpectedTable* table,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    std::istringstream fields(line);
    double scale = 0;
    std::uint64_t instance = 0;
    std::string model_hash;
    Expected expected;
    if (!(fields >> scale)) continue;  // blank or comment line
    if (!(fields >> instance >> model_hash >> expected.validation_ok >>
          expected.validation_total)) {
      *error = path + ":" + std::to_string(line_no) +
               ": expected `scale instance hash ok total`";
      return false;
    }
    expected.model_hash = std::stoull(model_hash, nullptr, 16);
    (*table)[{scale_key(scale), instance}] = expected;
  }
  return true;
}

Prepared set_up(double scale, std::uint64_t instance, Tracer& tracer,
                Report* report) {
  Tracer::Scope span(tracer, "bench", "setup");
  Prepared prepared;
  prepared.scale = scale;
  prepared.instance = instance;
  core::PipelineConfig config = core::PipelineConfig::with(scale, instance);
  config.threads = kThreads;
  prepared.pipeline = core::make_pipeline(config);
  const double generate = timed(tracer, "data", "data.run_data_stages", [&] {
    core::run_data_stages(prepared.pipeline);
  }).cpu;
  std::string text;
  const double write = timed(tracer, "data", "data.dataset_to_string", [&] {
    text = data::dataset_to_string(prepared.pipeline.split.training);
  }).cpu;
  std::optional<data::BgpDataset> back;
  std::string error;
  const double read = timed(tracer, "data", "data.dataset_from_string", [&] {
    back = data::dataset_from_string(text, &error);
  }).cpu;
  report->tally.check(back && data::dataset_to_string(*back) == text,
                      "training set text round trip: " + error);
  if (back) prepared.training = std::move(*back);
  const double initial =
      timed(tracer, "topology", "topology.one_router_per_as", [&] {
        prepared.initial =
            topo::Model::one_router_per_as(prepared.pipeline.graph);
      }).cpu;
  put(&report->end_to_end, "setup_s", generate + write + read + initial, "s");
  put(&report->per_layer, "data.generate_s", generate, "s");
  put(&report->per_layer, "data.write_dataset_s", write, "s");
  put(&report->per_layer, "data.read_dataset_s", read, "s");
  put(&report->per_layer, "data.dataset_bytes",
      static_cast<double>(text.size()), "bytes");
  put(&report->per_layer, "topology.initial_model_s", initial, "s");
  return prepared;
}

topo::Model fit_leg(const Prepared& prepared, bool one_thread,
                    const Expected* expected, Tracer& tracer, Report* report) {
  struct Fit {
    Cost cost;
    core::RefineResult result;
    topo::Model model;
  };
  const auto fit = [&](unsigned threads) {
    Tracer::Scope span(tracer, "bench", "fit");
    Fit run;
    run.model = prepared.initial;
    core::RefineConfig config;
    config.threads = threads;
    run.cost = timed(tracer, "core", "core.refine_model", [&] {
      run.result = core::refine_model(run.model, prepared.training, config);
    });
    const std::string where = "fit scale " + scale_key(prepared.scale) +
                              " instance " +
                              std::to_string(prepared.instance) + " at " +
                              std::to_string(threads) + " thread(s)";
    const core::RefineResult& r = run.result;
    const std::uint64_t hash = fnv1a64(topo::model_to_string(run.model));
    std::printf("# %s: %.3f s wall, %.3f s CPU, model fnv1a64 %s, %zu "
                "routers\n",
                where.c_str(), run.cost.wall, run.cost.cpu, hex(hash).c_str(),
                run.model.num_routers());
    report->tally.check(r.success && r.unmatched_paths == 0 &&
                            r.stop == core::RefineStop::kCompleted,
                        where + ": not a complete fit (stop " +
                            core::refine_stop_name(r.stop) + ", " +
                            std::to_string(r.unmatched_paths) +
                            " unmatched paths)");
    report->tally.check(expected != nullptr && hash == expected->model_hash,
                        where + ": model hash " + hex(hash) +
                            (expected == nullptr
                                 ? " has no recorded value"
                                 : " differs from recorded " +
                                       hex(expected->model_hash)));
    return run;
  };

  Fit multi = fit(kThreads);
  put(&report->end_to_end, "fit_s", multi.cost.cpu, "cpu_s");
  put(&report->per_layer, "core.refine.wall_s", multi.cost.wall, "s");
  double simulate1 = 0;
  if (one_thread) {
    const Fit one = fit(1);
    put(&report->end_to_end, "fit_1thread_s", one.cost.cpu, "cpu_s");
    simulate1 = one.result.phase_seconds.simulate;
  }

  const core::RefineResult& last = multi.result;
  const core::RefinePhaseSeconds& phase4 = last.phase_seconds;
  const double simulate4 = phase4.simulate;
  put(&report->per_layer, "core.refine.simulate_s", simulate4, "s");
  put(&report->per_layer, "core.refine.heuristic_s", phase4.heuristic, "s");
  put(&report->per_layer, "core.refine.other_s",
      phase4.total - phase4.simulate - phase4.heuristic, "s");
  put(&report->per_layer, "core.refine.sweep_speedup",
      simulate4 > 0 ? simulate1 / simulate4 : 0, "x");
  put(&report->per_layer, "core.refine.messages",
      static_cast<double>(last.messages_simulated), "count");
  put(&report->per_layer, "bgp.messages_per_s",
      simulate4 > 0 ? static_cast<double>(last.messages_simulated) / simulate4
                    : 0,
      "1/s");
  const double lookups =
      static_cast<double>(last.cache_hits + last.cache_misses);
  put(&report->per_layer, "core.refine.cache_hit_ratio",
      lookups > 0 ? static_cast<double>(last.cache_hits) / lookups : 0,
      "ratio");
  put(&report->per_layer, "core.refine.iterations",
      static_cast<double>(last.iterations), "count");
  put(&report->per_layer, "core.refine.routers",
      static_cast<double>(multi.model.num_routers()), "count");
  return std::move(multi.model);
}

void validate_leg(const topo::Model& model, const Prepared& prepared,
                  const Expected* expected, Tracer& tracer, Report* report) {
  core::EvalOptions options;
  options.threads = kThreads;
  core::EvalResult eval;
  const Cost cost = timed(tracer, "core", "core.evaluate_predictions", [&] {
    eval = core::evaluate_predictions(
        model, prepared.pipeline.split.validation, options);
  });
  const std::size_t good = eval.stats.rib_out + eval.stats.potential_rib_out;
  std::printf("# validation scale %s instance %llu: %zu of %zu paths "
              "RIB-Out or potential RIB-Out\n",
              scale_key(prepared.scale).c_str(),
              static_cast<unsigned long long>(prepared.instance), good,
              eval.stats.total);
  report->tally.check(
      expected != nullptr && good == expected->validation_ok &&
          eval.stats.total == expected->validation_total,
      "validation share " + std::to_string(good) + "/" +
          std::to_string(eval.stats.total) +
          (expected == nullptr
               ? " has no recorded value"
               : " differs from recorded " +
                     std::to_string(expected->validation_ok) + "/" +
                     std::to_string(expected->validation_total)));
  put(&report->end_to_end, "validate_s", cost.cpu, "cpu_s");
  put(&report->per_layer, "core.evaluate.paths_per_s",
      cost.wall > 0 ? static_cast<double>(eval.stats.total) / cost.wall : 0,
      "1/s");
}

topo::Model model_io_leg(const topo::Model& model, Tracer& tracer,
                         Report* report) {
  std::string text;
  const double write_s =
      timed(tracer, "topology", "topology.model_to_string",
            [&] { text = topo::model_to_string(model); }).cpu;
  std::optional<topo::Model> back;
  std::string error;
  const double read_s =
      timed(tracer, "topology", "topology.model_from_string",
            [&] { back = topo::model_from_string(text, &error); }).cpu;
  report->tally.check(back && topo::model_to_string(*back) == text,
                      "model text round trip: " + error);
  put(&report->per_layer, "topology.write_model_s", write_s, "s");
  put(&report->per_layer, "topology.read_model_s", read_s, "s");
  put(&report->per_layer, "topology.model_bytes",
      static_cast<double>(text.size()), "bytes");
  return back ? std::move(*back) : model;
}

void serve_leg(const topo::Model& model, const ServeParams& params,
               std::uint64_t seed, Tracer& tracer, Report* report) {
  Tracer::Scope leg(tracer, "bench", "serve");
  const RequestStream stream(model, seed);

  serve::ServeConfig config;
  config.threads = kServeWorkers;
  LoadResult load;
  double load_cpu_s = 0;
  serve::ServeStatus status;
  {
    serve::Server server(model, config);
    std::string error;
    const bool listening = server.listen(0, &error);
    report->tally.check(listening, "serve listen: " + error);
    if (listening) {
      LoadConfig load_config;
      load_config.rate_qps = params.rate_qps;
      load_config.open_seconds = params.open_seconds;
      load_config.saturation_seconds = params.saturation_seconds;
      load_config.connections = kServeWorkers;
      load_config.first_request = params.first_request;
      // Client, daemon and loopback all run in this process, so its CPU
      // time over the load is what the requests cost end to end.
      const double cpu_start = process_cpu_seconds();
      load = run_load(server.port(), stream, load_config, tracer, leg.id());
      load_cpu_s = process_cpu_seconds() - cpu_start;
    }
    status = server.status();
    server.request_stop();
    server.shutdown();
  }
  const std::uint64_t requests = load.open_requests + load.saturation_requests;
  report->tally.attempted += std::max<std::uint64_t>(requests, 1);
  report->tally.failed += load.failed;
  for (const std::string& failure : load.failures)
    if (report->tally.failures.size() < 20)
      report->tally.failures.push_back("serve " + failure);

  // The same request list through the in-process worker path, which is
  // also the oracle for the sampled socket replies.  A traced run answers
  // the list twice, each time on a fresh server: untraced, then traced.
  // This loop has the densest spans of the run (two per call), so the
  // ratio of the two walls bounds what the tracing costs.
  std::vector<double> parse_us;
  std::map<Op, std::vector<double>> answer_us;
  const auto answer_list = [&](Tracer& pass_tracer) {
    parse_us.clear();
    answer_us.clear();
    serve::ServeConfig oracle_config;
    oracle_config.threads = 1;
    serve::Server oracle(model, oracle_config);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < params.answer_requests; ++i) {
      const RequestStream::Request request =
          stream.at(params.first_request + i);
      std::string error;
      std::optional<serve::ServeRequest> parsed;
      parse_us.push_back(
          timed(pass_tracer, "serve", "serve.parse_request", [&] {
            parsed = serve::parse_request(request.text, &error);
          }).wall * 1e6);
      report->tally.check(parsed.has_value(), "parse_request: " + error);
      std::string reply;
      answer_us[request.op].push_back(
          timed(pass_tracer, "serve", "serve.answer",
                [&] { reply = oracle.answer(request.text); }).wall *
          1e6);
      report->tally.check(reply_ok(reply), "answer " + request.text + ": " +
                                               reply.substr(0, 160));
    }
    const double wall = seconds_since(start);
    for (const auto& [request, reply] : load.samples) {
      report->tally.check(oracle.answer(request) == reply,
                          "socket reply differs from Server::answer for " +
                              request);
    }
    oracle.shutdown();
    return wall;
  };
  if (tracer.enabled()) {
    Tracer untraced(false);
    const double bare_s = answer_list(untraced);
    const double traced_s = answer_list(tracer);
    put(&report->per_layer, "obs.trace_overhead_ratio",
        bare_s > 0 ? traced_s / bare_s : 0, "ratio");
  } else {
    answer_list(tracer);
  }

  // Socket latency and throughput are wall-clock by nature; on the shared
  // host their spread over ten runs (39% for p50, 38% for p99, 46% for
  // throughput) was wider than any bound, so they are reported per layer,
  // and the bounded serve metric is what a request costs.
  put(&report->end_to_end, "serve_cpu_ms",
      requests > 0 ? load_cpu_s * 1e3 / static_cast<double>(requests) : 0,
      "cpu_ms");
  put(&report->per_layer, "serve.open_p50_ms", quantile(load.latency_ms, 0.50),
      "ms");
  put(&report->per_layer, "serve.open_p99_ms", quantile(load.latency_ms, 0.99),
      "ms");
  put(&report->per_layer, "serve.saturation_qps", load.saturation_qps, "1/s");
  const double answer_predict = median(answer_us[Op::kPredict]);
  put(&report->per_layer, "serve.parse_us", median(parse_us), "us");
  put(&report->per_layer, "serve.answer_predict_us", answer_predict, "us");
  put(&report->per_layer, "serve.answer_explain_us",
      median(answer_us[Op::kExplain]), "us");
  put(&report->per_layer, "serve.answer_whatif_us",
      median(answer_us[Op::kWhatIf]), "us");
  put(&report->per_layer, "serve.wire_us",
      median(load.predict_service_us) - answer_predict, "us");
  const double forks =
      static_cast<double>(status.fork_hits + status.fork_misses);
  put(&report->per_layer, "serve.fork_hit_ratio",
      forks > 0 ? static_cast<double>(status.fork_hits) / forks : 0,
      "ratio");
  put(&report->per_layer, "serve.generator_late_p99_ms",
      quantile(load.late_ms, 0.99), "ms");
}

void analysis_leg(const topo::Model& model, std::size_t first_query,
                  std::size_t impact_queries, std::uint64_t seed,
                  Tracer& tracer, Report* report) {
  Tracer::Scope leg(tracer, "bench", "analysis");
  // The self-diff compares the model with its own text round trip, so it
  // also proves the written model means the same routes.
  std::optional<topo::Model> copy =
      topo::model_from_string(topo::model_to_string(model));
  report->tally.check(copy.has_value(), "analysis model copy");
  if (!copy) return;

  // Seeded single-origin session-down queries on existing sessions.
  Rng rng(stream_seed(seed, 2));
  const std::vector<nb::Asn> asns = model.asns();
  std::vector<topo::Model::Dense> routers;
  for (topo::Model::Dense r = 0; r < model.num_routers(); ++r)
    if (!model.peers(r).empty()) routers.push_back(r);
  struct Query {
    analysis::ModelEdit edit;
    analysis::ImpactOptions options;
  };
  // Origins cycle through seeded permutations of every AS, so each run
  // asks about every origin equally often; the seed picks the order and
  // the failed session.
  std::vector<nb::Asn> origins;
  std::vector<Query> queries;
  while (queries.size() < first_query + impact_queries && !routers.empty()) {
    if (origins.empty()) {
      origins = asns;
      for (std::size_t i = origins.size(); i > 1; --i)
        std::swap(origins[i - 1], origins[rng.below(i)]);
    }
    const topo::Model::Dense r = routers[rng.below(routers.size())];
    const auto& peers = model.peers(r);
    Query query;
    query.edit.kind = analysis::ModelEdit::Kind::kSessionDown;
    query.edit.a = model.router_id(r);
    query.edit.b = model.router_id(peers[rng.below(peers.size())]);
    query.options.origins = {origins.back()};
    origins.pop_back();
    queries.push_back(std::move(query));
  }
  queries.erase(queries.begin(),
                queries.begin() + static_cast<std::ptrdiff_t>(std::min(
                                      first_query, queries.size())));
  const auto same = [](const analysis::ImpactResult& a,
                       const analysis::ImpactResult& b) {
    if (a.routers_total != b.routers_total || a.truncated != b.truncated ||
        a.prefixes.size() != b.prefixes.size())
      return false;
    for (std::size_t i = 0; i < a.prefixes.size(); ++i)
      if (a.prefixes[i].routers != b.prefixes[i].routers) return false;
    return true;
  };

  analysis::DiffOptions options;
  options.threads = kThreads;
  analysis::DiffResult diff;
  // Wall clock, unlike the other analysers: the 4-thread diff is no faster
  // than 1 thread, and its CPU time, user and system alike, varied between
  // 0.9 and 4.0 s for diffs that each took about 1 s at scale 0.1.
  const Cost diff_cost =
      timed(tracer, "analysis", "analysis.diff_models", [&] {
        diff = analysis::diff_models(model, *copy, options);
      });
  std::printf("# self-diff of %zu routers: %.3f s wall, %.3f s CPU\n",
              model.num_routers(), diff_cost.wall, diff_cost.cpu);
  report->tally.check(diff.identical(),
                      "self-diff found " +
                          std::to_string(diff.routers_differing) +
                          " differing routers");
  std::size_t truncated_prefixes = 0;
  for (const analysis::PrefixDiff& prefix : diff.prefixes)
    truncated_prefixes += prefix.truncated ? 1 : 0;

  std::unique_ptr<bgp::Engine> engine;
  const double engine_s = timed(tracer, "bgp", "bgp.Engine", [&] {
    engine = std::make_unique<bgp::Engine>(model);
  }).cpu;
  std::vector<analysis::PrefixWorkset> worksets;
  const double worksets_s =
      engine_s + timed(tracer, "analysis", "analysis.compute_all_worksets",
                       [&] {
                         worksets = analysis::compute_all_worksets(*engine);
                       }).cpu;
  analysis::PlanOptions plan_options;
  plan_options.shards = kThreads;
  analysis::ShardPlan plan;
  const double plan_shards_s =
      timed(tracer, "analysis", "analysis.plan_shards", [&] {
        plan = analysis::plan_shards(worksets, model.num_routers(),
                                     plan_options);
      }).cpu;
  std::vector<int> covered(worksets.size(), 0);
  bool in_range = true;
  for (const analysis::ShardPlan::Shard& shard : plan.shards) {
    for (const std::size_t prefix : shard.prefixes) {
      if (prefix < covered.size())
        ++covered[prefix];
      else
        in_range = false;
    }
  }
  report->tally.check(in_range && !worksets.empty() &&
                          std::all_of(covered.begin(), covered.end(),
                                      [](int n) { return n == 1; }),
                      "shard plan does not cover every prefix exactly once");

  // Every query runs twice: the two runs must agree, and the faster one is
  // its latency.
  double routers_total = 0;
  std::size_t truncated = 0;
  for (const Query& query : queries) {
    analysis::ImpactResult results[2];
    double ms = 0;
    for (int run = 0; run < 2; ++run) {
      const double run_ms =
          timed(tracer, "analysis", "analysis.compute_impact", [&] {
            results[run] = analysis::compute_impact(model, query.edit,
                                                    query.options);
          }).cpu * 1e3;
      ms = run == 0 ? run_ms : std::min(ms, run_ms);
    }
    report->impact_ms.push_back(ms);
    report->tally.check(same(results[0], results[1]),
                        "impact of " + query.edit.str() +
                            " differs between runs");
    routers_total += static_cast<double>(results[0].routers_total);
    truncated += results[0].truncated ? 1 : 0;
  }

  put(&report->end_to_end, "diff_s", diff_cost.wall, "s");
  put(&report->end_to_end, "plan_s", worksets_s + plan_shards_s, "cpu_s");
  put(&report->per_layer, "analysis.worksets_s", worksets_s, "s");
  put(&report->per_layer, "analysis.plan_shards_s", plan_shards_s, "s");
  put(&report->per_layer, "analysis.plan_imbalance", plan.imbalance, "ratio");
  put(&report->per_layer, "analysis.diff_truncated_prefixes",
      static_cast<double>(truncated_prefixes), "count");
  const double n = std::max<double>(1, static_cast<double>(queries.size()));
  put(&report->per_layer, "analysis.impact_routers_mean", routers_total / n,
      "count");
  put(&report->per_layer, "analysis.impact_truncated_share",
      static_cast<double>(truncated) / n, "ratio");
}

bool reset_peak_rss() {
  // Return freed heap to the kernel first, so the window starts from what
  // is live rather than from what earlier phases left cached.
  malloc_trim(0);
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool wrote = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && wrote;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  }
  return 0;
}

}  // namespace perfbench

// SCALE -- engine performance (google-benchmark).
//
// The paper relies on C-BGP being able to run per-prefix simulations on
// topologies "with more than 16,500 routers split among 14,500 ASes in
// 2-45 minutes with 200 MB - 2 GB memory".  This bench measures our engine's
// per-prefix propagation cost against topology size, plus microbenchmarks of
// the decision process and the model's policy lookups.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>

#include "bgp/engine.hpp"
#include "core/pipeline.hpp"
#include "data/ground_truth.hpp"
#include "data/internet_gen.hpp"
#include "netbase/sysinfo.hpp"

namespace {

struct Fixture {
  data::Internet internet;
  data::GroundTruth gt;
  std::vector<nb::Asn> ases;
};

Fixture make_fixture(double scale) {
  data::InternetConfig config;
  config = config.scaled(scale);
  config.seed = 1;
  Fixture fixture;
  fixture.internet = data::generate_internet(config);
  data::GroundTruthConfig gt_config;
  fixture.gt = data::build_ground_truth(fixture.internet, gt_config);
  fixture.ases = fixture.internet.graph.nodes();
  return fixture;
}

void BM_PrefixPropagation(benchmark::State& state) {
  static std::map<int, Fixture> cache;
  const int permille = static_cast<int>(state.range(0));
  auto it = cache.find(permille);
  if (it == cache.end())
    it = cache.emplace(permille, make_fixture(permille / 1000.0)).first;
  Fixture& fixture = it->second;
  bgp::Engine engine(fixture.gt.model, fixture.gt.config.engine_options());
  std::size_t index = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    nb::Asn origin = fixture.ases[index++ % fixture.ases.size()];
    auto sim = engine.run(nb::Prefix::for_asn(origin), origin);
    benchmark::DoNotOptimize(sim);
    messages += sim.messages;
  }
  state.counters["routers"] =
      static_cast<double>(fixture.gt.model.num_routers());
  state.counters["sessions"] =
      static_cast<double>(fixture.gt.model.num_sessions());
  state.counters["msgs/prefix"] =
      benchmark::Counter(static_cast<double>(messages),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PrefixPropagation)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_PaperScalePropagation(benchmark::State& state) {
  // The paper-scale leg: Arg is scale permille, 32000 -> scale 32, which
  // generates ~14.6k post-stub ASes -- past the "14,500 ASes split among
  // 16,500 routers" C-BGP workload the paper reports.  Ground-truth RIB
  // construction is not part of that claim, so the fixture is just the
  // generated graph under a one-router-per-AS start model; the benchmark
  // measures per-prefix propagation over it and reports routers/sec
  // (propagated routers per wall-clock second across the sampled sims) and
  // the process peak RSS, the two columns the paper states its own bounds
  // in (2-45 minutes, 200 MB - 2 GB).
  struct PaperFixture {
    topo::Model model;
    std::vector<nb::Asn> ases;
  };
  static std::unique_ptr<PaperFixture> fixture;
  if (fixture == nullptr) {
    data::InternetConfig config;
    config = config.scaled(state.range(0) / 1000.0);
    config.seed = 1;
    const data::Internet internet = data::generate_internet(config);
    auto built = std::make_unique<PaperFixture>(
        PaperFixture{topo::Model::one_router_per_as(internet.graph),
                     internet.graph.nodes()});
    fixture = std::move(built);
  }
  const bgp::Engine engine(fixture->model);
  std::size_t index = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const nb::Asn origin = fixture->ases[index++ % fixture->ases.size()];
    const auto sim = engine.run(nb::Prefix::for_asn(origin), origin);
    benchmark::DoNotOptimize(sim);
    messages += sim.messages;
  }
  state.counters["ases"] = static_cast<double>(fixture->ases.size());
  state.counters["routers"] =
      static_cast<double>(fixture->model.num_routers());
  state.counters["sessions"] =
      static_cast<double>(fixture->model.num_sessions());
  state.counters["msgs/prefix"] =
      benchmark::Counter(static_cast<double>(messages),
                         benchmark::Counter::kAvgIterations);
  state.counters["routers/sec"] = benchmark::Counter(
      static_cast<double>(fixture->model.num_routers()),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["peak_rss_mb"] =
      static_cast<double>(nb::peak_rss_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_PaperScalePropagation)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);

void BM_DecisionProcess(benchmark::State& state) {
  const std::size_t candidates = static_cast<std::size_t>(state.range(0));
  std::vector<bgp::Route> routes(candidates);
  std::vector<std::uint32_t> ids(candidates);
  for (std::size_t i = 0; i < candidates; ++i) {
    routes[i].sender = static_cast<std::uint32_t>(i);
    routes[i].path = {static_cast<nb::Asn>(i % 7 + 1), 42};
    routes[i].med = i % 2 ? 100 : 0;
    ids[i] = static_cast<std::uint32_t>(candidates - i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::select_best(routes, ids));
  }
}
BENCHMARK(BM_DecisionProcess)->Arg(4)->Arg(16)->Arg(64);

void BM_ModelDuplication(benchmark::State& state) {
  auto fixture = make_fixture(0.25);
  for (auto _ : state) {
    state.PauseTiming();
    topo::Model model = fixture.gt.model;  // copy
    state.ResumeTiming();
    // Duplicate the busiest router repeatedly.
    nb::Asn core = fixture.internet.tier1.front();
    for (int i = 0; i < 8; ++i)
      benchmark::DoNotOptimize(
          model.duplicate_router(model.router_id(model.routers_of(core)[0])));
  }
}
BENCHMARK(BM_ModelDuplication)->Unit(benchmark::kMicrosecond);

void BM_RefinementEndToEnd(benchmark::State& state) {
  const double scale = state.range(0) / 1000.0;
  for (auto _ : state) {
    core::PipelineConfig config = core::PipelineConfig::with(scale, 1);
    auto pipeline = core::run_full_pipeline(config);
    benchmark::DoNotOptimize(pipeline.model.num_routers());
    if (!pipeline.refine_result.success) state.SkipWithError("no fixpoint");
  }
}
BENCHMARK(BM_RefinementEndToEnd)
    ->Arg(100)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

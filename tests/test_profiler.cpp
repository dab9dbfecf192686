// Tests for the sweep profiler and flight recorder (DESIGN.md section 14):
// the lock-free ring semantics (wrap, drop counts, out-of-range tracks,
// atomic dumps), the Spearman rank correlation and speedup-loss
// attribution arithmetic behind `rdtool profile`, and the instrumented
// refinement loop end to end -- profiled fits must produce shard samples,
// merge worker counters deterministically for every thread count, stay
// byte-identical to the uninstrumented fit, and leave a post-mortem dump
// behind on degraded or faulted stops (R702/R704) with an R707 warning
// when the dump itself cannot be written.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/fault_inject.hpp"
#include "core/pipeline.hpp"
#include "core/refine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/observer.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "topology/model_io.hpp"

namespace {

using analysis::contains_code;
using data::BgpDataset;
using nb::Asn;
using nb::RouterId;
using obs::FlightEventType;
using obs::FlightRecorder;
using topo::AsPath;
using topo::Model;

namespace codes = analysis::codes;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, DumpCarriesTrackLabelsAndTypedPayloads) {
  FlightRecorder flight(3, 8);
  flight.record(0, FlightEventType::kIterationStart, 1, 42);
  flight.record(1, FlightEventType::kShardStart, 1, 0, 99);
  flight.record(1, FlightEventType::kShardEnd, 1, 0, 4096);
  flight.record(0, FlightEventType::kStop, 0, 1);

  EXPECT_EQ(flight.tracks(), 3u);
  EXPECT_EQ(flight.recorded(0), 2u);
  EXPECT_EQ(flight.recorded(1), 2u);
  EXPECT_EQ(flight.recorded(2), 0u);

  const std::string dump = flight.dump_json(2);
  EXPECT_NE(dump.find("\"tool\": \"flight-recorder\""), std::string::npos);
  EXPECT_NE(dump.find("\"serial\""), std::string::npos);
  EXPECT_NE(dump.find("\"worker-0\""), std::string::npos);
  EXPECT_NE(dump.find("\"worker-1\""), std::string::npos);
  EXPECT_NE(dump.find("\"iteration-start\""), std::string::npos);
  EXPECT_NE(dump.find("\"shard-start\""), std::string::npos);
  EXPECT_NE(dump.find("\"shard-end\""), std::string::npos);
  EXPECT_NE(dump.find("\"stop\""), std::string::npos);
  // Typed payload keys, not raw a/b/c words.
  EXPECT_NE(dump.find("\"active\": 42"), std::string::npos);
  EXPECT_NE(dump.find("\"predicted_cost\": 99"), std::string::npos);
  EXPECT_NE(dump.find("\"arena_bytes\": 4096"), std::string::npos);
}

TEST(FlightRecorderTest, RingWrapKeepsTheNewestEventsAndCountsDrops) {
  FlightRecorder flight(1, 4);
  for (std::uint64_t i = 0; i < 10; ++i)
    flight.record(0, FlightEventType::kIterationStart, i);

  EXPECT_EQ(flight.recorded(0), 10u);
  const std::string dump = flight.dump_json();
  EXPECT_NE(dump.find("\"recorded\": 10"), std::string::npos);
  EXPECT_NE(dump.find("\"dropped\": 6"), std::string::npos);
  // Only the newest capacity events survive, oldest first.
  for (std::uint64_t i = 0; i < 6; ++i)
    EXPECT_EQ(dump.find("\"iteration\": " + std::to_string(i)),
              std::string::npos)
        << "overwritten event " << i << " still in dump";
  for (std::uint64_t i = 6; i < 10; ++i)
    EXPECT_NE(dump.find("\"iteration\": " + std::to_string(i)),
              std::string::npos)
        << "surviving event " << i << " missing from dump";
  const std::size_t first = dump.find("\"iteration\": 6");
  const std::size_t last = dump.find("\"iteration\": 9");
  EXPECT_LT(first, last) << "events not oldest-first";
}

TEST(FlightRecorderTest, OutOfRangeTrackIsSilentlyDropped) {
  FlightRecorder flight(2, 4);
  flight.record(7, FlightEventType::kFault, 1);  // mis-sized caller
  EXPECT_EQ(flight.recorded(0), 0u);
  EXPECT_EQ(flight.recorded(1), 0u);
  EXPECT_EQ(flight.dump_json().find("\"fault\""), std::string::npos);
}

TEST(FlightRecorderTest, DumpToFileWritesAtomicallyAndReportsIoErrors) {
  FlightRecorder flight(1, 4);
  flight.record(0, FlightEventType::kStop, 0, 3);

  const std::string path = testing::TempDir() + "flight_dump_test.json";
  std::remove(path.c_str());
  std::string error;
  ASSERT_TRUE(flight.dump_to_file(path, &error)) << error;
  const std::string written = slurp(path);
  EXPECT_NE(written.find("\"tool\": \"flight-recorder\""), std::string::npos);
  EXPECT_EQ(written.find(".tmp"), std::string::npos);
  std::remove(path.c_str());

  error.clear();
  EXPECT_FALSE(flight.dump_to_file(
      testing::TempDir() + "no_such_dir_xyz/flight.json", &error));
  EXPECT_FALSE(error.empty());
}

// ---- rank correlation -----------------------------------------------------

TEST(RankCorrelationTest, MonotoneSeriesScorePlusMinusOne) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  // Any monotone transform of x ranks identically: Spearman sees order only.
  const std::vector<double> up{10, 100, 1000, 10000, 100000};
  const std::vector<double> down{5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(obs::rank_correlation(x, up), 1.0);
  EXPECT_DOUBLE_EQ(obs::rank_correlation(x, down), -1.0);
}

TEST(RankCorrelationTest, TiesShareAverageRanks) {
  // x ranks {1.5, 1.5, 3.5, 3.5} vs y ranks {1, 2, 3, 4}:
  // r = 4 / sqrt(4 * 5) = 0.8944...
  const std::vector<double> x{1, 1, 2, 2};
  const std::vector<double> y{10, 20, 30, 40};
  EXPECT_NEAR(obs::rank_correlation(x, y), 4.0 / std::sqrt(20.0), 1e-12);
}

TEST(RankCorrelationTest, DegenerateInputsAreNaN) {
  EXPECT_TRUE(std::isnan(obs::rank_correlation({}, {})));
  EXPECT_TRUE(std::isnan(obs::rank_correlation({1}, {2})));
  EXPECT_TRUE(std::isnan(obs::rank_correlation({1, 2}, {1, 2, 3})));
  // A constant side has zero rank variance: nothing to correlate.
  EXPECT_TRUE(std::isnan(obs::rank_correlation({5, 5, 5}, {1, 2, 3})));
}

// ---- profile_sweep attribution --------------------------------------------

TEST(ProfileSweepTest, AttributesImbalanceOverheadAndIdle) {
  // One iteration: a 100us parallel span, worker 0 busy 80us (predicted 8),
  // worker 1 busy 40us (predicted 4), inside a 200us fit.
  std::vector<obs::SweepShardSample> samples(2);
  samples[0] = {1, 0, 0, 8, 0, 80, 50, 3, 1 << 20};
  samples[1] = {1, 1, 1, 4, 0, 40, 25, 2, 1 << 18};
  const std::vector<obs::SweepIterationSpan> sweeps{{1, 0, 100}};

  const obs::SweepProfile profile =
      obs::profile_sweep(samples, sweeps, 200e-6);
  EXPECT_EQ(profile.workers, 2u);
  EXPECT_EQ(profile.iterations, 1u);
  EXPECT_EQ(profile.shard_samples, 2u);
  EXPECT_NEAR(profile.total_seconds, 200e-6, 1e-12);
  EXPECT_NEAR(profile.parallel_seconds, 100e-6, 1e-12);
  EXPECT_NEAR(profile.serial_seconds, 100e-6, 1e-12);
  EXPECT_NEAR(profile.busy_seconds, 120e-6, 1e-12);
  // max busy 80, mean busy 60 -> 20us imbalance; span 100 - max 80 -> 20us
  // overhead; idle 20us (worker 0) + 60us (worker 1).
  EXPECT_NEAR(profile.imbalance_seconds, 20e-6, 1e-12);
  EXPECT_NEAR(profile.overhead_seconds, 20e-6, 1e-12);
  EXPECT_NEAR(profile.idle_seconds, 80e-6, 1e-12);
  // (serial 100 + busy 120) / total 200.
  EXPECT_NEAR(profile.measured_speedup, 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(profile.cost_rank_correlation, 1.0);
  ASSERT_EQ(profile.lanes.size(), 2u);
  EXPECT_EQ(profile.lanes[0].worker, 0u);
  EXPECT_EQ(profile.lanes[0].busy_us, 80u);
  EXPECT_EQ(profile.lanes[0].idle_us, 20u);
  EXPECT_EQ(profile.lanes[0].shards, 1u);
  EXPECT_EQ(profile.lanes[1].worker, 1u);
  EXPECT_EQ(profile.lanes[1].busy_us, 40u);
  EXPECT_EQ(profile.lanes[1].idle_us, 60u);
}

TEST(ProfileSweepTest, ZeroTotalFallsBackToParallelTime) {
  std::vector<obs::SweepShardSample> samples(1);
  samples[0] = {1, 0, 0, 8, 0, 80, 50, 3, 0};
  const std::vector<obs::SweepIterationSpan> sweeps{{1, 0, 100}};
  const obs::SweepProfile profile = obs::profile_sweep(samples, sweeps, 0);
  EXPECT_NEAR(profile.total_seconds, 100e-6, 1e-12);
  EXPECT_NEAR(profile.serial_seconds, 0.0, 1e-12);
  EXPECT_NEAR(profile.measured_speedup, 0.8, 1e-12);
}

TEST(ProfileSweepTest, EmptyInputsProduceAnEmptyProfile) {
  const obs::SweepProfile profile = obs::profile_sweep({}, {}, 0);
  EXPECT_EQ(profile.workers, 0u);
  EXPECT_EQ(profile.shard_samples, 0u);
  EXPECT_DOUBLE_EQ(profile.measured_speedup, 1.0);
  EXPECT_TRUE(std::isnan(profile.cost_rank_correlation));
}

// ---- instrumented refinement loop -----------------------------------------

/// The registry counters the merge-determinism matrix compares (the
/// sweep-merged engine totals and the fit summary).
constexpr const char* kMergedCounters[] = {
    "refine.iterations",    "refine.messages",
    "refine.routers_added", "refine.policies_changed",
    "engine.messages",
};

struct ProfiledFit {
  std::string model_text;
  core::RefineResult result;
  /// kMergedCounters snapshot (the Registry itself is not movable).
  std::map<std::string, std::uint64_t> counters;
};

/// Pipeline-fixture fit with the full profiler stack attached (metric
/// registry, kIteration trace sink, flight recorder) -- the `rdtool refine
/// --trace` configuration the profiler samples under.
ProfiledFit profiled_fit(double scale, std::uint64_t seed, unsigned threads) {
  core::PipelineConfig config = core::PipelineConfig::with(scale, seed);
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);
  Model model = Model::one_router_per_as(pipeline.graph);

  ProfiledFit fit;
  obs::Registry registry;
  obs::TraceSink trace(obs::TraceLevel::kIteration);
  obs::Observer observer;
  observer.registry = &registry;
  observer.trace = &trace;
  FlightRecorder flight(2 + bgp::ThreadPool::resolve(threads));
  core::RefineConfig refine;
  refine.threads = threads;
  refine.observer = &observer;
  refine.flight_recorder = &flight;
  fit.result = core::refine_model(model, pipeline.split.training, refine);
  fit.model_text = topo::model_to_string(model);
  for (const char* counter : kMergedCounters)
    fit.counters[counter] = registry.counter_value(counter);
  return fit;
}

std::string bare_fit_text(double scale, std::uint64_t seed, unsigned threads) {
  core::PipelineConfig config = core::PipelineConfig::with(scale, seed);
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);
  Model model = Model::one_router_per_as(pipeline.graph);
  core::RefineConfig refine;
  refine.threads = threads;
  core::refine_model(model, pipeline.split.training, refine);
  return topo::model_to_string(model);
}

TEST(InstrumentedRefineTest, ProfiledFitSamplesShardsWithoutPerturbingIt) {
  const ProfiledFit fit = profiled_fit(0.08, 6, 4);
  ASSERT_TRUE(fit.result.success);
  EXPECT_EQ(fit.model_text, bare_fit_text(0.08, 6, 4))
      << "attaching the profiler changed the fitted model";

  // Every iteration yields one sweep span, and every simulated prefix one
  // sample (a profile "shard" is one prefix) carrying its view-priced
  // predicted cost.
  ASSERT_GT(fit.result.iterations, 0u);
  EXPECT_EQ(fit.result.sweep_spans.size(), fit.result.iterations);
  std::size_t simulated = 0;
  for (const core::RefineIterationLog& log : fit.result.log)
    simulated += log.active_prefixes;
  EXPECT_EQ(fit.result.shard_samples.size(), simulated);
  std::uint64_t messages = 0;
  for (const obs::SweepShardSample& sample : fit.result.shard_samples) {
    EXPECT_EQ(sample.prefixes, 1u);
    EXPECT_GT(sample.predicted_cost, 0u);
    messages += sample.messages;
  }
  EXPECT_EQ(messages, fit.result.messages_simulated);
}

TEST(InstrumentedRefineTest, CounterMergeIsDeterministicAcrossThreadCounts) {
  // The sweep merges per-worker counter shards in worker order; the merged
  // totals (and the fit itself) must not depend on the worker count.
  // threads == 0 is the hardware-concurrency leg.
  const ProfiledFit reference = profiled_fit(0.08, 6, 1);
  ASSERT_TRUE(reference.result.success);
  for (const unsigned threads : {2u, 4u, 0u}) {
    const ProfiledFit fit = profiled_fit(0.08, 6, threads);
    EXPECT_EQ(fit.model_text, reference.model_text)
        << "threads=" << threads;
    for (const char* counter : kMergedCounters) {
      EXPECT_EQ(fit.counters.at(counter), reference.counters.at(counter))
          << counter << " differs at threads=" << threads;
    }
  }
}

// ---- post-mortem dumps ----------------------------------------------------

BgpDataset dataset_of(std::vector<std::pair<Asn, AsPath>> records) {
  BgpDataset dataset;
  std::map<Asn, std::uint32_t> points;
  for (auto& [observer, path] : records) {
    if (!points.count(observer)) {
      points[observer] = static_cast<std::uint32_t>(dataset.points.size());
      dataset.points.push_back({RouterId{observer, 0}});
    }
    dataset.records.push_back({points[observer], path.origin(), path});
  }
  return dataset;
}

/// Ring fixture (same as test_fault_injection): the observed path goes the
/// long way around, so the fit needs several iterations and a budget of 1
/// forces a deterministic R702 degraded stop.
BgpDataset ring_dataset() {
  return dataset_of({{1, AsPath{1, 2, 3, 4, 5, 6}}});
}

Model ring_model() {
  topo::AsGraph g;
  for (Asn a = 1; a < 6; ++a) g.add_edge(a, a + 1);
  g.add_edge(1, 6);
  return Model::one_router_per_as(g);
}

TEST(FlightDumpTest, DegradedStopWritesThePostMortem) {
  const std::string dump_path = testing::TempDir() + "r702.flight.json";
  std::remove(dump_path.c_str());
  Model model = ring_model();
  FlightRecorder flight(2);
  core::RefineConfig config;
  config.prefix_iteration_budget = 1;  // forces R702
  config.flight_recorder = &flight;
  config.flight_dump_path = dump_path;
  const auto result = core::refine_model(model, ring_dataset(), config);

  EXPECT_TRUE(result.degraded());
  EXPECT_TRUE(contains_code(result.diagnostics,
                            codes::kPrefixBudgetExhausted));
  ASSERT_TRUE(result.flight_dump_written);
  const std::string dump = slurp(dump_path);
  EXPECT_NE(dump.find("\"tool\": \"flight-recorder\""), std::string::npos);
  EXPECT_NE(dump.find("\"prefix-frozen\""), std::string::npos);
  EXPECT_NE(dump.find("\"stop\""), std::string::npos);
  std::remove(dump_path.c_str());
}

TEST(FlightDumpTest, SuccessfulFitWritesNoDump) {
  const std::string dump_path = testing::TempDir() + "clean.flight.json";
  std::remove(dump_path.c_str());
  Model model = ring_model();
  FlightRecorder flight(2);
  core::RefineConfig config;
  config.flight_recorder = &flight;
  config.flight_dump_path = dump_path;
  const auto result = core::refine_model(model, ring_dataset(), config);

  EXPECT_TRUE(result.success);
  EXPECT_FALSE(result.flight_dump_written);
  EXPECT_TRUE(slurp(dump_path).empty()) << "dump written on a clean fit";
}

TEST(FlightDumpTest, UnwritableDumpPathWarnsR707NotFatal) {
  Model model = ring_model();
  FlightRecorder flight(2);
  core::RefineConfig config;
  config.prefix_iteration_budget = 1;
  config.flight_recorder = &flight;
  config.flight_dump_path = testing::TempDir() + "no_such_dir_xyz/f.json";
  const auto result = core::refine_model(model, ring_dataset(), config);

  EXPECT_TRUE(result.degraded());
  EXPECT_FALSE(result.flight_dump_written);
  EXPECT_TRUE(contains_code(result.diagnostics, codes::kFlightDumpError));
}

#ifdef RD_FAULT_INJECTION

TEST(FlightDumpTest, SweepFaultWritesThePostMortemWithTheFaultEvent) {
  const std::string dump_path = testing::TempDir() + "r704.flight.json";
  std::remove(dump_path.c_str());
  Model model = ring_model();
  core::FaultPlan plan;
  plan.throw_iteration = 2;
  FlightRecorder flight(2 + 2);
  core::RefineConfig config;
  config.fault_plan = &plan;
  config.threads = 2;  // fault crosses the pool boundary
  config.flight_recorder = &flight;
  config.flight_dump_path = dump_path;
  const auto result = core::refine_model(model, ring_dataset(), config);

  EXPECT_EQ(result.stop, core::RefineStop::kFault);
  EXPECT_TRUE(contains_code(result.diagnostics, codes::kSweepFault));
  ASSERT_TRUE(result.flight_dump_written);
  const std::string dump = slurp(dump_path);
  EXPECT_NE(dump.find("\"tool\": \"flight-recorder\""), std::string::npos);
  EXPECT_NE(dump.find("\"fault\""), std::string::npos);
  std::remove(dump_path.c_str());
}

#endif  // RD_FAULT_INJECTION

}  // namespace

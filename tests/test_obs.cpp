// Observability subsystem tests (src/obs + nb::json): writer/parser round
// trips, registry and shard-merge determinism for every thread count (the
// tsan preset exercises the sharded sweep for races), trace export in both
// the Chrome and JSONL forms, the elimination histogram's agreement with
// bgp::explain_selection, and the tentpole guarantee -- a refine with full
// observability attached fits a byte-identical model.
#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "bgp/explain.hpp"
#include "bgp/threadpool.hpp"
#include "core/pipeline.hpp"
#include "core/refine.hpp"
#include "netbase/json.hpp"
#include "obs/observer.hpp"
#include "topology/as_graph.hpp"
#include "topology/model_io.hpp"

namespace {

using topo::Model;

// ---- nb::JsonWriter / nb::json_parse ---------------------------------------

TEST(JsonWriterTest, CompactObjectUsesHistoricalSeparators) {
  nb::JsonWriter w;
  w.begin_object();
  w.key("a").value(1);
  w.key("b").value("x\"y");
  w.key("c").begin_array().value(true).value(2.5).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\": 1, \"b\": \"x\\\"y\", \"c\": [true, 2.5]}");
}

TEST(JsonWriterTest, PrettyPrintsWithIndent) {
  nb::JsonWriter w(2);
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array().value(2).value(3).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    3\n  ]\n}");
}

TEST(JsonWriterTest, ValueFixedAndRawSplice) {
  nb::JsonWriter w;
  w.begin_object();
  w.key("t").value_fixed(1.23456789, 3);
  w.key("x").raw("{\"pre\": [1, 2]}");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"t\": 1.235, \"x\": {\"pre\": [1, 2]}}");
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  nb::JsonWriter w;
  w.begin_object();
  w.key("s").value("tab\there\nline\x01");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\": \"tab\\there\\nline\\u0001\"}");
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  nb::JsonWriter w;
  w.begin_object();
  w.key("name").value("refine");
  w.key("n").value(static_cast<std::uint64_t>(42));
  w.key("neg").value(static_cast<std::int64_t>(-7));
  w.key("ok").value(true);
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("nested").begin_object().key("x").value(0.5).end_object();
  w.end_object();

  std::string error;
  const auto doc = nb::json_parse(w.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->string_or("name"), "refine");
  EXPECT_EQ(doc->number_or("n"), 42.0);
  EXPECT_EQ(doc->number_or("neg"), -7.0);
  const nb::JsonValue* ok = doc->find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->boolean);
  const nb::JsonValue* list = doc->find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  ASSERT_EQ(list->array.size(), 2u);
  EXPECT_EQ(list->array[1].number, 2.0);
  const nb::JsonValue* nested = doc->find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->number_or("x"), 0.5);
}

TEST(JsonParseTest, ParsesEscapesAndLiterals) {
  const auto str = nb::json_parse(R"("a\n\tA\\")");
  ASSERT_TRUE(str.has_value());
  EXPECT_EQ(str->string, "a\n\tA\\");
  const auto null_value = nb::json_parse("null");
  ASSERT_TRUE(null_value.has_value());
  EXPECT_EQ(null_value->type, nb::JsonValue::Type::kNull);
  const auto number = nb::json_parse("  -12.5e2  ");
  ASSERT_TRUE(number.has_value());
  EXPECT_EQ(number->number, -1250.0);
}

TEST(JsonParseTest, DuplicateKeysKeepFirst) {
  const auto doc = nb::json_parse(R"({"k": 1, "k": 2})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->number_or("k"), 1.0);
  EXPECT_EQ(doc->object.size(), 1u);
}

TEST(JsonParseTest, RejectsMalformedWithPosition) {
  std::string error;
  EXPECT_FALSE(nb::json_parse("{\"a\": }", &error).has_value());
  EXPECT_NE(error.find("offset"), std::string::npos);
  EXPECT_FALSE(nb::json_parse("[1, 2", &error).has_value());
  EXPECT_FALSE(nb::json_parse("{} trailing", &error).has_value());
  EXPECT_FALSE(nb::json_parse("{\"a\" 1}", &error).has_value());
  EXPECT_FALSE(nb::json_parse("nul", &error).has_value());
}

// ---- obs::Registry ---------------------------------------------------------

TEST(RegistryTest, CounterDefinitionDedupsByName) {
  obs::Registry reg;
  const obs::CounterId a = reg.counter("x.count");
  const obs::CounterId b = reg.counter("x.count");
  EXPECT_EQ(a.slot, b.slot);
  reg.add(a, 2);
  reg.add(b, 3);
  EXPECT_EQ(reg.value(a), 5u);
  EXPECT_EQ(reg.counter_value("x.count"), 5u);
  EXPECT_EQ(reg.counter_value("never.defined"), 0u);
}

TEST(RegistryTest, HistogramBucketsIncludeOverflow) {
  obs::Registry reg;
  const obs::HistogramId h = reg.histogram("v", {1, 10});
  reg.observe(h, 0.5);
  reg.observe(h, 5);
  reg.observe(h, 100);
  const obs::HistogramData data = reg.data(h);
  ASSERT_EQ(data.buckets.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(data.buckets[0], 1u);
  EXPECT_EQ(data.buckets[1], 1u);
  EXPECT_EQ(data.buckets[2], 1u);
  EXPECT_EQ(data.count, 3u);
  EXPECT_EQ(data.sum, 105.5);
}

TEST(RegistryTest, ToJsonParsesBack) {
  obs::Registry reg;
  reg.add(reg.counter("a.count"), 7);
  reg.observe(reg.histogram("a.hist", {2}), 1);
  std::string error;
  const auto doc = nb::json_parse(reg.to_json(2), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const nb::JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->number_or("a.count"), 7.0);
  const nb::JsonValue* histograms = doc->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const nb::JsonValue* hist = histograms->find("a.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->number_or("count"), 1.0);
  EXPECT_EQ(hist->number_or("sum"), 1.0);
}

TEST(RegistryTest, ShardMergeAccumulates) {
  obs::Registry reg;
  const obs::CounterId c = reg.counter("c");
  const obs::HistogramId h = reg.histogram("h", {10});
  obs::Shard shard = reg.make_shard();
  shard.add(c);
  shard.add(c, 4);
  shard.observe(h, 3);
  shard.observe(h, 30);
  reg.merge(shard);
  reg.merge(shard);  // merging twice doubles everything
  EXPECT_EQ(reg.value(c), 10u);
  const obs::HistogramData data = reg.data(h);
  EXPECT_EQ(data.count, 4u);
  EXPECT_EQ(data.buckets[0], 2u);
  EXPECT_EQ(data.buckets[1], 2u);
  EXPECT_EQ(data.sum, 66.0);
}

TEST(RegistryTest, ShardedTotalsDeterministicAcrossThreadCounts) {
  // The merged totals must not depend on the worker count or on how the
  // pool distributed the items (run under tsan to also prove race
  // freedom of the shard writes).
  const std::size_t items = 257;
  const auto run = [items](unsigned threads) {
    obs::Registry reg;
    const obs::CounterId c = reg.counter("work.count");
    const obs::HistogramId h = reg.histogram("work.value", {10, 100});
    bgp::ThreadPool pool(threads);
    {
      obs::ShardGroup shards(reg, pool.shard_count());
      pool.parallel_for_worker(items, [&](unsigned worker, std::size_t i) {
        obs::Shard& shard = shards.shard(worker);
        shard.add(c, i);
        shard.observe(h, static_cast<double>(i % 150));
      });
    }
    return std::make_pair(reg.value(c), reg.data(h));
  };
  const auto [serial_count, serial_hist] = run(1);
  EXPECT_EQ(serial_count, items * (items - 1) / 2);
  EXPECT_EQ(serial_hist.count, items);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto [count, hist] = run(threads);
    EXPECT_EQ(count, serial_count) << threads << " threads";
    EXPECT_EQ(hist.buckets, serial_hist.buckets) << threads << " threads";
    EXPECT_EQ(hist.count, serial_hist.count) << threads << " threads";
    EXPECT_EQ(hist.sum, serial_hist.sum) << threads << " threads";
  }
}

// ---- obs::TraceSink / obs::PhaseTimer --------------------------------------

TEST(TraceLevelTest, ParsesAndNests) {
  obs::TraceLevel level = obs::TraceLevel::kOff;
  EXPECT_TRUE(obs::parse_trace_level("prefix", &level));
  EXPECT_EQ(level, obs::TraceLevel::kPrefix);
  EXPECT_TRUE(obs::parse_trace_level("off", &level));
  EXPECT_FALSE(obs::parse_trace_level("verbose", &level));

  const obs::TraceSink iteration(obs::TraceLevel::kIteration);
  EXPECT_TRUE(iteration.enabled(obs::TraceLevel::kPhase));
  EXPECT_TRUE(iteration.enabled(obs::TraceLevel::kIteration));
  EXPECT_FALSE(iteration.enabled(obs::TraceLevel::kPrefix));
  EXPECT_FALSE(iteration.enabled(obs::TraceLevel::kOff));
  const obs::TraceSink off(obs::TraceLevel::kOff);
  EXPECT_FALSE(off.enabled(obs::TraceLevel::kPhase));
  EXPECT_STREQ(obs::trace_level_name(obs::TraceLevel::kPrefix), "prefix");
}

TEST(TraceSinkTest, ChromeExportParses) {
  obs::TraceSink sink(obs::TraceLevel::kPrefix);
  sink.name_process("unit");
  sink.complete("refine", "iteration", 10, 25, 0, "{\"iteration\": 1}");
  sink.counter("refine", "model", 35, "{\"routers\": 4}");
  sink.instant("refine", "done", 40, 7);
  EXPECT_EQ(sink.size(), 4u);

  std::ostringstream out;
  sink.write_chrome(out);
  std::string error;
  const auto doc = nb::json_parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->string_or("displayTimeUnit"), "ms");
  const nb::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 4u);
  const nb::JsonValue& span = events->array[1];
  EXPECT_EQ(span.string_or("ph"), "X");
  EXPECT_EQ(span.string_or("name"), "iteration");
  EXPECT_EQ(span.number_or("ts"), 10.0);
  EXPECT_EQ(span.number_or("dur"), 25.0);
  EXPECT_EQ(span.number_or("pid"), 1.0);
  const nb::JsonValue* args = span.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->number_or("iteration"), 1.0);
  const nb::JsonValue& instant = events->array[3];
  EXPECT_EQ(instant.string_or("ph"), "i");
  EXPECT_EQ(instant.string_or("s"), "t");
  EXPECT_EQ(instant.number_or("tid"), 7.0);
}

TEST(TraceSinkTest, JsonlEmitsOneParseableEventPerLine) {
  obs::TraceSink sink;
  sink.complete("a", "one", 0, 1, 0);
  sink.complete("a", "two", 1, 1, 0);
  std::ostringstream out;
  sink.write_jsonl(out);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto event = nb::json_parse(line, &error);
    ASSERT_TRUE(event.has_value()) << error;
    EXPECT_EQ(event->string_or("cat"), "a");
    ++parsed;
  }
  EXPECT_EQ(parsed, 2u);
}

TEST(PhaseTimerTest, RecordsNanosAndEmitsSpan) {
  obs::Registry reg;
  const obs::CounterId ns = reg.counter("t.ns");
  obs::TraceSink sink(obs::TraceLevel::kPhase);
  { obs::PhaseTimer timer(&reg, ns, &sink, "unit", "{\"k\": 1}"); }
  EXPECT_GT(reg.value(ns), 0u);
  ASSERT_EQ(sink.size(), 1u);
  std::ostringstream out;
  sink.write_jsonl(out);
  const auto event = nb::json_parse(out.str());
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->string_or("ph"), "X");
  EXPECT_EQ(event->string_or("cat"), "phase");
  EXPECT_EQ(event->string_or("name"), "unit");
  const nb::JsonValue* args = event->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->number_or("k"), 1.0);
}

TEST(PhaseTimerTest, SilentWithoutSinksAndBelowPhaseLevel) {
  obs::TraceSink off(obs::TraceLevel::kOff);
  {
    obs::PhaseTimer no_sinks(nullptr, obs::CounterId{}, nullptr, "a");
    obs::PhaseTimer off_trace(nullptr, obs::CounterId{}, &off, "b");
    EXPECT_GE(no_sinks.seconds(), 0.0);
    no_sinks.stop();
    no_sinks.stop();  // idempotent
  }
  EXPECT_EQ(off.size(), 0u);
}

// ---- elimination histogram -------------------------------------------------

TEST(EliminationHistogramTest, AgreesWithExplainSelection) {
  // Three equal-length branches into AS 5 with a MED ranking: eliminations
  // happen at several different steps across the sim's routers.  The
  // histogram must equal explain_selection's per-candidate `lost_at`
  // annotations aggregated over every router.
  topo::AsGraph graph;
  graph.add_edge(9, 1);
  graph.add_edge(9, 2);
  graph.add_edge(9, 3);
  graph.add_edge(1, 5);
  graph.add_edge(2, 5);
  graph.add_edge(3, 5);
  Model model = Model::one_router_per_as(graph);
  model.set_ranking(nb::RouterId{5, 0}, nb::Prefix::for_asn(9), 3);

  const bgp::Engine engine(model);
  const bgp::PrefixSimResult sim = engine.run(nb::Prefix::for_asn(9), 9);
  const std::vector<std::uint32_t> ids = bgp::dense_ids(model);
  const auto histogram = obs::elimination_histogram(ids, sim);

  std::array<std::uint64_t, bgp::kNumDecisionSteps> expected{};
  std::uint64_t eliminations = 0;
  for (std::size_t r = 0; r < sim.num_routers(); ++r) {
    const bgp::RouteExplanation explanation =
        bgp::explain_selection(model, sim, static_cast<Model::Dense>(r));
    for (const auto& candidate : explanation.candidates) {
      if (candidate.is_best) continue;
      ++expected[static_cast<std::size_t>(candidate.lost_at)];
      ++eliminations;
    }
  }
  EXPECT_EQ(histogram, expected);
  EXPECT_GT(eliminations, 0u);  // the fixture must actually eliminate
}

// ---- observed refine: byte identity + metric consistency -------------------

struct FitOut {
  std::string model_text;
  core::RefineResult result;
};

FitOut fit(double scale, unsigned threads, const obs::Observer* observer) {
  core::PipelineConfig config = core::PipelineConfig::with(scale, 1);
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);
  Model model = Model::one_router_per_as(pipeline.graph);
  core::RefineConfig refine;
  refine.threads = threads;
  refine.observer = observer;
  FitOut out;
  out.result = core::refine_model(model, pipeline.split.training, refine);
  out.model_text = topo::model_to_string(model);
  return out;
}

TEST(ObservedRefineTest, ModelByteIdenticalWithAndWithoutObserver) {
  const double scale = 0.1;
  const FitOut plain = fit(scale, 1, nullptr);
  ASSERT_TRUE(plain.result.success);
  for (const unsigned threads : {1u, 3u}) {
    obs::Registry reg;
    obs::TraceSink sink(obs::TraceLevel::kPrefix);
    obs::Observer observer;
    observer.registry = &reg;
    observer.trace = &sink;
    const FitOut observed = fit(scale, threads, &observer);
    EXPECT_TRUE(observed.result.success);
    EXPECT_EQ(observed.model_text, plain.model_text)
        << "observed fit differs at " << threads << " threads";
    // The registry must agree with the result it observed.
    EXPECT_EQ(reg.counter_value("refine.iterations"),
              observed.result.iterations);
    EXPECT_EQ(reg.counter_value("refine.messages"),
              observed.result.messages_simulated);
    EXPECT_EQ(reg.counter_value("engine.messages"),
              observed.result.messages_simulated);
    EXPECT_EQ(reg.counter_value("refine.routers_added"),
              observed.result.routers_added);
    EXPECT_GT(sink.size(), 0u);
  }
}

TEST(ObservedRefineTest, IterationSpansMatchResultLog) {
  obs::Registry reg;
  obs::TraceSink sink(obs::TraceLevel::kIteration);
  obs::Observer observer;
  observer.registry = &reg;
  observer.trace = &sink;
  const FitOut observed = fit(0.1, 2, &observer);
  ASSERT_TRUE(observed.result.success);

  std::ostringstream out;
  sink.write_chrome(out);
  std::string error;
  const auto doc = nb::json_parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const nb::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t iteration_spans = 0;
  for (const nb::JsonValue& event : events->array) {
    if (event.string_or("ph") != "X" ||
        event.string_or("name") != "iteration") {
      continue;
    }
    const nb::JsonValue* args = event.find("args");
    ASSERT_NE(args, nullptr);
    const std::size_t i = static_cast<std::size_t>(
        args->number_or("iteration"));
    ASSERT_LE(i, observed.result.log.size());
    const core::RefineIterationLog& log = observed.result.log[i - 1];
    EXPECT_EQ(args->number_or("matched"),
              static_cast<double>(log.paths_matched));
    EXPECT_EQ(args->number_or("routers"), static_cast<double>(log.routers));
    EXPECT_EQ(args->number_or("filters"), static_cast<double>(log.filters));
    EXPECT_EQ(args->number_or("active_prefixes"),
              static_cast<double>(log.active_prefixes));
    ++iteration_spans;
  }
  EXPECT_EQ(iteration_spans, observed.result.log.size());
}

TEST(ObservedRefineTest, EngineMetricsDeterministicAcrossThreadCounts) {
  // The sharded engine counters -- including the messages_per_prefix
  // histogram -- are merged in worker order and must match the 1-thread
  // totals exactly (timing counters excluded, of course).
  const auto collect = [](unsigned threads) {
    obs::Registry reg;
    obs::Observer observer;
    observer.registry = &reg;
    const FitOut observed = fit(0.1, threads, &observer);
    EXPECT_TRUE(observed.result.success);
    return std::make_pair(reg.data(reg.histogram(
                              "engine.messages_per_prefix", {})),
                          std::array<std::uint64_t, 6>{
                              reg.counter_value("engine.messages"),
                              reg.counter_value("engine.activations"),
                              reg.counter_value("engine.rib_inserts"),
                              reg.counter_value("engine.rib_replacements"),
                              reg.counter_value("engine.withdrawals"),
                              reg.counter_value("engine.selection_changes")});
  };
  const auto [serial_hist, serial_counters] = collect(1);
  EXPECT_GT(serial_counters[0], 0u);
  EXPECT_GT(serial_hist.count, 0u);
  for (const unsigned threads : {2u, 4u}) {
    const auto [hist, counters] = collect(threads);
    EXPECT_EQ(counters, serial_counters) << threads << " threads";
    EXPECT_EQ(hist.buckets, serial_hist.buckets) << threads << " threads";
    EXPECT_EQ(hist.count, serial_hist.count) << threads << " threads";
    EXPECT_EQ(hist.sum, serial_hist.sum) << threads << " threads";
  }
}

}  // namespace

// rdtool exit-code contract tests: the documented 0/1/2/3/130 contracts of
// lint, audit, refine, diff and impact, exercised against the real binary
// (RDTOOL_BIN, injected by the build), plus --json well-formedness via the
// nb::json_parse round trip.  Every fixture file the commands read is
// written by this test into a throwaway directory.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "netbase/json.hpp"
#include "topology/as_graph.hpp"
#include "topology/model_io.hpp"

namespace {

namespace fs = std::filesystem;
using nb::Prefix;
using nb::RouterId;
using topo::Model;

/// Runs `rdtool <args>`, returns the exit code (asserts the process ran).
int run(const std::string& args) {
  const std::string command =
      std::string(RDTOOL_BIN) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  EXPECT_NE(status, -1) << command;
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}

/// Runs `rdtool <args>` and captures stdout (stderr discarded).
std::string capture(const std::string& args, int* exit_code = nullptr) {
  const std::string command =
      std::string(RDTOOL_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  std::string out;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (exit_code != nullptr) *exit_code = WEXITSTATUS(status);
  return out;
}

/// Shared throwaway workspace with the model/dataset files the contract
/// tests read; built once (generate + refine dominate the cost).
class RdtoolCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new fs::path(fs::temp_directory_path() /
                        ("rdtool_cli_" + std::to_string(getpid())));
    fs::create_directories(*dir_);

    // A clean hand-built model: lint and audit must both exit 0 on it.
    topo::AsGraph graph;
    graph.add_edge(9, 1);
    graph.add_edge(9, 2);
    graph.add_edge(1, 5);
    graph.add_edge(2, 5);
    Model diamond = Model::one_router_per_as(graph);
    diamond.set_ranking(RouterId{5, 0}, Prefix::for_asn(9), 2);
    std::ofstream out(path("diamond.model"));
    topo::write_model(out, diamond);
    ASSERT_TRUE(out.good());

    // Generated dataset + ground truth, and a fitted model refined from it.
    ASSERT_EQ(run("generate --out " + path("ds.dump") + " --scale 0.05 "
                  "--seed 3 --model-out " + path("gt.model")),
              0);
    ASSERT_EQ(run("refine --dataset " + path("ds.dump") + " --out " +
                  path("fit.model")),
              0);  // the refine exit-0 contract: fit converged
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove_all(*dir_, ec);
    delete dir_;
    dir_ = nullptr;
  }

  static std::string path(const std::string& name) {
    return (*dir_ / name).string();
  }

  static fs::path* dir_;
};

fs::path* RdtoolCliTest::dir_ = nullptr;

TEST_F(RdtoolCliTest, HelpAndUsage) {
  EXPECT_EQ(run("help"), 0);
  EXPECT_EQ(run("no-such-command"), 2);
  EXPECT_EQ(run(""), 2);
}

TEST_F(RdtoolCliTest, LintContract) {
  EXPECT_EQ(run("lint --model " + path("diamond.model")), 0);
  EXPECT_EQ(run("lint --fixture dangling-session"), 1);
  EXPECT_EQ(run("lint --model " + path("no-such-file.model")), 2);

  int code = -1;
  const auto json = nb::json_parse(
      capture("lint --fixture dangling-session --json", &code));
  EXPECT_EQ(code, 1);
  ASSERT_TRUE(json.has_value());
  ASSERT_NE(json->find("errors"), nullptr);
  EXPECT_GE(json->find("errors")->number, 1.0);
  EXPECT_NE(json->find("diagnostics"), nullptr);
}

TEST_F(RdtoolCliTest, AuditContract) {
  EXPECT_EQ(run("audit --model " + path("diamond.model")), 0);
  EXPECT_EQ(run("audit --fixture bad-gadget"), 1);
  EXPECT_EQ(run("audit --model " + path("no-such-file.model")), 2);

  int code = -1;
  const auto json =
      nb::json_parse(capture("audit --fixture bad-gadget --json", &code));
  EXPECT_EQ(code, 1);
  ASSERT_TRUE(json.has_value());
  ASSERT_NE(json->find("errors"), nullptr);
  EXPECT_GE(json->find("errors")->number, 1.0);
}

TEST_F(RdtoolCliTest, RefineContract) {
  // Exit 0 is pinned by SetUpTestSuite (the fit that produced fit.model).
  EXPECT_EQ(run("refine --out " + path("x.model")), 2);  // missing --dataset
  EXPECT_EQ(run("refine --dataset " + path("no-such.dump") + " --out " +
                path("x.model")),
            1);
  // A one-iteration prefix budget cannot fit the 0.05 dataset: the fit
  // completes degraded (frozen budget-exhausted prefixes), exit 3.
  int code = -1;
  const auto json = nb::json_parse(
      capture("refine --dataset " + path("ds.dump") + " --out " +
                  path("degraded.model") + " --prefix-budget 1 --json",
              &code));
  EXPECT_EQ(code, 3);
  ASSERT_TRUE(json.has_value());
  ASSERT_NE(json->find("degraded"), nullptr);
  EXPECT_TRUE(json->find("degraded")->boolean);
  // A degraded stop leaves the always-on flight recorder's post-mortem
  // next to the model, and the report says so.
  ASSERT_NE(json->find("flight_dump_written"), nullptr);
  EXPECT_TRUE(json->find("flight_dump_written")->boolean);
  std::ifstream dump_in(path("degraded.model.flight.json"));
  std::stringstream dump_text;
  dump_text << dump_in.rdbuf();
  const auto dump = nb::json_parse(dump_text.str());
  ASSERT_TRUE(dump.has_value()) << "flight dump is not valid JSON";
  ASSERT_NE(dump->find("tool"), nullptr);
  EXPECT_EQ(dump->find("tool")->string, "flight-recorder");
  ASSERT_NE(dump->find("rings"), nullptr);
  EXPECT_FALSE(dump->find("rings")->array.empty());
#ifdef RD_FAULT_INJECTION
  // The injected deterministic interrupt follows the SIGINT path: exit 130.
  EXPECT_EQ(run("refine --dataset " + path("ds.dump") + " --out " +
                path("y.model") + " --checkpoint " + path("ckpt") +
                " --interrupt-after 1"),
            130);
#endif
}

TEST_F(RdtoolCliTest, ProfileContract) {
  // A shard-instrumented trace: multi-thread fit at kIteration level.
  ASSERT_EQ(run("refine --dataset " + path("ds.dump") + " --out " +
                path("prof.model") + " --threads 2 --trace " +
                path("prof.trace")),
            0);
  // And one with no shard spans (phase level): exit 1, not a crash.
  ASSERT_EQ(run("refine --dataset " + path("ds.dump") + " --out " +
                path("phase.model") + " --threads 2 --trace " +
                path("phase.trace") + " --trace-level phase"),
            0);

  EXPECT_EQ(run("profile"), 2);                        // missing operand
  EXPECT_EQ(run("profile " + path("no-such.trace")), 2);
  EXPECT_EQ(run("profile " + path("phase.trace")), 1);  // nothing to profile
  EXPECT_EQ(run("profile " + path("prof.trace")), 0);

  int code = -1;
  const auto json = nb::json_parse(
      capture("profile " + path("prof.trace") + " --json", &code));
  EXPECT_EQ(code, 0);
  ASSERT_TRUE(json.has_value());
  ASSERT_NE(json->find("tool"), nullptr);
  EXPECT_EQ(json->find("tool")->string, "profile");
  ASSERT_NE(json->find("workers"), nullptr);
  EXPECT_GE(json->find("workers")->number, 1.0);
  ASSERT_NE(json->find("shard_samples"), nullptr);
  EXPECT_GT(json->find("shard_samples")->number, 0.0);
  EXPECT_NE(json->find("measured_speedup"), nullptr);
  EXPECT_NE(json->find("cost_rank_correlation"), nullptr);
  ASSERT_NE(json->find("lanes"), nullptr);
  ASSERT_FALSE(json->find("lanes")->array.empty());
  const auto& lane = json->find("lanes")->array.front();
  EXPECT_NE(lane.find("worker"), nullptr);
  EXPECT_NE(lane.find("busy_seconds"), nullptr);
  EXPECT_NE(lane.find("idle_seconds"), nullptr);
  EXPECT_NE(lane.find("shards"), nullptr);
}

TEST_F(RdtoolCliTest, DiffContract) {
  EXPECT_EQ(run("diff " + path("fit.model") + " " + path("fit.model")), 0);
  EXPECT_EQ(run("diff " + path("fit.model") + " " + path("gt.model")), 1);
  EXPECT_EQ(run("diff " + path("fit.model")), 2);  // missing operand
  EXPECT_EQ(
      run("diff " + path("fit.model") + " " + path("no-such-file.model")), 2);

  int code = -1;
  const auto json = nb::json_parse(capture(
      "diff " + path("fit.model") + " " + path("fit.model") + " --json",
      &code));
  EXPECT_EQ(code, 0);
  ASSERT_TRUE(json.has_value());
  ASSERT_NE(json->find("identical"), nullptr);
  EXPECT_TRUE(json->find("identical")->boolean);
  ASSERT_NE(json->find("routers_differing"), nullptr);
  EXPECT_EQ(json->find("routers_differing")->number, 0.0);
}

TEST_F(RdtoolCliTest, PlanContract) {
  EXPECT_EQ(run("plan --shards 4"), 2);  // no model source
  EXPECT_EQ(run("plan --model " + path("diamond.model") + " --shards 0"), 2);
  EXPECT_EQ(run("plan --model " + path("no-such-file.model")), 2);
  EXPECT_EQ(run("plan --model " + path("diamond.model")), 0);

  // The pinned --json shape the CI determinism job diffs.
  const std::string args =
      "plan --generated --scale 0.05 --seed 3 --shards 4 --json";
  int code = -1;
  const std::string out = capture(args, &code);
  EXPECT_EQ(code, 0);
  const auto json = nb::json_parse(out);
  ASSERT_TRUE(json.has_value());
  ASSERT_NE(json->find("tool"), nullptr);
  EXPECT_EQ(json->find("tool")->string, "plan");
  ASSERT_NE(json->find("version"), nullptr);
  EXPECT_EQ(json->find("version")->number, 1.0);
  ASSERT_NE(json->find("shards"), nullptr);
  EXPECT_EQ(json->find("shards")->number, 4.0);
  ASSERT_NE(json->find("total_cost"), nullptr);
  EXPECT_GT(json->find("total_cost")->number, 0.0);
  EXPECT_NE(json->find("cut_weight"), nullptr);
  ASSERT_NE(json->find("imbalance"), nullptr);
  EXPECT_GE(json->find("imbalance")->number, 1.0);
  EXPECT_NE(json->find("relaxed_prefixes"), nullptr);
  ASSERT_NE(json->find("plan"), nullptr);
  ASSERT_EQ(json->find("plan")->array.size(), 4u);
  const auto& shard = json->find("plan")->array.front();
  ASSERT_NE(shard.find("shard"), nullptr);
  ASSERT_NE(shard.find("cost"), nullptr);
  ASSERT_NE(shard.find("routers"), nullptr);
  ASSERT_NE(shard.find("prefixes"), nullptr);
  ASSERT_FALSE(shard.find("prefixes")->array.empty());
  const auto& prefix = shard.find("prefixes")->array.front();
  EXPECT_NE(prefix.find("prefix"), nullptr);
  EXPECT_NE(prefix.find("origin"), nullptr);
  EXPECT_NE(prefix.find("cost"), nullptr);
  EXPECT_NE(prefix.find("workset"), nullptr);
  EXPECT_NE(prefix.find("relaxed"), nullptr);

  // Determinism: the same invocation yields byte-identical output (no
  // timings or other run-dependent fields in plan --json).
  int again_code = -1;
  EXPECT_EQ(out, capture(args, &again_code));
  EXPECT_EQ(again_code, 0);
}

TEST_F(RdtoolCliTest, ImpactContract) {
  const std::string model = " --model " + path("diamond.model");
  EXPECT_EQ(run("impact" + model + " --edit session-down --session 9.0:1.0"),
            0);
  EXPECT_EQ(run("impact" + model + " --edit no-such-edit"), 2);
  EXPECT_EQ(run("impact" + model + " --edit session-down"), 2);  // no session
  EXPECT_EQ(run("impact" + model +
                " --edit policy-change --router 5.0"),  // missing --origin
            2);
  EXPECT_EQ(run("impact --model " + path("no-such-file.model") +
                " --edit session-down --session 9.0:1.0"),
            2);

  int code = -1;
  const auto json = nb::json_parse(
      capture("impact" + model +
                  " --edit session-down --session 9.0:1.0 --json",
              &code));
  EXPECT_EQ(code, 0);
  ASSERT_TRUE(json.has_value());
  ASSERT_NE(json->find("routers_total"), nullptr);
  EXPECT_GE(json->find("routers_total")->number, 1.0);
  ASSERT_NE(json->find("prefixes"), nullptr);
  EXPECT_FALSE(json->find("prefixes")->array.empty());
}

TEST_F(RdtoolCliTest, ServeContract) {
  EXPECT_EQ(run("serve"), 2);  // missing --model
  EXPECT_EQ(run("serve --model " + path("no-such-file.model") +
                " --once '{\"op\":\"health\"}'"),
            1);
  // An unintelligible --once request answers status "error" and exits 1.
  EXPECT_EQ(
      run("serve --model " + path("fit.model") + " --once '{\"op\":\"fly\"}'"),
      1);
  EXPECT_EQ(
      run("serve --model " + path("fit.model") + " --once 'not json'"), 1);

  // The pinned health --once shape (the CI smoke job's liveness probe).
  int code = -1;
  const auto health = nb::json_parse(capture(
      "serve --model " + path("fit.model") + " --once '{\"op\":\"health\"}'",
      &code));
  EXPECT_EQ(code, 0);
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->string_or("status"), "ok");
  for (const char* key :
       {"uptime_seconds", "generation", "ases", "routers", "workers",
        "queue_depth", "queue_capacity", "draining", "peak_rss_bytes",
        "counters"}) {
    EXPECT_NE(health->find(key), nullptr) << key;
  }

  // A real query through --once: scale-0.05 seed-3 generation is
  // deterministic, so AS 11 and AS 12 always exist in fit.model.
  const auto predict = nb::json_parse(capture(
      "serve --model " + path("fit.model") +
          " --once '{\"op\":\"predict\",\"origin\":11,\"vantage\":12}'",
      &code));
  EXPECT_EQ(code, 0);
  ASSERT_TRUE(predict.has_value());
  EXPECT_EQ(predict->string_or("status"), "ok");
  ASSERT_NE(predict->find("paths"), nullptr);
  EXPECT_FALSE(predict->find("paths")->array.empty());
}

}  // namespace

// The legs a workload is built from.  Each leg calls the program's stable
// entry points from outside, times them, checks their outputs and adds its
// metrics to a Report.  README.md lists the entry points and the metrics.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "topology/model.hpp"
#include "trace.hpp"

namespace perfbench {

/// Worker threads of every multi-threaded call, fixed to the reference
/// host's `nproc` rather than resolved at run time, so that the same
/// benchmark does the same work everywhere.
constexpr unsigned kThreads = 4;
/// Daemon workers in the serve leg; the load comes over as many
/// connections.
constexpr unsigned kServeWorkers = 2;

struct Report {
  Metrics end_to_end;
  Metrics per_layer;
  Tally tally;
  /// Per-query impact CPU times, pooled over rounds into impact_p50/p90_ms.
  std::vector<double> impact_ms;
};

/// Recorded reference outputs of one fit input (perfbench/expected.txt).
struct Expected {
  std::uint64_t model_hash = 0;
  std::size_t validation_ok = 0;  // RIB-Out + potential RIB-Out paths
  std::size_t validation_total = 0;
};
using ExpectedTable = std::map<std::pair<std::string, std::uint64_t>, Expected>;

/// Parses `scale instance hash ok total` lines ('#' starts a comment).
bool load_expected(const std::string& path, ExpectedTable* table,
                   std::string* error);

/// Set-up output: the data stages, the training set read back from its
/// text form, and the initial one-router-per-AS model.
struct Prepared {
  double scale = 0;
  std::uint64_t instance = 0;
  core::Pipeline pipeline;
  data::BgpDataset training;
  topo::Model initial;
};

/// Runs the set-up once, reporting setup_s and the data/topology set-up
/// layers.
Prepared set_up(double scale, std::uint64_t instance, Tracer& tracer,
                Report* report);

/// Fits the initial model at kThreads and then, with `one_thread`, at 1
/// thread, checks every fit against the recorded model, and returns the
/// kThreads fit.
topo::Model fit_leg(const Prepared& prepared, bool one_thread,
                    const Expected* expected, Tracer& tracer, Report* report);

/// Evaluates predictions on the validation split.
void validate_leg(const topo::Model& model, const Prepared& prepared,
                  const Expected* expected, Tracer& tracer, Report* report);

/// Writes the model to text and reads it back; returns the read copy.
topo::Model model_io_leg(const topo::Model& model, Tracer& tracer,
                         Report* report);

struct ServeParams {
  double rate_qps = 0;
  double open_seconds = 0;
  double saturation_seconds = 0;
  std::size_t answer_requests = 0;  // in-process Server::answer sample
  std::uint64_t first_request = 0;  // index into the seeded request stream
};

/// Serves `model` on loopback and drives it with the request mix.
void serve_leg(const topo::Model& model, const ServeParams& params,
               std::uint64_t seed, Tracer& tracer, Report* report);

/// Self-diff, working sets + shard plan, and seeded impact queries
/// [first_query, first_query + impact_queries), each run twice.
void analysis_leg(const topo::Model& model, std::size_t first_query,
                  std::size_t impact_queries, std::uint64_t seed,
                  Tracer& tracer, Report* report);

/// Peak-RSS window: reset_peak_rss() starts it, peak_rss_mb() reads it.
bool reset_peak_rss();
double peak_rss_mb();

}  // namespace perfbench

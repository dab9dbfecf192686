// Load generator for the serve leg: a seeded request mix and a client that
// speaks the daemon's length-prefixed frame protocol over loopback.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/model.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Op : std::uint8_t { kPredict, kExplain, kWhatIf };

/// The request mix: 90% predict (origin Zipf over every model origin,
/// vantage uniform), 5% explain (drawn the same way), 5% policy-edit
/// what-ifs over kWhatIfEdits edits -- more than the server's fork cache
/// holds (8), so forks both hit and miss.  Request i is a pure function of
/// (seed, i).
///
/// The shares are exact in every block of kBlock requests.  The origin
/// popularity order and the edits depend on the model only.  So the seed
/// moves where the costly requests fall and which origin or edit each
/// request draws, but not how many costly requests a run sends.
class RequestStream {
 public:
  static constexpr std::size_t kWhatIfEdits = 16;
  static constexpr std::uint64_t kBlock = 20;

  RequestStream(const topo::Model& model, std::uint64_t seed);

  struct Request {
    Op op = Op::kPredict;
    std::string text;
  };
  Request at(std::uint64_t index) const;

 private:
  std::uint64_t seed_;
  std::vector<nb::Asn> asns_;          // uniform draws
  std::vector<nb::Asn> zipf_order_;    // origin by popularity rank
  std::vector<double> zipf_cdf_;
  std::vector<std::string> edits_;     // what-if bodies without the id
};

struct LoadConfig {
  double rate_qps = 0;           // open-loop arrival rate
  double open_seconds = 0;       // open-loop phase length
  double saturation_seconds = 0; // closed-loop phase length
  unsigned connections = 2;
  std::uint64_t first_request = 0;  // index of the phase's first request
  std::uint64_t sample_every = 16;  // open-loop replies kept for the oracle
};

struct LoadResult {
  /// Open loop: latency of every request from its due time, the send-to-
  /// reply time of predicts, and how late the generator itself sent
  /// (send time minus the later of due time and the previous reply).
  std::vector<double> latency_ms;
  std::vector<double> predict_service_us;
  std::vector<double> late_ms;
  std::uint64_t open_requests = 0;
  /// Closed loop: replies, when each completed (seconds into the phase),
  /// and the throughput they sustained.
  std::uint64_t saturation_requests = 0;
  std::vector<double> saturation_done_s;
  double saturation_qps = 0;
  /// Replies that were not `"status": "ok"` or never arrived.
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// (request, reply) pairs sampled from the open loop.
  std::vector<std::pair<std::string, std::string>> samples;
};

/// Drives a listening daemon on 127.0.0.1:`port`: the open-loop phase, then
/// the closed-loop saturation phase, each over `connections` connections.
/// With tracing on, every request is a span under `parent` that carries its
/// request id.
LoadResult run_load(std::uint16_t port, const RequestStream& stream,
                    const LoadConfig& config, Tracer& tracer,
                    std::uint64_t parent);

/// True when a rendered reply reports success.
bool reply_ok(const std::string& reply);

}  // namespace perfbench

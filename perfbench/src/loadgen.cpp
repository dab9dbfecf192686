#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr int kReplyTimeoutMs = 15000;
constexpr std::size_t kSaturationSlices = 8;

/// One blocking connection speaking 4-byte big-endian length-prefixed
/// frames, the daemon's wire format.
class FramedClient {
 public:
  FramedClient() = default;
  ~FramedClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  FramedClient(const FramedClient&) = delete;
  FramedClient& operator=(const FramedClient&) = delete;

  bool connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool roundtrip(const std::string& request, std::string* reply) {
    const auto length = static_cast<std::uint32_t>(request.size());
    std::string frame;
    frame.reserve(4 + request.size());
    frame.push_back(static_cast<char>(length >> 24));
    frame.push_back(static_cast<char>(length >> 16));
    frame.push_back(static_cast<char>(length >> 8));
    frame.push_back(static_cast<char>(length));
    frame += request;
    if (!write_all(frame.data(), frame.size())) return false;
    unsigned char header[4];
    if (!read_exact(header, sizeof(header))) return false;
    const std::uint32_t size = (std::uint32_t{header[0]} << 24) |
                               (std::uint32_t{header[1]} << 16) |
                               (std::uint32_t{header[2]} << 8) |
                               std::uint32_t{header[3]};
    reply->resize(size);
    return size == 0 || read_exact(reply->data(), size);
  }

 private:
  bool write_all(const char* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      data += n;
      size -= static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_exact(void* buffer, std::size_t size) {
    auto* out = static_cast<char*>(buffer);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(kReplyTimeoutMs);
    while (size > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      const ssize_t n = ::recv(fd_, out, size, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      out += n;
      size -= static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
};

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void note_failure(LoadResult* result, std::uint64_t index,
                  const std::string& reply) {
  ++result->failed;
  if (result->failures.size() < 5)
    result->failures.push_back("request " + std::to_string(index) + ": " +
                               (reply.empty() ? "<no reply>"
                                              : reply.substr(0, 160)));
}

}  // namespace

bool reply_ok(const std::string& reply) {
  return reply.find("\"status\": \"ok\"") != std::string::npos;
}

RequestStream::RequestStream(const topo::Model& model, std::uint64_t seed)
    : seed_(seed), asns_(model.asns()), zipf_order_(asns_) {
  // Model-derived, seed-independent: which origins are popular and which
  // edits exist are part of the workload, not of the draw.
  Rng rng(stream_seed(model.num_routers(), 1));
  for (std::size_t i = zipf_order_.size(); i > 1; --i)
    std::swap(zipf_order_[i - 1], zipf_order_[rng.below(i)]);
  double total = 0;
  for (std::size_t rank = 0; rank < zipf_order_.size(); ++rank) {
    total += 1.0 / static_cast<double>(rank + 1);
    zipf_cdf_.push_back(total);
  }
  for (double& value : zipf_cdf_) value /= total;

  // Policy-edit what-ifs on real sessions: deny the origin's prefix on one
  // existing inter-AS adjacency.
  std::vector<topo::Model::Dense> routers;
  for (topo::Model::Dense r = 0; r < model.num_routers(); ++r)
    if (!model.peers(r).empty()) routers.push_back(r);
  while (edits_.size() < kWhatIfEdits && !routers.empty()) {
    const topo::Model::Dense r = routers[rng.below(routers.size())];
    const auto& peers = model.peers(r);
    const topo::Model::Dense p = peers[rng.below(peers.size())];
    const nb::Asn origin = asns_[rng.below(asns_.size())];
    edits_.push_back("\"op\": \"whatif\", \"edit\": \"policy-edit\", "
                     "\"origin\": " + std::to_string(origin) +
                     ", \"from\": " +
                     std::to_string(model.router_id(r).asn()) +
                     ", \"to\": " + std::to_string(model.router_id(p).asn()));
  }
}

RequestStream::Request RequestStream::at(std::uint64_t index) const {
  const std::uint64_t block = index / kBlock;
  Rng block_rng(stream_seed(seed_, block));
  const std::uint64_t explain_slot = block_rng.below(kBlock);
  const std::uint64_t whatif_slot =
      (explain_slot + 1 + block_rng.below(kBlock - 1)) % kBlock;
  const std::uint64_t slot = index % kBlock;

  Rng rng(stream_seed(seed_, (1ull << 40) + index));
  const auto zipf_origin = [&] {
    const double u = rng.unit();
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    return zipf_order_[std::min(rank, zipf_order_.size() - 1)];
  };
  const std::string id = "{\"id\": " + std::to_string(index + 1) + ", ";
  Request request;
  if (slot == whatif_slot && !edits_.empty()) {
    request.op = Op::kWhatIf;
    request.text = id + edits_[rng.below(edits_.size())] + "}";
  } else if (slot == explain_slot) {
    request.op = Op::kExplain;
    const nb::Asn origin = zipf_origin();
    request.text = id + "\"op\": \"explain\", \"origin\": " +
                   std::to_string(origin) + ", \"as\": " +
                   std::to_string(asns_[rng.below(asns_.size())]) + "}";
  } else {
    request.op = Op::kPredict;
    const nb::Asn origin = zipf_origin();
    request.text = id + "\"op\": \"predict\", \"origin\": " +
                   std::to_string(origin) + ", \"vantage\": " +
                   std::to_string(asns_[rng.below(asns_.size())]) + "}";
  }
  return request;
}

LoadResult run_load(std::uint16_t port, const RequestStream& stream,
                    const LoadConfig& config, Tracer& tracer,
                    std::uint64_t parent) {
  const unsigned conns = std::max(1u, config.connections);
  std::vector<LoadResult> parts(conns);
  std::vector<FramedClient> clients(conns);
  LoadResult result;
  for (unsigned c = 0; c < conns; ++c) {
    if (!clients[c].connect(port)) {
      note_failure(&result, 0, "connect failed");
      return result;
    }
  }

  // Open loop: request i is due at start + i / rate and goes out on
  // connection i mod conns.  A connection sends its next request only after
  // the previous reply, so a stall delays later requests and their latency,
  // timed from the due time, shows it.
  const auto open_total = static_cast<std::uint64_t>(
      std::max(1.0, config.rate_qps * config.open_seconds));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto due_at = [&](std::uint64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / config.rate_qps));
  };
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        LoadResult& mine = parts[c];
        Clock::time_point previous_reply = start;
        for (std::uint64_t i = c; i < open_total; i += conns) {
          const std::uint64_t id = config.first_request + i;
          const RequestStream::Request request = stream.at(id);
          const Clock::time_point due = due_at(i);
          std::this_thread::sleep_until(due);
          const Clock::time_point ready = std::max(due, previous_reply);
          const Clock::time_point sent = Clock::now();
          std::string reply;
          bool ok = false;
          {
            Tracer::Scope span(tracer, "serve", "serve.request", id + 1,
                               parent);
            ok = clients[c].roundtrip(request.text, &reply);
          }
          const Clock::time_point received = Clock::now();
          previous_reply = received;
          mine.latency_ms.push_back(ms_between(due, received));
          mine.late_ms.push_back(ms_between(ready, sent));
          if (request.op == Op::kPredict)
            mine.predict_service_us.push_back(ms_between(sent, received) *
                                              1e3);
          ++mine.open_requests;
          if (!ok || !reply_ok(reply)) note_failure(&mine, id, reply);
          if (i % config.sample_every == 0)
            mine.samples.emplace_back(request.text, std::move(reply));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Closed loop: every connection sends back to back until the phase ends.
  std::atomic<std::uint64_t> next{open_total};
  const Clock::time_point saturation_start = Clock::now();
  const Clock::time_point saturation_end =
      saturation_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 config.saturation_seconds));
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        LoadResult& mine = parts[c];
        while (Clock::now() < saturation_end) {
          const std::uint64_t id = config.first_request + next.fetch_add(1);
          const RequestStream::Request request = stream.at(id);
          std::string reply;
          bool ok = false;
          {
            Tracer::Scope span(tracer, "serve", "serve.request", id + 1,
                               parent);
            ok = clients[c].roundtrip(request.text, &reply);
          }
          ++mine.saturation_requests;
          mine.saturation_done_s.push_back(seconds_since(saturation_start));
          if (!ok || !reply_ok(reply)) note_failure(&mine, id, reply);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  for (LoadResult& part : parts) {
    const auto append = [](std::vector<double>& to, std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(result.latency_ms, part.latency_ms);
    append(result.predict_service_us, part.predict_service_us);
    append(result.late_ms, part.late_ms);
    append(result.saturation_done_s, part.saturation_done_s);
    result.open_requests += part.open_requests;
    result.saturation_requests += part.saturation_requests;
    result.failed += part.failed;
    for (std::string& failure : part.failures)
      if (result.failures.size() < 5) result.failures.push_back(failure);
    for (auto& sample : part.samples) result.samples.push_back(sample);
  }

  // Throughput is the median over equal slices of the phase, so that a
  // short stall of the host moves one slice rather than the result.
  std::vector<double> slice_qps(kSaturationSlices, 0);
  const double slice_s = config.saturation_seconds / kSaturationSlices;
  for (const double done : result.saturation_done_s) {
    const auto slice = static_cast<std::size_t>(done / slice_s);
    if (slice < kSaturationSlices) slice_qps[slice] += 1 / slice_s;
  }
  result.saturation_qps = median(slice_qps);
  return result;
}

}  // namespace perfbench

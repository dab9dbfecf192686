#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

/// Innermost open span of this thread (0 = none).
thread_local std::uint64_t current_span = 0;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* layer, const char* name,
                     std::uint64_t request, std::uint64_t parent)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  {
    std::lock_guard<std::mutex> lock(tracer_.mutex_);
    span_.id = tracer_.next_id_++;
  }
  span_.parent = parent != 0 ? parent : current_span;
  span_.request = request;
  span_.layer = layer;
  span_.name = name;
  saved_current_ = current_span;
  current_span = span_.id;
  span_.start_ns = tracer_.now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  span_.end_ns = tracer_.now_ns();
  current_span = saved_current_;
  tracer_.record(std::move(span_));
}

void Tracer::record(Span span) {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = thread_index_.emplace(
      key, static_cast<unsigned>(thread_index_.size()));
  span.thread = it->second;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) children[span.parent].push_back(&span);

  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    // Children may overlap (concurrent client threads), so subtract the
    // union of their intervals clipped to the parent.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    self[span.layer] +=
        static_cast<double>(span.end_ns - span.start_ns - covered_ns) / 1e9;
  }
  return self;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu}}%s\n",
                 json_escape(span.name).c_str(),
                 json_escape(span.layer).c_str(),
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.thread, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

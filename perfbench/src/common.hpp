// Small helpers shared by the harness files: a seedable generator whose
// draws do not depend on the standard library, wall-clock timing and
// order statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the whole process, every thread (exited ones included), in
/// seconds.  Unlike the wall clock it does not grow while other tenants of
/// a shared host hold the cores, so it is what the bounded metrics use.
inline double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

/// splitmix64: every input draw is a pure function of (seed, draw index),
/// so the same seed yields the same inputs on every build of the program.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n must be positive.
  std::size_t below(std::size_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a run seed and a stream tag.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  return Rng(seed ^ (tag * 0xd1342543de82ef95ull)).next();
}

/// Quantile by the nearest-rank rule on a copy of `values` (0 when empty).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// One named measurement with its unit, as printed in the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operation accounting for the result line: every timed call into the
/// program is one attempt, and every failed correctness check one failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

}  // namespace perfbench

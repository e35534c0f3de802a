// Small shared helpers of the benchmark: a monotonic clock, order
// statistics, and the result line's JSON.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace flockbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// Linear-interpolation quantile (the "type 7" estimator), q in [0, 1].
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Metrics by name, in name order; printed as the run's last stdout line.
using MetricMap = std::map<std::string, Metric>;

struct WorkloadResult {
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap metrics;
  std::vector<std::string> info;  // extra stdout lines before the result
};

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

inline std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                               const MetricMap& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace flockbench

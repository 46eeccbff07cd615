#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace qbench {

double percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("percentile: p must lie in (0, 1)");
  }
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinBeyond) {
    throw std::invalid_argument("percentile: p" + std::to_string(static_cast<int>(p * 100)) +
                                " of " + std::to_string(n) + " samples has fewer than " +
                                std::to_string(kMinBeyond) + " samples beyond it");
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1), samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("median: no samples");
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      throw std::logic_error("metric " + metrics[i].name + " is not a finite number");
    }
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
         metrics[i].unit + "\"}";
  }
  return s + "}}";
}

}  // namespace qbench

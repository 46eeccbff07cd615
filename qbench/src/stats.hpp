// Percentiles and the result line the benchmark prints.
#pragma once

#include <string>
#include <vector>

namespace qbench {

/// Minimum samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (p in (0, 1)): the sample at rank ceil(p·n).
/// Throws std::invalid_argument when fewer than kMinBeyond samples lie
/// beyond that rank, so a p90 needs at least 100 samples.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} on
/// one line; values are printed with every significant digit.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace qbench

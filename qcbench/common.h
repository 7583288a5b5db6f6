// Small helpers shared by qcbench: clocks, percentiles and
// seeded streams.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace qcbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Independent deterministic stream `stream` of the run seed (splitmix64).
inline qc::Rng StreamRng(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return qc::Rng(z ^ (z >> 31));
}

/// Zipf(theta) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) cdf_[i] = (sum += 1.0 / std::pow(static_cast<double>(i + 1), theta));
    for (double& c : cdf_) c /= sum;
  }
  size_t Next(qc::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.UniformReal());
    return std::min(cdf_.size() - 1, static_cast<size_t>(it - cdf_.begin()));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace qcbench

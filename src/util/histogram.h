// Fixed-bin histogram with summary statistics.
//
// Used to report per-rank device-utilization distributions (Fig. 6) and
// workload-imbalance spreads without shipping raw samples around.
//
// add() mutates unsynchronized state and must not be called concurrently.
// Threaded producers should fill one Histogram per worker and fold them
// with merge() in a fixed order (thread-local pattern).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace crkhacc {

class Histogram {
 public:
  /// Uniform bins over [lo, hi); out-of-range samples clamp to end bins.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double sample);
  void add_all(const std::vector<double>& samples);

  /// Fold another histogram with identical binning into this one
  /// (bin-wise count sums + exact moment/extrema updates). Combining
  /// per-worker histograms in a fixed order gives results independent of
  /// how samples were distributed across workers.
  void merge(const Histogram& other);

  std::size_t count() const { return count_; }
  double mean() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Percentile via linear interpolation over bin edges (q in [0,1]).
  double percentile(double q) const;

  std::size_t bin_count(std::size_t i) const { return counts_[i]; }
  std::size_t num_bins() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const { return bin_lo(i + 1); }

  /// Horizontal ASCII rendering, one row per bin: "[lo,hi) ####  n".
  std::string ascii(std::size_t width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace crkhacc

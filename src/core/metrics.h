// Unified metrics: named counters and gauges with deterministic merge.
//
// The paper reports figure-of-merit numbers that combine wall-clock
// timers, FLOP counts, and distribution statistics from every rank
// (Table I, Fig. 5/6). This registry is the single funnel those numbers
// flow through: the FlopRegistry and TraceRecorder instruments (trace
// spans are the only phase timer) ingest into named metrics, and a
// collective reduce() produces one registry whose contents are identical
// on every rank and independent of merge order.
//
// Two kinds:
//   - counter: a running sum (seconds, flops, events). merge/reduce add.
//   - gauge: an observed quantity (utilization, imbalance). merge/reduce
//     keep min/max and the exact sample mean (sum + samples), which are
//     all commutative — merge order cannot change the result.
//
// Thread model: like FlopRegistry, a MetricsRegistry is single-threaded
// by design. Threaded producers fill one registry per worker and fold
// them with merge() on the calling thread; determinism tests pin that
// the fold is order-independent.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpu/device.h"
#include "util/trace.h"

namespace crkhacc::comm {
class Communicator;
}

namespace crkhacc::core {

enum class MetricKind : std::uint8_t { kCounter, kGauge };

struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  double total = 0.0;          ///< Counter: running sum. Gauge: sum of samples.
  double min = 0.0;            ///< Gauge: smallest sample seen.
  double max = 0.0;            ///< Gauge: largest sample seen.
  std::uint64_t samples = 0;   ///< Observations folded in.

  double mean() const {
    return samples > 0 ? total / static_cast<double>(samples) : 0.0;
  }
};

class MetricsRegistry {
 public:
  /// Add `delta` to counter `name` (created on first use).
  void add(const std::string& name, double delta);
  /// Record one observation of gauge `name`.
  void observe(const std::string& name, double value);

  /// Metric by name, or null. value(name) is total for counters.
  const MetricValue* find(const std::string& name) const;
  double value(const std::string& name) const;
  std::size_t size() const { return metrics_.size(); }
  bool empty() const { return metrics_.empty(); }

  /// (name, value) pairs in name order — the canonical iteration order
  /// every export and reduction uses.
  std::vector<std::pair<std::string, MetricValue>> sorted() const;

  /// Fold `other` into this registry. Counters add; gauges combine
  /// min/max/sum/samples. All ops are commutative and associative, so
  /// any merge order yields the same registry.
  void merge(const MetricsRegistry& other);

  /// Ingest adapters for the existing instruments.
  void ingest_flops(const gpu::FlopRegistry& flops,
                    const std::string& prefix = "flops/");
  void ingest_trace(const util::TraceRecorder& trace,
                    const std::string& prefix = "trace/");

  /// Collective: reduce across all ranks of `comm`. The result holds the
  /// union of every rank's metric names; counters are summed, gauges
  /// combine min/max/sum/samples. Every rank returns an identical
  /// registry. Metric kinds must agree across ranks for shared names.
  MetricsRegistry reduce(comm::Communicator& comm) const;

  /// Human-readable table, one metric per row, name order.
  std::string table() const;

  void clear() { metrics_.clear(); }

 private:
  std::map<std::string, MetricValue> metrics_;
};

}  // namespace crkhacc::core

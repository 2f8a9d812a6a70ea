// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Unified metrics layer: a MetricsRegistry owns named instruments (Counter,
// Gauge, HdrHistogram); components hold cheap handles into it.
//
// Design rules (see docs/OBSERVABILITY.md):
//
//   * no global state -- a registry is always passed in explicitly;
//   * zero cost when disabled -- a default-constructed handle is a no-op
//     (one null-pointer test per operation, no allocation, no branching on
//     strings), so instrumented hot paths stay hot when nothing is attached;
//   * stable handles -- instrument cells are heap-allocated once and never
//     move, so handles stay valid while the registry lives (including across
//     registry moves);
//   * deterministic export -- instruments are stored name-sorted, so JSON
//     dumps and snapshots are byte-stable for a given run.
//
// Thread safety (see docs/PARALLELISM.md): instrument cells are relaxed
// atomics, so any number of threads may Increment/Set/Add/Observe through
// handles into one shared registry concurrently. Instrument registration
// (Get*) and whole-registry reads (samples, JSON, MergeFrom) are serialized
// by an internal mutex; a read that races with cell updates sees each cell's
// then-current value (no torn reads, no ordering guarantee across cells).
// Relaxed ordering keeps the attached path to one uncontended atomic RMW;
// the detached path is still a single null test.
//
// Naming convention: dot-separated lowercase path, "<layer>.<object>.<what>",
// with counters suffixed "_total" (e.g. "cache.xLRU.filled_chunks_total",
// "sim.replay.sim_time_seconds", "lp.simplex.iterations_total").

#ifndef VCDN_SRC_OBS_METRICS_H_
#define VCDN_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/hdr_histogram.h"

namespace vcdn::obs {

class MetricsRegistry;

// Monotonically increasing integer instrument.
class Counter {
 public:
  Counter() = default;

  void Increment(uint64_t delta = 1) {
    if (cell_ != nullptr) {
      cell_->fetch_add(delta, std::memory_order_relaxed);
    }
  }
  uint64_t value() const {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0;
  }
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<uint64_t>* cell) : cell_(cell) {}
  std::atomic<uint64_t>* cell_ = nullptr;
};

// Last-value instrument (occupancy, rates, alpha settings, ...).
class Gauge {
 public:
  Gauge() = default;

  void Set(double value) {
    if (cell_ != nullptr) {
      cell_->store(value, std::memory_order_relaxed);
    }
  }
  void Add(double delta) {
    if (cell_ != nullptr) {
      // CAS loop rather than fetch_add(double): universally lock-free and
      // keeps the update one relaxed RMW on every toolchain.
      double current = cell_->load(std::memory_order_relaxed);
      while (!cell_->compare_exchange_weak(current, current + delta,
                                           std::memory_order_relaxed,
                                           std::memory_order_relaxed)) {
      }
    }
  }
  double value() const {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0.0;
  }
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(MetricsRegistry&& other) noexcept;
  MetricsRegistry& operator=(MetricsRegistry&& other) noexcept;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create by name. Repeated calls with the same name return handles
  // to the same cell (same-named instruments aggregate).
  Counter GetCounter(std::string_view name);
  Gauge GetGauge(std::string_view name);
  // Log-bucketed histogram (see src/obs/hdr_histogram.h): [lo, hi) split
  // into octaves of `sub_buckets` linear sub-buckets. For an existing name
  // the original bucket layout is kept.
  HdrHistogram GetHdrHistogram(std::string_view name, double lo, double hi, size_t sub_buckets);

  // Point reads, mainly for tests and reporters; 0 for unknown names.
  uint64_t CounterValue(std::string_view name) const;
  double GaugeValue(std::string_view name) const;
  bool Has(std::string_view name) const;

  size_t num_instruments() const;

  // Name-sorted snapshots.
  std::vector<std::pair<std::string, uint64_t>> CounterSamples() const;
  std::vector<std::pair<std::string, double>> GaugeSamples() const;
  struct HdrHistogramSample {
    std::string name;
    double lo = 0.0;
    double hi = 0.0;
    size_t sub_buckets = 0;
    uint64_t underflow = 0;
    uint64_t overflow = 0;
    std::vector<uint64_t> counts;
  };
  std::vector<HdrHistogramSample> HdrHistogramSamples() const;
  // The live cell for a registered hdr histogram (layout queries, windowed
  // quantiles); null for unknown names.
  const HdrHistogramCell* FindHdrHistogram(std::string_view name) const;

  // Folds another registry into this one, find-or-creating instruments as
  // needed: counters and hdr histogram buckets add, gauges overwrite (matching
  // the last-writer-wins semantics of a sequential run). Merging shard
  // registries in a fixed order therefore reproduces the shared-registry
  // sequential result exactly -- the determinism contract the parallel fleet
  // relies on (docs/PARALLELISM.md). `other` must not be this registry.
  void MergeFrom(const MetricsRegistry& other);

  // One JSON object: {"counters":{...},"gauges":{...},"hdr_histograms":{...}}
  // (hdr entries carry p50/p90/p99/p999 quantiles next to their raw counts).
  void WriteJson(std::ostream& out) const;

 private:
  // std::map keeps export order deterministic; unique_ptr keeps cell
  // addresses stable across rehash-free inserts and registry moves.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<std::atomic<double>>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HdrHistogramCell>, std::less<>> hdr_histograms_;
};

}  // namespace vcdn::obs

#endif  // VCDN_SRC_OBS_METRICS_H_

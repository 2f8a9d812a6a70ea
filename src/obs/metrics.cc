// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/obs/metrics.h"

#include <utility>

#include "src/obs/json_util.h"
#include "src/util/check.h"

namespace vcdn::obs {

MetricsRegistry::MetricsRegistry(MetricsRegistry&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  counters_ = std::move(other.counters_);
  gauges_ = std::move(other.gauges_);
  hdr_histograms_ = std::move(other.hdr_histograms_);
}

MetricsRegistry& MetricsRegistry::operator=(MetricsRegistry&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    counters_ = std::move(other.counters_);
    gauges_ = std::move(other.gauges_);
    hdr_histograms_ = std::move(other.hdr_histograms_);
  }
  return *this;
}

Counter MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<std::atomic<uint64_t>>(0)).first;
  }
  return Counter(it->second.get());
}

Gauge MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<std::atomic<double>>(0.0)).first;
  }
  return Gauge(it->second.get());
}

HdrHistogram MetricsRegistry::GetHdrHistogram(std::string_view name, double lo, double hi,
                                              size_t sub_buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hdr_histograms_.find(name);
  if (it == hdr_histograms_.end()) {
    it = hdr_histograms_
             .emplace(std::string(name), std::make_unique<HdrHistogramCell>(lo, hi, sub_buckets))
             .first;
  }
  return HdrHistogram(it->second.get());
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second->load(std::memory_order_relaxed) : 0;
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second->load(std::memory_order_relaxed) : 0.0;
}

bool MetricsRegistry::Has(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.find(name) != counters_.end() || gauges_.find(name) != gauges_.end() ||
         hdr_histograms_.find(name) != hdr_histograms_.end();
}

size_t MetricsRegistry::num_instruments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + hdr_histograms_.size();
}

const HdrHistogramCell* MetricsRegistry::FindHdrHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hdr_histograms_.find(name);
  return it != hdr_histograms_.end() ? it->second.get() : nullptr;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterSamples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    out.emplace_back(name, cell->load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::GaugeSamples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    out.emplace_back(name, cell->load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<MetricsRegistry::HdrHistogramSample> MetricsRegistry::HdrHistogramSamples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HdrHistogramSample> out;
  out.reserve(hdr_histograms_.size());
  for (const auto& [name, hist] : hdr_histograms_) {
    HdrHistogramSample sample;
    sample.name = name;
    sample.lo = hist->lo();
    sample.hi = hist->hi();
    sample.sub_buckets = hist->sub_buckets();
    sample.underflow = hist->underflow();
    sample.overflow = hist->overflow();
    sample.counts.reserve(hist->num_buckets());
    for (size_t i = 0; i < hist->num_buckets(); ++i) {
      sample.counts.push_back(hist->bucket_count(i));
    }
    out.push_back(std::move(sample));
  }
  return out;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  VCDN_CHECK(this != &other);
  // Counters/gauges: snapshot the source under its own lock, then fold in
  // through the regular Get* path (which takes ours) -- no lock is ever held
  // across both registries, so merge direction cannot deadlock.
  std::vector<std::pair<std::string, uint64_t>> counters = other.CounterSamples();
  std::vector<std::pair<std::string, double>> gauges = other.GaugeSamples();
  for (const auto& [name, value] : counters) {
    GetCounter(name).Increment(value);
  }
  for (const auto& [name, value] : gauges) {
    GetGauge(name).Set(value);
  }
  {
    std::scoped_lock lock(mu_, other.mu_);
    for (const auto& [name, cell] : other.hdr_histograms_) {
      auto it = hdr_histograms_.find(name);
      if (it == hdr_histograms_.end()) {
        it = hdr_histograms_
                 .emplace(name, std::make_unique<HdrHistogramCell>(cell->lo(), cell->hi(),
                                                                   cell->sub_buckets()))
                 .first;
      }
      it->second->MergeFrom(*cell);
    }
  }
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  auto counters = CounterSamples();
  auto gauges = GaugeSamples();
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) {
      out << ",";
    }
    first = false;
    WriteJsonString(out, name);
    out << ":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) {
      out << ",";
    }
    first = false;
    WriteJsonString(out, name);
    out << ":";
    WriteJsonDouble(out, value);
  }
  out << "},\"hdr_histograms\":{";
  first = true;
  for (const auto& sample : HdrHistogramSamples()) {
    if (!first) {
      out << ",";
    }
    first = false;
    const HdrHistogramCell* cell = FindHdrHistogram(sample.name);
    WriteJsonString(out, sample.name);
    out << ":{\"lo\":";
    WriteJsonDouble(out, sample.lo);
    out << ",\"hi\":";
    WriteJsonDouble(out, sample.hi);
    out << ",\"sub_buckets\":" << sample.sub_buckets << ",\"underflow\":" << sample.underflow
        << ",\"overflow\":" << sample.overflow;
    static constexpr std::pair<const char*, double> kQuantiles[] = {
        {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}};
    for (const auto& [label, q] : kQuantiles) {
      out << ",\"" << label << "\":";
      WriteJsonDouble(out, cell->QuantileFromCounts(q, sample.counts, sample.underflow,
                                                    sample.overflow));
    }
    out << ",\"counts\":[";
    for (size_t i = 0; i < sample.counts.size(); ++i) {
      if (i > 0) {
        out << ",";
      }
      out << sample.counts[i];
    }
    out << "]}";
  }
  out << "}}";
}

}  // namespace vcdn::obs

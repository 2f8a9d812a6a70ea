// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/shard_telemetry.h"

#include <utility>

#include "src/util/check.h"

namespace vcdn::sim {

ShardTelemetry::ShardTelemetry(const ReplayOptions& base, size_t num_shards)
    : base_(base), shards_(num_shards) {
  if (base.series != nullptr) {
    VCDN_CHECK(base.metrics != nullptr);
  }
  for (Shard& shard : shards_) {
    if (base.metrics != nullptr) {
      shard.metrics.emplace();
      if (base.series != nullptr) {
        shard.series.emplace(&*shard.metrics);
      }
    }
    if (base.trace_sink != nullptr) {
      shard.sink.emplace();
    }
    if (base.flight != nullptr) {
      shard.flight.emplace(base.flight->capacity());
    }
  }
}

ReplayOptions ShardTelemetry::ShardOptions(size_t shard) {
  Shard& local = shards_[shard];
  ReplayOptions options = base_;
  options.metrics = local.metrics.has_value() ? &*local.metrics : nullptr;
  options.series = local.series.has_value() ? &*local.series : nullptr;
  options.trace_sink = local.sink.has_value() ? &*local.sink : nullptr;
  options.flight = local.flight.has_value() ? &*local.flight : nullptr;
  options.flight_captures = local.flight.has_value() ? &local.captures : nullptr;
  return options;
}

void ShardTelemetry::MergeInto() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    if (shard.metrics.has_value()) {
      base_.metrics->MergeFrom(*shard.metrics);
    }
    if (shard.series.has_value()) {
      base_.series->MergeFrom(*shard.series);
    }
    if (shard.sink.has_value()) {
      base_.trace_sink->Append(*shard.sink, obs::kFleetTidBase + static_cast<int>(i));
    }
    if (shard.flight.has_value()) {
      for (const obs::DecisionRecord& record : shard.flight->Snapshot()) {
        base_.flight->Record(record);
      }
      if (base_.flight_captures != nullptr) {
        for (obs::FlightCapture& capture : shard.captures) {
          base_.flight_captures->push_back(std::move(capture));
        }
      }
    }
  }
}

}  // namespace vcdn::sim

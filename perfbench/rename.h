// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// What --seed varies. The workload generator draws per-video popularity from
// a Pareto law of shape ~1, so a handful of videos carry a seed-dependent
// share of all demand: across generator seeds the Fig. 7 fleet's efficiency
// swings by about +-20% and its replay speed with it, which would bury any
// code change under workload noise. So every workload is the seed-1 month of
// its generator (the month whose digests are committed), and --seed renames
// its videos through a seeded bijection of each catalog's id range. The
// request sequence, popularity and sizes stay the same; every hash, probe
// sequence, memory layout and (score, id) tie-break changes. Seed 1 is the
// identity, so seed 1 reproduces the committed digests.

#ifndef VCDN_PERFBENCH_RENAME_H_
#define VCDN_PERFBENCH_RENAME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/trace/request.h"
#include "src/trace/request_stream.h"

namespace perfbench {

// id -> (a * id + b) mod n on [0, n), with a coprime to n; ids outside the
// range are left alone.
class VideoRenaming {
 public:
  VideoRenaming() = default;
  // Seed 1 gives the identity; other seeds a pseudo-random affine bijection,
  // decorrelated per `stream` (one per server or shard).
  static VideoRenaming ForSeed(uint64_t seed, uint64_t stream, uint64_t n);

  uint64_t operator()(uint64_t id) const {
    if (id >= n_) {
      return id;
    }
    return static_cast<uint64_t>((static_cast<unsigned __int128>(a_) * id + b_) % n_);
  }
  void Apply(std::vector<vcdn::trace::Request>& requests) const;

 private:
  uint64_t a_ = 1;
  uint64_t b_ = 0;
  uint64_t n_ = 0;
};

// A request stream with every video renamed. Spans are copies (into a
// buffer reused across calls), valid until the next Next().
class RenamingStream final : public vcdn::trace::RequestStream {
 public:
  RenamingStream(std::unique_ptr<vcdn::trace::RequestStream> inner, VideoRenaming renaming)
      : inner_(std::move(inner)), renaming_(renaming) {}

  vcdn::trace::RequestSpan Next(size_t max) override;
  double duration() const override { return inner_->duration(); }
  uint64_t total_requests_hint() const override { return inner_->total_requests_hint(); }
  vcdn::util::Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<vcdn::trace::RequestStream> inner_;
  VideoRenaming renaming_;
  std::vector<vcdn::trace::Request> buffer_;
};

}  // namespace perfbench

#endif  // VCDN_PERFBENCH_RENAME_H_

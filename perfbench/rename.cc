// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "perfbench/rename.h"

#include <numeric>

#include "src/util/rng.h"

namespace perfbench {

VideoRenaming VideoRenaming::ForSeed(uint64_t seed, uint64_t stream, uint64_t n) {
  VideoRenaming renaming;
  renaming.n_ = n;
  if (seed == 1 || n < 2) {
    return renaming;
  }
  const uint64_t mix = vcdn::util::SplitSeed(seed, stream);
  renaming.b_ = mix % n;
  renaming.a_ = vcdn::util::SplitSeed(mix, 1) % n;
  while (std::gcd(renaming.a_, n) != 1) {
    renaming.a_ = renaming.a_ + 1 == n ? 1 : renaming.a_ + 1;
  }
  return renaming;
}

void VideoRenaming::Apply(std::vector<vcdn::trace::Request>& requests) const {
  for (vcdn::trace::Request& request : requests) {
    request.video = (*this)(request.video);
  }
}

vcdn::trace::RequestSpan RenamingStream::Next(size_t max) {
  const vcdn::trace::RequestSpan span = inner_->Next(max);
  buffer_.assign(span.begin(), span.end());
  renaming_.Apply(buffer_);
  return vcdn::trace::RequestSpan{buffer_.data(), buffer_.size()};
}

}  // namespace perfbench

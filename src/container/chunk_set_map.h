// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// ChunkSetMap: video id -> set of its cached chunks, the structure behind
// Cafe's unseen-chunk estimate (Sec. 6's "largest IAT among the video's
// cached chunks"). A chunk is named by a uint32_t member id: Cafe stores the
// chunk's slot handle in its chunk table, so the estimate reads each cached
// chunk's stat straight from the slab without a hash probe.
//
// FlatChunkSetMap stores the relation as two slabs linked by indices:
//
//   * entries_ -- one slot per video currently holding cached chunks: the
//                 video id and the head of its member list;
//   * nodes_   -- one slot per cached chunk: the member id and the next
//                 link of its video's singly-linked list;
//   * index_   -- FlatIndex video -> entry handle (flat_index.h).
//
// Freed entries and nodes recycle through free lists, so a warm cache
// performs zero heap allocations per request. A video's entry is dropped the
// moment its last member is erased (matching the "erase the set when empty"
// idiom of the node-based original). Every operation takes the video's mixed
// hash (HashOf), which Cafe computes once per request and shares with its
// seen-video tracker.
//
// Iteration order within a video is unspecified (insertion-LIFO here,
// unordered_set order in the test oracle's ReferenceChunkSetMap,
// tests/oracles/reference_cafe_cache.h); consumers must be order-independent
// -- Cafe only folds a max() over the chunks' IATs.
//
// Not thread-safe; replay shards each own their instances.

#ifndef VCDN_SRC_CONTAINER_CHUNK_SET_MAP_H_
#define VCDN_SRC_CONTAINER_CHUNK_SET_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/container/flat_index.h"
#include "src/util/check.h"

namespace vcdn::container {

class FlatChunkSetMap {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  // Pre-sizes for `chunks` cached chunks (the disk capacity). Every cached
  // chunk could be its own video, so the entry slab is sized the same way;
  // afterwards steady state never allocates.
  void Reserve(size_t chunks) {
    entries_.reserve(chunks);
    nodes_.reserve(chunks);
    index_.Reserve(chunks);
  }

  // Mixed 32-bit hash of `video`; matches FlatIndex::HashOf for the same key
  // and hasher, so callers sharing keys across containers hash once.
  uint32_t HashOf(uint64_t video) const { return index_.HashOf(video); }

  // Prefetches the index line for `video`'s entry. Pure hint.
  void PrefetchVideo(uint32_t hash) const { index_.PrefetchLine(hash); }

  // Adds `member` to `video`'s set. It must not already be present (Cafe
  // only inserts chunks that just transitioned to cached). `hash` must equal
  // HashOf(video), here and below.
  void Insert(uint64_t video, uint32_t member, uint32_t hash) {
    VCDN_DCHECK(hash == index_.HashOf(video));
    VCDN_DCHECK(!Contains(video, member, hash));
    uint32_t e = index_.Find(hash, video, VideoAt());
    if (e == kNil) {
      e = AllocEntry(video);
      index_.Insert(hash, e);
    }
    uint32_t n = AllocNode(member);
    nodes_[n].next = entries_[e].head;
    entries_[e].head = n;
  }

  // Removes `member` from `video`'s set; the video's entry is dropped when
  // its last member goes. The pair must be present.
  void Erase(uint64_t video, uint32_t member, uint32_t hash) {
    VCDN_DCHECK(hash == index_.HashOf(video));
    uint32_t e = index_.Find(hash, video, VideoAt());
    VCDN_DCHECK(e != kNil);
    uint32_t* link = &entries_[e].head;
    while (nodes_[*link].member != member) {
      link = &nodes_[*link].next;
      VCDN_DCHECK(*link != kNil);
    }
    uint32_t n = *link;
    *link = nodes_[n].next;
    FreeNode(n);
    if (entries_[e].head == kNil) {
      index_.Erase(hash, e);
      FreeEntry(e);
    }
  }

  // Visits every member of `video`'s set (possibly none), in unspecified
  // order.
  template <typename Fn>
  void ForEach(uint64_t video, uint32_t hash, Fn&& fn) const {
    VCDN_DCHECK(hash == index_.HashOf(video));
    uint32_t e = index_.Find(hash, video, VideoAt());
    if (e == kNil) {
      return;
    }
    for (uint32_t n = entries_[e].head; n != kNil; n = nodes_[n].next) {
      fn(nodes_[n].member);
    }
  }

  bool Contains(uint64_t video, uint32_t member, uint32_t hash) const {
    bool found = false;
    ForEach(video, hash, [&](uint32_t m) { found = found || m == member; });
    return found;
  }

 private:
  // `head` points at the first member node while live and doubles as the
  // next-free link while freed.
  struct Entry {
    uint64_t video = 0;
    uint32_t head = kNil;
  };
  // `next` links the video's member list while live and the free list while
  // freed.
  struct Node {
    uint32_t member = 0;
    uint32_t next = kNil;
  };

  struct VideoAtFn {
    const std::vector<Entry>* entries;
    uint64_t operator()(uint32_t e) const { return (*entries)[e].video; }
  };
  VideoAtFn VideoAt() const { return VideoAtFn{&entries_}; }

  uint32_t AllocEntry(uint64_t video) {
    if (entry_free_ != kNil) {
      uint32_t e = entry_free_;
      entry_free_ = entries_[e].head;
      entries_[e] = Entry{video, kNil};
      return e;
    }
    VCDN_CHECK_MSG(entries_.size() < kNil, "FlatChunkSetMap entry slab limit exceeded");
    entries_.push_back(Entry{video, kNil});
    return static_cast<uint32_t>(entries_.size() - 1);
  }

  void FreeEntry(uint32_t e) {
    entries_[e].head = entry_free_;
    entry_free_ = e;
  }

  uint32_t AllocNode(uint32_t member) {
    if (node_free_ != kNil) {
      uint32_t n = node_free_;
      node_free_ = nodes_[n].next;
      nodes_[n].member = member;
      return n;
    }
    VCDN_CHECK_MSG(nodes_.size() < kNil, "FlatChunkSetMap node slab limit exceeded");
    nodes_.push_back(Node{member, kNil});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void FreeNode(uint32_t n) {
    nodes_[n].next = node_free_;
    node_free_ = n;
  }

  std::vector<Entry> entries_;
  std::vector<Node> nodes_;
  FlatIndex<uint64_t> index_;  // std::hash: MixU64 finalizes identity keys
  uint32_t entry_free_ = kNil;
  uint32_t node_free_ = kNil;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_CHUNK_SET_MAP_H_

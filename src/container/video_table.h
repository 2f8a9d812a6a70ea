// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// VideoTable: one record per video, the table under xLRU and Cafe.
//
// A request names one video and a contiguous chunk range of it (Sec. 4), so
// both paper caches find a request's state through its video: one probe for
// the video's record, then each chunk's slot handle read from the record's
// chunk row by chunk number. No chunk is hashed.
//
//   * records -- one slab with a free list, found through a
//                FlatIndex<VideoId>. A record holds the video id, its last
//                request time, its recency links, its chunk row, and the
//                head of one chain the owner threads through its own slots
//                (Cafe: the video's cached chunks).
//   * the list -- the records in recency order, newest first, with the
//                semantics of FlatLruMap's: Touch returns the previous time
//                and moves the record to the front, and PopOldest takes the
//                tail off. A record can also be off the list: a video the
//                owner forgot while it still holds some of its chunks.
//   * rows    -- uint32 slot handles indexed by chunk number, kNil where the
//                owner holds nothing. A row's capacity is the smallest power
//                of two above the highest chunk number it has held, at least
//                8 (a 512 MiB video has 256 chunks of 2 MiB), however few
//                chunks it holds. Requests end below trace::kMaxVideoBytes,
//                so at 2 MiB chunks a row has at most 32,768 entries. Rows
//                are carved from one array. A row grows by moving to a
//                larger one, and is freed when it empties; freed rows wait on
//                a free list per capacity, threaded through their own first
//                entry, so steady state allocates nothing.
//
// A record is freed exactly when it is off the list and its row is empty.
// Row entries are addressed by (record, chunk), never by pointer: a row
// moves when it grows, and the row array moves when it grows.
//
// tests/container_video_table_test.cc drives the list against the LruMap
// oracle and checks the row and record lifecycles. Not thread-safe; replay
// shards each own their caches.

#ifndef VCDN_SRC_CONTAINER_VIDEO_TABLE_H_
#define VCDN_SRC_CONTAINER_VIDEO_TABLE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/container/flat_index.h"
#include "src/container/recency_list.h"
#include "src/util/check.h"

namespace vcdn::container {

class VideoTable {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;
  // The smallest row capacity.
  static constexpr uint32_t kMinRow = 8;

  // What Touch found.
  struct Touched {
    uint32_t record;  // the video's record
    bool listed;      // the record was on the list before the touch
    double previous;  // its last request time before the touch (if listed)
  };

  VideoTable() { free_rows_.fill(kNil); }

  // Pre-sizes for `videos` records and `row_entries` row entries.
  void Reserve(size_t videos, size_t row_entries) {
    records_.reserve(videos);
    index_.Reserve(videos);
    rows_.reserve(row_entries);
  }

  // Live records, listed or not.
  size_t size() const { return index_.size(); }
  // Records on the list.
  size_t listed() const { return list_.size(); }

  // The record of `video`, or kNil.
  uint32_t Find(uint64_t video) const {
    return index_.Find(index_.HashOf(video), video, VideoAt());
  }

  // Makes `video` the newest listed record with last request time `now`,
  // adding its record if it has none.
  Touched Touch(uint64_t video, double now) {
    const uint32_t hash = index_.HashOf(video);
    uint32_t r = index_.Find(hash, video, VideoAt());
    if (r == kNil) {
      r = AllocRecord(video);
      index_.Insert(hash, r);
    }
    Record& record = records_[r];
    const Touched touched{r, record.prev != kUnlisted, record.last};
    record.last = now;
    if (touched.listed) {
      list_.MoveToFront(records_.data(), r);
    } else {
      list_.PushFront(records_.data(), r);
    }
    return touched;
  }

  // The least recently touched listed record, or kNil.
  uint32_t oldest() const { return list_.tail(); }

  // Takes the oldest record off the list, freeing it if its row is empty.
  // The list must be non-empty.
  void PopOldest() {
    const uint32_t r = list_.tail();
    VCDN_CHECK(r != kNil);
    list_.Remove(records_.data(), r);
    records_[r].prev = kUnlisted;
    if (records_[r].live == 0) {
      FreeRecord(r);
    }
  }

  uint64_t video(uint32_t r) const { return records_[r].video; }
  double last(uint32_t r) const { return records_[r].last; }
  bool is_listed(uint32_t r) const { return records_[r].prev != kUnlisted; }

  // The slot handle stored for `chunk` of record `r`, or kNil.
  uint32_t Get(uint32_t r, uint32_t chunk) const {
    const Record& record = records_[r];
    return chunk < record.capacity ? rows_[record.row + chunk] : kNil;
  }

  // Stores `handle` for `chunk`, which must hold none; grows the row first
  // if it is too short.
  void Set(uint32_t r, uint32_t chunk, uint32_t handle) {
    VCDN_DCHECK(handle != kNil);
    if (chunk >= records_[r].capacity) {
      Grow(r, chunk);
    }
    Record& record = records_[r];
    VCDN_DCHECK(rows_[record.row + chunk] == kNil);
    rows_[record.row + chunk] = handle;
    ++record.live;
  }

  // Clears the handle stored for `chunk`. An emptied row is freed, and so
  // is the record if it is off the list.
  void Erase(uint32_t r, uint32_t chunk) {
    Record& record = records_[r];
    VCDN_DCHECK(Get(r, chunk) != kNil);
    rows_[record.row + chunk] = kNil;
    if (--record.live == 0) {
      FreeRow(record.row, record.capacity);
      record.capacity = 0;
      if (record.prev == kUnlisted) {
        FreeRecord(r);
      }
    }
  }

  // Handles stored in record `r`'s row, and the row's capacity (0: none).
  uint32_t row_size(uint32_t r) const { return records_[r].live; }
  uint32_t row_capacity(uint32_t r) const { return records_[r].capacity; }

  // Head of the owner's chain for record `r`: kNil in a new record, and
  // never read or written by the table after that. It must be kNil again
  // (the chain empty) by the time the row empties.
  uint32_t& chain(uint32_t r) { return records_[r].chain; }
  uint32_t chain(uint32_t r) const { return records_[r].chain; }

  // Visits the listed records, newest first.
  template <typename Fn>
  void ForEachListed(Fn&& fn) const {
    for (uint32_t r = list_.head(); r != kNil; r = records_[r].next) {
      fn(r);
    }
  }

  // Allocated record slots and row entries, live or free (for tests: steady
  // state must stop growing).
  size_t record_slab_size() const { return records_.size(); }
  size_t row_array_size() const { return rows_.size(); }

 private:
  // The `prev` of a record off the list. A freed record is off the list and
  // links the free list through `next`.
  static constexpr uint32_t kUnlisted = kNil - 1;
  // The largest row capacity: row offsets are uint32.
  static constexpr uint64_t kMaxRow = uint64_t{1} << 31;

  struct Record {
    uint64_t video = 0;
    double last = 0.0;
    uint32_t prev = kUnlisted;
    uint32_t next = kNil;
    uint32_t row = 0;       // offset of the row in rows_
    uint32_t capacity = 0;  // row entries; 0 = no row
    uint32_t live = 0;      // handles stored in the row
    uint32_t chain = kNil;
  };
  static_assert(sizeof(Record) == 40);

  struct VideoAtFn {
    const std::vector<Record>* records;
    uint64_t operator()(uint32_t r) const { return (*records)[r].video; }
  };
  VideoAtFn VideoAt() const { return VideoAtFn{&records_}; }

  uint32_t AllocRecord(uint64_t video) {
    uint32_t r = free_;
    if (r != kNil) {
      free_ = records_[r].next;
    } else {
      VCDN_CHECK_MSG(records_.size() < kUnlisted, "VideoTable record limit exceeded");
      r = static_cast<uint32_t>(records_.size());
      records_.emplace_back();
    }
    records_[r] = Record{};
    records_[r].video = video;
    return r;
  }

  void FreeRecord(uint32_t r) {
    VCDN_DCHECK(records_[r].chain == kNil);
    index_.Erase(index_.HashOf(records_[r].video), r);
    records_[r].next = free_;
    free_ = r;
  }

  // Moves record `r`'s row to one that holds `chunk`: the smallest power of
  // two above it, at least kMinRow.
  void Grow(uint32_t r, uint32_t chunk) {
    const uint64_t wanted = std::max<uint64_t>(kMinRow, std::bit_ceil(uint64_t{chunk} + 1));
    VCDN_CHECK_MSG(wanted <= kMaxRow, "VideoTable row limit exceeded");
    const auto capacity = static_cast<uint32_t>(wanted);
    const uint32_t row = AllocRow(capacity);
    Record& record = records_[r];
    if (record.capacity != 0) {
      uint32_t* old = rows_.data() + record.row;
      std::copy_n(old, record.capacity, rows_.data() + row);
      std::fill_n(old, record.capacity, kNil);
      FreeRow(record.row, record.capacity);
    }
    record.row = row;
    record.capacity = capacity;
  }

  // A row of `capacity` entries, all kNil. Free rows hold kNil in every
  // entry but the first, which links the free list.
  uint32_t AllocRow(uint32_t capacity) {
    uint32_t& free = FreeRows(capacity);
    if (free != kNil) {
      const uint32_t row = free;
      free = rows_[row];
      rows_[row] = kNil;
      return row;
    }
    VCDN_CHECK_MSG(rows_.size() <= kNil - capacity, "VideoTable row array limit exceeded");
    const auto row = static_cast<uint32_t>(rows_.size());
    rows_.resize(rows_.size() + capacity, kNil);
    return row;
  }

  // The head of the free list of rows of `capacity` entries.
  uint32_t& FreeRows(uint32_t capacity) {
    return free_rows_[static_cast<size_t>(std::countr_zero(capacity))];
  }

  // Frees a row whose entries are all kNil.
  void FreeRow(uint32_t row, uint32_t capacity) {
    uint32_t& free = FreeRows(capacity);
    rows_[row] = free;
    free = row;
  }

  std::vector<Record> records_;
  uint32_t free_ = kNil;
  FlatIndex<uint64_t> index_;  // std::hash: MixU64 finalizes identity keys
  RecencyList list_;
  std::vector<uint32_t> rows_;
  // Free rows by log2 of their capacity.
  std::array<uint32_t, 32> free_rows_;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_VIDEO_TABLE_H_

#ifndef P4DB_SIM_EVENT_QUEUE_H_
#define P4DB_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/inline_event.h"

namespace p4db::sim {

/// One scheduled simulator event, as handed back by EventQueue::PopMin.
/// `seq` is the global insertion sequence number; the queue pops in
/// ascending (time, seq) order, which is the FIFO-within-timestamp contract
/// every seeded run's bit-reproducibility rests on. A PushResume wakeup
/// comes back as `resume` with `fn` empty; every other event as `fn`.
struct Event {
  SimTime time;
  uint64_t seq;
  std::coroutine_handle<> resume;
  InlineEvent fn;
};

/// Multi-tier calendar/ladder priority queue specialized for discrete-event
/// simulation, replacing the binary-heap `std::priority_queue`.
///
/// Internally an event is a 16-byte key — {time, seq packed with a payload
/// slot} — so every structural operation (sort, bucket scatter, overflow
/// sift) moves small PODs, never the 48-byte callback object. The slot
/// names one of three payload routes, one per event kind:
///  * callback (Push): the InlineEvent lives in `slab_` at the slot index;
///  * resume (PushResume): the 8-byte coroutine frame address lives in the
///    side table `frames_`, and the slot carries kResumeTag — a wakeup never
///    builds, moves or destroys an InlineEvent;
///  * zero-delay (either kind at the drain timestamp): the slot is
///    kDirectSlot and the payload rides the now-lane FIFO `now_pay_`.
///
/// Tiers, from "now" to far future:
///  * `now_fifo_`: events scheduled AT the drain timestamp while it is
///    being drained — the zero-delay resume pattern (promise wakeups,
///    Submit, admission-edge retries). Only a zero delay can hit the
///    running timestamp and seq grows with every insert, so a plain FIFO
///    is exact; push and pop are O(1) with no comparisons.
///  * `bottom_`: the drain run. A pulled calendar bucket that is not dense
///    is sorted once, in descending (time, seq) order, so PopMin takes the
///    minimum off the back in O(1). Late inserts that land below the drain
///    cursor go in by binary search (upper_bound + insert): they are near
///    the current time, so they land near the back and shift few keys.
///  * `sub_` (rung 1): when a calendar bucket is pulled with more than
///    kSplitThreshold events it is scattered into 2^kWidthShift
///    sub-buckets of one nanosecond each. SimTime is integral
///    nanoseconds, so a sub-bucket holds exactly one timestamp — and
///    because each bucket's contents are seq-ascending per timestamp (see
///    invariant below), a sub-bucket is already in final order: draining
///    it is a pointer swap into `now_fifo_`, no sorting, no comparisons.
///  * `ring_` (rung 0): kNumBuckets unsorted append-only calendar buckets,
///    each 2^kWidthShift ns of simulated time wide, covering
///    [cur_bucket_, cur_bucket_ + kNumBuckets). Insert is an amortized
///    O(1) push_back with no comparisons.
///  * `overflow_`: a binary min-heap on (time, seq) for events beyond the
///    ring horizon (~0.5 ms with the defaults: coarse backoffs, benchmark
///    horizon marks). Migrated into the ring as the window advances.
///
/// Ordering invariant: within any single timestamp, every container holds
/// events in ascending seq. Direct inserts are globally seq-ascending;
/// overflow events migrate into a ring bucket in full (time, seq) order
/// and always before any direct insert reaches that bucket (a push only
/// goes to the ring once the window covers the bucket, and migration runs
/// exactly when the window first covers it). Pop order is therefore
/// *exactly* ascending (time, seq) — identical to the old global heap.
class EventQueue {
 public:
  /// 1024 buckets x 512 ns: the ring spans ~524 us of simulated future,
  /// comfortably past per-pass/recirculation/network delays (0.1–5 us).
  static constexpr int kWidthShift = 9;  // 512 ns per bucket
  static constexpr size_t kNumBuckets = 1024;
  /// Rung-1 sub-buckets per calendar bucket: one per nanosecond of width.
  static constexpr size_t kSubBuckets = size_t{1} << kWidthShift;
  /// Bucket population above which scattering into rung 1 beats a sort.
  static constexpr size_t kSplitThreshold = 48;
  /// Consumed-prefix length at which the now-FIFO compacts in place.
  static constexpr size_t kCompactThreshold = 1024;

  EventQueue() : ring_(kNumBuckets), sub_(kSubBuckets) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Queues callback `fn` at (time, seq).
  void Push(SimTime time, uint64_t seq, InlineEvent fn) {
    Admit(time, seq);
    if (time == drain_time_) {
      PushNow(time, seq, std::move(fn));
      return;
    }
    Place(Key{time, (seq << kSlotBits) | AllocSlot(std::move(fn))});
  }

  /// Queues a wakeup of coroutine `h` at (time, seq). Only the frame
  /// address is stored, in the side table; at the drain timestamp the
  /// wakeup takes the zero-delay lane like any other event.
  void PushResume(SimTime time, uint64_t seq, std::coroutine_handle<> h) {
    Admit(time, seq);
    if (time == drain_time_) {
      PushNow(time, seq, InlineEvent::Resume(h));
      return;
    }
    Place(Key{time, (seq << kSlotBits) | AllocFrame(h.address())});
  }

  /// Smallest (time, seq) event's timestamp. Queue must be non-empty.
  SimTime MinTime() {
    assert(size_ > 0);
    if (now_head_ < now_fifo_.size()) {
      // Late inserts below the drain cursor sit in bottom_ and may precede
      // the FIFO; both can only tie on the timestamp itself.
      if (!bottom_.empty() && bottom_.back().time < drain_time_) {
        return bottom_.back().time;
      }
      return drain_time_;
    }
    if (bottom_.empty()) Advance();
    if (now_head_ < now_fifo_.size()) return drain_time_;
    return bottom_.back().time;
  }

  /// Removes and returns the smallest (time, seq) event.
  Event PopMin() {
    assert(size_ > 0);
    --size_;
    if (now_head_ >= now_fifo_.size() && bottom_.empty()) Advance();
    if (now_head_ < now_fifo_.size()) {
      const Key fifo_front = now_fifo_[now_head_];
      // Same-timestamp events still in the drain run were inserted before
      // anything in the FIFO (smaller seq), and late sub-cursor inserts in
      // the run may precede the FIFO's timestamp outright.
      if (bottom_.empty() || LaterFirst{}(bottom_.back(), fifo_front)) {
        Event ev = SlotOf(fifo_front) == kDirectSlot
                       ? Event{fifo_front.time, fifo_front.seqslot >> kSlotBits,
                               {}, std::move(now_pay_[pay_head_++])}
                       : Take(fifo_front);
        if (++now_head_ == now_fifo_.size()) {
          now_fifo_.clear();
          now_head_ = 0;
          now_pay_.clear();
          pay_head_ = 0;
        } else if (now_head_ >= kCompactThreshold &&
                   now_fifo_.size() - now_head_ <= now_head_) {
          // A busy timestamp appends while the head chases the tail; drop
          // the consumed prefix so the live window stays cache-resident
          // instead of streaming through an ever-growing vector. The live
          // tail is no longer than the prefix, so this stays amortized
          // O(1) per pop.
          now_fifo_.erase(now_fifo_.begin(),
                          now_fifo_.begin() +
                              static_cast<std::ptrdiff_t>(now_head_));
          now_head_ = 0;
          now_pay_.erase(now_pay_.begin(),
                         now_pay_.begin() +
                             static_cast<std::ptrdiff_t>(pay_head_));
          pay_head_ = 0;
        }
        return ev;
      }
    }
    const Key key = bottom_.back();
    bottom_.pop_back();
    drain_time_ = key.time;
    return Take(key);
  }

  /// Pre-sizes every internal vector for an allocation-free steady state.
  /// Bucket capacities circulate — Advance/PullSubBucket swap bucket
  /// storage with `bottom_`/`now_fifo_` — so without this a fresh queue
  /// keeps growing freshly-rotated-in small vectors for many ring
  /// revolutions after the load has stabilized. `pending_events` bounds the
  /// simultaneously-queued event count (slab, side table, overflow,
  /// zero-delay lane); `bucket_capacity` bounds the population of any
  /// single calendar bucket or single-timestamp burst.
  void Reserve(size_t pending_events, size_t bucket_capacity) {
    slab_.reserve(pending_events);
    free_slots_.reserve(slab_.capacity());
    frames_.reserve(pending_events);
    now_fifo_.reserve(std::max(pending_events, bucket_capacity));
    now_pay_.reserve(pending_events);
    bottom_.reserve(bucket_capacity);
    overflow_.reserve(pending_events);
    for (auto& bucket : ring_) bucket.reserve(bucket_capacity);
    for (auto& bucket : sub_) bucket.reserve(bucket_capacity);
  }

  /// Drops every queued event in O(n) (the old binary heap could only pop
  /// them one by one, O(n log n)). Bucket capacity is retained so a reused
  /// queue does not re-grow.
  void Clear() {
    now_fifo_.clear();
    now_head_ = 0;
    now_pay_.clear();  // destroys pending zero-delay callbacks
    pay_head_ = 0;
    bottom_.clear();
    if (ring_count_ > 0) {
      for (auto& bucket : ring_) bucket.clear();
    }
    if (sub_count_ > 0) {
      for (auto& bucket : sub_) bucket.clear();
    }
    sub_active_ = false;
    overflow_.clear();
    slab_.clear();  // destroys every other pending callback
    free_slots_.clear();
    frames_.clear();  // wakeups own nothing: the frames belong to the caller
    free_frame_ = kNoFrame;
    ring_count_ = 0;
    sub_count_ = 0;
    size_ = 0;
  }

 private:
  static constexpr uint64_t kRingMask = kNumBuckets - 1;
  static constexpr uint64_t kSubMask = kSubBuckets - 1;
  static_assert((kNumBuckets & kRingMask) == 0, "ring size must be 2^k");

  /// Keys pack seq (high 40 bits) and the payload slot (low 24 bits) into
  /// one word. seq is globally unique, so comparing the packed word orders
  /// by seq alone — the slot bits never decide. 2^40 events per run and
  /// 2^23 simultaneously pending events of either kind are far beyond
  /// anything the simulator reaches (the old heap at 2^23 pending was
  /// already >0.5 GiB).
  static constexpr int kSlotBits = 24;
  static constexpr int kSeqBits = 64 - kSlotBits;
  /// Slot of a zero-delay lane event: its payload is the next `now_pay_`.
  static constexpr uint32_t kDirectSlot = (uint32_t{1} << kSlotBits) - 1;
  /// Tag bit of a resume slot; the bits below index `frames_`. Callback
  /// slots index `slab_` and stay below the tag.
  static constexpr uint32_t kResumeTag = uint32_t{1} << (kSlotBits - 1);
  /// Free-list terminator of `frames_`. Never a live index, so no resume
  /// slot collides with kDirectSlot.
  static constexpr uint32_t kNoFrame = kResumeTag - 1;
  static_assert((kResumeTag | kNoFrame) == kDirectSlot);

  struct Key {
    SimTime time;
    uint64_t seqslot;
  };
  static_assert(sizeof(Key) == 16, "keys must stay two words");

  /// Strict "a fires after b". The heap comparator for `overflow_` (so the
  /// std::*_heap calls act as a min-heap) and the sort order of `bottom_`
  /// (descending, the minimum at the back).
  struct LaterFirst {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seqslot > b.seqslot;
    }
  };

  static uint32_t SlotOf(const Key& key) {
    return static_cast<uint32_t>(key.seqslot) & kDirectSlot;
  }
  static uint64_t BucketOf(SimTime time) {
    return static_cast<uint64_t>(time) >> kWidthShift;
  }
  static size_t SubIndexOf(SimTime time) {
    return static_cast<size_t>(static_cast<uint64_t>(time) & kSubMask);
  }

  void Admit([[maybe_unused]] SimTime time, [[maybe_unused]] uint64_t seq) {
    assert(time >= 0);
    assert(seq < (uint64_t{1} << kSeqBits) && "seq space exhausted");
    ++size_;
  }

  /// Zero-delay lane: seq is monotone, so FIFO order is exact. The payload
  /// goes straight into the parallel FIFO, with no slot.
  void PushNow(SimTime time, uint64_t seq, InlineEvent&& fn) {
    now_fifo_.push_back(Key{time, (seq << kSlotBits) | kDirectSlot});
    now_pay_.push_back(std::move(fn));
  }

  /// Files a slotted key into the tier its bucket belongs to.
  void Place(const Key& key) {
    const uint64_t b = BucketOf(key.time);
    if (sub_active_ && b == sub_bucket_) {
      const size_t s = SubIndexOf(key.time);
      if (s >= sub_cursor_) {
        sub_[s].push_back(key);
        ++sub_count_;
        return;
      }
      // Below the rung-1 drain cursor: joins the drain run.
    } else if (b >= cur_bucket_ + kNumBuckets) {
      overflow_.push_back(key);
      std::push_heap(overflow_.begin(), overflow_.end(), LaterFirst{});
      return;
    } else if (b >= cur_bucket_) {
      ring_[b & kRingMask].push_back(key);
      ++ring_count_;
      return;
    }
    bottom_.insert(
        std::upper_bound(bottom_.begin(), bottom_.end(), key, LaterFirst{}),
        key);
  }

  /// Hands back the payload of a slotted (non-direct) key, freeing its slot.
  Event Take(const Key& key) {
    const uint64_t seq = key.seqslot >> kSlotBits;
    const uint32_t slot = SlotOf(key);
    if ((slot & kResumeTag) != 0) {
      return Event{key.time, seq,
                   std::coroutine_handle<>::from_address(
                       TakeFrame(slot & ~kResumeTag)),
                   {}};
    }
    return Event{key.time, seq, {}, TakeSlot(slot)};
  }

  uint32_t AllocSlot(InlineEvent fn) {
    if (free_slots_.empty()) {
      slab_.push_back(std::move(fn));
      assert(slab_.size() <= kResumeTag && "slab slot space exhausted");
      // free_slots_ can never hold more entries than the slab has slots, so
      // growing it here (already an allocating moment) keeps TakeSlot — the
      // steady-state pop path — allocation-free forever after.
      free_slots_.reserve(slab_.capacity());
      return static_cast<uint32_t>(slab_.size() - 1);
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
    return slot;
  }

  InlineEvent TakeSlot(uint32_t slot) {
    free_slots_.push_back(slot);
    return std::move(slab_[slot]);
  }

  /// Stores a frame address in the side table. Free entries form an
  /// intrusive LIFO list through `frames_` itself, so a wakeup touches one
  /// word to allocate and one to free.
  uint32_t AllocFrame(void* frame) {
    const auto addr = reinterpret_cast<uintptr_t>(frame);
    if (free_frame_ == kNoFrame) {
      frames_.push_back(addr);
      assert(frames_.size() <= kNoFrame && "resume slot space exhausted");
      return kResumeTag | static_cast<uint32_t>(frames_.size() - 1);
    }
    const uint32_t index = free_frame_;
    free_frame_ = static_cast<uint32_t>(frames_[index]);
    frames_[index] = addr;
    return kResumeTag | index;
  }

  void* TakeFrame(uint32_t index) {
    void* frame = reinterpret_cast<void*>(frames_[index]);
    frames_[index] = free_frame_;
    free_frame_ = index;
    return frame;
  }

  /// Refills now_fifo_ or bottom_ from the rungs (and the ring from the
  /// overflow heap). Precondition: both are empty, size_ > 0.
  void Advance() {
    if (sub_active_) {
      if (sub_count_ > 0) {
        PullSubBucket();
        return;
      }
      sub_active_ = false;
    }
    if (ring_count_ == 0) {
      // Ring is dry; jump the window straight to the overflow minimum
      // (always >= cur_bucket_ + kNumBuckets, so it only moves forward).
      assert(!overflow_.empty());
      cur_bucket_ = BucketOf(overflow_.front().time);
      MigrateOverflow();
    }
    while (ring_[cur_bucket_ & kRingMask].empty()) {
      ++cur_bucket_;
      MigrateOverflow();
    }
    std::vector<Key>& bucket = ring_[cur_bucket_ & kRingMask];
    if (bucket.size() > kSplitThreshold) {
      // Dense bucket: scatter into rung 1. Relative order per timestamp is
      // preserved, so every sub-bucket stays seq-ascending.
      sub_active_ = true;
      sub_bucket_ = cur_bucket_;
      sub_cursor_ = kSubBuckets;
      sub_count_ = bucket.size();
      for (const Key& key : bucket) {
        const size_t s = SubIndexOf(key.time);
        sub_[s].push_back(key);
        if (s < sub_cursor_) sub_cursor_ = s;
      }
      ring_count_ -= bucket.size();
      bucket.clear();
      ++cur_bucket_;
      MigrateOverflow();
      PullSubBucket();
      return;
    }
    bottom_.swap(bucket);
    ring_count_ -= bottom_.size();
    std::sort(bottom_.begin(), bottom_.end(), LaterFirst{});
    ++cur_bucket_;
    MigrateOverflow();
  }

  /// Moves the next non-empty rung-1 sub-bucket (a single timestamp, in
  /// final order) into now_fifo_. Precondition: sub_count_ > 0.
  void PullSubBucket() {
    while (sub_[sub_cursor_].empty()) ++sub_cursor_;
    std::vector<Key>& bucket = sub_[sub_cursor_];
    sub_count_ -= bucket.size();
    now_fifo_.swap(bucket);
    bucket.clear();
    now_head_ = 0;
    drain_time_ = now_fifo_.front().time;
    ++sub_cursor_;
  }

  /// Pulls overflow events whose bucket entered the ring window.
  void MigrateOverflow() {
    const uint64_t window_end = cur_bucket_ + kNumBuckets;
    while (!overflow_.empty() && BucketOf(overflow_.front().time) < window_end) {
      std::pop_heap(overflow_.begin(), overflow_.end(), LaterFirst{});
      const Key key = overflow_.back();
      overflow_.pop_back();
      assert(BucketOf(key.time) >= cur_bucket_);
      ring_[BucketOf(key.time) & kRingMask].push_back(key);
      ++ring_count_;
    }
  }

  std::vector<InlineEvent> slab_;     // callback payloads, by key slot
  std::vector<uint32_t> free_slots_;  // recycled slab indices (LIFO)
  std::vector<uintptr_t> frames_;     // resume frame addresses, by slot
  uint32_t free_frame_ = kNoFrame;    // head of the free list in frames_

  std::vector<Key> now_fifo_;        // events at drain_time_, FIFO by seq
  size_t now_head_ = 0;              // consume cursor into now_fifo_
  std::vector<InlineEvent> now_pay_; // zero-delay payloads (slab bypass)
  size_t pay_head_ = 0;              // consume cursor into now_pay_
  std::vector<Key> bottom_;          // drain run: (time, seq) descending
  std::vector<std::vector<Key>> ring_;  // rung 0 calendar buckets
  std::vector<std::vector<Key>> sub_;   // rung 1: 1-ns sub-buckets
  std::vector<Key> overflow_;           // min-heap on (time, seq)

  SimTime drain_time_ = -1;  // timestamp of the event(s) being drained
  uint64_t cur_bucket_ = 0;  // lowest bucket id the ring still covers
  uint64_t sub_bucket_ = 0;  // which rung-0 bucket rung 1 expands
  bool sub_active_ = false;  // rung 1 currently holds the drain bucket
  size_t sub_cursor_ = 0;    // next rung-1 sub-bucket to drain
  size_t ring_count_ = 0;    // events currently in the ring tier
  size_t sub_count_ = 0;     // events currently in rung 1
  size_t size_ = 0;
};

}  // namespace p4db::sim

#endif  // P4DB_SIM_EVENT_QUEUE_H_

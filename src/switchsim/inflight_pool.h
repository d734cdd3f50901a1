#ifndef P4DB_SWITCHSIM_INFLIGHT_POOL_H_
#define P4DB_SWITCHSIM_INFLIGHT_POOL_H_

#include <cstdint>
#include <utility>

#include "common/small_vector.h"

#include "sim/future.h"
#include "switchsim/packet.h"
#include "switchsim/pipeline.h"
#include "switchsim/replication.h"

namespace p4db::sw {

class InflightPool;

/// Per-transaction pipeline frame: everything the switch model tracks for
/// one packet between Submit and the final egress. Internal to Pipeline;
/// lives in an InflightPool and is recycled between transactions (frames
/// keep their plan capacity across reuse), referenced through
/// InflightRef with a plain intrusive count — the simulator is
/// single-threaded, so no atomics and no shared_ptr control block.
struct Inflight {
  explicit Inflight(InflightPool* p) : pool(p) {}

  SwitchTxn txn;
  SwitchResult result;
  /// Planned once at Submit; each pass runs the next slice of plan.order.
  PassPlan plan;
  size_t next = 0;  // position in plan.order of the next instruction to run
  bool holds_locks = false;
  /// Slot writes this transaction produced, collected pass by pass for the
  /// replication record. Populated only when a sink is installed (K >= 2);
  /// single-switch runs never touch it.
  SmallVector<SlotWrite, 8> rep_writes;
  sim::Promise<SwitchResult> reply;

  InflightPool* const pool;
  uint32_t refs = 0;
  Inflight* next_free = nullptr;
};

/// Free-list pool of Inflight frames.
///
/// The pool is heap-allocated and *orphan-aware* because frames outlive the
/// pipeline in the established teardown order: callers destroy the Pipeline
/// first and the Simulator afterwards, and only the simulator's queue
/// teardown (DiscardPending / ~Simulator) destroys the scheduled callbacks
/// still holding frame references. ~Pipeline therefore calls Orphan(); the
/// pool stays behind to absorb those late releases and deletes itself once
/// the last frame comes home.
class InflightPool {
 public:
  InflightPool() = default;
  InflightPool(const InflightPool&) = delete;
  InflightPool& operator=(const InflightPool&) = delete;

  /// Fetches a recycled frame (or allocates one) and re-initializes it for
  /// `txn`. The returned frame has refs == 1, owned by the caller.
  Inflight* Acquire(SwitchTxn txn, sim::Promise<SwitchResult> reply) {
    Inflight* fl = free_head_;
    if (fl != nullptr) {
      free_head_ = fl->next_free;
    } else {
      fl = new Inflight(this);
    }
    ++outstanding_;
    fl->refs = 1;
    fl->next_free = nullptr;
    fl->txn = std::move(txn);
    fl->result = SwitchResult{};
    fl->next = 0;
    fl->holds_locks = false;
    fl->rep_writes.clear();
    fl->reply = std::move(reply);
    return fl;
  }

  /// Returns a frame to the free list. Called by InflightRef when the last
  /// reference drops; not for direct use.
  void Release(Inflight* fl) {
    fl->next_free = free_head_;
    free_head_ = fl;
    --outstanding_;
    if (orphaned_ && outstanding_ == 0) delete this;
  }

  /// The owning pipeline is going away. Frames still referenced from queued
  /// simulator events keep the pool alive until they are released.
  void Orphan() {
    if (outstanding_ == 0) {
      delete this;
      return;
    }
    orphaned_ = true;
  }

  size_t outstanding() const { return outstanding_; }

 private:
  ~InflightPool() {
    Inflight* fl = free_head_;
    while (fl != nullptr) {
      Inflight* next = fl->next_free;
      delete fl;
      fl = next;
    }
  }

  Inflight* free_head_ = nullptr;
  size_t outstanding_ = 0;
  bool orphaned_ = false;
};

/// Intrusive single-pointer handle to a pooled Inflight frame. Copy bumps a
/// plain uint32_t; the last destructor recycles the frame. sizeof == 8, so
/// a `[this, fl]` capture is 16 bytes — comfortably inside InlineEvent's
/// inline buffer (the old `shared_ptr` capture was 24 bytes, past
/// std::function's 16-byte SBO: one heap allocation per pipeline hop).
class InflightRef {
 public:
  InflightRef() noexcept = default;
  /// Adopts a frame whose reference is already counted (Acquire's refs=1).
  explicit InflightRef(Inflight* fl) noexcept : fl_(fl) {}

  InflightRef(const InflightRef& other) noexcept : fl_(other.fl_) {
    if (fl_ != nullptr) ++fl_->refs;
  }
  InflightRef(InflightRef&& other) noexcept : fl_(other.fl_) {
    other.fl_ = nullptr;
  }
  InflightRef& operator=(const InflightRef& other) noexcept {
    if (this != &other) {
      Drop();
      fl_ = other.fl_;
      if (fl_ != nullptr) ++fl_->refs;
    }
    return *this;
  }
  InflightRef& operator=(InflightRef&& other) noexcept {
    if (this != &other) {
      Drop();
      fl_ = other.fl_;
      other.fl_ = nullptr;
    }
    return *this;
  }
  ~InflightRef() { Drop(); }

  Inflight* operator->() const noexcept { return fl_; }
  Inflight& operator*() const noexcept { return *fl_; }
  Inflight* get() const noexcept { return fl_; }
  explicit operator bool() const noexcept { return fl_ != nullptr; }

 private:
  void Drop() noexcept {
    if (fl_ != nullptr && --fl_->refs == 0) fl_->pool->Release(fl_);
    fl_ = nullptr;
  }

  Inflight* fl_ = nullptr;
};

}  // namespace p4db::sw

#endif  // P4DB_SWITCHSIM_INFLIGHT_POOL_H_

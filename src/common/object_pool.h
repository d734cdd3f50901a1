#ifndef P4DB_COMMON_OBJECT_POOL_H_
#define P4DB_COMMON_OBJECT_POOL_H_

#include <cstddef>
#include <new>

namespace p4db {

/// Size-classed free-list allocator for the simulator's per-transaction
/// short-lived blocks: coroutine frames (Task / CoTask promises) and
/// Future/Promise shared states. Blocks recycle through 64-byte-granular
/// classes up to 4 KiB; the first transaction of each shape pays the
/// operator-new, every later one reuses a block. Oversized requests fall
/// through to plain new/delete (class 0).
///
/// A 16-byte header in front of the payload records the class, keeping the
/// payload max_align_t-aligned. Freed blocks are retained until their
/// thread exits: a thread-local holder returns its lists to the system
/// then, and blocks that thread allocates or frees afterwards (late
/// thread-local or static destructors) bypass the lists.
///
/// The free lists are thread-local: each simulation thread recycles through
/// its own lists with zero synchronization, exactly as fast as the old
/// single-threaded globals. A block allocated on one thread and freed on
/// another (a coroutine frame that migrated shards and died elsewhere)
/// simply joins the freeing thread's list — safe, because every cross-shard
/// handoff in the parallel runtime is separated by a window barrier, which
/// orders the owning thread's writes before any reuse.
class FreePool {
 public:
  static void* Allocate(size_t bytes) {
    const size_t total = bytes + kHeaderBytes;
    const size_t cls = (total + kGranularity - 1) / kGranularity;
    void* raw;
    if (cls >= kNumClasses || retired_) {
      raw = ::operator new(total);
      *static_cast<size_t*>(raw) = 0;
    } else {
      void*& head = lists_.heads[cls];
      if (head != nullptr) {
        raw = head;
        head = *static_cast<void**>(raw);
      } else {
        raw = ::operator new(cls * kGranularity);
      }
      *static_cast<size_t*>(raw) = cls;
    }
    return static_cast<unsigned char*>(raw) + kHeaderBytes;
  }

  static void Free(void* p) noexcept {
    if (p == nullptr) return;
    void* raw = static_cast<unsigned char*>(p) - kHeaderBytes;
    const size_t cls = *static_cast<size_t*>(raw);
    if (cls == 0 || retired_) {
      ::operator delete(raw);
      return;
    }
    *static_cast<void**>(raw) = lists_.heads[cls];
    lists_.heads[cls] = raw;
  }

  static constexpr size_t kHeaderBytes = 16;
  static constexpr size_t kGranularity = 64;
  static constexpr size_t kNumClasses = 65;  // classes 1..64 => up to 4 KiB

 private:
  /// This thread's free lists; the destructor drains them at thread exit.
  struct FreeLists {
    void* heads[kNumClasses] = {};
    ~FreeLists() {
      retired_ = true;
      for (void*& head : heads) {
        while (head != nullptr) {
          void* next = *static_cast<void**>(head);
          ::operator delete(head);
          head = next;
        }
      }
    }
  };

  static thread_local FreeLists lists_;
  /// Set once lists_ has been drained; the pool then bypasses the lists.
  static inline thread_local bool retired_ = false;
};

// Defined out of line: FreeLists' member initializer needs the complete
// enclosing class.
inline thread_local FreePool::FreeLists FreePool::lists_;

/// Minimal std-compatible allocator over FreePool, for
/// std::allocate_shared of promise shared states (object + control block
/// land in one pooled allocation).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(FreePool::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t) noexcept { FreePool::Free(p); }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace p4db

#endif  // P4DB_COMMON_OBJECT_POOL_H_

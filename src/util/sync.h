// Concurrency-contract primitives: annotated synchronization wrappers.
//
// Every piece of shared mutable state in this codebase is guarded by one of
// the wrappers below, never by a raw std::mutex (tools/olsq2_synclint
// enforces this; tools/synclint_allowlist.txt lists the few deliberate
// exceptions such as lock-free atomics). The wrappers buy two things:
//
//  * Static checking. The OLSQ2_* macros carry clang Thread Safety
//    Analysis attributes, so `-Wthread-safety -Werror=thread-safety`
//    (a required CI build) rejects code that touches a OLSQ2_GUARDED_BY
//    field without holding its mutex, calls a OLSQ2_REQUIRES method
//    unlocked, or re-enters a OLSQ2_EXCLUDES method with the lock held.
//    On non-clang compilers every macro expands to nothing.
//
//  * Dynamic lock-order checking. Each Mutex carries a rank name; in debug
//    runs (OLSQ2_LOCK_ORDER=1) every acquisition feeds the process-wide
//    acquisition graph in analysis/concurrency/lock_order.h, which reports
//    potential deadlocks (A->B in one thread, B->A in another) with both
//    acquisition stacks. Disabled cost: one relaxed atomic load per
//    lock/unlock on top of the std primitive.
//
// The per-subsystem lock hierarchy (which ranks may nest inside which) is
// documented in DESIGN.md §11; new guarded structures must slot into it.
#pragma once

#include <mutex>
#include <shared_mutex>
#include <source_location>

#include "analysis/concurrency/lock_order.h"

// ---- clang Thread Safety Analysis attributes (no-ops elsewhere) --------

#if defined(__clang__)
#define OLSQ2_TSA(x) __attribute__((x))
#else
#define OLSQ2_TSA(x)  // expands away on gcc/msvc
#endif

/// Declares a class to be a lockable capability ("mutex").
#define OLSQ2_CAPABILITY(x) OLSQ2_TSA(capability(x))
/// RAII type that acquires in its constructor and releases in its
/// destructor (MutexLock below).
#define OLSQ2_SCOPED_CAPABILITY OLSQ2_TSA(scoped_lockable)
/// Field may only be read/written while holding `x`.
#define OLSQ2_GUARDED_BY(x) OLSQ2_TSA(guarded_by(x))
/// Pointee (not the pointer) is guarded by `x`.
#define OLSQ2_PT_GUARDED_BY(x) OLSQ2_TSA(pt_guarded_by(x))
/// Function must be called with the capability held (and does not
/// release it).
#define OLSQ2_REQUIRES(...) OLSQ2_TSA(requires_capability(__VA_ARGS__))
#define OLSQ2_REQUIRES_SHARED(...) \
  OLSQ2_TSA(requires_shared_capability(__VA_ARGS__))
/// Function acquires / releases the capability.
#define OLSQ2_ACQUIRE(...) OLSQ2_TSA(acquire_capability(__VA_ARGS__))
#define OLSQ2_ACQUIRE_SHARED(...) \
  OLSQ2_TSA(acquire_shared_capability(__VA_ARGS__))
#define OLSQ2_RELEASE(...) OLSQ2_TSA(release_capability(__VA_ARGS__))
#define OLSQ2_RELEASE_SHARED(...) \
  OLSQ2_TSA(release_shared_capability(__VA_ARGS__))
#define OLSQ2_TRY_ACQUIRE(...) OLSQ2_TSA(try_acquire_capability(__VA_ARGS__))
/// Function must be called with the capability *not* held (self-deadlock
/// guard for methods that lock internally).
#define OLSQ2_EXCLUDES(...) OLSQ2_TSA(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the given capability.
#define OLSQ2_RETURN_CAPABILITY(x) OLSQ2_TSA(lock_returned(x))
/// Runtime assertion that the capability is held (trusted by the analysis).
#define OLSQ2_ASSERT_CAPABILITY(x) OLSQ2_TSA(assert_capability(x))
/// Escape hatch; every use needs a comment explaining why it is sound.
#define OLSQ2_NO_THREAD_SAFETY_ANALYSIS OLSQ2_TSA(no_thread_safety_analysis)

namespace olsq2::sync {

namespace lo = ::olsq2::analysis::concurrency;

/// std::mutex with a capability attribute and a lock-order rank name.
/// Name instances after their subsystem ("serve.cache"); same-named
/// locks share a rank, so nesting two of them is itself an order violation.
class OLSQ2_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = "unnamed") noexcept : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock(std::source_location loc = std::source_location::current())
      OLSQ2_ACQUIRE() {
    if (lo::enabled()) {
      lo::internal::on_acquire(this, name_, loc.file_name(),
                               static_cast<int>(loc.line()));
    }
    m_.lock();
  }
  void unlock() OLSQ2_RELEASE() {
    lo::internal::on_release(this);
    m_.unlock();
  }
  /// Never blocks, so it cannot close a deadlock cycle; the tracker records
  /// it as held (edges *from* it still form) but not as an order edge.
  bool try_lock(std::source_location loc = std::source_location::current())
      OLSQ2_TRY_ACQUIRE(true) {
    if (!m_.try_lock()) return false;
    if (lo::enabled()) {
      lo::internal::on_acquire(this, name_, loc.file_name(),
                               static_cast<int>(loc.line()),
                               /*check_order=*/false);
    }
    return true;
  }

  const char* name() const noexcept { return name_; }

 private:
  std::mutex m_;
  const char* name_;
};

/// std::shared_mutex counterpart. Shared (reader) acquisitions participate
/// in lock-order tracking exactly like exclusive ones: a reader blocked on
/// a writer still deadlocks if the orders invert.
class OLSQ2_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* name = "unnamed") noexcept : name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock(std::source_location loc = std::source_location::current())
      OLSQ2_ACQUIRE() {
    if (lo::enabled()) {
      lo::internal::on_acquire(this, name_, loc.file_name(),
                               static_cast<int>(loc.line()));
    }
    m_.lock();
  }
  void unlock() OLSQ2_RELEASE() {
    lo::internal::on_release(this);
    m_.unlock();
  }
  void lock_shared(std::source_location loc = std::source_location::current())
      OLSQ2_ACQUIRE_SHARED() {
    if (lo::enabled()) {
      lo::internal::on_acquire(this, name_, loc.file_name(),
                               static_cast<int>(loc.line()));
    }
    m_.lock_shared();
  }
  void unlock_shared() OLSQ2_RELEASE_SHARED() {
    lo::internal::on_release(this);
    m_.unlock_shared();
  }

  const char* name() const noexcept { return name_; }

 private:
  std::shared_mutex m_;
  const char* name_;
};

/// Scoped exclusive lock (the only way this codebase takes a Mutex).
class OLSQ2_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex,
                     std::source_location loc = std::source_location::current())
      OLSQ2_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock(loc);
  }
  ~MutexLock() OLSQ2_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Scoped exclusive lock over a SharedMutex.
class OLSQ2_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(
      SharedMutex& mutex,
      std::source_location loc = std::source_location::current())
      OLSQ2_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock(loc);
  }
  ~WriterMutexLock() OLSQ2_RELEASE() { mutex_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Scoped shared (reader) lock over a SharedMutex.
class OLSQ2_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(
      SharedMutex& mutex,
      std::source_location loc = std::source_location::current())
      OLSQ2_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared(loc);
  }
  ~ReaderMutexLock() OLSQ2_RELEASE_SHARED() { mutex_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

}  // namespace olsq2::sync

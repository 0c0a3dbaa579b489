#ifndef RSSE_COMMON_THREAD_ANNOTATIONS_H_
#define RSSE_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

/// Clang thread-safety (capability) annotations plus annotated wrappers
/// over the std synchronization primitives this library uses.
///
/// Under `clang++ -Wthread-safety` (always on for clang builds, see
/// rsse_warnings in CMakeLists.txt; promoted to an error by RSSE_WERROR)
/// the compiler proves, per translation unit, that every access to a
/// `RSSE_GUARDED_BY(mu)` member happens while `mu` is held, that
/// `RSSE_REQUIRES(mu)` helpers are only called under the lock, and that
/// shared/exclusive acquisitions match the declared access — a
/// compile-time race detector over the annotated lock discipline. Under
/// GCC (which has no capability analysis) every macro expands to nothing
/// and the wrappers are zero-cost forwarding shims, so the annotated tree
/// builds identically everywhere.
///
/// What the analysis does NOT prove: lock-free code (atomics are invisible
/// to it), lock ordering/deadlock freedom, or anything crossing an opaque
/// call (e.g. a condition variable's internal unlock/relock). Those stay
/// with TSan and the fault-injection suites.
///
/// Use the wrappers (`Mutex`, `SharedMutex`, `MutexLock`, ...) rather than
/// raw std types for any new lock: std::mutex and std::scoped_lock carry
/// no annotations, so locks taken through them are invisible to the
/// analysis and guarded members they protect would fail to compile.

#if defined(__clang__) && !defined(SWIG)
#define RSSE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define RSSE_THREAD_ANNOTATION_(x)  // no-op
#endif

/// Declares a type that models a capability (a lock).
#define RSSE_CAPABILITY(x) RSSE_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type that acquires a capability at construction and
/// releases it at destruction.
#define RSSE_SCOPED_CAPABILITY RSSE_THREAD_ANNOTATION_(scoped_lockable)

/// Declares that a member is protected by the given capability: reads
/// require the capability held (shared or exclusive), writes require it
/// held exclusively.
#define RSSE_GUARDED_BY(x) RSSE_THREAD_ANNOTATION_(guarded_by(x))

/// As RSSE_GUARDED_BY, but for the data a pointer/smart-pointer member
/// points at (the pointer itself is unguarded).
#define RSSE_PT_GUARDED_BY(x) RSSE_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Declares a lock order on a capability member: it is acquired before
/// the listed capabilities whenever both are held (checked by Clang's
/// -Wthread-safety-beta).
#define RSSE_ACQUIRED_BEFORE(...) \
  RSSE_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

/// Declares that the function must be called with the capability held
/// exclusively (…_SHARED: at least shared). The caller keeps it held.
#define RSSE_REQUIRES(...) \
  RSSE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define RSSE_REQUIRES_SHARED(...) \
  RSSE_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Declares that the function acquires (releases) the capability and the
/// caller must not already hold (must hold) it.
#define RSSE_ACQUIRE(...) \
  RSSE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define RSSE_ACQUIRE_SHARED(...) \
  RSSE_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RSSE_RELEASE(...) \
  RSSE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RSSE_RELEASE_SHARED(...) \
  RSSE_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define RSSE_RELEASE_GENERIC(...) \
  RSSE_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

/// Declares a function that acquires the capability only when it returns
/// the given value (try_lock).
#define RSSE_TRY_ACQUIRE(...) \
  RSSE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define RSSE_TRY_ACQUIRE_SHARED(...) \
  RSSE_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))

/// Declares that the function must be called with the capability NOT held
/// (it acquires and releases it internally).
#define RSSE_EXCLUDES(...) \
  RSSE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Asserts at runtime that the calling thread holds the capability, and
/// tells the analysis so.
#define RSSE_ASSERT_CAPABILITY(x) \
  RSSE_THREAD_ANNOTATION_(assert_capability(x))
#define RSSE_ASSERT_SHARED_CAPABILITY(x) \
  RSSE_THREAD_ANNOTATION_(assert_shared_capability(x))

/// Declares that the function returns a reference to the capability that
/// guards its result.
#define RSSE_RETURN_CAPABILITY(x) \
  RSSE_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Kept for
/// completeness only — the serving path (server/, persist, local_backend)
/// must not use it (ISSUE 10 acceptance criterion); prefer
/// RSSE_ASSERT_CAPABILITY or restructuring.
#define RSSE_NO_THREAD_SAFETY_ANALYSIS \
  RSSE_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace rsse {

/// Annotated exclusive mutex over std::mutex. Also BasicLockable
/// (lowercase lock/unlock), so std::condition_variable_any and generic
/// code still compose — but prefer the annotated RAII types below, which
/// the analysis tracks.
class RSSE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RSSE_ACQUIRE() { mu_.lock(); }
  void Unlock() RSSE_RELEASE() { mu_.unlock(); }
  bool TryLock() RSSE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable spelling (annotated identically).
  void lock() RSSE_ACQUIRE() { mu_.lock(); }
  void unlock() RSSE_RELEASE() { mu_.unlock(); }
  bool try_lock() RSSE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Annotated reader/writer mutex over std::shared_mutex: writers acquire
/// exclusively, readers shared. SharedLockable + Lockable spellings keep
/// std::shared_lock/std::unique_lock usable in generic code, annotated the
/// same either way.
class RSSE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() RSSE_ACQUIRE() { mu_.lock(); }
  void Unlock() RSSE_RELEASE() { mu_.unlock(); }
  bool TryLock() RSSE_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void LockShared() RSSE_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RSSE_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() RSSE_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

  void lock() RSSE_ACQUIRE() { mu_.lock(); }
  void unlock() RSSE_RELEASE() { mu_.unlock(); }
  bool try_lock() RSSE_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() RSSE_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RSSE_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() RSSE_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock on a Mutex or SharedMutex (any annotated type with
/// Lock/Unlock), tracked by the analysis like std::lock_guard is not.
template <typename M>
class RSSE_SCOPED_CAPABILITY GenericMutexLock {
 public:
  explicit GenericMutexLock(M& mu) RSSE_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~GenericMutexLock() RSSE_RELEASE() { mu_.Unlock(); }

  GenericMutexLock(const GenericMutexLock&) = delete;
  GenericMutexLock& operator=(const GenericMutexLock&) = delete;

 private:
  M& mu_;
};

using MutexLock = GenericMutexLock<Mutex>;
using WriterMutexLock = GenericMutexLock<SharedMutex>;

/// RAII shared (reader) lock on a SharedMutex.
class RSSE_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) RSSE_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() RSSE_RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable paired with `Mutex`. Wait() atomically releases and
/// reacquires the mutex; the annotation keeps the capability "held" across
/// the call (matching the caller's view: the guarded state may only be
/// touched after Wait returns, when the lock is held again). There is
/// deliberately no predicate overload: a predicate lambda is analyzed as
/// its own unannotated function, so guarded reads inside it would fail the
/// analysis — spell the re-check as `while (!cond) cv.Wait(mu);` in the
/// locked scope instead.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) RSSE_REQUIRES(mu) { cv_.wait(mu); }

  /// Returns false on timeout (the caller re-checks its condition either
  /// way, spelled as a loop like Wait).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu,
               const std::chrono::duration<Rep, Period>& timeout)
      RSSE_REQUIRES(mu) {
    return cv_.wait_for(mu, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace rsse

#endif  // RSSE_COMMON_THREAD_ANNOTATIONS_H_

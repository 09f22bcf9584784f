// amt/atomic.hpp
//
// The runtime's atomics shim: every lock-free primitive in this tree uses
// `amt::atomic<T>` / `amt::atomic_flag` / `amt::atomic_thread_fence` (and
// `amt::mutex` / `amt::condition_variable` for the blocking primitives the
// model also schedules, and atomic<T>::wait/notify_one/notify_all under
// amt/park.hpp) instead of touching <atomic> directly.  amtlint
// rule AMT006 enforces the discipline tree-wide, so every piece of
// lock-free code — present and future — is model-checkable by
// construction.
//
// Two personalities, selected at configure time:
//
//   * Normal builds (AMT_MODEL_CHECK unset/0): pure aliases.
//     `amt::atomic<T>` IS `std::atomic<T>`, `amt::mutex` IS `std::mutex`,
//     and `amt::atomic_thread_fence` is an always-inlined forwarder.
//     Codegen is bit-for-bit what writing std:: directly produces; the
//     replay perf gate (bench/micro_runtime --replay-gate) runs against
//     this configuration.
//
//   * Model-check builds (preset "model", -DLULESH_MODEL_CHECK=ON):
//     `amt::atomic<T>` wraps the real std::atomic and routes every
//     load/store/RMW/CAS — with its declared memory_order — through the
//     amt::model schedule controller (amt/model.hpp) whenever the calling
//     thread is a registered model thread inside model::check().  Outside
//     a model execution the wrapper falls through to the real atomic, so
//     the whole tree still runs normally in this configuration.
//
// The model-build wrapper deliberately has NO defaulted memory_order
// parameters: building the "model" preset is how unannotated
// (implicitly seq_cst) call sites are surfaced for the ordering audit.
// Keep every call site explicitly annotated.
//
// T must be trivially copyable and at most 8 bytes (integers, enums,
// bools, raw pointers): the model's store-buffer history holds values as
// raw 64-bit images.  That covers every atomic in this runtime.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#ifndef AMT_MODEL_CHECK
#define AMT_MODEL_CHECK 0
#endif

namespace amt {

/// Memory orders are always the std:: enumerators — the shim forwards the
/// declared order to the model controller, which interprets it.
using memory_order = std::memory_order;
inline constexpr memory_order memory_order_relaxed = std::memory_order_relaxed;
inline constexpr memory_order memory_order_consume = std::memory_order_consume;
inline constexpr memory_order memory_order_acquire = std::memory_order_acquire;
inline constexpr memory_order memory_order_release = std::memory_order_release;
inline constexpr memory_order memory_order_acq_rel = std::memory_order_acq_rel;
inline constexpr memory_order memory_order_seq_cst = std::memory_order_seq_cst;

#if !AMT_MODEL_CHECK

// ======================= normal build: aliases =======================

template <class T>
using atomic = std::atomic<T>;

using atomic_flag = std::atomic_flag;
using mutex = std::mutex;
using condition_variable = std::condition_variable;

inline void atomic_thread_fence(memory_order mo) noexcept {
    std::atomic_thread_fence(mo);
}

#else  // AMT_MODEL_CHECK

// ================== model build: controller-routed ==================

namespace model::detail {

/// True when the calling thread is a registered model thread inside an
/// active model::check() execution; only then do the wrappers route.
[[nodiscard]] bool in_execution() noexcept;

/// Hooks implemented by the schedule controller (amt/model.cpp).  `addr`
/// identifies the variable; `init` is the committed value the variable
/// held when the controller first saw it (used to seed the store history).
[[nodiscard]] std::uint64_t on_load(const void* addr, std::uint64_t init,
                                    memory_order mo);
void on_store(const void* addr, std::uint64_t init, std::uint64_t bits,
              memory_order mo);
using rmw_fn = std::uint64_t (*)(std::uint64_t, std::uint64_t);
[[nodiscard]] std::uint64_t on_rmw(const void* addr, std::uint64_t init,
                                   rmw_fn f, std::uint64_t operand,
                                   memory_order mo);
[[nodiscard]] bool on_cas(const void* addr, std::uint64_t init,
                          std::uint64_t& expected, std::uint64_t desired,
                          memory_order success, memory_order failure);
void on_fence(memory_order mo);
void on_mutex_lock(const void* m);
[[nodiscard]] bool on_mutex_try_lock(const void* m);
void on_mutex_unlock(const void* m);
void on_cv_wait(const void* cv, const void* m);
void on_cv_notify(const void* cv, bool all);
void on_atomic_wait(const void* addr, std::uint64_t init, std::uint64_t old,
                    memory_order mo);
void on_atomic_notify(const void* addr, std::uint64_t init, bool all);

template <class T>
[[nodiscard]] constexpr std::uint64_t to_bits(T v) noexcept {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                  "amt::atomic<T>: T must be trivially copyable and fit in "
                  "the model's 64-bit value images");
    std::uint64_t bits = 0;
    __builtin_memcpy(&bits, &v, sizeof(T));
    return bits;
}

template <class T>
[[nodiscard]] constexpr T from_bits(std::uint64_t bits) noexcept {
    T v{};
    __builtin_memcpy(&v, &bits, sizeof(T));
    return v;
}

}  // namespace model::detail

/// Model-aware std::atomic<T> stand-in.  No defaulted memory orders: the
/// model preset is the build that flags implicit-seq_cst call sites.
template <class T>
class atomic {
public:
    constexpr atomic() noexcept : v_() {}
    constexpr atomic(T v) noexcept : v_(v) {}  // NOLINT(google-explicit-constructor)
    atomic(const atomic&) = delete;
    atomic& operator=(const atomic&) = delete;

    T load(memory_order mo) const {
        if (model::detail::in_execution()) {
            return model::detail::from_bits<T>(model::detail::on_load(
                this, model::detail::to_bits(v_.load(memory_order_relaxed)),
                mo));
        }
        return v_.load(mo);
    }

    void store(T v, memory_order mo) {
        if (model::detail::in_execution()) {
            model::detail::on_store(
                this, model::detail::to_bits(v_.load(memory_order_relaxed)),
                model::detail::to_bits(v), mo);
            v_.store(v, memory_order_relaxed);  // mirror for post-run reads
            return;
        }
        v_.store(v, mo);
    }

    T exchange(T v, memory_order mo) {
        return rmw([](std::uint64_t, std::uint64_t b) { return b; }, v, mo,
                   [&] { return v_.exchange(v, mo); });
    }

    T fetch_add(T v, memory_order mo)
        requires std::is_integral_v<T>
    {
        return rmw(
            [](std::uint64_t a, std::uint64_t b) {
                return model::detail::to_bits<T>(
                    static_cast<T>(model::detail::from_bits<T>(a) +
                                   model::detail::from_bits<T>(b)));
            },
            v, mo, [&] { return v_.fetch_add(v, mo); });
    }

    T fetch_sub(T v, memory_order mo)
        requires std::is_integral_v<T>
    {
        return rmw(
            [](std::uint64_t a, std::uint64_t b) {
                return model::detail::to_bits<T>(
                    static_cast<T>(model::detail::from_bits<T>(a) -
                                   model::detail::from_bits<T>(b)));
            },
            v, mo, [&] { return v_.fetch_sub(v, mo); });
    }

    T fetch_or(T v, memory_order mo)
        requires std::is_integral_v<T>
    {
        return rmw(
            [](std::uint64_t a, std::uint64_t b) {
                return model::detail::to_bits<T>(
                    static_cast<T>(model::detail::from_bits<T>(a) |
                                   model::detail::from_bits<T>(b)));
            },
            v, mo, [&] { return v_.fetch_or(v, mo); });
    }

    T fetch_and(T v, memory_order mo)
        requires std::is_integral_v<T>
    {
        return rmw(
            [](std::uint64_t a, std::uint64_t b) {
                return model::detail::to_bits<T>(
                    static_cast<T>(model::detail::from_bits<T>(a) &
                                   model::detail::from_bits<T>(b)));
            },
            v, mo, [&] { return v_.fetch_and(v, mo); });
    }

    bool compare_exchange_strong(T& expected, T desired, memory_order success,
                                 memory_order failure) {
        if (model::detail::in_execution()) {
            std::uint64_t exp = model::detail::to_bits(expected);
            const bool ok = model::detail::on_cas(
                this, model::detail::to_bits(v_.load(memory_order_relaxed)),
                exp, model::detail::to_bits(desired), success, failure);
            expected = model::detail::from_bits<T>(exp);
            if (ok) v_.store(desired, memory_order_relaxed);
            return ok;
        }
        return v_.compare_exchange_strong(expected, desired, success, failure);
    }

    bool compare_exchange_strong(T& expected, T desired,
                                 memory_order mo) {
        return compare_exchange_strong(expected, desired, mo,
                                       cas_failure_order(mo));
    }

    /// The model gives weak CAS strong semantics (no spurious failures):
    /// spurious failure is an *extra* behavior real hardware may exhibit,
    /// so omitting it can hide retry-loop bugs but never invents one.
    bool compare_exchange_weak(T& expected, T desired, memory_order success,
                               memory_order failure) {
        if (model::detail::in_execution()) {
            return compare_exchange_strong(expected, desired, success,
                                           failure);
        }
        return v_.compare_exchange_weak(expected, desired, success, failure);
    }

    bool compare_exchange_weak(T& expected, T desired,
                               memory_order mo) {
        return compare_exchange_weak(expected, desired, mo,
                                     cas_failure_order(mo));
    }

    /// Blocks while the value equals `old`.  The model compares against
    /// the newest store (the futex this lowers to reads memory, not a
    /// stale view) and wakes waiters only on notify, never spuriously, so
    /// a lost wakeup reports as a deadlock.
    void wait(T old, memory_order mo) const {
        if (model::detail::in_execution()) {
            model::detail::on_atomic_wait(
                this, model::detail::to_bits(v_.load(memory_order_relaxed)),
                model::detail::to_bits(old), mo);
            return;
        }
        v_.wait(old, mo);
    }

    void notify_one() {
        if (model::detail::in_execution()) {
            model::detail::on_atomic_notify(
                this, model::detail::to_bits(v_.load(memory_order_relaxed)),
                /*all=*/false);
            return;
        }
        v_.notify_one();
    }

    void notify_all() {
        if (model::detail::in_execution()) {
            model::detail::on_atomic_notify(
                this, model::detail::to_bits(v_.load(memory_order_relaxed)),
                /*all=*/true);
            return;
        }
        v_.notify_all();
    }

private:
    static constexpr memory_order cas_failure_order(memory_order mo) {
        if (mo == memory_order_acq_rel) return memory_order_acquire;
        if (mo == memory_order_release) return memory_order_relaxed;
        return mo;
    }

    template <class Fallback>
    T rmw(model::detail::rmw_fn f, T operand, memory_order mo,
          Fallback&& fallback) {
        if (model::detail::in_execution()) {
            const std::uint64_t old = model::detail::on_rmw(
                this, model::detail::to_bits(v_.load(memory_order_relaxed)),
                f, model::detail::to_bits(operand), mo);
            v_.store(model::detail::from_bits<T>(f(
                         old, model::detail::to_bits(operand))),
                     memory_order_relaxed);
            return model::detail::from_bits<T>(old);
        }
        return fallback();
    }

    std::atomic<T> v_;
};

/// std::atomic_flag stand-in on top of the model-aware atomic<bool>.
class atomic_flag {
public:
    constexpr atomic_flag() noexcept = default;
    atomic_flag(const atomic_flag&) = delete;
    atomic_flag& operator=(const atomic_flag&) = delete;

    bool test_and_set(memory_order mo) {
        return flag_.exchange(true, mo);
    }
    void clear(memory_order mo) { flag_.store(false, mo); }
    [[nodiscard]] bool test(memory_order mo) const {
        return flag_.load(mo);
    }

private:
    atomic<bool> flag_{false};
};

inline void atomic_thread_fence(memory_order mo) {
    if (model::detail::in_execution()) {
        model::detail::on_fence(mo);
        return;
    }
    std::atomic_thread_fence(mo);
}

/// Model-aware std::mutex stand-in.  Inside a model execution lock/unlock
/// become schedule points (a thread blocked on a held mutex is descheduled
/// until the holder releases it); outside one it is a plain mutex.
class mutex {
public:
    mutex() = default;
    mutex(const mutex&) = delete;
    mutex& operator=(const mutex&) = delete;

    void lock() {
        if (model::detail::in_execution()) {
            model::detail::on_mutex_lock(this);
            return;
        }
        fallback_.lock();
    }
    bool try_lock() {
        if (model::detail::in_execution()) {
            return model::detail::on_mutex_try_lock(this);
        }
        return fallback_.try_lock();
    }
    void unlock() {
        if (model::detail::in_execution()) {
            model::detail::on_mutex_unlock(this);
            return;
        }
        fallback_.unlock();
    }

private:
    std::mutex fallback_;
};

/// Model-aware std::condition_variable stand-in.  The model wakes waiters
/// only on notify (no spurious wakeups), so a lost notify in the code
/// under test shows up as a reported deadlock.
class condition_variable {
public:
    condition_variable() = default;
    condition_variable(const condition_variable&) = delete;
    condition_variable& operator=(const condition_variable&) = delete;

    template <class Lock>
    void wait(Lock& lk) {
        if (model::detail::in_execution()) {
            model::detail::on_cv_wait(this, lk.mutex());
            return;
        }
        fallback_.wait(lk);
    }

    template <class Lock, class Pred>
    void wait(Lock& lk, Pred pred) {
        while (!pred()) wait(lk);
    }

    /// Timed wait (the metrics reporter's interval sleep).  Under the
    /// model no clock advances, so an in-execution wait_for degenerates
    /// to wait-until-notified — a lost notify still reports as a
    /// deadlock instead of silently timing out.
    template <class Lock, class Rep, class Period, class Pred>
    bool wait_for(Lock& lk, const std::chrono::duration<Rep, Period>& d,
                  Pred pred) {
        if (model::detail::in_execution()) {
            while (!pred()) wait(lk);
            return true;
        }
        return fallback_.wait_for(lk, d, pred);
    }

    void notify_one() {
        if (model::detail::in_execution()) {
            model::detail::on_cv_notify(this, /*all=*/false);
            return;
        }
        fallback_.notify_one();
    }
    void notify_all() {
        if (model::detail::in_execution()) {
            model::detail::on_cv_notify(this, /*all=*/true);
            return;
        }
        fallback_.notify_all();
    }

private:
    std::condition_variable_any fallback_;
};

#endif  // AMT_MODEL_CHECK

}  // namespace amt

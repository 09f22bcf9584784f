// amt/park.hpp
//
// Spin-then-park: the one blocking primitive under the amt workers' idle
// loop and the ompsim team's fork, join and barrier waits.  A waiter polls
// its condition with a CPU-relax instruction, then with yield(), then
// sleeps on an epoch word through C++20 atomic wait/notify.  A waker
// publishes its state and pays one fence and one load when nobody sleeps;
// only when the sleeper count is non-zero does it bump the epoch and
// notify.  There is no timed wait anywhere: the fence pairing below rules
// lost wakeups out instead of recovering from them.
//
// The protocol (a Dekker pairing of two seq_cst fences):
//
//   waiter                              waker
//   sleepers_ += 1                      publish state (any order)
//   fence(seq_cst)            F1        fence(seq_cst)             F2
//   seen = epoch_ (acquire)             if sleepers_ != 0:
//   if ready(): leave                       epoch_ += 1 (release)
//   epoch_.wait(seen)                       epoch_.notify_*()
//
// If F2 precedes F1 in the seq_cst order, the waiter's ready() sees the
// published state.  Otherwise the waker's load sees the sleeper and bumps
// the epoch: either `seen` already reads that bump (and, by release/
// acquire, ready() sees the state) or the bump comes later in the epoch's
// modification order and wait() cannot sleep through it.  Every notify is
// preceded by a bump because std::atomic::wait re-sleeps while the value
// is unchanged — a notify alone (say, at shutdown) would be lost.
//
// Under AMT_MODEL_CHECK the waiter parks at once, without spinning, so the
// amt::model litmus (tests/model/test_model_park.cpp) explores the parking
// protocol itself rather than thousands of identical polls.

#pragma once

#include <cstdint>
#include <thread>

#include "amt/atomic.hpp"
#include "amt/config.hpp"

namespace amt {

/// One spin-wait hint to the CPU (x86 `pause`, ARM `yield`).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#endif
}

class alignas(cache_line_size) park {
public:
    /// CPU-relax polls of the condition before the waiter starts yielding.
    /// Kept short: yield() polls are as fast on an idle machine, and once
    /// CPUs are shared a long pause loop holds the core the awaited thread
    /// needs (lulesh_app -d parallel_for -t 4 beside two busy processes on
    /// 4 cores ran 1.3x slower at 64 rounds, 20x slower at 2048).
    static constexpr int relax_rounds = 32;
    /// yield() polls before the waiter sleeps; also the amt worker's count
    /// of idle find_work rounds before it parks.
    static constexpr int yield_rounds = 64;

    park() = default;
    park(const park&) = delete;
    park& operator=(const park&) = delete;

    /// Blocks until `ready()` returns true: relax spin, yield spin, sleep,
    /// and after every wake the spins again (the wake may come just before
    /// the state the waiter wants, as in a wave of posts).  `ready` may
    /// have side effects (the amt worker dequeues in it); it must read
    /// state whose writers call wake_one()/wake_all() after publishing it.
    template <class Ready>
    void wait_until(Ready&& ready) {
        for (;;) {
#if !AMT_MODEL_CHECK
            for (int i = 0; i < relax_rounds; ++i) {
                if (ready()) return;
                cpu_relax();
            }
            for (int i = 0; i < yield_rounds; ++i) {
                if (ready()) return;
                std::this_thread::yield();
            }
#endif
            if (sleep_once(ready)) return;
        }
    }

    /// The parking step alone, for callers that spin their own way first:
    /// registers as a sleeper, re-checks `ready()` and sleeps until woken.
    /// Returns true when `ready()` held (no sleep), false after a wake —
    /// the caller polls again.
    template <class Ready>
    bool sleep_once(Ready&& ready) {
        sleepers_.fetch_add(1, memory_order_seq_cst);
        amt::atomic_thread_fence(memory_order_seq_cst);
        const std::uint32_t seen = epoch_.load(memory_order_acquire);
        const bool ok = ready();
        if (!ok) epoch_.wait(seen, memory_order_acquire);
        sleepers_.fetch_sub(1, memory_order_relaxed);
        return ok;
    }

    /// Wakes one sleeper, if any.  Call after publishing the state.
    void wake_one() {
        if (sleeper_seen()) {
            epoch_.fetch_add(1, memory_order_release);
            epoch_.notify_one();
        }
    }

    /// Wakes every sleeper, if any.  Call after publishing the state.
    void wake_all() {
        if (sleeper_seen()) {
            epoch_.fetch_add(1, memory_order_release);
            epoch_.notify_all();
        }
    }

    /// Threads inside sleep_once (asleep, or about to re-check and sleep).
    [[nodiscard]] std::uint32_t sleepers() const {
        return sleepers_.load(memory_order_relaxed);
    }

#if AMT_MODEL_CHECK
    /// Model-litmus seam: drops the waker's fence so
    /// tests/model/test_model_park.cpp can prove the checker catches the
    /// lost wakeup it prevents.  Does not exist in normal builds.
    static inline bool model_drop_wake_fence = false;
#endif

private:
    bool sleeper_seen() {
#if AMT_MODEL_CHECK
        if (!model_drop_wake_fence) {
            amt::atomic_thread_fence(memory_order_seq_cst);
        }
#else
        amt::atomic_thread_fence(memory_order_seq_cst);
#endif
        return sleepers_.load(memory_order_relaxed) != 0;
    }

    atomic<std::uint32_t> epoch_{0};
    atomic<std::uint32_t> sleepers_{0};
};

}  // namespace amt

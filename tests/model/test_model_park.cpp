// Spin-then-park litmuses (amt/park.hpp): the parking primitive under the
// amt workers' idle loop and the ompsim team has no timed wakeup, so a lost
// wakeup is a hang, not a delay.  Under AMT_MODEL_CHECK the waiter parks at
// once and atomic<T>::wait/notify are schedule points whose waiters only
// wake on an eligible notify, so every lost wakeup the explored schedules
// allow reports as a deadlock.  The positive litmuses explore the real
// primitive exhaustively; the negative control drops the waker's seq_cst
// fence through the model_drop_wake_fence seam and demands the lost wakeup
// with a replayable interleaving.

#include <gtest/gtest.h>

#include <cstdint>

#include "amt/atomic.hpp"
#include "amt/model.hpp"
#include "amt/park.hpp"

namespace {

using amt::model::check;
using amt::model::model_assert;
using amt::model::options;
using amt::model::result;

/// Drops the park's waker fence for one scope, restoring it even when the
/// checked body aborts mid-execution.
struct drop_wake_fence_guard {
    drop_wake_fence_guard() { amt::park::model_drop_wake_fence = true; }
    ~drop_wake_fence_guard() { amt::park::model_drop_wake_fence = false; }
};

// One parker, one waker publishing a relaxed flag: the primitive's own
// fences must make either the parker see the flag or the waker see the
// sleeper, in every interleaving.
void parker_waker_body() {
    amt::park p;
    amt::atomic<int> flag{0};
    amt::model::thread waker([&] {
        flag.store(1, amt::memory_order_relaxed);
        p.wake_one();
    });
    p.wait_until([&] { return flag.load(amt::memory_order_relaxed) == 1; });
    waker.join();
    model_assert(p.sleepers() == 0, "sleeper count must drop on return");
}

TEST(ModelPark, ParkerWakerHasNoLostWakeup) {
    options o;
    o.quiet = true;
    const result r = check(o, parker_waker_body);
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete) << "state space should be within bounds";
    EXPECT_GT(r.executions, 1);
}

TEST(ModelPark, DroppedWakeFenceLosesTheWakeupAndReplays) {
    drop_wake_fence_guard drop;
    options o;
    o.quiet = true;
    const result r = check(o, parker_waker_body);
    ASSERT_TRUE(r.failed) << "without the waker's fence the parker's and "
                             "waker's loads may both miss";
    EXPECT_NE(r.reason.find("deadlock"), std::string::npos) << r.reason;
    EXPECT_NE(r.reason.find("parked in wait"), std::string::npos) << r.reason;
    EXPECT_NE(r.trace.find("stale"), std::string::npos)
        << "the counterexample hinges on a stale read:\n"
        << r.trace;
    ASSERT_EQ(r.replay.rfind("dfs:", 0), 0u) << r.replay;

    options replay_o;
    replay_o.quiet = true;
    replay_o.replay = r.replay.c_str();
    const result again = check(replay_o, parker_waker_body);
    ASSERT_TRUE(again.failed) << "replay token must reproduce the failure";
    EXPECT_EQ(again.reason, r.reason);
    EXPECT_EQ(again.executions, 1);
}

// Three threads exceed exhaustive DFS within test time (over 100000
// schedules, none failing), so the three-thread litmuses bound preemptions
// CHESS-style: every schedule with at most this many preemptions is
// explored.
constexpr int three_thread_preemptions = 2;

// Two parkers released by one wake_all after a shutdown-style flag: the
// shape of the team's barrier and of every destructor.
TEST(ModelPark, WakeAllReleasesEveryParker) {
    options o;
    o.quiet = true;
    o.max_preemptions = three_thread_preemptions;
    const result r = check(o, [] {
        amt::park p;
        amt::atomic<bool> stop{false};
        auto parker = [&] {
            p.wait_until([&] { return stop.load(amt::memory_order_acquire); });
        };
        amt::model::thread a(parker);
        amt::model::thread b(parker);
        stop.store(true, amt::memory_order_release);
        p.wake_all();
        a.join();
        b.join();
    });
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

// The scheduler's shape: two parkers each claim one posted item, and every
// post wakes at most one of them.  No item may be stranded with a parker
// asleep.
TEST(ModelPark, WakeOnePerPostStrandsNoItem) {
    options o;
    o.quiet = true;
    o.max_preemptions = three_thread_preemptions;
    const result r = check(o, [] {
        amt::park p;
        amt::atomic<int> items{0};
        auto parker = [&] {
            p.wait_until([&] {
                int n = items.load(amt::memory_order_relaxed);
                while (n > 0) {
                    if (items.compare_exchange_strong(
                            n, n - 1, amt::memory_order_acquire,
                            amt::memory_order_relaxed)) {
                        return true;
                    }
                }
                return false;
            });
        };
        amt::model::thread a(parker);
        amt::model::thread b(parker);
        for (int i = 0; i < 2; ++i) {
            items.fetch_add(1, amt::memory_order_release);
            p.wake_one();
        }
        a.join();
        b.join();
        model_assert(items.load(amt::memory_order_relaxed) == 0,
                     "every posted item must be claimed");
    });
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete) << "explored " << r.executions << " executions";
}

// Calibration of the checker's wait/notify semantics, and the reason the
// park bumps its epoch before every notify: a notify that does not follow
// a modification of the waited word cannot wake a waiter that already saw
// its value, so a shutdown by notify alone can hang.
TEST(ModelPark, NotifyWithoutModificationIsLost) {
    auto run = [](bool bump) {
        options o;
        o.quiet = true;
        return check(o, [bump] {
            amt::atomic<std::uint32_t> word{0};
            amt::atomic<bool> stop{false};
            amt::model::thread sleeper([&] {
                while (!stop.load(amt::memory_order_acquire)) {
                    word.wait(0, amt::memory_order_acquire);
                }
            });
            stop.store(true, amt::memory_order_release);
            if (bump) word.fetch_add(1, amt::memory_order_release);
            word.notify_all();
            sleeper.join();
        });
    };
    const result lost = run(/*bump=*/false);
    ASSERT_TRUE(lost.failed) << "a bare notify must be able to be lost";
    EXPECT_NE(lost.reason.find("deadlock"), std::string::npos)
        << lost.reason;
    const result bumped = run(/*bump=*/true);
    EXPECT_FALSE(bumped.failed) << bumped.reason << "\n" << bumped.trace;
    EXPECT_TRUE(bumped.complete);
}

}  // namespace

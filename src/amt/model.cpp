// amt/model.cpp — schedule controller for AMT_MODEL_CHECK builds (see
// amt/model.hpp for the user-facing docs).  Compiled empty in normal
// builds so the amt library's source list stays configuration-independent.

#include "amt/atomic.hpp"

#if AMT_MODEL_CHECK

#include "amt/model.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace amt::model {
namespace {

using detail::rmw_fn;

std::uint64_t splitmix64(std::uint64_t& s) {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct vclock {
    std::array<std::uint32_t, kMaxThreads> c{};
    void join(const vclock& o) {
        for (int i = 0; i < kMaxThreads; ++i) c[i] = std::max(c[i], o.c[i]);
    }
};

enum class op_kind : std::uint8_t {
    begin, load, store, rmw, cas, fence,
    mtx_lock, mtx_try_lock, mtx_unlock,
    cv_wait, cv_relock, cv_notify,
    atomic_wait, atomic_notify,
    spawn, join_, yield_,
};

struct op_desc {
    op_kind kind = op_kind::begin;
    const void* addr = nullptr;   // atomic var / mutex / cv
    const void* addr2 = nullptr;  // cv_wait: the mutex
    std::memory_order mo = std::memory_order_seq_cst;
    std::memory_order mo2 = std::memory_order_seq_cst;  // CAS failure order
    std::uint64_t init = 0;       // committed value at first sighting
    std::uint64_t operand = 0;    // store value / rmw operand
    std::uint64_t desired = 0;    // CAS desired
    std::uint64_t expected = 0;   // CAS expected
    rmw_fn fn = nullptr;
    int target = -1;              // join target tid / notify_all flag
};

struct store_rec {
    std::uint64_t bits = 0;
    int tid = -1;             // -1 = initial value (hb-before everything)
    std::uint32_t when = 0;   // storing thread's local clock at the store
    vclock msg;               // clock an acquiring reader joins
};

struct var_state {
    std::vector<store_rec> hist;
};

struct mutex_state {
    int holder = -1;
    vclock msg;  // accumulated release clock: lock() acquires it
};

struct cv_waiter {
    int tid = -1;
    const void* mtx = nullptr;
};

struct cv_state {
    std::vector<cv_waiter> waiters;  // FIFO
};

/// A thread blocked in atomic<T>::wait: `seen` indexes the store it
/// compared against; only a notify that happens after a newer store of the
/// same variable may unblock it ([atomics.wait] eligibility).
struct atomic_waiter {
    int tid = -1;
    std::uint32_t seen = 0;
};

enum class tstate : std::uint8_t {
    runnable, running, cv_waiting, atomic_waiting, done
};

struct per_thread {
    int tid = -1;
    tstate st = tstate::runnable;
    bool has_pending = false;
    op_desc pending{};
    bool granted = false;
    int read_choice = 0;  // offset from newest feasible store (0 = latest)
    int pri = 0;          // PCT priority
    // memory-model view
    vclock clk;
    vclock acq_pending;   // msgs from relaxed loads awaiting an acquire fence
    vclock rel_fence;     // clock snapshot at the last release fence
    bool has_rel_fence = false;
    std::unordered_map<const void*, std::uint32_t> floor;  // coherence floor
    // op results handed back to the shim
    std::uint64_t op_result = 0;
    bool op_flag = false;
    std::function<void()> fn;  // thread body, set before the OS thread starts
};

struct alt {
    int tid = 0;
    int choice = 0;
};

struct dfs_frame {
    std::vector<alt> alts;
    std::size_t cur = 0;
    std::array<bool, kMaxThreads> sleep{};  // sleep set at entry to this node
    op_desc chosen_op{};                    // op executed for alts[cur]
};

constexpr bool acquire_part(std::memory_order mo) {
    return mo == std::memory_order_acquire || mo == std::memory_order_consume ||
           mo == std::memory_order_acq_rel || mo == std::memory_order_seq_cst;
}
constexpr bool release_part(std::memory_order mo) {
    return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
           mo == std::memory_order_seq_cst;
}

const char* mo_name(std::memory_order mo) {
    switch (mo) {
        case std::memory_order_relaxed: return "relaxed";
        case std::memory_order_consume: return "consume";
        case std::memory_order_acquire: return "acquire";
        case std::memory_order_release: return "release";
        case std::memory_order_acq_rel: return "acq_rel";
        default: return "seq_cst";
    }
}

bool is_mem(op_kind k) {
    return k == op_kind::load || k == op_kind::store || k == op_kind::rmw ||
           k == op_kind::cas;
}
bool is_mutexish(op_kind k) {
    return k == op_kind::mtx_lock || k == op_kind::mtx_try_lock ||
           k == op_kind::mtx_unlock || k == op_kind::cv_relock;
}

/// Independence relation for sleep-set pruning: conservative — anything
/// structural (fences, sc ops, spawn/join, cv traffic) is dependent with
/// everything, so pruning can only drop genuinely commuting pairs.
bool independent(const op_desc& a, const op_desc& b) {
    if (a.kind == op_kind::yield_ || b.kind == op_kind::yield_) return true;
    auto structural = [](const op_desc& o) {
        return o.kind == op_kind::fence || o.kind == op_kind::begin ||
               o.kind == op_kind::spawn || o.kind == op_kind::join_ ||
               o.kind == op_kind::cv_wait || o.kind == op_kind::cv_notify ||
               o.kind == op_kind::atomic_wait ||
               o.kind == op_kind::atomic_notify;
    };
    if (structural(a) || structural(b)) return false;
    auto sc_op = [](const op_desc& o) {
        return is_mem(o.kind) &&
               (o.mo == std::memory_order_seq_cst ||
                (o.kind == op_kind::cas && o.mo2 == std::memory_order_seq_cst));
    };
    if (sc_op(a) && sc_op(b)) return false;  // both touch the SC order
    if (is_mem(a.kind) && is_mem(b.kind)) {
        if (a.addr != b.addr) return true;
        return a.kind == op_kind::load && b.kind == op_kind::load;
    }
    if (is_mutexish(a.kind) && is_mutexish(b.kind)) return a.addr != b.addr;
    return true;  // atomic vs mutex: distinct objects
}

struct controller;

thread_local controller* t_ctrl = nullptr;
thread_local per_thread* t_self = nullptr;

std::mutex g_check_mu;  // one model::check() at a time per process

struct controller {
    // ---- immutable per check() ----
    options opts;
    const std::function<void()>* body = nullptr;

    // ---- exploration state (survives across executions) ----
    std::vector<dfs_frame> stack;  // exhaustive DFS
    long executions = 0;
    std::vector<alt> forced;       // "dfs:" replay decisions
    bool dfs_replay = false;
    bool pct_mode = false;
    std::uint64_t pct_seed = 0;    // seed of the current iteration
    int last_len = 48;             // PCT change-point horizon

    // ---- per-execution state ----
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::unique_ptr<per_thread>> threads;
    std::unordered_map<const void*, var_state> vars;
    std::unordered_map<const void*, mutex_state> mutexes;
    std::unordered_map<const void*, cv_state> cvs;
    std::unordered_map<const void*, std::vector<atomic_waiter>> awaiters;
    std::unordered_map<const void*, std::string> names;  // kept across runs
    vclock sc_clock;
    std::vector<alt> taken;
    std::string trace;
    int step = 0;
    int live = 0;
    int last_granted = -1;
    int preemptions = 0;
    bool abort = false;
    bool finished = false;
    bool exec_failed = false;
    std::string fail_reason;
    std::uint64_t rng = 0;
    std::vector<int> change_points;
    int pct_low = -1;  // next demoted priority (counts down)

    // ---------------- naming / formatting ----------------

    std::string nm(const void* addr) {
        auto it = names.find(addr);
        if (it != names.end()) return it->second;
        char buf[32];
        std::snprintf(buf, sizeof buf, "@%p", addr);
        return buf;
    }

    void tline(int tid, const std::string& text) {
        char head[32];
        std::snprintf(head, sizeof head, "  #%-3d T%d ", step, tid);
        trace += head;
        trace += text;
        trace += '\n';
    }

    std::string describe(const per_thread& t) {
        if (t.st == tstate::cv_waiting)
            return "parked on cv " + nm_of_waiting_cv(t.tid);
        if (t.st == tstate::atomic_waiting)
            return "parked in wait on " + nm(t.pending.addr);
        if (!t.has_pending) return "running";
        const op_desc& o = t.pending;
        switch (o.kind) {
            case op_kind::mtx_lock: return "lock " + nm(o.addr);
            case op_kind::mtx_try_lock: return "try_lock " + nm(o.addr);
            case op_kind::mtx_unlock: return "unlock " + nm(o.addr);
            case op_kind::cv_relock:
                return "reacquire " + nm(o.addr) + " after cv wake";
            case op_kind::cv_wait: return "wait on cv " + nm(o.addr);
            case op_kind::cv_notify: return "notify cv " + nm(o.addr);
            case op_kind::atomic_wait: return "wait on " + nm(o.addr);
            case op_kind::atomic_notify: return "notify " + nm(o.addr);
            case op_kind::join_:
                return "join T" + std::to_string(o.target);
            case op_kind::load: return "load " + nm(o.addr);
            case op_kind::store: return "store " + nm(o.addr);
            case op_kind::rmw: return "rmw " + nm(o.addr);
            case op_kind::cas: return "cas " + nm(o.addr);
            case op_kind::fence: return "fence";
            case op_kind::begin: return "begin";
            case op_kind::spawn: return "spawn";
            case op_kind::yield_: return "yield";
        }
        return "?";
    }

    std::string nm_of_waiting_cv(int tid) {
        for (auto& [addr, st] : cvs)
            for (const cv_waiter& w : st.waiters)
                if (w.tid == tid) return nm(addr);
        return "?";
    }

    // ---------------- failure ----------------

    [[noreturn]] void fail(std::string reason) {
        exec_failed = true;
        fail_reason = std::move(reason);
        abort = true;
        cv.notify_all();
        throw execution_aborted{};
    }

    // ---------------- registration ----------------

    void ensure_var(const void* addr, std::uint64_t init) {
        auto [it, fresh] = vars.try_emplace(addr);
        if (fresh) it->second.hist.push_back(store_rec{init, -1, 0, {}});
    }

    int register_thread(const per_thread* parent) {
        const int tid = static_cast<int>(threads.size());
        if (tid >= kMaxThreads)
            fail("thread limit exceeded (kMaxThreads = " +
                 std::to_string(kMaxThreads) + ")");
        auto t = std::make_unique<per_thread>();
        t->tid = tid;
        t->st = tstate::runnable;
        t->has_pending = true;
        t->pending = op_desc{};  // begin
        if (parent != nullptr) t->clk = parent->clk;
        t->pri = pct_mode ? static_cast<int>(splitmix64(rng) % 100000) : 0;
        ++live;
        threads.push_back(std::move(t));
        return tid;
    }

    // ---------------- enabledness & read feasibility ----------------

    bool enabled(const per_thread& t) {
        if (t.st != tstate::runnable || !t.has_pending) return false;
        const op_desc& o = t.pending;
        switch (o.kind) {
            case op_kind::mtx_lock:
            case op_kind::cv_relock:
                return mutexes[o.addr].holder == -1;
            case op_kind::join_:
                return threads[static_cast<std::size_t>(o.target)]->st ==
                       tstate::done;
            default:
                return true;
        }
    }

    /// Oldest store index thread t may still read on var v: the newest of
    /// (its own coherence floor, the newest store it hb-knows).
    std::uint32_t read_floor(const per_thread& t, const var_state& v,
                             const void* addr) {
        std::uint32_t lo = 0;
        auto it = t.floor.find(addr);
        if (it != t.floor.end()) lo = it->second;
        for (std::size_t i = v.hist.size(); i-- > lo + 1;) {
            const store_rec& s = v.hist[i];
            const bool known = s.tid == -1 || s.tid == t.tid ||
                               t.clk.c[s.tid] >= s.when;
            if (known) {
                lo = std::max(lo, static_cast<std::uint32_t>(i));
                break;
            }
        }
        return lo;
    }

    int feasible_reads(const per_thread& t) {
        const op_desc& o = t.pending;
        if (o.kind != op_kind::load) return 1;
        if (o.mo == std::memory_order_seq_cst) return 1;
        const var_state& v = vars[o.addr];
        return static_cast<int>(v.hist.size() - read_floor(t, v, o.addr));
    }

    // ---------------- scheduling ----------------

    void wait_for_grant(std::unique_lock<std::mutex>& lk, per_thread& me) {
        cv.wait(lk, [&] { return abort || me.granted; });
        me.granted = false;
        if (abort) throw execution_aborted{};
    }

    std::vector<int> enabled_list() {
        std::vector<int> out;
        for (auto& t : threads)
            if (enabled(*t)) out.push_back(t->tid);
        return out;
    }

    void decide_and_grant(std::unique_lock<std::mutex>&) {
        if (abort) throw execution_aborted{};
        const std::vector<int> en = enabled_list();
        if (en.empty()) {
            if (live == 0) {
                finished = true;
                cv.notify_all();
                return;
            }
            std::string why = "deadlock:";
            for (auto& t : threads)
                if (t->st != tstate::done)
                    why += " [T" + std::to_string(t->tid) + " " +
                           describe(*t) + "]";
            fail(why);
        }
        if (static_cast<int>(taken.size()) >= opts.max_steps)
            fail("step limit exceeded (" + std::to_string(opts.max_steps) +
                 " schedule points) — possible livelock");

        const alt a = pct_mode ? choose_pct(en) : choose_dfs(en);
        if (last_granted >= 0 && a.tid != last_granted) {
            const per_thread& prev =
                *threads[static_cast<std::size_t>(last_granted)];
            if (enabled(prev)) ++preemptions;
        }
        taken.push_back(a);
        per_thread& t = *threads[static_cast<std::size_t>(a.tid)];
        t.granted = true;
        t.read_choice = a.choice;
        last_granted = a.tid;
        cv.notify_all();
    }

    alt choose_dfs(const std::vector<int>& en) {
        const std::size_t idx = taken.size();
        if (dfs_replay) {
            if (idx < forced.size()) {
                const alt f = forced[idx];
                per_thread* ft = nullptr;
                for (int tid : en)
                    if (tid == f.tid)
                        ft = threads[static_cast<std::size_t>(tid)].get();
                if (ft == nullptr || f.choice >= feasible_reads(*ft))
                    fail("replay diverged at step " + std::to_string(idx) +
                         " (code changed since the token was recorded?)");
                return f;
            }
            // Token exhausted: the recorded failure should already have
            // reproduced; run out the rest on the default schedule.
            return alt{en.front(),
                       0};
        }
        if (idx < stack.size()) {
            dfs_frame& f = stack[idx];
            const alt a = f.alts[f.cur];
            const bool ok =
                std::find(en.begin(), en.end(), a.tid) != en.end() &&
                a.choice <
                    feasible_reads(*threads[static_cast<std::size_t>(a.tid)]);
            if (!ok)
                fail("exploration diverged at step " + std::to_string(idx) +
                     " (body is not deterministic between executions)");
            f.chosen_op = threads[static_cast<std::size_t>(a.tid)]->pending;
            return a;
        }
        // New frontier node: build its sleep set from the parent, then its
        // alternative list (read choices expand per candidate thread).
        dfs_frame f;
        if (idx > 0) {
            const dfs_frame& p = stack[idx - 1];
            const int chosen = p.alts[p.cur].tid;
            std::array<bool, kMaxThreads> asleep{};
            for (const auto& t : threads) {
                const int u = t->tid;
                if (u == chosen || t->st == tstate::done || !t->has_pending)
                    continue;
                bool slept = u < kMaxThreads && p.sleep[static_cast<std::size_t>(u)];
                if (!slept)
                    for (std::size_t j = 0; j < p.cur && !slept; ++j)
                        slept = p.alts[j].tid == u;
                if (slept && independent(t->pending, p.chosen_op))
                    asleep[static_cast<std::size_t>(u)] = true;
            }
            f.sleep = asleep;
        }
        std::vector<int> cands;
        for (int tid : en)
            if (!f.sleep[static_cast<std::size_t>(tid)]) cands.push_back(tid);
        if (cands.empty()) cands.push_back(en.front());  // pruned: one path out
        if (opts.max_preemptions >= 0 && preemptions >= opts.max_preemptions &&
            last_granted >= 0) {
            const bool cur_ok =
                std::find(cands.begin(), cands.end(), last_granted) !=
                cands.end();
            if (cur_ok) cands.assign(1, last_granted);
        }
        for (int tid : cands) {
            const int n =
                feasible_reads(*threads[static_cast<std::size_t>(tid)]);
            for (int c = 0; c < n; ++c) f.alts.push_back(alt{tid, c});
        }
        f.cur = 0;
        f.chosen_op = threads[static_cast<std::size_t>(f.alts[0].tid)]->pending;
        stack.push_back(std::move(f));
        return stack.back().alts[0];
    }

    alt choose_pct(const std::vector<int>& en) {
        const int now = static_cast<int>(taken.size());
        if (last_granted >= 0 &&
            std::find(change_points.begin(), change_points.end(), now) !=
                change_points.end())
            threads[static_cast<std::size_t>(last_granted)]->pri = pct_low--;
        int best = en.front();
        for (int tid : en)
            if (threads[static_cast<std::size_t>(tid)]->pri >
                threads[static_cast<std::size_t>(best)]->pri)
                best = tid;
        per_thread& t = *threads[static_cast<std::size_t>(best)];
        const int n = feasible_reads(t);
        const int c = n > 1 ? static_cast<int>(splitmix64(rng) %
                                               static_cast<unsigned>(n))
                            : 0;
        return alt{best, c};
    }

    // ---------------- op semantics ----------------

    void perform(per_thread& me, const op_desc& o) {
        ++step;
        switch (o.kind) {
            case op_kind::begin:
                me.clk.c[me.tid] += 1;
                tline(me.tid, "begins");
                break;
            case op_kind::load: perform_load(me, o, me.read_choice); break;
            case op_kind::store: perform_store(me, o); break;
            case op_kind::rmw: perform_rmw(me, o); break;
            case op_kind::cas: perform_cas(me, o); break;
            case op_kind::fence: perform_fence(me, o); break;
            case op_kind::mtx_lock: {
                mutex_state& m = mutexes[o.addr];
                if (m.holder == me.tid) fail("recursive lock of " + nm(o.addr));
                me.clk.c[me.tid] += 1;
                me.clk.join(m.msg);
                m.holder = me.tid;
                tline(me.tid, "locks " + nm(o.addr));
                break;
            }
            case op_kind::mtx_try_lock: {
                mutex_state& m = mutexes[o.addr];
                me.clk.c[me.tid] += 1;
                if (m.holder == -1) {
                    me.clk.join(m.msg);
                    m.holder = me.tid;
                    me.op_flag = true;
                } else {
                    me.op_flag = false;
                }
                tline(me.tid, "try_lock " + nm(o.addr) +
                                  (me.op_flag ? " [ok]" : " [busy]"));
                break;
            }
            case op_kind::mtx_unlock: {
                mutex_state& m = mutexes[o.addr];
                if (m.holder != me.tid)
                    fail("unlock of " + nm(o.addr) + " not held by T" +
                         std::to_string(me.tid));
                me.clk.c[me.tid] += 1;
                m.msg.join(me.clk);
                m.holder = -1;
                tline(me.tid, "unlocks " + nm(o.addr));
                break;
            }
            case op_kind::cv_relock: {
                mutex_state& m = mutexes[o.addr];
                me.clk.c[me.tid] += 1;
                me.clk.join(m.msg);
                m.holder = me.tid;
                tline(me.tid, "wakes, reacquires " + nm(o.addr));
                break;
            }
            case op_kind::cv_notify: {
                cv_state& c = cvs[o.addr];
                me.clk.c[me.tid] += 1;
                const bool all = o.target != 0;
                const std::size_t n =
                    all ? c.waiters.size() : std::min<std::size_t>(1, c.waiters.size());
                for (std::size_t i = 0; i < n; ++i) {
                    const cv_waiter w = c.waiters[i];
                    per_thread& wt = *threads[static_cast<std::size_t>(w.tid)];
                    wt.st = tstate::runnable;
                    wt.has_pending = true;
                    wt.pending = op_desc{};
                    wt.pending.kind = op_kind::cv_relock;
                    wt.pending.addr = w.mtx;
                }
                c.waiters.erase(c.waiters.begin(),
                                c.waiters.begin() + static_cast<long>(n));
                tline(me.tid, (all ? "notify_all " : "notify_one ") +
                                  nm(o.addr) + " (wakes " +
                                  std::to_string(n) + ")");
                break;
            }
            case op_kind::spawn: {
                me.clk.c[me.tid] += 1;
                const int child = register_thread(&me);
                me.op_result = static_cast<std::uint64_t>(child);
                tline(me.tid, "spawns T" + std::to_string(child));
                break;
            }
            case op_kind::join_: {
                me.clk.c[me.tid] += 1;
                me.clk.join(
                    threads[static_cast<std::size_t>(o.target)]->clk);
                tline(me.tid, "joins T" + std::to_string(o.target));
                break;
            }
            case op_kind::yield_:
                me.clk.c[me.tid] += 1;
                tline(me.tid, "yields");
                break;
            case op_kind::atomic_notify: perform_atomic_notify(me, o); break;
            case op_kind::cv_wait:
            case op_kind::atomic_wait:
                break;  // handled by the parking paths in do_*_wait
        }
    }

    /// Unblocks the first (notify_one) or every (notify_all) waiter on the
    /// variable that is eligible: some store newer than the one it compared
    /// against happens before this notify.  Ineligible waiters stay parked,
    /// which is how a notify without a preceding modification is lost.
    void perform_atomic_notify(per_thread& me, const op_desc& o) {
        me.clk.c[me.tid] += 1;
        const bool all = o.target != 0;
        std::vector<atomic_waiter>& ws = awaiters[o.addr];
        const var_state& v = vars[o.addr];
        auto eligible = [&](const atomic_waiter& w) {
            for (std::size_t j = v.hist.size(); j-- > w.seen + 1;) {
                const store_rec& s = v.hist[j];
                if (s.tid == me.tid || me.clk.c[s.tid] >= s.when) return true;
            }
            return false;
        };
        int woken = 0;
        for (auto it = ws.begin(); it != ws.end();) {
            if ((all || woken == 0) && eligible(*it)) {
                per_thread& wt = *threads[static_cast<std::size_t>(it->tid)];
                wt.st = tstate::runnable;
                wt.has_pending = true;  // its atomic_wait op re-compares
                ++woken;
                it = ws.erase(it);
            } else {
                ++it;
            }
        }
        tline(me.tid, (all ? "notify_all " : "notify_one ") + nm(o.addr) +
                          " (wakes " + std::to_string(woken) + " of " +
                          std::to_string(woken + static_cast<int>(ws.size())) +
                          ")");
    }

    void perform_load(per_thread& me, const op_desc& o, int choice) {
        var_state& v = vars[o.addr];
        const std::uint32_t n = static_cast<std::uint32_t>(v.hist.size());
        const std::uint32_t lo = read_floor(me, v, o.addr);
        const int count =
            o.mo == std::memory_order_seq_cst ? 1 : static_cast<int>(n - lo);
        if (choice >= count)
            fail("internal: stale read choice out of range on " + nm(o.addr));
        const std::uint32_t idx = n - 1 - static_cast<std::uint32_t>(choice);
        const store_rec s = v.hist[idx];
        me.clk.c[me.tid] += 1;
        if (o.mo == std::memory_order_seq_cst) me.clk.join(sc_clock);
        if (acquire_part(o.mo)) me.clk.join(s.msg);
        else me.acq_pending.join(s.msg);
        if (o.mo == std::memory_order_seq_cst) sc_clock.join(me.clk);
        auto& fl = me.floor[o.addr];
        fl = std::max(fl, idx);
        me.op_result = s.bits;
        std::string line = "load  " + nm(o.addr) + " -> " +
                           std::to_string(s.bits) + " (" + mo_name(o.mo) + ")";
        if (idx + 1 < n)
            line += " [stale: " + std::to_string(n - 1 - idx) + " newer]";
        tline(me.tid, line);
    }

    void commit_store(per_thread& me, const op_desc& o, std::uint64_t bits,
                      const vclock* carried) {
        // Caller has already ticked the clock and done the acquire half.
        var_state& v = vars[o.addr];
        vclock msg;
        if (carried != nullptr) msg = *carried;  // release-sequence carry
        if (release_part(o.mo)) msg.join(me.clk);
        else if (me.has_rel_fence) msg.join(me.rel_fence);
        if (o.mo == std::memory_order_seq_cst) sc_clock.join(me.clk);
        v.hist.push_back(store_rec{bits, me.tid, me.clk.c[me.tid], msg});
        me.floor[o.addr] = static_cast<std::uint32_t>(v.hist.size() - 1);
    }

    void perform_store(per_thread& me, const op_desc& o) {
        me.clk.c[me.tid] += 1;
        if (o.mo == std::memory_order_seq_cst) me.clk.join(sc_clock);
        commit_store(me, o, o.operand, nullptr);
        tline(me.tid, "store " + nm(o.addr) + " = " +
                          std::to_string(o.operand) + " (" + mo_name(o.mo) +
                          ")");
    }

    void perform_rmw(per_thread& me, const op_desc& o) {
        var_state& v = vars[o.addr];
        const store_rec s = v.hist.back();  // RMWs read the newest store
        me.clk.c[me.tid] += 1;
        if (o.mo == std::memory_order_seq_cst) me.clk.join(sc_clock);
        if (acquire_part(o.mo)) me.clk.join(s.msg);
        else me.acq_pending.join(s.msg);
        const std::uint64_t nb = o.fn(s.bits, o.operand);
        commit_store(me, o, nb, &s.msg);
        me.op_result = s.bits;
        tline(me.tid, "rmw   " + nm(o.addr) + ": " + std::to_string(s.bits) +
                          " -> " + std::to_string(nb) + " (" + mo_name(o.mo) +
                          ")");
    }

    void perform_cas(per_thread& me, const op_desc& o) {
        var_state& v = vars[o.addr];
        const store_rec s = v.hist.back();
        me.clk.c[me.tid] += 1;
        if (s.bits == o.expected) {
            if (o.mo == std::memory_order_seq_cst) me.clk.join(sc_clock);
            if (acquire_part(o.mo)) me.clk.join(s.msg);
            else me.acq_pending.join(s.msg);
            commit_store(me, o, o.desired, &s.msg);
            me.op_flag = true;
            me.op_result = s.bits;
            tline(me.tid, "cas   " + nm(o.addr) + ": " +
                              std::to_string(s.bits) + " -> " +
                              std::to_string(o.desired) + " (" +
                              mo_name(o.mo) + ") [ok]");
        } else {
            if (o.mo2 == std::memory_order_seq_cst) me.clk.join(sc_clock);
            if (acquire_part(o.mo2)) me.clk.join(s.msg);
            else me.acq_pending.join(s.msg);
            if (o.mo2 == std::memory_order_seq_cst) sc_clock.join(me.clk);
            auto& fl = me.floor[o.addr];
            fl = std::max(fl,
                          static_cast<std::uint32_t>(v.hist.size() - 1));
            me.op_flag = false;
            me.op_result = s.bits;
            tline(me.tid, "cas   " + nm(o.addr) + ": expected " +
                              std::to_string(o.expected) + ", found " +
                              std::to_string(s.bits) + " (" +
                              mo_name(o.mo2) + ") [fail]");
        }
    }

    void perform_fence(per_thread& me, const op_desc& o) {
        me.clk.c[me.tid] += 1;
        if (acquire_part(o.mo)) me.clk.join(me.acq_pending);
        if (o.mo == std::memory_order_seq_cst) me.clk.join(sc_clock);
        if (release_part(o.mo)) {
            me.rel_fence = me.clk;
            me.has_rel_fence = true;
        }
        if (o.mo == std::memory_order_seq_cst) sc_clock.join(me.clk);
        tline(me.tid, std::string("fence (") + mo_name(o.mo) + ")");
    }

    // ---------------- the schedule point ----------------

    /// Post-abort semantics: threads of a failed execution finish by
    /// unwinding, and destructors on that path (unique_lock, ws_deque's
    /// drain) still reach the shim.  Those calls must not throw and must
    /// not schedule — they fall through against the committed mirror
    /// values so teardown terminates.  Spawning, however, is always plain
    /// user code and must stop the thread, so it rethrows.
    std::uint64_t passthrough(per_thread& me, const op_desc& op) {
        switch (op.kind) {
            case op_kind::spawn:
                throw execution_aborted{};
            case op_kind::cas:
                me.op_flag = op.init == op.expected;
                me.op_result = op.init;
                break;
            case op_kind::mtx_try_lock:
                me.op_flag = true;  // let teardown proceed
                break;
            default:
                me.op_result = op.init;
                break;
        }
        return me.op_result;
    }

    std::uint64_t schedule_and_perform(op_desc op) {
        per_thread& me = *t_self;
        std::unique_lock<std::mutex> lk(mu);
        if (abort) return passthrough(me, op);
        if (is_mem(op.kind)) ensure_var(op.addr, op.init);
        if (is_mutexish(op.kind)) mutexes.try_emplace(op.addr);
        if (op.kind == op_kind::cv_notify) cvs.try_emplace(op.addr);
        if (op.kind == op_kind::atomic_notify) {
            ensure_var(op.addr, op.init);
            awaiters.try_emplace(op.addr);
        }
        me.pending = op;
        me.has_pending = true;
        me.st = tstate::runnable;
        decide_and_grant(lk);
        wait_for_grant(lk, me);
        me.st = tstate::running;
        me.has_pending = false;
        perform(me, op);
        return me.op_result;
    }

    void do_cv_wait(const void* cvp, const void* m) {
        per_thread& me = *t_self;
        std::unique_lock<std::mutex> lk(mu);
        if (abort) throw execution_aborted{};
        cvs.try_emplace(cvp);
        mutexes.try_emplace(m);
        op_desc op;
        op.kind = op_kind::cv_wait;
        op.addr = cvp;
        op.addr2 = m;
        me.pending = op;
        me.has_pending = true;
        me.st = tstate::runnable;
        decide_and_grant(lk);
        wait_for_grant(lk, me);
        me.has_pending = false;
        // Stage 1: atomically release the mutex and park on the cv.
        ++step;
        mutex_state& ms = mutexes[m];
        if (ms.holder != me.tid)
            fail("cv wait on " + nm(cvp) + " without holding " + nm(m));
        me.clk.c[me.tid] += 1;
        ms.msg.join(me.clk);
        ms.holder = -1;
        me.st = tstate::cv_waiting;
        cvs[cvp].waiters.push_back(cv_waiter{me.tid, m});
        tline(me.tid, "waits on " + nm(cvp) + " (releases " + nm(m) + ")");
        decide_and_grant(lk);
        // Stage 2: a notify re-arms us with a cv_relock pending op; being
        // granted implies the mutex was free.
        wait_for_grant(lk, me);
        me.st = tstate::running;
        me.has_pending = false;
        ++step;
        perform(me, op_desc{op_kind::cv_relock, m});
    }

    /// atomic<T>::wait: one schedule point compares the newest store with
    /// `old`; on a match the thread parks (not enabled) until an eligible
    /// notify re-arms the same op, which compares again.
    void do_atomic_wait(const void* addr, std::uint64_t init,
                        std::uint64_t old, std::memory_order mo) {
        per_thread& me = *t_self;
        std::unique_lock<std::mutex> lk(mu);
        if (abort) throw execution_aborted{};
        ensure_var(addr, init);
        awaiters.try_emplace(addr);
        op_desc op;
        op.kind = op_kind::atomic_wait;
        op.addr = addr;
        op.mo = mo;
        op.operand = old;
        me.pending = op;
        me.has_pending = true;
        me.st = tstate::runnable;
        for (;;) {
            decide_and_grant(lk);
            wait_for_grant(lk, me);
            me.st = tstate::running;
            me.has_pending = false;
            ++step;
            var_state& v = vars[addr];
            const auto idx = static_cast<std::uint32_t>(v.hist.size() - 1);
            const store_rec s = v.hist[idx];
            me.clk.c[me.tid] += 1;
            if (mo == std::memory_order_seq_cst) me.clk.join(sc_clock);
            if (acquire_part(mo)) me.clk.join(s.msg);
            else me.acq_pending.join(s.msg);
            if (mo == std::memory_order_seq_cst) sc_clock.join(me.clk);
            auto& fl = me.floor[addr];
            fl = std::max(fl, idx);
            if (s.bits != old) {
                tline(me.tid, "wait  " + nm(addr) + ": " +
                                  std::to_string(s.bits) + " != " +
                                  std::to_string(old) + ", returns");
                return;
            }
            me.st = tstate::atomic_waiting;
            me.pending = op;
            awaiters[addr].push_back(atomic_waiter{me.tid, idx});
            tline(me.tid, "wait  " + nm(addr) + ": still " +
                              std::to_string(old) + ", parks");
        }
    }

    // ---------------- execution driver ----------------

    void reset_exec() {
        threads.clear();
        vars.clear();
        mutexes.clear();
        cvs.clear();
        awaiters.clear();
        sc_clock = vclock{};
        taken.clear();
        trace.clear();
        step = 0;
        live = 0;
        last_granted = -1;
        preemptions = 0;
        abort = false;
        finished = false;
        exec_failed = false;
        fail_reason.clear();
        if (pct_mode) {
            rng = pct_seed;
            change_points.clear();
            const int horizon = std::max(last_len, 16);
            for (int i = 0; i + 1 < opts.pct_depth; ++i)
                change_points.push_back(
                    1 + static_cast<int>(splitmix64(rng) %
                                         static_cast<unsigned>(horizon)));
            pct_low = -1;
        }
    }

    static void trampoline(controller* c, int tid) {
        t_ctrl = c;
        bool aborted = false;
        per_thread* me = nullptr;
        {
            std::unique_lock<std::mutex> lk(c->mu);
            me = c->threads[static_cast<std::size_t>(tid)].get();
            t_self = me;
            try {
                c->wait_for_grant(lk, *me);
                me->st = tstate::running;
                me->has_pending = false;
                c->perform(*me, op_desc{});  // begin
            } catch (execution_aborted&) {
                aborted = true;
            }
        }
        if (!aborted) {
            try {
                me->fn();
            } catch (execution_aborted&) {
                aborted = true;
            }
        }
        std::unique_lock<std::mutex> lk(c->mu);
        me->st = tstate::done;
        me->has_pending = false;
        me->clk.c[me->tid] += 1;
        c->live -= 1;
        if (!c->abort) c->tline(tid, "exits");
        if (c->live == 0) {
            c->finished = true;
            c->cv.notify_all();
        } else if (!c->abort) {
            try {
                c->decide_and_grant(lk);
            } catch (execution_aborted&) {
            }
        }
        t_self = nullptr;
        t_ctrl = nullptr;
    }

    void run_one() {
        reset_exec();
        {
            std::unique_lock<std::mutex> lk(mu);
            register_thread(nullptr);  // tid 0 = the body
            threads[0]->fn = *body;
        }
        std::thread os0(&controller::trampoline, this, 0);
        {
            std::unique_lock<std::mutex> lk(mu);
            try {
                decide_and_grant(lk);  // grant T0's begin
            } catch (execution_aborted&) {
            }
            cv.wait(lk, [&] { return finished; });
        }
        os0.join();
        last_len = std::max(8, static_cast<int>(taken.size()));
    }

    void backtrack() {
        while (!stack.empty() &&
               stack.back().cur + 1 >= stack.back().alts.size())
            stack.pop_back();
        if (!stack.empty()) stack.back().cur += 1;
    }

    std::string make_token() const {
        if (pct_mode) return "pct:" + std::to_string(pct_seed);
        std::string t = "dfs:";
        for (std::size_t i = 0; i < taken.size(); ++i) {
            if (i != 0) t += ',';
            t += std::to_string(taken[i].tid) + "." +
                 std::to_string(taken[i].choice);
        }
        return t;
    }

    result finish_failed() {
        result r;
        r.failed = true;
        r.executions = executions;
        r.reason = fail_reason;
        r.trace = trace;
        r.replay = make_token();
        r.seed = pct_mode ? pct_seed : 0;
        if (!opts.quiet) {
            std::fprintf(stderr,
                         "amt::model FAILURE after %ld execution(s): %s\n"
                         "%s  replay token: %s\n",
                         executions, r.reason.c_str(), r.trace.c_str(),
                         r.replay.c_str());
        }
        return r;
    }

    result run() {
        if (opts.replay != nullptr) return run_replay();
        if (opts.mode == options::mode_t::random) {
            pct_mode = true;
            std::uint64_t s = opts.seed;
            for (int i = 0; i < opts.iterations; ++i) {
                pct_seed = splitmix64(s);
                run_one();
                ++executions;
                if (exec_failed) return finish_failed();
            }
            result r;
            r.executions = executions;
            return r;
        }
        for (;;) {
            run_one();
            ++executions;
            if (exec_failed) return finish_failed();
            backtrack();
            if (stack.empty()) {
                result r;
                r.complete = true;
                r.executions = executions;
                return r;
            }
            if (executions >= opts.max_executions) {
                result r;
                r.executions = executions;
                return r;
            }
        }
    }

    result run_replay() {
        const char* tok = opts.replay;
        if (std::strncmp(tok, "pct:", 4) == 0) {
            pct_mode = true;
            pct_seed = std::strtoull(tok + 4, nullptr, 10);
            run_one();
            ++executions;
            if (exec_failed) return finish_failed();
        } else if (std::strncmp(tok, "dfs:", 4) == 0) {
            dfs_replay = true;
            const char* p = tok + 4;
            while (*p != '\0') {
                char* end = nullptr;
                const long tid = std::strtol(p, &end, 10);
                long choice = 0;
                if (*end == '.') choice = std::strtol(end + 1, &end, 10);
                forced.push_back(
                    alt{static_cast<int>(tid), static_cast<int>(choice)});
                p = (*end == ',') ? end + 1 : end;
            }
            run_one();
            ++executions;
            if (exec_failed) return finish_failed();
        } else {
            result r;
            r.failed = true;
            r.reason = std::string("unrecognized replay token: ") + tok;
            return r;
        }
        result r;  // replay ran clean — report "did not reproduce"
        r.executions = executions;
        return r;
    }
};

}  // namespace

// ======================= public API =======================

result check(const options& opts, std::function<void()> body) {
    std::lock_guard<std::mutex> g(g_check_mu);
    controller c;
    c.opts = opts;
    c.body = &body;
    return c.run();
}

void model_assert(bool cond, const char* msg) {
    if (cond) return;
    if (t_self == nullptr) {
        std::fprintf(stderr, "amt::model_assert outside execution: %s\n", msg);
        std::abort();
    }
    controller& c = *t_ctrl;
    std::unique_lock<std::mutex> lk(c.mu);
    if (c.abort) throw execution_aborted{};
    c.tline(t_self->tid, std::string("ASSERT FAILS: ") + msg);
    c.fail(std::string("assertion failed: ") + msg);
}

bool active() noexcept { return t_self != nullptr; }

void yield() {
    if (t_self == nullptr) return;
    op_desc o;
    o.kind = op_kind::yield_;
    t_ctrl->schedule_and_perform(o);
}

void set_name(const void* addr, const char* nm) {
    if (t_self == nullptr) return;
    std::lock_guard<std::mutex> lk(t_ctrl->mu);
    t_ctrl->names[addr] = nm;
}

// ======================= model::thread =======================

thread::thread(std::function<void()> fn) {
    if (t_self == nullptr) {
        std::fprintf(stderr,
                     "amt::model::thread spawned outside model::check()\n");
        std::abort();
    }
    controller* c = t_ctrl;
    op_desc o;
    o.kind = op_kind::spawn;
    tid_ = static_cast<int>(c->schedule_and_perform(o));
    // Only this thread runs until its next schedule point, so the child
    // cannot execute before its body is installed below — and even if its
    // begin grant already landed, the trampoline's wait predicate sees it.
    {
        std::lock_guard<std::mutex> lk(c->mu);
        c->threads[static_cast<std::size_t>(tid_)]->fn = std::move(fn);
    }
    os_ = std::thread(&controller::trampoline, c, tid_);
}

thread::thread(thread&& other) noexcept
    : os_(std::move(other.os_)),
      tid_(other.tid_),
      model_joined_(other.model_joined_) {
    other.tid_ = -1;
    other.model_joined_ = true;
}

thread& thread::operator=(thread&& other) noexcept {
    if (this != &other) {
        if (os_.joinable()) os_.join();
        os_ = std::move(other.os_);
        tid_ = other.tid_;
        model_joined_ = other.model_joined_;
        other.tid_ = -1;
        other.model_joined_ = true;
    }
    return *this;
}

thread::~thread() {
    // Normal executions must model-join first; aborted executions unwind
    // through here, and the OS join below drains the child (it wakes on
    // the abort broadcast and exits).
    if (os_.joinable()) os_.join();
}

void thread::join() {
    op_desc o;
    o.kind = op_kind::join_;
    o.target = tid_;
    t_ctrl->schedule_and_perform(o);  // enabled only once the target is done
    model_joined_ = true;
    if (os_.joinable()) os_.join();
}

// ======================= shim hooks =======================

namespace detail {

bool in_execution() noexcept { return t_self != nullptr; }

std::uint64_t on_load(const void* addr, std::uint64_t init, memory_order mo) {
    op_desc o;
    o.kind = op_kind::load;
    o.addr = addr;
    o.mo = mo;
    o.init = init;
    return t_ctrl->schedule_and_perform(o);
}

void on_store(const void* addr, std::uint64_t init, std::uint64_t bits,
              memory_order mo) {
    op_desc o;
    o.kind = op_kind::store;
    o.addr = addr;
    o.mo = mo;
    o.init = init;
    o.operand = bits;
    t_ctrl->schedule_and_perform(o);
}

std::uint64_t on_rmw(const void* addr, std::uint64_t init, rmw_fn f,
                     std::uint64_t operand, memory_order mo) {
    op_desc o;
    o.kind = op_kind::rmw;
    o.addr = addr;
    o.mo = mo;
    o.init = init;
    o.operand = operand;
    o.fn = f;
    return t_ctrl->schedule_and_perform(o);
}

bool on_cas(const void* addr, std::uint64_t init, std::uint64_t& expected,
            std::uint64_t desired, memory_order success,
            memory_order failure) {
    op_desc o;
    o.kind = op_kind::cas;
    o.addr = addr;
    o.mo = success;
    o.mo2 = failure;
    o.init = init;
    o.desired = desired;
    o.expected = expected;
    const std::uint64_t found = t_ctrl->schedule_and_perform(o);
    const bool ok = t_self->op_flag;
    if (!ok) expected = found;
    return ok;
}

void on_fence(memory_order mo) {
    op_desc o;
    o.kind = op_kind::fence;
    o.mo = mo;
    t_ctrl->schedule_and_perform(o);
}

void on_mutex_lock(const void* m) {
    op_desc o;
    o.kind = op_kind::mtx_lock;
    o.addr = m;
    t_ctrl->schedule_and_perform(o);
}

bool on_mutex_try_lock(const void* m) {
    op_desc o;
    o.kind = op_kind::mtx_try_lock;
    o.addr = m;
    t_ctrl->schedule_and_perform(o);
    return t_self->op_flag;
}

void on_mutex_unlock(const void* m) {
    op_desc o;
    o.kind = op_kind::mtx_unlock;
    o.addr = m;
    try {
        t_ctrl->schedule_and_perform(o);
    } catch (execution_aborted&) {
        // Reached while unwinding an aborted execution (unique_lock
        // destructors): swallow — mutual exclusion is moot past abort, and
        // a throw here would escape a destructor.
    }
}

void on_cv_wait(const void* cvp, const void* m) { t_ctrl->do_cv_wait(cvp, m); }

void on_cv_notify(const void* cvp, bool all) {
    op_desc o;
    o.kind = op_kind::cv_notify;
    o.addr = cvp;
    o.target = all ? 1 : 0;
    try {
        t_ctrl->schedule_and_perform(o);
    } catch (execution_aborted&) {
        // Like unlock: notify may run from cleanup paths during abort.
    }
}

void on_atomic_wait(const void* addr, std::uint64_t init, std::uint64_t old,
                    memory_order mo) {
    t_ctrl->do_atomic_wait(addr, init, old, mo);
}

void on_atomic_notify(const void* addr, std::uint64_t init, bool all) {
    op_desc o;
    o.kind = op_kind::atomic_notify;
    o.addr = addr;
    o.init = init;
    o.target = all ? 1 : 0;
    try {
        t_ctrl->schedule_and_perform(o);
    } catch (execution_aborted&) {
        // Like cv notify: may run from cleanup paths during abort.
    }
}

}  // namespace detail
}  // namespace amt::model

#endif  // AMT_MODEL_CHECK

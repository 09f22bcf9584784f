// amt/scheduler.hpp
//
// The amt work-stealing task scheduler, modelled after HPX's default
// "priority local" scheduling policy (without priorities, which the paper
// explicitly does not use): every worker owns a private Chase-Lev deque and
// services it LIFO; idle workers steal FIFO from random victims, falling
// back to a global injection queue that receives tasks posted from
// non-worker threads.
//
// Lifetime model: a `runtime` is an ordinary object.  Constructing one
// registers it as the *active* runtime (an ambient pointer used by the free
// functions amt::async / amt::post); destroying it waits for the workers to
// drain and unregisters it.  Benchmarks that sweep thread counts simply
// construct one runtime per configuration.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "amt/atomic.hpp"
#include "amt/config.hpp"
#include "amt/counters.hpp"
#include "amt/deque.hpp"
#include "amt/park.hpp"
#include "amt/task.hpp"

namespace amt {

struct runtime_options {
    /// Number of OS worker threads.  0 selects hardware_concurrency().
    std::size_t num_workers = 0;

    /// Record per-task productive time (needed for counters_snapshot::
    /// productive_ratio, i.e. the paper's Figure 11).  Costs two steady_clock
    /// reads per task; disable for task-spawn microbenchmarks.
    bool enable_timing = true;

    /// Locality-domain width for hierarchical work stealing: workers are
    /// grouped into consecutive domains of this many workers, and an idle
    /// worker sweeps same-domain victims before falling back to a sweep of
    /// the remaining workers (the NUMA-aware victim policy of HPX-style
    /// runtimes, scaled down to one process).  0 = auto: domains of 4 when
    /// more than 4 workers exist, one flat domain otherwise.
    std::size_t steal_domain_size = 0;
};

/// Enumerates steal victims for a thief at `self` among `n` workers grouped
/// into consecutive locality domains of `domain_size`: every same-domain
/// victim first (one rotated sweep starting at `rot_same`), then every
/// worker outside the thief's domain (rotated by `rot_cross`).  `self >= n`
/// means an external thread: no home domain, everything is a cross-domain
/// victim.  `visit(victim, same_domain)` returns true to stop the sweep (a
/// steal succeeded).  Exposed as a pure function so the victim order is
/// unit-testable; allocation-free by construction.
template <class Visit>
void for_each_steal_victim(std::size_t self, std::size_t n,
                           std::size_t domain_size, std::uint64_t rot_same,
                           std::uint64_t rot_cross, Visit&& visit) {
    if (n <= 1) return;
    const std::size_t ds = domain_size == 0 ? n : domain_size;
    const std::size_t dom_begin = self < n ? (self / ds) * ds : n;
    const std::size_t dom_end =
        dom_begin + ds < n ? dom_begin + ds : n;
    const std::size_t dn = dom_end > dom_begin ? dom_end - dom_begin : 0;
    if (dn > 1) {
        const std::size_t start =
            dom_begin + static_cast<std::size_t>(rot_same % dn);
        for (std::size_t k = 0; k < dn; ++k) {
            std::size_t v = start + k;
            if (v >= dom_end) v -= dn;
            if (v == self) continue;
            if (visit(v, true)) return;
        }
    }
    const std::size_t cn = n - dn;
    if (cn == 0) return;
    // The cross-domain victims are [0, dom_begin) ++ [dom_end, n); index
    // that virtual sequence with a rotated counter.
    const std::size_t start = static_cast<std::size_t>(rot_cross % cn);
    for (std::size_t k = 0; k < cn; ++k) {
        std::size_t j = start + k;
        if (j >= cn) j -= cn;
        const std::size_t v = j < dom_begin ? j : j + dn;
        if (visit(v, false)) return;
    }
}

class runtime {
public:
    explicit runtime(runtime_options opts);
    explicit runtime(std::size_t num_workers)
        : runtime(runtime_options{.num_workers = num_workers}) {}
    runtime() : runtime(runtime_options{}) {}

    runtime(const runtime&) = delete;
    runtime& operator=(const runtime&) = delete;

    /// Blocks until all queued tasks have run, then joins the workers.
    ~runtime();

    /// Submits a task for asynchronous execution.  Callable from any thread.
    /// From a worker thread the task goes to that worker's own deque (the
    /// cheap, common path for continuations); otherwise to the global
    /// injection queue.
    void post(task_ptr t);

    /// Submits a task the scheduler does NOT own: it is executed but never
    /// deleted.  This is the replay fast path for compiled-graph nodes —
    /// recycled task objects whose storage belongs to their graph.  The
    /// caller must keep `t` alive until it has executed.  Allocation-free:
    /// from a worker thread the task lands in that worker's deque; from any
    /// other thread it is linked into the global injection queue through
    /// its intrusive `qnext` field.
    void post_raw(task_base* t);

    template <class F>
    void post_fn(F&& f) {
        post(make_task(std::forward<F>(f)));
    }

    [[nodiscard]] std::size_t num_workers() const noexcept {
        return workers_.size();
    }

    /// Resolved locality-domain width used for hierarchical stealing.
    [[nodiscard]] std::size_t steal_domain_size() const noexcept {
        return domain_size_;
    }

    /// Workers currently parked (or re-checking before they sleep).
    [[nodiscard]] std::size_t parked_workers() const {
        return park_.sleepers();
    }

    /// True when the calling thread is one of this runtime's workers.
    [[nodiscard]] bool on_worker_thread() const noexcept;

    /// Executes at most one pending task on the calling thread.  Used by
    /// futures for cooperative waiting on worker threads.  Returns false if
    /// no runnable task was found.
    bool try_run_one();

    /// Aggregated counters since construction or the last reset_counters().
    [[nodiscard]] counters_snapshot snapshot_counters() const;
    void reset_counters();

    /// The most recently constructed, still-alive runtime, or nullptr.
    /// Free functions (amt::async etc.) target this runtime.
    static runtime* active() noexcept;

private:
    struct worker;

    void worker_loop(worker& self);
    task_base* find_work(worker& self);
    task_base* try_pop_global();
    /// Hierarchical steal sweep (same-domain victims first).  On success
    /// `same_domain_out` (when non-null) reports which tier the victim was
    /// found in, for the steals_same_domain / steals_cross_domain counters.
    task_base* try_steal(std::size_t self_index, std::uint64_t& rng_state,
                         bool* same_domain_out = nullptr);
    /// Runs one task.  `stamp` (optional, tracing only) carries the
    /// already-read task start time in and the task end time out, so the
    /// worker loop's gap spans and the task span share exact endpoints
    /// (no unattributed slivers between consecutive trace spans).
    void execute(task_base* raw, worker_counters& c,
                 clock::time_point* stamp = nullptr);
    void notify_workers();

    struct alignas(cache_line_size) worker {
        explicit worker(std::size_t idx) : index(idx) {}
        std::size_t index;
        ws_deque queue;
        worker_counters counters;
        std::uint64_t rng_state = 0;
        std::thread thread;
    };

    runtime_options opts_;
    std::vector<std::unique_ptr<worker>> workers_;
    std::size_t domain_size_ = 1;  ///< resolved steal_domain_size

    // Global injection queue for tasks posted from non-worker threads:
    // an intrusive FIFO linked through task_base::qnext, so posting
    // allocates nothing (a plain container would allocate bookkeeping
    // nodes and break the zero-allocation replay guarantee).  On its own
    // cache line: every post and every idle poll writes the lock, and
    // sharing a line with the read-mostly fields above (workers_, opts_)
    // slowed the foreach driver by a third at s=12.
    alignas(cache_line_size) std::mutex global_mu_;
    task_base* global_head_ = nullptr;
    task_base* global_tail_ = nullptr;

    // Idle workers sleep in `park_` (amt/park.hpp): a post wakes one only
    // when the sleeper count is non-zero, so posting to a busy runtime
    // costs one fence and one load.
    amt::park park_;
    amt::atomic<bool> shutdown_{false};

    // Counters not owned by a specific worker: tasks executed cooperatively
    // by external threads inside future waits.
    worker_counters external_counters_;
    std::mutex external_mu_;

    clock::time_point start_time_;

    static amt::atomic<runtime*> active_;
};

/// RAII helper: true while the calling thread is inside runtime::execute,
/// used to distinguish "worker executing a task" from "worker in scheduler
/// bookkeeping" for assertions and for nested-blocking decisions.
struct current_worker_info {
    runtime* rt = nullptr;
    std::size_t index = 0;
};

/// Worker context of the calling thread (nullptr runtime if not a worker).
const current_worker_info& current_worker() noexcept;

}  // namespace amt

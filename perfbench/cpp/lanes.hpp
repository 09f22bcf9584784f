// perfbench/cpp/lanes.hpp
//
// A lane is one LULESH driver with its own problem state.  The benchmark
// runs a workload's lanes interleaved in blocks inside one process (see
// main.cpp), so a slow phase of the host hits every lane alike, and times
// each cycle through the layers' public entry points:
//
//   plain lanes      lulesh::run_simulation / dist::run_simulation capped
//                    at one more cycle — one call per timed cycle;
//   resilient lanes  one lulesh::run_resilient call per block, over the
//                    next 32 cycles of the solve, with a checkpoint every
//                    cycle; a cycle is the interval between two calls of
//                    its snapshot_hook.
//
// The amt lanes (taskgraph, foreach, dist) share one amt::runtime: amt
// continuations are posted to the process's active runtime, so lanes on
// separate runtimes would mix their pools.  Only one lane runs at a time.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "checks.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/driver.hpp"
#include "ompsim/ompsim.hpp"

namespace perfbench {

/// Everything a lane measured; the counter fields are deltas summed over
/// the lane's blocks (zero for lanes without that runtime).
struct lane_stats {
    std::vector<double> cycle_s;  ///< wall time of each timed cycle
    double block_wall_s = 0.0;    ///< wall time of all its blocks
    std::uint64_t block_cycles = 0;  ///< cycles run inside blocks
    std::uint64_t attempted = 0;  ///< cycles run (timed and untimed)
    std::uint64_t failed = 0;     ///< cycles that ended in an error status

    amt::counters_snapshot amt;        ///< tasks, steals, productive time
    std::uint64_t team_productive_ns = 0;  ///< ompsim loop-body time

    // Resilient lanes: the checkpoint layer as seen through snapshot_hook.
    std::uint64_t solves = 0;
    std::uint64_t records = 0;
    std::uint64_t record_bytes = 0;
    std::uint64_t rollbacks = 0;
};

/// Shared pools and run-wide settings handed to every lane.
struct lane_env {
    lulesh::options problem;
    lulesh::partition_sizes parts;
    std::size_t workers = 4;
    amt::runtime* rt = nullptr;
    ompsim::team* team = nullptr;
    bool traced = false;
    bool resolve = false;   ///< restart a lane when it completes a solve
    int fault_cycle = -1;   ///< resilient taskgraph: injected fault cycle
};

/// What the blocks report back to the workload.  A cycle that ends in an
/// error status is a failed operation, not a failed check: it is counted
/// in lane_stats::failed and described in failed_ops.
struct run_ledger {
    check_log log;
    agreement agree;
    std::vector<solve_record> solves;
    std::vector<std::string> failed_ops;
};

class lane {
public:
    lane(std::string name, const lane_env& env)
        : name_(std::move(name)), env_(env) {}
    lane(const lane&) = delete;
    lane& operator=(const lane&) = delete;
    virtual ~lane() = default;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// The lane's first cycle, run during set-up: it sizes scratch, starts
    /// pools and compiles the task graph.  Not timed as a cycle.
    virtual void warm_up(run_ledger& ledger) = 0;

    /// One block: timed cycles until `block_s` of wall time has passed, or
    /// one run_resilient segment for a resilient lane.  Counter deltas and wall time
    /// are added to stats().
    void run_block(double block_s, run_ledger& ledger);

    /// Runs untimed cycles until the current solve reaches stoptime.
    virtual void finish_solve(run_ledger& ledger) = 0;

    /// False once the lane can run no further block (a failed cycle, or a
    /// completed solve when lanes do not restart).
    [[nodiscard]] bool active() const noexcept { return active_; }

    /// The lane's single-domain state, or null (the dist lane).
    [[nodiscard]] virtual const lulesh::domain* single_domain() const {
        return nullptr;
    }
    [[nodiscard]] virtual lulesh::taskgraph_driver* taskgraph() {
        return nullptr;
    }

    [[nodiscard]] const lane_stats& stats() const noexcept { return stats_; }

    /// Copies of the last committed checkpoint chain (traced resilient
    /// lanes only), for timing a rollback's replay.
    [[nodiscard]] const std::vector<std::string>& chain() const noexcept {
        return chain_;
    }

protected:
    virtual void block(double block_s, run_ledger& ledger) = 0;

    std::string name_;
    const lane_env& env_;
    lane_stats stats_;
    bool active_ = true;
    bool amt_ = false;   ///< runs on env.rt: counter deltas per block
    bool team_ = false;  ///< runs on env.team: timing deltas per block
    std::vector<std::string> chain_;
};

/// Lanes record a state digest for the agreement check at every cycle
/// that is a multiple of this (and at the end of every solve).
inline constexpr int digest_every = 4;

/// Lane names in report order; `dist` is the 4-slab cluster.
inline const std::vector<std::string>& lane_names() {
    static const std::vector<std::string> n = {
        "serial", "openmp", "parallel_for", "foreach", "taskgraph", "dist"};
    return n;
}

/// Builds a plain lane running `name`'s driver.
std::unique_ptr<lane> make_plain_lane(const std::string& name,
                                      const lane_env& env);

/// Builds a resilient lane ("taskgraph" or "openmp") that runs its solves
/// in checkpoint-every-cycle run_resilient segments; the taskgraph lane
/// takes one injected task fault per solve at env.fault_cycle.
std::unique_ptr<lane> make_resilient_lane(const std::string& name,
                                          const lane_env& env);

}  // namespace perfbench

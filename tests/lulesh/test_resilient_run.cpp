// Tests for the checkpoint-based recovery loop: transient injected faults
// recover bitwise identically to a fault-free run (for every fork-join
// driver and the task-graph driver), persistent faults exhaust the
// bounded retry budget with the mapped status, deterministic physics
// failures halve dt immediately, and the optional file mirror follows the
// atomic write protocol.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "amt/amt.hpp"
#include "amt/fault.hpp"
#include "core/driver_foreach.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/checkpoint.hpp"
#include "lulesh/driver.hpp"
#ifdef LULESH_AMT_HAVE_OPENMP
#include "lulesh/driver_openmp.hpp"
#endif
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/resilient_run.hpp"
#include "lulesh/validate.hpp"
#include "ompsim/ompsim.hpp"

namespace {

using lulesh::domain;
using lulesh::options;
using lulesh::resilience_options;

options small_opts() {
    options o;
    o.size = 6;
    o.num_regions = 5;
    return o;
}

struct fault_guard {
    ~fault_guard() {
        amt::fault::disarm();
        amt::fault::reset_stats();
        amt::fault::set_epoch(-1);
    }
};

std::string serialized(const domain& d) {
    std::ostringstream os;
    lulesh::save_checkpoint(d, os);
    return os.str();
}

bool file_exists(const std::string& path) {
    return std::ifstream(path).good();
}

TEST(ResilientRun, FaultFreeRunMatchesPlainLoop) {
    domain plain(small_opts());
    lulesh::serial_driver d1;
    const auto base = lulesh::run_simulation(plain, d1, 20);

    domain res(small_opts());
    lulesh::serial_driver d2;
    resilience_options opt;
    opt.checkpoint_every = 5;
    const auto rr = lulesh::run_resilient(res, d2, opt, 20);

    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.rollbacks, 0);
    EXPECT_EQ(rr.dt_halvings, 0);
    EXPECT_GT(rr.checkpoints, 0);
    EXPECT_EQ(rr.result.cycles, base.cycles);
    EXPECT_EQ(serialized(res), serialized(plain));
}

/// A fork-join driver together with the two-thread pool it runs on.
struct fork_join_setup {
    std::unique_ptr<ompsim::team> team;
    std::unique_ptr<amt::runtime> rt;
    std::unique_ptr<lulesh::driver> drv;

    explicit fork_join_setup(const std::string& which) {
        if (which == "parallel_for") {
            team = std::make_unique<ompsim::team>(2);
            drv = std::make_unique<lulesh::parallel_for_driver>(*team);
        } else if (which == "foreach") {
            rt = std::make_unique<amt::runtime>(2);
            drv = std::make_unique<lulesh::foreach_driver>(*rt);
        } else {
#ifdef LULESH_AMT_HAVE_OPENMP
            drv = std::make_unique<lulesh::openmp_driver>(2);
#endif
        }
    }
};

/// One transient fault injected into cycle 6's advance must roll back once
/// and recover the fault-free run bitwise.
void expect_transient_fault_recovers_bitwise(const std::string& which) {
    fault_guard guard;
    // Fault-free baseline.
    domain plain(small_opts());
    {
        fork_join_setup fj(which);
        lulesh::run_simulation(plain, *fj.drv, 20);
    }

    // Same run with one transient fault injected into cycle 6's advance.
    amt::fault::plan p;
    p.site = "advance";
    p.epoch = 6;
    p.max_injections = 1;
    amt::fault::arm(p);

    domain res(small_opts());
    {
        fork_join_setup fj(which);
        resilience_options opt;
        opt.checkpoint_every = 4;
        const auto rr = lulesh::run_resilient(res, *fj.drv, opt, 20);
        EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
        EXPECT_EQ(rr.rollbacks, 1);
        EXPECT_EQ(rr.dt_halvings, 0);  // transient: first retry keeps dt
        EXPECT_EQ(rr.result.final_origin_energy, plain.e[0]);
    }
    amt::fault::disarm();

    EXPECT_EQ(amt::fault::snapshot().injections, 1u);
    EXPECT_EQ(lulesh::max_field_difference(plain, res), 0.0);
    EXPECT_EQ(serialized(res), serialized(plain));
}

TEST(ResilientRun, TransientFaultRecoversBitwiseParallelFor) {
    expect_transient_fault_recovers_bitwise("parallel_for");
}

// The other fork-join drivers share the skeleton's "advance" fault site.
const char* const fork_join_drivers[] = {
    "foreach",
#ifdef LULESH_AMT_HAVE_OPENMP
    "openmp",
#endif
};

class ResilientForkJoin : public ::testing::TestWithParam<const char*> {};

TEST_P(ResilientForkJoin, TransientFaultRecoversBitwise) {
    expect_transient_fault_recovers_bitwise(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    ForkJoinDrivers, ResilientForkJoin, ::testing::ValuesIn(fork_join_drivers),
    [](const ::testing::TestParamInfo<const char*>& pinfo) {
        return std::string(pinfo.param);
    });

TEST(ResilientRun, TransientFaultRecoversBitwiseTaskGraph) {
    fault_guard guard;
    domain plain(small_opts());
    {
        amt::runtime rt(2);
        lulesh::taskgraph_driver drv(rt, {256, 256});
        lulesh::run_simulation(plain, drv, 20);
    }

    // Kill one wave task mid-graph: the stop token cancels the rest of the
    // iteration, the barrier surfaces the injected fault, and the loop
    // rolls back.
    amt::fault::plan p;
    p.site = "region_eos";
    p.epoch = 7;
    p.max_injections = 1;
    amt::fault::arm(p);

    domain res(small_opts());
    {
        amt::runtime rt(2);
        lulesh::taskgraph_driver drv(rt, {256, 256});
        resilience_options opt;
        opt.checkpoint_every = 4;
        const auto rr = lulesh::run_resilient(res, drv, opt, 20);
        EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
        EXPECT_EQ(rr.rollbacks, 1);
        EXPECT_EQ(rr.dt_halvings, 0);
    }
    amt::fault::disarm();

    EXPECT_EQ(amt::fault::snapshot().injections, 1u);
    EXPECT_EQ(lulesh::max_field_difference(plain, res), 0.0);
    EXPECT_EQ(serialized(res), serialized(plain));
}

TEST(ResilientRun, PersistentFaultExhaustsBoundedRetries) {
    fault_guard guard;
    amt::fault::plan p;
    p.site = "advance";
    p.epoch = 5;
    p.max_injections = -1;  // cycle 5 fails every time it is replayed
    amt::fault::arm(p);

    domain res(small_opts());
    lulesh::serial_driver drv;
    resilience_options opt;
    opt.checkpoint_every = 2;
    opt.max_retries = 2;
    const auto rr = lulesh::run_resilient(res, drv, opt, 20);
    amt::fault::disarm();

    EXPECT_EQ(rr.result.run_status, lulesh::status::task_fault);
    EXPECT_EQ(lulesh::exit_code_for(rr.result.run_status), 4);
    EXPECT_EQ(rr.rollbacks, opt.max_retries + 1);
    EXPECT_EQ(rr.dt_halvings, 1);  // first retry keeps dt, second halves
    EXPECT_NE(rr.result.error_message.find("cycle 5"), std::string::npos);
    // The domain is left at the last good snapshot, not mid-cycle.
    EXPECT_LT(res.cycle, 5);
    EXPECT_EQ(res.cycle % opt.checkpoint_every, 0);
}

TEST(ResilientRun, SimulationErrorHalvesDtImmediately) {
    // A deterministic physics failure (not an injected fault) must not be
    // replayed at the same dt — the loop halves before the first retry.
    struct flaky_driver final : lulesh::driver {
        lulesh::serial_driver inner;
        int calls = 0;
        [[nodiscard]] std::string name() const override { return "flaky"; }
        void advance(domain& d) override {
            if (++calls == 3) {
                throw lulesh::simulation_error(lulesh::status::volume_error,
                                               "synthetic volume error");
            }
            inner.advance(d);
        }
    };

    domain res(small_opts());
    flaky_driver drv;
    resilience_options opt;
    opt.checkpoint_every = 1;
    const auto rr = lulesh::run_resilient(res, drv, opt, 12);

    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.rollbacks, 1);
    EXPECT_EQ(rr.dt_halvings, 1);
    EXPECT_EQ(rr.result.cycles, 12);
}

TEST(ResilientRun, NonRetryableExceptionsPropagate) {
    struct broken_driver final : lulesh::driver {
        [[nodiscard]] std::string name() const override { return "broken"; }
        void advance(domain&) override {
            throw std::logic_error("not a fault, a bug");
        }
    };
    domain res(small_opts());
    broken_driver drv;
    EXPECT_THROW(lulesh::run_resilient(res, drv, {}, 5), std::logic_error);
}

TEST(ResilientRun, CorruptSnapshotFallsBackToThePreviousOne) {
    fault_guard guard;
    // Fault-free baseline for the bitwise comparison.
    domain plain(small_opts());
    lulesh::serial_driver d0;
    lulesh::run_simulation(plain, d0, 20);

    // One transient fault at cycle 6 forces a rollback; the snapshot the
    // rollback wants (taken at cycle 4 — the 3rd hook call after entry and
    // cycle 2) has a flipped payload byte, so its checksum fails and the
    // loop must fall back to the cycle-2 snapshot and replay from there.
    amt::fault::plan p;
    p.site = "advance";
    p.epoch = 6;
    p.max_injections = 1;
    amt::fault::arm(p);

    domain res(small_opts());
    lulesh::serial_driver drv;
    resilience_options opt;
    opt.checkpoint_every = 2;
    int snaps = 0;
    opt.snapshot_hook = [&snaps](std::string& bytes) {
        if (++snaps == 3) bytes[bytes.size() - 9] ^= 0x10;
    };
    const auto rr = lulesh::run_resilient(res, drv, opt, 20);
    amt::fault::disarm();

    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.rollbacks, 1);
    EXPECT_EQ(rr.snapshot_fallbacks, 1);
    EXPECT_EQ(rr.dt_halvings, 0);  // transient: the replay keeps dt
    // The longer replay (from cycle 2 instead of 4) is still bitwise exact.
    EXPECT_EQ(lulesh::max_field_difference(plain, res), 0.0);
    EXPECT_EQ(serialized(res), serialized(plain));
}

TEST(ResilientRun, BothSnapshotsCorruptPropagatesCheckpointError) {
    fault_guard guard;
    amt::fault::plan p;
    p.site = "advance";
    p.epoch = 6;
    p.max_injections = 1;
    amt::fault::arm(p);

    domain res(small_opts());
    lulesh::serial_driver drv;
    resilience_options opt;
    opt.checkpoint_every = 2;
    opt.snapshot_hook = [](std::string& bytes) {
        bytes[bytes.size() - 9] ^= 0x10;  // corrupt *every* snapshot
    };
    EXPECT_THROW(lulesh::run_resilient(res, drv, opt, 20),
                 lulesh::checkpoint_error);
    amt::fault::disarm();
}

TEST(ResilientRun, FileMirrorIsAtomicAndLoadable) {
    const std::string path = "/tmp/lulesh_resilient_mirror.ckpt";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());

    domain res(small_opts());
    lulesh::serial_driver drv;
    resilience_options opt;
    opt.checkpoint_every = 4;
    opt.checkpoint_path = path;
    const auto rr = lulesh::run_resilient(res, drv, opt, 10);

    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_GT(rr.checkpoints, 0);
    EXPECT_TRUE(file_exists(path));
    EXPECT_FALSE(file_exists(path + ".tmp"));  // rename, never a torn file

    domain restored(small_opts());
    lulesh::load_checkpoint_file(restored, path);
    EXPECT_GT(restored.cycle, 0);
    EXPECT_EQ(restored.cycle % opt.checkpoint_every, 0);

    std::remove(path.c_str());
}

}  // namespace

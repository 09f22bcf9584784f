// Integration tests: complete Sedov runs to the physical stop time across
// all drivers, golden-value regression, and the utilization counters that
// feed the Figure 11 benchmark.

#include <gtest/gtest.h>

#include "amt/amt.hpp"
#include "core/driver_foreach.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/validate.hpp"
#include "ompsim/ompsim.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;

options opts(index_t size, index_t regions = 11) {
    options o;
    o.size = size;
    o.num_regions = regions;
    return o;
}

TEST(FullRun, SerialSedovRunsToCompletion) {
    domain d(opts(8));
    lulesh::serial_driver drv;
    const auto result = lulesh::run_simulation(d, drv);
    EXPECT_EQ(result.run_status, lulesh::status::ok);
    EXPECT_GE(result.final_time, d.stoptime - 1e-15);
    EXPECT_GT(result.cycles, 50);
    const auto rep = lulesh::check_energy_symmetry(d);
    EXPECT_LT(rep.max_rel_diff, 1e-7);
}

TEST(FullRun, GoldenRegressionSize8) {
    // Golden values recorded from the serial driver of this implementation
    // (they guard against unintended physics changes, not against the
    // upstream reference, whose region PRNG differs).  The energy tolerance
    // covers compiler/arch FP variation only.
    constexpr int golden_cycles = 163;
    constexpr double golden_energy = 17881.82072589545;
    domain d(opts(8));
    lulesh::serial_driver drv;
    const auto result = lulesh::run_simulation(d, drv);
    EXPECT_EQ(result.run_status, lulesh::status::ok);
    EXPECT_EQ(result.cycles, golden_cycles);
    EXPECT_NEAR(result.final_origin_energy, golden_energy,
                1e-12 * golden_energy);
}

TEST(FullRun, AllDriversAgreeOnCompleteRun) {
    const options o = opts(6);
    double energies[4];
    int cycles[4];
    {
        domain d(o);
        lulesh::serial_driver drv;
        const auto r = lulesh::run_simulation(d, drv);
        energies[0] = r.final_origin_energy;
        cycles[0] = r.cycles;
    }
    {
        domain d(o);
        ompsim::team team(3);
        lulesh::parallel_for_driver drv(team);
        const auto r = lulesh::run_simulation(d, drv);
        energies[1] = r.final_origin_energy;
        cycles[1] = r.cycles;
    }
    {
        domain d(o);
        amt::runtime rt(3);
        lulesh::taskgraph_driver drv(rt, {48, 48});
        const auto r = lulesh::run_simulation(d, drv);
        energies[2] = r.final_origin_energy;
        cycles[2] = r.cycles;
    }
    {
        domain d(o);
        amt::runtime rt(3);
        lulesh::foreach_driver drv(rt);
        const auto r = lulesh::run_simulation(d, drv);
        energies[3] = r.final_origin_energy;
        cycles[3] = r.cycles;
    }
    for (int i = 1; i < 4; ++i) {
        EXPECT_EQ(energies[i], energies[0]) << "driver " << i;
        EXPECT_EQ(cycles[i], cycles[0]) << "driver " << i;
    }
}

TEST(FullRun, CycleCountGrowsWithProblemSize) {
    // Finer meshes need more, smaller time steps (Courant).
    int cycles_small = 0;
    int cycles_large = 0;
    {
        domain d(opts(4));
        lulesh::serial_driver drv;
        cycles_small = lulesh::run_simulation(d, drv).cycles;
    }
    {
        domain d(opts(8));
        lulesh::serial_driver drv;
        cycles_large = lulesh::run_simulation(d, drv).cycles;
    }
    EXPECT_GT(cycles_large, cycles_small);
}

TEST(Utilization, OmpsimTimingPopulatedDuringRun) {
    domain d(opts(8));
    ompsim::team team(2);
    lulesh::parallel_for_driver drv(team);
    team.reset_timing();
    lulesh::run_simulation(d, drv, 20);
    const auto t = team.snapshot_timing();
    EXPECT_GT(t.productive_ns, 0u);
    EXPECT_GT(t.region_wall_ns, 0u);
    EXPECT_GT(t.regions_entered, 20u * 20u);  // many loops per iteration
    const double ratio = t.productive_ratio();
    EXPECT_GT(ratio, 0.0);
    EXPECT_LE(ratio, 1.0 + 1e-9);
}

TEST(Utilization, AmtCountersPopulatedDuringRun) {
    domain d(opts(8));
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {64, 64});
    rt.reset_counters();
    lulesh::run_simulation(d, drv, 20);
    const auto c = rt.snapshot_counters();
    EXPECT_GT(c.tasks_executed, 100u);
    EXPECT_GT(c.productive_ns, 0u);
    const double ratio = c.productive_ratio();
    EXPECT_GT(ratio, 0.0);
    EXPECT_LE(ratio, 1.0 + 1e-9);
}

TEST(Utilization, MoreRegionsMeansMoreBaselineLoops) {
    // The Figure 10 mechanism: region count multiplies the number of
    // barrier-terminated loops in the baseline.
    ompsim::timing_snapshot t11;
    ompsim::timing_snapshot t21;
    {
        domain d(opts(6, 11));
        ompsim::team team(2);
        lulesh::parallel_for_driver drv(team);
        lulesh::run_simulation(d, drv, 10);
        t11 = team.snapshot_timing();
    }
    {
        domain d(opts(6, 21));
        ompsim::team team(2);
        lulesh::parallel_for_driver drv(team);
        lulesh::run_simulation(d, drv, 10);
        t21 = team.snapshot_timing();
    }
    EXPECT_GT(t21.regions_entered, t11.regions_entered);
}

TEST(Utilization, TaskCountStaysSimilarAcrossRegionCounts) {
    // The paper's observation: the task-graph task count is set by the
    // partition size, not the region count.
    std::size_t tasks11 = 0;
    std::size_t tasks21 = 0;
    {
        domain d(opts(6, 11));
        amt::runtime rt(2);
        lulesh::taskgraph_driver drv(rt, {64, 64});
        lulesh::run_simulation(d, drv, 2);
        tasks11 = drv.tasks_last_iteration();
    }
    {
        domain d(opts(6, 21));
        amt::runtime rt(2);
        lulesh::taskgraph_driver drv(rt, {64, 64});
        lulesh::run_simulation(d, drv, 2);
        tasks21 = drv.tasks_last_iteration();
    }
    // Within 25% of each other (chunk rounding per region adds a few).
    EXPECT_LT(tasks21, tasks11 + tasks11 / 4 + 16);
    EXPECT_GT(tasks21 + tasks21 / 4 + 16, tasks11);
}

}  // namespace

// Real-OpenMP driver specifics and its bitwise equivalence with serial (and
// so with the ompsim driver) at 1, 2 and 4 threads.  Its volume-error path,
// its many-region equivalence and its fault recovery are covered by the
// shared driver suites (test_drivers.cpp, test_resilient_run.cpp).  This
// test file is only built when the toolchain provides OpenMP.

#include <gtest/gtest.h>

#include "lulesh/driver.hpp"
#include "lulesh/driver_openmp.hpp"
#include "lulesh/validate.hpp"

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

TEST(OpenMPDriver, ReportsNameAndThreads) {
    lulesh::openmp_driver drv(3);
    EXPECT_EQ(drv.name(), "openmp");
    EXPECT_EQ(drv.num_threads(), 3u);
}

TEST(OpenMPDriver, DefaultThreadCountIsPositive) {
    lulesh::openmp_driver drv;
    EXPECT_GE(drv.num_threads(), 1u);
}

class OpenMPEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OpenMPEquivalence, BitwiseIdenticalToSerial) {
    const std::size_t threads = GetParam();
    const options o = opts(8);
    domain reference(o);
    {
        lulesh::serial_driver drv;
        lulesh::run_simulation(reference, drv, 40);
    }
    domain candidate(o);
    {
        lulesh::openmp_driver drv(threads);
        lulesh::run_simulation(candidate, drv, 40);
    }
    EXPECT_EQ(lulesh::max_field_difference(reference, candidate), 0.0)
        << "openmp driver with " << threads << " threads diverged";
    EXPECT_EQ(reference.cycle, candidate.cycle);
    EXPECT_EQ(reference.time_, candidate.time_);
    EXPECT_EQ(reference.deltatime, candidate.deltatime);
    EXPECT_EQ(reference.dtcourant, candidate.dtcourant);
    EXPECT_EQ(reference.dthydro, candidate.dthydro);
}

INSTANTIATE_TEST_SUITE_P(Threads, OpenMPEquivalence,
                         ::testing::Values(1, 2, 4));

TEST(OpenMPDriver, FullRunCompletes) {
    domain d(opts(6));
    lulesh::openmp_driver drv(2);
    const auto result = lulesh::run_simulation(d, drv);
    EXPECT_EQ(result.run_status, lulesh::status::ok);
    EXPECT_GE(result.final_time, d.stoptime - 1e-15);
}

}  // namespace

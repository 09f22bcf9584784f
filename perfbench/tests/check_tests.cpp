// perfbench/tests/check_tests.cpp — negative controls for the benchmark's
// checks: each check passes on a correct state and fails when one bit of
// one field is flipped (or, for the solve checks, when a count is wrong).
// Built and run by `python3 perfbench/run.py --self-test`.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "checks.hpp"
#include "core/driver_taskgraph.hpp"
#include "dist/driver_dist.hpp"
#include "lulesh/driver.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond) ++failures;
}

void flip_bit(double& v, int bit) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    u ^= std::uint64_t{1} << bit;
    std::memcpy(&v, &u, sizeof u);
}

using perfbench::check_log;
using perfbench::solve_record;

lulesh::options small_problem() {
    lulesh::options o;
    o.size = 8;
    o.num_regions = 11;
    return o;
}

/// Runs the serial driver `cycles` cycles on a fresh small domain.
lulesh::domain evolved(int cycles) {
    lulesh::domain d(small_problem());
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, cycles);
    return d;
}

void digest_detects_every_field() {
    const lulesh::domain ref = evolved(16);
    const std::uint32_t want = perfbench::state_digest(ref);
    using field_ptr = std::vector<lulesh::real_t> lulesh::domain::*;
    const field_ptr fields[] = {
        &lulesh::domain::x, &lulesh::domain::y,  &lulesh::domain::z,
        &lulesh::domain::xd, &lulesh::domain::yd, &lulesh::domain::zd,
        &lulesh::domain::e, &lulesh::domain::p,  &lulesh::domain::q,
        &lulesh::domain::v, &lulesh::domain::ss};
    bool all = true;
    for (field_ptr f : fields) {
        lulesh::domain d = ref;
        flip_bit((d.*f)[(d.*f).size() / 2], 0);
        all = all && perfbench::state_digest(d) != want;
    }
    expect(all, "digest changes when the lowest bit of any state field flips");
    lulesh::domain d = ref;
    flip_bit(d.deltatime, 0);
    expect(perfbench::state_digest(d) != want,
           "digest changes when a bit of dt flips");
}

void lanes_agree_and_flip_breaks_agreement() {
    // Same problem on the serial driver, the task graph and a 4-slab
    // cluster: bitwise-equal states, so equal digests.
    const lulesh::domain serial = evolved(16);
    amt::runtime rt(2);
    lulesh::domain tgd(small_problem());
    lulesh::taskgraph_driver tg(rt, lulesh::partition_sizes::tuned_for(8));
    lulesh::run_simulation(tgd, tg, 16);
    lulesh::dist::cluster c(small_problem(), 4);
    lulesh::dist::dist_driver dd(rt, lulesh::partition_sizes::tuned_for(8));
    lulesh::dist::run_simulation(c, dd, 16);

    check_log log;
    perfbench::agreement agree;
    agree.record("serial", 16, perfbench::state_digest(serial), log);
    agree.record("taskgraph", 16, perfbench::state_digest(tgd), log);
    agree.record("dist", 16, perfbench::state_digest(c), log);
    agree.require_common("serial", {"serial", "taskgraph", "dist"}, log);
    expect(log.ok() && agree.comparisons() == 2,
           "serial, taskgraph and dist lanes agree bitwise at cycle 16");

    flip_bit(tgd.e[7], 0);
    check_log bad;
    agree.record("taskgraph", 16, perfbench::state_digest(tgd), bad);
    expect(!bad.ok(), "agreement fails when one bit of e flips in one lane");

    flip_bit(c.slab(2).xd[c.slab(2).nodes_per_plane() + 3], 0);
    check_log bad_dist;
    agree.record("dist", 16, perfbench::state_digest(c), bad_dist);
    expect(!bad_dist.ok(),
           "agreement fails when one bit of xd flips in one slab");

    check_log lonely;
    agree.record("foreach", 32, 1234, lonely);
    agree.require_common("serial", {"serial", "foreach"}, lonely);
    expect(!lonely.ok(), "a lane sharing no cycle with serial is reported");
}

void solve_cycles_must_agree() {
    check_log ok;
    perfbench::check_solve_cycles(
        {{"serial", 297, 0, 1, 0}, {"taskgraph", 297, 0, 1, 0}}, ok);
    expect(ok.ok(), "equal solve cycle counts pass");
    check_log bad;
    perfbench::check_solve_cycles(
        {{"serial", 297, 0, 1, 0}, {"taskgraph", 296, 0, 1, 0}}, bad);
    expect(!bad.ok(), "a solve with another cycle count fails");
}

void upstream_anchor() {
    check_log ok;
    perfbench::check_upstream_anchor({"taskgraph", 932, 2.0250746e5, 0, 0}, ok);
    expect(ok.ok(), "932 cycles and 2.025075e+05 pass the s=30 anchor");
    check_log cyc;
    perfbench::check_upstream_anchor({"taskgraph", 931, 2.0250746e5, 0, 0},
                                     cyc);
    expect(!cyc.ok(), "a wrong s=30 cycle count fails the anchor");
    double energy = 2.0250746e5;
    flip_bit(energy, 40);
    check_log en;
    perfbench::check_upstream_anchor({"taskgraph", 932, energy, 0, 0}, en);
    expect(!en.ok(), "a flipped bit in the final energy fails the anchor");
}

void symmetry() {
    lulesh::domain d = evolved(40);
    check_log ok;
    perfbench::check_symmetry(d, "serial", ok);
    expect(ok.ok(), "an evolved Sedov state is symmetric");
    // Element (i=1, j=0, k=0): its mirror (0, 1, 0) keeps the old value.
    flip_bit(d.e[1], 51);
    check_log bad;
    perfbench::check_symmetry(d, "serial", bad);
    expect(!bad.ok(), "symmetry fails when one bit of e flips");
}

void recovery() {
    const solve_record clean{"openmp", 575, 1.0, 42, 0};
    check_log ok;
    perfbench::check_recovery({"taskgraph", 575, 1.0, 42, 1}, clean, 1, ok);
    expect(ok.ok(), "one rollback ending bitwise equal passes");
    check_log none;
    perfbench::check_recovery({"taskgraph", 575, 1.0, 42, 0}, clean, 1, none);
    expect(!none.ok(), "a solve without the rollback fails");
    check_log diverged;
    perfbench::check_recovery({"taskgraph", 575, 1.0, 42 ^ 1, 1}, clean, 1,
                              diverged);
    expect(!diverged.ok(), "a recovered solve one bit off fails");
}

}  // namespace

int main() {
    digest_detects_every_field();
    lanes_agree_and_flip_breaks_agreement();
    solve_cycles_must_agree();
    upstream_anchor();
    symmetry();
    recovery();
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

// perfbench/cpp/checks.hpp
//
// The benchmark's correctness checks, kept free of timing and lane
// scheduling so the negative-control tests (tests/check_tests.cpp) can feed
// them corrupted states directly:
//
//   * state digests: a CRC-32C over every field that carries state across
//     cycles (the checkpoint fields x, y, z, xd, yd, zd, e, p, q, v, ss) plus
//     the time-control scalars.  A single-domain lane and a 4-slab cluster
//     hash the same global stream (slab node planes shared with the slab
//     below are skipped), so equal digests mean bitwise-equal states.  A CRC
//     detects every single-bit flip.
//   * agreement: digests keyed by solve-local cycle; every lane that reaches
//     a keyed cycle must match what the first lane recorded there, and every
//     lane must share at least one keyed cycle with the reference lane.
//   * solve checks: every completed solve takes the same number of cycles;
//     the s=30 anchor (published LULESH 2.0 output); energy symmetry; one
//     rollback per fault-injected resilient solve, ending bitwise equal to
//     the fault-free solve.

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dist/cluster.hpp"
#include "lulesh/domain.hpp"

namespace perfbench {

/// Collects check failures; a run is correct when none were logged.
class check_log {
public:
    void fail(std::string what) { failures_.push_back(std::move(what)); }
    [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
    [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
        return failures_;
    }

private:
    std::vector<std::string> failures_;
};

[[nodiscard]] std::uint32_t state_digest(const lulesh::domain& d);
[[nodiscard]] std::uint32_t state_digest(const lulesh::dist::cluster& c);

/// Cross-lane bitwise agreement over digests keyed by solve-local cycle.
class agreement {
public:
    /// Compares `digest` with the first digest recorded at `cycle` by any
    /// lane (or any earlier solve of the same lane); logs a mismatch.
    void record(const std::string& lane, int cycle, std::uint32_t digest,
                check_log& log);

    /// Logs every lane in `lanes` that shares no recorded cycle with `ref`.
    void require_common(const std::string& ref,
                        const std::vector<std::string>& lanes,
                        check_log& log) const;

    /// Recorded (lane, cycle) pairs compared against a first record.
    [[nodiscard]] std::uint64_t comparisons() const noexcept {
        return comparisons_;
    }

private:
    struct first_record {
        std::string lane;
        std::uint32_t digest = 0;
    };
    std::map<int, first_record> by_cycle_;
    std::map<std::string, std::set<int>> cycles_of_;
    std::uint64_t comparisons_ = 0;
};

/// One completed solve (stoptime reached) of one lane.
struct solve_record {
    std::string lane;
    int cycles = 0;
    double origin_energy = 0.0;
    std::uint32_t final_digest = 0;
    int rollbacks = 0;
};

/// Every completed solve takes the same number of cycles.
void check_solve_cycles(const std::vector<solve_record>& solves,
                        check_log& log);

/// The published LULESH 2.0 output for `-s 30 -r 11`: 932 cycles and a
/// final origin energy that prints as 2.025075e+05.
void check_upstream_anchor(const solve_record& s, check_log& log);

/// check_energy_symmetry's max relative difference stays within
/// symmetry_max_rel (measured near 1e-12).
inline constexpr double symmetry_max_rel = 1e-8;
void check_symmetry(const lulesh::domain& d, const std::string& lane,
                    check_log& log);

/// A fault-injected resilient solve rolled back exactly `rollbacks` times
/// and ended bitwise equal to the fault-free reference solve.
void check_recovery(const solve_record& faulted, const solve_record& clean,
                    int rollbacks, check_log& log);

}  // namespace perfbench

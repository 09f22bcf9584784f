// lulesh/types.hpp
//
// Fundamental types and constants of the LULESH 2.0 proxy application,
// reimplemented from the published problem description (LLNL-TR-490254) and
// the reference code structure.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace lulesh {

/// Floating-point type of all field data (the reference uses double).
using real_t = double;

/// Index type for mesh entities.  32-bit signed like the reference's
/// Index_t; the largest paper problem (s=150) has 3.4M elements and 27.2M
/// element-corners, comfortably in range.
using index_t = std::int32_t;

/// Boundary-condition bit flags on element faces, one pair of bits per face
/// direction (xi/eta/zeta, minus/plus), exactly the reference encoding.
/// SYMM marks a symmetry (reflecting) plane, FREE a free surface.
enum bc : int {
    XI_M_SYMM = 1 << 0,
    XI_M_FREE = 1 << 1,
    XI_M = XI_M_SYMM | XI_M_FREE,
    XI_P_SYMM = 1 << 2,
    XI_P_FREE = 1 << 3,
    XI_P = XI_P_SYMM | XI_P_FREE,
    ETA_M_SYMM = 1 << 4,
    ETA_M_FREE = 1 << 5,
    ETA_M = ETA_M_SYMM | ETA_M_FREE,
    ETA_P_SYMM = 1 << 6,
    ETA_P_FREE = 1 << 7,
    ETA_P = ETA_P_SYMM | ETA_P_FREE,
    ZETA_M_SYMM = 1 << 8,
    ZETA_M_FREE = 1 << 9,
    ZETA_M = ZETA_M_SYMM | ZETA_M_FREE,
    ZETA_P_SYMM = 1 << 10,
    ZETA_P_FREE = 1 << 11,
    ZETA_P = ZETA_P_SYMM | ZETA_P_FREE,
};

/// Per-node symmetry-plane membership, used by the task-graph driver to
/// apply acceleration boundary conditions inside the node-wise acceleration
/// kernel instead of in separate loops over the symmetry node lists.
enum node_symm : std::uint8_t {
    NODE_SYMM_X = 1 << 0,
    NODE_SYMM_Y = 1 << 1,
    NODE_SYMM_Z = 1 << 2,
};

/// Outcome of one simulation step or run; mirrors the reference's abort
/// reasons as recoverable errors, plus the resilience-layer outcomes.
enum class status {
    ok,
    volume_error,  ///< non-positive element volume encountered
    qstop_error,   ///< artificial viscosity exceeded qstop
    task_fault,    ///< a task failed (injected or unexpected exception)
    stalled,       ///< a wave or halo exchange stopped making progress
    hazard,        ///< the task-graph audit found an unordered overlap
    data_corruption,  ///< checksum mismatch or non-finite field detected
};

constexpr const char* status_name(status s) {
    switch (s) {
        case status::ok:
            return "ok";
        case status::volume_error:
            return "volume_error";
        case status::qstop_error:
            return "qstop_error";
        case status::task_fault:
            return "task_fault";
        case status::stalled:
            return "stalled";
        case status::hazard:
            return "hazard";
        case status::data_corruption:
            return "data_corruption";
    }
    return "unknown";
}

/// Process exit code for a run outcome: 0 on success and a distinct
/// non-zero code per failure class, so scripted harnesses can tell a
/// physics abort from a fault or a hang without parsing output.  1 is
/// left to usage/setup errors.
constexpr int exit_code_for(status s) {
    switch (s) {
        case status::ok:
            return 0;
        case status::volume_error:
            return 2;
        case status::qstop_error:
            return 3;
        case status::task_fault:
            return 4;
        case status::stalled:
            return 5;
        case status::hazard:
            return 6;
        case status::data_corruption:
            return 7;
    }
    return 1;
}

/// Thrown when the simulation hits one of the reference's abort conditions.
class simulation_error : public std::runtime_error {
public:
    simulation_error(status code, const std::string& what)
        : std::runtime_error(what), code_(code) {}

    [[nodiscard]] status code() const noexcept { return code_; }

private:
    status code_;
};

}  // namespace lulesh

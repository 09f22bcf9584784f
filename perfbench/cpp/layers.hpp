// perfbench/cpp/layers.hpp
//
// Per-layer measurements of the traced run that are taken beside the lanes,
// through the layers' public functions, on copies of lane state — nothing
// here adds a probe inside the program.

#pragma once

#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "lulesh/domain.hpp"
#include "lulesh/options.hpp"

namespace perfbench {

/// Single-threaded wall time, in microseconds, of one whole-mesh pass of
/// each leapfrog phase's kernels:: functions, grouped as the task graph's
/// waves group them (median over `reps` leapfrogs on a copy of `mid_run`).
struct kernel_times {
    double force_us = 0.0;        ///< stress + hourglass corner forces
    double node_us = 0.0;         ///< gather, acceleration, BC, vel/pos
    double elem_us = 0.0;         ///< kinematics, gradients, clamps
    double eos_us = 0.0;          ///< monotonic Q + EOS per region, volumes
    double constraints_us = 0.0;  ///< Courant/hydro dt constraints
};
[[nodiscard]] kernel_times time_kernels(const lulesh::domain& mid_run,
                                        int reps);

/// Bytes of domain fields one leapfrog reads plus bytes it writes, per
/// zone: the distinct indices of every field in the task graph's declared
/// access sets (core/access), counted once per access mode.
[[nodiscard]] double bytes_per_zone(const lulesh::domain& d,
                                    lulesh::partition_sizes parts);

/// Median wall time of constructing the problem's domain.
[[nodiscard]] double domain_build_ms(const lulesh::options& o, int reps);

/// Median wall time of compiling one leapfrog iteration graph for a copy
/// of `d` (graph::compiled_iteration's constructor).
[[nodiscard]] double graph_compile_ms(amt::runtime& rt,
                                      const lulesh::domain& d,
                                      lulesh::partition_sizes parts, int reps);

/// Median wall time of applying a committed checkpoint chain (base record
/// plus deltas) to a copy of `d`, as a rollback does.
[[nodiscard]] double chain_replay_ms(const lulesh::domain& d,
                                     const std::vector<std::string>& chain,
                                     int reps);

/// Mean size in bytes of one halo message of a `slabs`-slab cluster (the
/// corner-force and delv_zeta planes every interior boundary sends each
/// way per cycle), from the public pack helpers.
[[nodiscard]] double halo_message_bytes(const lulesh::options& o, int slabs);

/// Path of the libgomp this process loaded (from /proc/self/maps), or
/// "not loaded".
[[nodiscard]] std::string loaded_libgomp();

}  // namespace perfbench

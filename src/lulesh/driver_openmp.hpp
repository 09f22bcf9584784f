// lulesh/driver_openmp.hpp
//
// Optional driver using *real* OpenMP (built only when the toolchain
// provides it; see LULESH_AMT_HAVE_OPENMP in CMake).  The fork-join skeleton
// (lulesh/fork_join.hpp) with `#pragma omp` regions instead of the ompsim
// team, and the same static contiguous chunks and barrier count as
// parallel_for_driver — the paper's baseline, and the check that ompsim
// faithfully models it, both in results (bitwise) and in cost structure.

#pragma once

#include "lulesh/driver.hpp"

namespace lulesh {

class openmp_driver final : public driver {
public:
    /// Sets the OpenMP thread count for this driver's loops (0 = runtime
    /// default).
    explicit openmp_driver(std::size_t num_threads = 0);

    [[nodiscard]] std::string name() const override { return "openmp"; }
    void advance(domain& d) override;

    [[nodiscard]] std::size_t num_threads() const noexcept { return threads_; }

private:
    std::size_t threads_;
    fork_join_scratch scratch_;
};

}  // namespace lulesh

// lulesh/driver_openmp.cpp — real-OpenMP driver (optional build).
//
// Each reference loop is an `omp parallel` region whose threads run the
// chunk kernel on their static slice — the same contiguous chunking the
// ompsim driver uses, so results are bitwise identical across all drivers.

#include <omp.h>

#include <algorithm>

#include "lulesh/driver_openmp.hpp"

namespace lulesh {

namespace {

/// Contiguous static chunk of [0, n) for this OpenMP thread.
std::pair<index_t, index_t> my_chunk(index_t n) {
    const auto p = static_cast<index_t>(omp_get_num_threads());
    const auto t = static_cast<index_t>(omp_get_thread_num());
    const index_t base = n / p;
    const index_t rem = n % p;
    const index_t lo = t * base + std::min(t, rem);
    return {lo, lo + base + (t < rem ? 1 : 0)};
}

/// One work-sharing region per loop; OpenMP's implicit region-end barrier
/// supplies the synchronization.
struct openmp_executor {
    int threads;

    template <class F>
    void for_range(index_t n, F&& body) {
#pragma omp parallel num_threads(threads)
        {
            const auto [lo, hi] = my_chunk(n);
            body(lo, hi);
        }
    }

    /// One region, three nowait-style loops (reference BC structure).
    template <class X, class Y, class Z>
    void for_ranges3(index_t nx, X&& fx, index_t ny, Y&& fy, index_t nz,
                     Z&& fz) {
#pragma omp parallel num_threads(threads)
        {
            const auto [xlo, xhi] = my_chunk(nx);
            fx(xlo, xhi);
            const auto [ylo, yhi] = my_chunk(ny);
            fy(ylo, yhi);
            const auto [zlo, zhi] = my_chunk(nz);
            fz(zlo, zhi);
        }
    }

    template <class F>
    kernels::dt_constraints reduce_min(index_t n, F&& body) {
        real_t dtc = real_t(1.0e20);
        real_t dth = real_t(1.0e20);
#pragma omp parallel num_threads(threads) reduction(min : dtc, dth)
        {
            const auto [lo, hi] = my_chunk(n);
            const auto local = body(lo, hi);
            dtc = std::min(dtc, local.dtcourant);
            dth = std::min(dth, local.dthydro);
        }
        return {dtc, dth};
    }
};

}  // namespace

openmp_driver::openmp_driver(std::size_t num_threads) : threads_(num_threads) {
    if (threads_ == 0) {
        threads_ = static_cast<std::size_t>(omp_get_max_threads());
    }
}

void openmp_driver::advance(domain& d) {
    fork_join_advance(d, scratch_,
                      openmp_executor{static_cast<int>(threads_)});
}

}  // namespace lulesh

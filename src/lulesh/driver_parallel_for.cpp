// lulesh/driver_parallel_for.cpp — barrier-per-loop baseline driver.

#include "lulesh/driver_parallel_for.hpp"

namespace lulesh {

namespace {

/// One static contiguous chunk per team thread, team barrier per loop.
struct ompsim_executor {
    ompsim::team& team;

    template <class F>
    void for_range(index_t n, F&& body) {
        team.parallel_for_range(0, n, body);
    }

    /// One region, three nowait loops (reference structure for the BCs).
    template <class X, class Y, class Z>
    void for_ranges3(index_t nx, X&& fx, index_t ny, Y&& fy, index_t nz,
                     Z&& fz) {
        team.parallel_region([&](ompsim::region_context& ctx) {
            ctx.for_range(0, nx, fx);
            ctx.for_range(0, ny, fy);
            ctx.for_range(0, nz, fz);
        });
    }

    /// One region with a min-reduction per constraint, mirroring the
    /// reference's reduction(min:...) loops.
    template <class F>
    kernels::dt_constraints reduce_min(index_t n, F&& body) {
        kernels::dt_constraints result;
        team.parallel_region([&](ompsim::region_context& ctx) {
            kernels::dt_constraints local;
            ctx.for_range(0, n, [&](index_t lo, index_t hi) {
                local = body(lo, hi);
            });
            const real_t dtc = ctx.reduce_min(local.dtcourant);
            const real_t dth = ctx.reduce_min(local.dthydro);
            if (ctx.thread_id() == 0) result = {dtc, dth};
        });
        return result;
    }
};

}  // namespace

void parallel_for_driver::advance(domain& d) {
    fork_join_advance(d, scratch_, ompsim_executor{team_});
}

}  // namespace lulesh

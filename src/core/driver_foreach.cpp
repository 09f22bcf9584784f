// core/driver_foreach.cpp — naive for_each-style driver (ablation baseline).

#include <algorithm>

#include "core/driver_foreach.hpp"

namespace lulesh {

namespace {

/// Every loop a wave of chunk tasks and a blocking wait (the for_each
/// pattern); tasks are labelled "foreach:<section>" for the tracer.
struct foreach_executor {
    amt::runtime& rt;
    std::vector<kernels::dt_constraints>& partials;
    /// Trace label of the current leapfrog section (static storage, like
    /// the wave sites).
    const char* site = "foreach";

    void enter(fork_join_section section) {
        switch (section) {
            case fork_join_section::nodal: site = "foreach:nodal"; break;
            case fork_join_section::elem: site = "foreach:elem"; break;
            case fork_join_section::eos: site = "foreach:eos"; break;
            case fork_join_section::constraints:
                site = "foreach:constraints";
                break;
        }
    }

    /// Chunking comparable to a parallel-algorithm default: a handful of
    /// chunks per worker so the scheduler can balance, without the caller
    /// tuning anything.
    [[nodiscard]] index_t chunk_for(index_t n) const {
        const auto workers = static_cast<index_t>(rt.num_workers());
        return std::max<index_t>(1, n / (workers * 8));
    }

    template <class F>
    void for_range(index_t n, F&& body) {
        const index_t chunk = chunk_for(n);
        auto wave = amt::bulk_async(
            rt, 0, n, chunk,
            [body, site = site, chunk](amt::index_t lo, amt::index_t hi) mutable {
                amt::trace::annotate_task(
                    site, static_cast<std::int32_t>(
                              static_cast<std::int64_t>(lo) /
                              static_cast<std::int64_t>(chunk)));
                body(static_cast<index_t>(lo), static_cast<index_t>(hi));
            });
        amt::wait_all(wave);
        for (auto& f : wave) f.get();
    }

    template <class X, class Y, class Z>
    void for_ranges3(index_t nx, X&& fx, index_t ny, Y&& fy, index_t nz,
                     Z&& fz) {
        for_range(nx, fx);
        for_range(ny, fy);
        for_range(nz, fz);
    }

    /// One partial minimum per chunk, combined on the calling thread.
    template <class F>
    kernels::dt_constraints reduce_min(index_t n, F&& body) {
        const index_t chunk = chunk_for(n);
        partials.assign(static_cast<std::size_t>((n + chunk - 1) / chunk),
                        kernels::dt_constraints{});
        kernels::dt_constraints* out = partials.data();
        for_range(n, [body, out, chunk](index_t lo, index_t hi) mutable {
            out[lo / chunk] = body(lo, hi);
        });
        kernels::dt_constraints combined;
        for (const auto& partial : partials) {
            combined = kernels::min_constraints(combined, partial);
        }
        return combined;
    }
};

}  // namespace

void foreach_driver::advance(domain& d) {
    fork_join_advance(d, scratch_, foreach_executor{rt_, partials_});
}

}  // namespace lulesh

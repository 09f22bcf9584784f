// lulesh/driver_serial.cpp — single-threaded reference-ordered driver.

#include "lulesh/driver.hpp"

namespace lulesh {

namespace {

/// Every loop over its full range on the calling thread.
struct serial_executor {
    template <class F>
    void for_range(index_t n, F&& body) {
        body(index_t{0}, n);
    }

    template <class X, class Y, class Z>
    void for_ranges3(index_t nx, X&& fx, index_t ny, Y&& fy, index_t nz,
                     Z&& fz) {
        fx(index_t{0}, nx);
        fy(index_t{0}, ny);
        fz(index_t{0}, nz);
    }

    template <class F>
    kernels::dt_constraints reduce_min(index_t n, F&& body) {
        return body(index_t{0}, n);
    }
};

}  // namespace

void serial_driver::advance(domain& d) {
    fork_join_advance(d, scratch_, serial_executor{});
}

}  // namespace lulesh

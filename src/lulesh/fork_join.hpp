// lulesh/fork_join.hpp
//
// The fork-join leapfrog, written once.  Every reference parallel loop of
// LagrangeNodal, LagrangeElements, the region-wise EOS, UpdateVolumes and
// the per-region time constraints is one call on an executor, which decides
// only how a loop is split and joined:
//
//   ex.for_range(n, body)        body(lo, hi) over a partition of [0, n),
//                                then a barrier;
//   ex.for_ranges3(nx, fx, ny, fy, nz, fz)
//                                three such loops in one fork-join region
//                                (the symmX/Y/Z boundary conditions);
//   ex.reduce_min(n, body)       min of body(lo, hi)'s dt_constraints over
//                                a partition of [0, n).
//
// An executor may also define enter(fork_join_section), called as each
// leapfrog section begins.  The executors are serial (driver_serial.cpp),
// ompsim (driver_parallel_for.cpp), real OpenMP (driver_openmp.cpp) and the
// amt for_each port (core/driver_foreach.cpp).  All of them run the same
// kernels on contiguous [lo, hi) ranges, so their fields are bitwise equal.

#pragma once

#include <vector>

#include "amt/atomic.hpp"
#include "amt/fault.hpp"
#include "lulesh/domain.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/types.hpp"

namespace lulesh {

/// Persistent scratch of one fork-join driver, mirroring the reference's
/// per-call temporaries.  One driver per scratch.
struct fork_join_scratch {
    std::vector<real_t> sigxx, sigyy, sigzz;
    std::vector<real_t> dvdx, dvdy, dvdz, x8n, y8n, z8n;
    std::vector<real_t> determ;
    kernels::eos_scratch eos;

    void resize(index_t num_elem) {
        const auto n = static_cast<std::size_t>(num_elem);
        for (auto* v : {&sigxx, &sigyy, &sigzz, &determ}) v->resize(n);
        for (auto* v : {&dvdx, &dvdy, &dvdz, &x8n, &y8n, &z8n}) {
            v->resize(n * 8);
        }
    }
};

enum class fork_join_section { nodal, elem, eos, constraints };

/// One LagrangeLeapFrog iteration at d.deltatime on executor `ex`.  Throws
/// simulation_error on a volume or qstop violation.
template <class Exec>
void fork_join_advance(domain& d, fork_join_scratch& s, Exec&& ex) {
    namespace k = kernels;
    // One injection site per iteration — enough for epoch-targeted fault
    // plans to hit a deterministic cycle in every fork-join driver.
    amt::fault::probe("advance");
    const index_t ne = d.numElem();
    const index_t nn = d.numNode();
    const real_t dt = d.deltatime;
    s.resize(ne);

    amt::atomic<bool> ok{true};
    auto fail = [&ok] { ok.store(false, amt::memory_order_relaxed); };
    auto require = [&ok](status code, const char* what) {
        if (!ok.load(amt::memory_order_relaxed)) {
            throw simulation_error(code, what);
        }
    };
    auto enter = [&ex](fork_join_section section) {
        if constexpr (requires { ex.enter(section); }) ex.enter(section);
    };

    // ---------------- LagrangeNodal ----------------
    enter(fork_join_section::nodal);
    ex.for_range(ne, [&](index_t lo, index_t hi) {
        k::init_stress_terms(d, lo, hi, s.sigxx.data(), s.sigyy.data(),
                             s.sigzz.data());
    });
    ex.for_range(ne, [&](index_t lo, index_t hi) {
        if (!k::integrate_stress(d, lo, hi, s.sigxx.data(), s.sigyy.data(),
                                 s.sigzz.data())) {
            fail();
        }
    });
    require(status::volume_error, "non-positive Jacobian in stress integration");

    ex.for_range(ne, [&](index_t lo, index_t hi) {
        if (!k::calc_hourglass_control(d, lo, hi, s.dvdx.data(), s.dvdy.data(),
                                       s.dvdz.data(), s.x8n.data(),
                                       s.y8n.data(), s.z8n.data(),
                                       s.determ.data())) {
            fail();
        }
    });
    require(status::volume_error, "non-positive volume in hourglass control");

    if (d.hgcoef > real_t(0.0)) {
        ex.for_range(ne, [&](index_t lo, index_t hi) {
            k::calc_fb_hourglass_force(d, lo, hi, s.dvdx.data(), s.dvdy.data(),
                                       s.dvdz.data(), s.x8n.data(),
                                       s.y8n.data(), s.z8n.data(),
                                       s.determ.data(), d.hgcoef);
        });
    }

    ex.for_range(nn, [&](index_t lo, index_t hi) { k::gather_forces(d, lo, hi); });
    ex.for_range(nn, [&](index_t lo, index_t hi) { k::calc_acceleration(d, lo, hi); });
    ex.for_ranges3(
        static_cast<index_t>(d.symmX.size()),
        [&](index_t lo, index_t hi) { k::apply_acceleration_bc_x(d, lo, hi); },
        static_cast<index_t>(d.symmY.size()),
        [&](index_t lo, index_t hi) { k::apply_acceleration_bc_y(d, lo, hi); },
        static_cast<index_t>(d.symmZ.size()),
        [&](index_t lo, index_t hi) { k::apply_acceleration_bc_z(d, lo, hi); });
    ex.for_range(nn, [&](index_t lo, index_t hi) { k::calc_velocity(d, lo, hi, dt); });
    ex.for_range(nn, [&](index_t lo, index_t hi) { k::calc_position(d, lo, hi, dt); });

    // ---------------- LagrangeElements ----------------
    enter(fork_join_section::elem);
    ex.for_range(ne, [&](index_t lo, index_t hi) { k::calc_kinematics(d, lo, hi, dt); });
    ex.for_range(ne, [&](index_t lo, index_t hi) {
        if (!k::calc_lagrange_deviatoric(d, lo, hi)) fail();
    });
    require(status::volume_error, "non-positive new volume in kinematics");

    ex.for_range(ne, [&](index_t lo, index_t hi) {
        k::calc_monotonic_q_gradients(d, lo, hi);
    });
    // One loop per region, serialized over regions (the structure the paper
    // identifies as the baseline's region-scaling weakness).
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        ex.for_range(static_cast<index_t>(list.size()),
                     [&](index_t lo, index_t hi) {
                         k::calc_monotonic_q_region(d, list.data(), lo, hi);
                     });
    }
    ex.for_range(ne, [&](index_t lo, index_t hi) {
        if (!k::check_qstop(d, lo, hi)) fail();
    });
    require(status::qstop_error, "artificial viscosity exceeded qstop");

    ex.for_range(ne, [&](index_t lo, index_t hi) {
        if (!k::apply_material_vnewc(d, lo, hi)) fail();
    });
    require(status::volume_error, "relative volume out of EOS range");

    // Region-wise EOS: every phase of every repetition is its own loop, as
    // in the reference.
    enter(fork_join_section::eos);
    k::eos_scratch& e = s.eos;
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        const auto count = static_cast<index_t>(list.size());
        if (count == 0) continue;
        e.resize(static_cast<std::size_t>(count));
        const index_t* lp = list.data();
        const int rep = k::eos_rep_for_region(d, r);
        auto pf = [&](auto&& body) { ex.for_range(count, body); };
        for (int j = 0; j < rep; ++j) {
            pf([&](index_t lo, index_t hi) { k::eos_gather_e(d, lp, lo, hi, e); });
            pf([&](index_t lo, index_t hi) { k::eos_gather_delv(d, lp, lo, hi, e); });
            pf([&](index_t lo, index_t hi) { k::eos_gather_p(d, lp, lo, hi, e); });
            pf([&](index_t lo, index_t hi) { k::eos_gather_q(d, lp, lo, hi, e); });
            pf([&](index_t lo, index_t hi) { k::eos_gather_qq_ql(d, lp, lo, hi, e); });
            pf([&](index_t lo, index_t hi) { k::eos_compression(d, lp, lo, hi, e); });
            pf([&](index_t lo, index_t hi) { k::eos_clamp_vmin(d, lp, lo, hi, e); });
            pf([&](index_t lo, index_t hi) { k::eos_clamp_vmax(d, lp, lo, hi, e); });
            pf([&](index_t lo, index_t hi) { k::eos_zero_work(lo, hi, e); });

            pf([&](index_t lo, index_t hi) { k::energy_step1(d, lo, hi, e); });
            pf([&](index_t lo, index_t hi) {
                k::pressure_bvc(lo, hi, e.comp_half_step.data(), e.bvc.data(),
                                e.pbvc.data());
            });
            pf([&](index_t lo, index_t hi) {
                k::pressure_p(d, lp, lo, hi, e.p_half_step.data(), e.bvc.data(),
                              e.e_new.data());
            });
            pf([&](index_t lo, index_t hi) { k::energy_q_half(d, lo, hi, e); });
            pf([&](index_t lo, index_t hi) { k::energy_step2(d, lo, hi, e); });
            pf([&](index_t lo, index_t hi) {
                k::pressure_bvc(lo, hi, e.compression.data(), e.bvc.data(),
                                e.pbvc.data());
            });
            pf([&](index_t lo, index_t hi) {
                k::pressure_p(d, lp, lo, hi, e.p_new.data(), e.bvc.data(),
                              e.e_new.data());
            });
            pf([&](index_t lo, index_t hi) { k::energy_step3(d, lp, lo, hi, e); });
            pf([&](index_t lo, index_t hi) {
                k::pressure_bvc(lo, hi, e.compression.data(), e.bvc.data(),
                                e.pbvc.data());
            });
            pf([&](index_t lo, index_t hi) {
                k::pressure_p(d, lp, lo, hi, e.p_new.data(), e.bvc.data(),
                              e.e_new.data());
            });
            pf([&](index_t lo, index_t hi) { k::energy_q_final(d, lp, lo, hi, e); });
        }
        pf([&](index_t lo, index_t hi) { k::eos_store(d, lp, lo, hi, e); });
        pf([&](index_t lo, index_t hi) { k::eos_sound_speed(d, lp, lo, hi, e); });
    }

    ex.for_range(ne, [&](index_t lo, index_t hi) { k::update_volumes(d, lo, hi); });

    // ---------------- time constraints ----------------
    // Per region: one min-reduction, as the reference's reduction(min:...)
    // loops.
    enter(fork_join_section::constraints);
    k::dt_constraints combined;
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        const auto count = static_cast<index_t>(list.size());
        if (count == 0) continue;
        combined = k::min_constraints(
            combined, ex.reduce_min(count, [&](index_t lo, index_t hi) {
                return k::calc_time_constraints(d, list.data(), lo, hi);
            }));
    }
    d.dtcourant = combined.dtcourant;
    d.dthydro = combined.dthydro;
}

}  // namespace lulesh

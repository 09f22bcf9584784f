// perfbench/cpp/layers.cpp — see layers.hpp.

#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "core/access.hpp"
#include "core/compiled_iteration.hpp"
#include "dist/cluster.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/kernels.hpp"

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;
using lulesh::index_t;
namespace k = lulesh::kernels;

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

template <class F>
double time_us(F&& f) {
    const auto t0 = clock_type::now();
    f();
    return std::chrono::duration<double, std::micro>(clock_type::now() - t0)
        .count();
}

std::size_t field_bytes(lulesh::field f) {
    switch (f) {
        case lulesh::field::symm_mask: return sizeof(std::uint8_t);
        case lulesh::field::elem_bc: return sizeof(int);
        case lulesh::field::dt_partial: return sizeof(k::dt_constraints);
        default: return sizeof(lulesh::real_t);
    }
}

}  // namespace

kernel_times time_kernels(const lulesh::domain& mid_run, int reps) {
    lulesh::domain d = mid_run;
    const index_t ne = d.numElem();
    const index_t nn = d.numNode();
    std::vector<double> force, node, elem, eos, cons;
    k::eos_scratch scratch;
    for (int r = 0; r < reps; ++r) {
        k::time_increment(d);
        const lulesh::real_t dt = d.deltatime;
        force.push_back(time_us([&] {
            k::force_stress_chunk(d, 0, ne);
            k::force_hourglass_chunk(d, 0, ne);
        }));
        node.push_back(time_us([&] {
            k::gather_forces(d, 0, nn);
            k::calc_acceleration(d, 0, nn);
            k::apply_acceleration_bc_masked(d, 0, nn);
            k::velocity_position_chunk(d, 0, nn, dt);
        }));
        elem.push_back(time_us([&] {
            k::calc_kinematics(d, 0, ne, dt);
            k::calc_lagrange_deviatoric(d, 0, ne);
            k::calc_monotonic_q_gradients(d, 0, ne);
            k::check_qstop(d, 0, ne);
            k::apply_material_vnewc(d, 0, ne);
        }));
        eos.push_back(time_us([&] {
            for (index_t g = 0; g < d.numReg(); ++g) {
                const auto& list = d.regElemList(g);
                const auto n = static_cast<index_t>(list.size());
                if (n == 0) continue;
                k::calc_monotonic_q_region(d, list.data(), 0, n);
                scratch.resize(static_cast<std::size_t>(n));
                k::eval_eos_chunk(d, list.data(), 0, n,
                                  k::eos_rep_for_region(d, g), scratch);
            }
            k::update_volumes(d, 0, ne);
        }));
        cons.push_back(time_us([&] {
            k::dt_constraints c;
            for (index_t g = 0; g < d.numReg(); ++g) {
                const auto& list = d.regElemList(g);
                c = k::min_constraints(
                    c, k::calc_time_constraints(
                           d, list.data(), 0,
                           static_cast<index_t>(list.size())));
            }
            d.dtcourant = c.dtcourant;
            d.dthydro = c.dthydro;
        }));
    }
    return {median(force), median(node), median(elem), median(eos),
            median(cons)};
}

double bytes_per_zone(const lulesh::domain& d, lulesh::partition_sizes parts) {
    namespace g = lulesh::graph;
    const g::graph_model m = g::build_iteration_model(d, parts);
    // touched[mode][field] marks every index the declared accesses cover.
    std::vector<std::vector<bool>> touched[2];
    for (auto& per_field : touched) {
        per_field.resize(lulesh::num_fields);
        for (std::size_t f = 0; f < lulesh::num_fields; ++f) {
            per_field[f].assign(
                g::space_extent(
                    lulesh::field_space(static_cast<lulesh::field>(f)), d,
                    m.num_slots),
                false);
        }
    }
    for (const g::task_decl& t : m.tasks) {
        for (const g::access& a : t.accesses) {
            auto& bits = touched[a.m == g::mode::write ? 1 : 0]
                                [static_cast<std::size_t>(a.f)];
            g::expand_access(a, d, [&](index_t i) {
                bits[static_cast<std::size_t>(i)] = true;
            });
        }
    }
    double bytes = 0.0;
    for (const auto& per_field : touched) {
        for (std::size_t f = 0; f < lulesh::num_fields; ++f) {
            const auto n = std::count(per_field[f].begin(),
                                      per_field[f].end(), true);
            bytes += static_cast<double>(n) *
                     static_cast<double>(
                         field_bytes(static_cast<lulesh::field>(f)));
        }
    }
    return bytes / static_cast<double>(d.numElem());
}

double domain_build_ms(const lulesh::options& o, int reps) {
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        t.push_back(time_us([&] { const lulesh::domain d(o); }) / 1e3);
    }
    return median(t);
}

double graph_compile_ms(amt::runtime& rt, const lulesh::domain& d,
                        lulesh::partition_sizes parts, int reps) {
    lulesh::domain copy = d;
    lulesh::graph::compiled_iteration::config cfg;
    cfg.parts = parts;
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        t.push_back(time_us([&] {
            const lulesh::graph::compiled_iteration ci(
                rt, copy, cfg, lulesh::graph::error_flags{});
        }) / 1e3);
    }
    return median(t);
}

double chain_replay_ms(const lulesh::domain& d,
                       const std::vector<std::string>& chain, int reps) {
    if (chain.empty()) return 0.0;
    lulesh::domain copy = d;
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        t.push_back(time_us([&] {
            for (const std::string& rec : chain) {
                lulesh::apply_chain_record(copy, rec, "perfbench replay");
            }
        }) / 1e3);
    }
    return median(t);
}

double halo_message_bytes(const lulesh::options& o, int slabs) {
    const lulesh::dist::cluster c(o, slabs);
    double bytes = 0.0;
    int msgs = 0;
    for (index_t b = 0; b + 1 < c.num_slabs(); ++b) {
        const lulesh::domain& lo = c.slab(b);
        const lulesh::domain& hi = c.slab(b + 1);
        for (const lulesh::dist::plane_buffer& m :
             {lulesh::dist::pack_corner_plane(lo, lo.top_plane_elem_base()),
              lulesh::dist::pack_corner_plane(hi, hi.bottom_plane_elem_base()),
              lulesh::dist::pack_delv_plane(lo, lo.top_plane_elem_base()),
              lulesh::dist::pack_delv_plane(hi, hi.bottom_plane_elem_base())}) {
            bytes += static_cast<double>(m.size() * sizeof(lulesh::real_t));
            ++msgs;
        }
    }
    return msgs > 0 ? bytes / msgs : 0.0;
}

std::string loaded_libgomp() {
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
        const auto pos = line.find('/');
        if (pos != std::string::npos &&
            line.find("libgomp", pos) != std::string::npos) {
            return line.substr(pos);
        }
    }
    return "not loaded";
}

}  // namespace perfbench

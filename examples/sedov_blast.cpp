// examples/sedov_blast.cpp
//
// Full Sedov blast-wave run to the physical stop time (the reference's
// headline scenario), with a radial profile of the solution printed at the
// end — energy, pressure, and relative volume vs distance from the origin —
// so the blast front is visible in the terminal.
//
//   ./sedov_blast -s 16 -d taskgraph -t 4

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "amt/amt.hpp"
#include "core/driver_foreach.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/driver_parallel_for.hpp"
#ifdef LULESH_AMT_HAVE_OPENMP
#include "lulesh/driver_openmp.hpp"
#endif
#include "lulesh/validate.hpp"
#include "ompsim/ompsim.hpp"

namespace {

/// Distance of element (i, j, k)'s low corner node from the origin.
double elem_radius(const lulesh::domain& d, lulesh::index_t i,
                   lulesh::index_t j, lulesh::index_t k) {
    const lulesh::index_t en = d.size_per_edge() + 1;
    const auto n = static_cast<std::size_t>(k * en * en + j * en + i);
    return std::sqrt(d.x[n] * d.x[n] + d.y[n] * d.y[n] + d.z[n] * d.z[n]);
}

void print_radial_profile(const lulesh::domain& d) {
    const lulesh::index_t s = d.size_per_edge();
    constexpr int bins = 16;
    const double rmax = 1.125 * std::sqrt(3.0);
    std::vector<double> e_sum(bins, 0.0), p_sum(bins, 0.0), v_sum(bins, 0.0);
    std::vector<int> count(bins, 0);

    for (lulesh::index_t k = 0; k < s; ++k) {
        for (lulesh::index_t j = 0; j < s; ++j) {
            for (lulesh::index_t i = 0; i < s; ++i) {
                const auto el = static_cast<std::size_t>(k * s * s + j * s + i);
                const double r = elem_radius(d, i, j, k);
                int bin = static_cast<int>(r / rmax * bins);
                bin = std::clamp(bin, 0, bins - 1);
                e_sum[static_cast<std::size_t>(bin)] += d.e[el];
                p_sum[static_cast<std::size_t>(bin)] += d.p[el];
                v_sum[static_cast<std::size_t>(bin)] += d.v[el];
                ++count[static_cast<std::size_t>(bin)];
            }
        }
    }

    std::cout << "\nradial profile (bin mean):\n"
              << "     r        <e>           <p>           <v>      elems\n";
    std::cout.precision(4);
    std::cout << std::scientific;
    for (int b = 0; b < bins; ++b) {
        const auto ub = static_cast<std::size_t>(b);
        if (count[ub] == 0) continue;
        const double r_mid = (b + 0.5) * rmax / bins;
        std::cout << "  " << r_mid << "  " << e_sum[ub] / count[ub] << "  "
                  << p_sum[ub] / count[ub] << "  " << v_sum[ub] / count[ub]
                  << "  " << count[ub] << "\n";
    }
}

}  // namespace

int main(int argc, char** argv) {
    lulesh::cli_options cli;
    try {
        cli = lulesh::parse_cli(argc, argv);
    } catch (const std::exception& err) {
        std::cerr << err.what() << "\n" << lulesh::usage_text(argv[0]);
        return 1;
    }
    if (cli.show_help) {
        std::cout << lulesh::usage_text(argv[0]);
        return 0;
    }

    const std::size_t threads =
        cli.threads != 0 ? cli.threads
                         : std::max(1u, std::thread::hardware_concurrency());
    const lulesh::partition_sizes parts =
        cli.partitions.value_or(lulesh::partition_sizes::tuned_for(cli.problem.size));

    lulesh::domain dom(cli.problem);
    lulesh::run_result result;

    std::cout << "Sedov blast: size " << cli.problem.size << "^3, "
              << cli.problem.num_regions << " regions, driver " << cli.driver
              << ", " << threads << " threads\n";

    if (cli.driver == "serial") {
        lulesh::serial_driver drv;
        result = lulesh::run_simulation(dom, drv, cli.problem.max_cycles);
    } else if (cli.driver == "parallel_for") {
        ompsim::team team(threads);
        lulesh::parallel_for_driver drv(team);
        result = lulesh::run_simulation(dom, drv, cli.problem.max_cycles);
#ifdef LULESH_AMT_HAVE_OPENMP
    } else if (cli.driver == "openmp") {
        lulesh::openmp_driver drv(threads);
        result = lulesh::run_simulation(dom, drv, cli.problem.max_cycles);
#endif
    } else if (cli.driver == "foreach") {
        amt::runtime rt(threads);
        lulesh::foreach_driver drv(rt);
        result = lulesh::run_simulation(dom, drv, cli.problem.max_cycles);
    } else {
        amt::runtime rt(threads);
        lulesh::taskgraph_driver drv(rt, parts);
        result = lulesh::run_simulation(dom, drv, cli.problem.max_cycles);
    }

    std::cout << lulesh::final_report(dom, result);
    if (!cli.quiet) print_radial_profile(dom);
    return result.run_status == lulesh::status::ok ? 0 : 2;
}

// examples/quickstart.cpp
//
// Minimal end-to-end use of the library: build a Sedov domain, run it with
// the task-graph driver on the amt runtime, and print the validation report.
//
//   ./quickstart [-s 20] [-i 100] [-t 4]
//                [-d taskgraph|serial|parallel_for|openmp|foreach]

#include <iostream>
#include <memory>

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
    // Keep the quickstart quick: cap iterations unless the user overrode it.
    if (cli.problem.max_cycles == std::numeric_limits<int>::max()) {
        cli.problem.max_cycles = 50;
    }

    const std::size_t threads =
        cli.threads != 0 ? cli.threads
                         : std::max(1u, std::thread::hardware_concurrency());
    const lulesh::partition_sizes parts =
        cli.partitions.value_or(lulesh::partition_sizes::tuned_for(cli.problem.size));

    lulesh::domain dom(cli.problem);
    lulesh::run_result result;

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

    if (!cli.quiet) {
        std::cout << "driver = " << cli.driver << ", threads = " << threads
                  << ", size = " << cli.problem.size
                  << ", regions = " << cli.problem.num_regions << "\n"
                  << lulesh::final_report(dom, result);
    }
    // CSV-compatible summary line (the artifact appendix's output format).
    std::cout << cli.problem.size << "," << cli.problem.num_regions << ","
              << result.cycles << "," << threads << ","
              << result.elapsed_seconds << "," << result.final_origin_energy
              << "\n";
    return result.run_status == lulesh::status::ok ? 0 : 2;
}

// perfbench/cpp/main.cpp — lanebench: runs one workload's lanes interleaved
// and prints its result as one JSON line (the last line of stdout).
//
//   lanebench --workload <sedov-s30|sync-s12|ckpt-s20> --seed <n>
//             --seconds <s> --trace <0|1>
//
// perfbench/run.py builds this binary and adds the host facts; README.md
// describes the workloads, the checks and every metric.

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "amt/metrics.hpp"
#include "checks.hpp"
#include "core/critical_path.hpp"
#include "lanes.hpp"
#include "layers.hpp"

namespace {

using namespace perfbench;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// One workload: problem size, which lanes run checkpointed solves, and
/// how the run is paced.
struct workload_def {
    const char* name;
    lulesh::index_t size;
    double block_s;      ///< wall time of one plain-lane block
    int setups;          ///< set-ups per run; setup_s is their median
    bool resolve;        ///< lanes restart after completing a solve
    bool anchor;         ///< taskgraph runs to stoptime: upstream check
    bool resilient;      ///< taskgraph + openmp run run_resilient solves
};

constexpr workload_def workloads[] = {
    {"sedov-s30", 30, 0.10, 7, false, true, false},
    {"sync-s12", 12, 0.05, 9, true, false, false},
    {"ckpt-s20", 20, 0.10, 7, true, false, true},
};

/// Injected-fault cycle of the resilient taskgraph lane: fixed, and chosen
/// so that neither it nor its neighbours is a multiple of digest_every
/// (a rollback's snapshot_hook sees the torn state of the failed cycle).
constexpr int fault_cycle = 298;

struct args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

args parse(int argc, char** argv) {
    args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
        const char* v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "0") != 0;
        } else {
            throw std::invalid_argument("unknown argument " + k);
        }
    }
    return a;
}

/// Pools, lane environment and lanes of one set-up.  Members are
/// destroyed in reverse order: lanes (which borrow the pools and the
/// environment) first.
struct lane_set {
    std::unique_ptr<amt::runtime> rt;
    std::unique_ptr<ompsim::team> team;
    lane_env env;
    std::vector<std::unique_ptr<lane>> lanes;

    lane* find(const std::string& name) {
        for (auto& l : lanes) {
            if (l->name() == name) return l.get();
        }
        return nullptr;
    }
};

/// Thread ids of this process.
std::set<int> thread_ids() {
    std::set<int> ids;
    if (DIR* d = opendir("/proc/self/task")) {
        while (const dirent* e = readdir(d)) {
            if (e->d_name[0] != '.') ids.insert(std::atoi(e->d_name));
        }
        closedir(d);
    }
    return ids;
}

bool pin_thread(int tid, const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    return sched_setaffinity(tid, sizeof set, &set) == 0;
}

/// Pins every thread that is not in `before` to one CPU of `cpus`, in
/// turn.
void pin_new_threads(const std::set<int>& before,
                     const std::vector<int>& cpus) {
    std::size_t k = 0;
    for (int tid : thread_ids()) {
        if (before.count(tid) == 0) pin_thread(tid, {cpus[k++ % cpus.size()]});
    }
}

/// Threads of this process bound to a single CPU, for the run record.
std::size_t pinned_threads() {
    std::size_t n = 0;
    for (int tid : thread_ids()) {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(tid, sizeof set, &set) == 0 &&
            CPU_COUNT(&set) == 1) {
            ++n;
        }
    }
    return n;
}

/// Builds the pools and every lane, rotated so lane `first` comes first
/// (it wins the ties of the first round), and runs each lane's warm-up.
///
/// Each pool gets one thread per CPU, as HPX pins its workers and
/// OMP_PROC_BIND pins OpenMP's: the main thread (participant 0 of the
/// fork-join pools) on cpus[0], the amt workers on every CPU, the ompsim
/// team's and libgomp's helper threads on the others.  Pinned, every run
/// places a lane's threads alike (README.md: Pinning).
std::unique_ptr<lane_set> set_up(const workload_def& w, const lane_env& base,
                                 std::size_t first,
                                 const std::vector<int>& cpus,
                                 run_ledger& ledger) {
    const std::vector<int> helpers(cpus.size() > 1 ? cpus.begin() + 1
                                                   : cpus.begin(),
                                   cpus.end());
    // New threads inherit the creating thread's mask: the main thread
    // spans every CPU while the pools start, and is pinned at the end.
    pin_thread(0, cpus);
    auto s = std::make_unique<lane_set>();
    std::set<int> before = thread_ids();
    s->rt = std::make_unique<amt::runtime>(base.workers);
    pin_new_threads(before, cpus);
    before = thread_ids();
    s->team = std::make_unique<ompsim::team>(base.workers);
    pin_new_threads(before, helpers);
    before = thread_ids();
    s->env = base;
    s->env.rt = s->rt.get();
    s->env.team = s->team.get();
    const std::vector<std::string>& names = lane_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string& name = names[(i + first) % names.size()];
        const bool resilient =
            w.resilient && (name == "taskgraph" || name == "openmp");
        s->lanes.push_back(resilient ? make_resilient_lane(name, s->env)
                                     : make_plain_lane(name, s->env));
    }
    for (auto& l : s->lanes) l->warm_up(ledger);
    // libgomp starts its threads in the openmp lane's first region.
    pin_new_threads(before, helpers);
    pin_thread(0, {cpus.front()});
    return s;
}

class json_metrics {
public:
    void add(const std::string& name, double value, const char* unit) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.10g", value);
        if (!body_.empty()) body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                 unit + "\"}";
    }
    [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

const amt::metrics::histogram_value* find_hist(
    const amt::metrics::snapshot& s, const char* name) {
    for (const auto& h : s.histograms) {
        if (std::strcmp(h.name, name) == 0) return &h;
    }
    return nullptr;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

int run(const args& a) {
    const workload_def* w = nullptr;
    for (const auto& d : workloads) {
        if (a.workload == d.name) w = &d;
    }
    if (w == nullptr) {
        throw std::invalid_argument("unknown workload '" + a.workload + "'");
    }

    lane_env base;
    base.problem.size = w->size;
    base.problem.num_regions = 11;
    // Region seed 0 (the reference's srand(0)) on every workload: the
    // region map decides how many elements get the 20x EOS repetitions, so
    // another seed changes a cycle's work by up to 70% at s=12.  --seed
    // picks the lane that runs first instead (see README.md).
    base.problem.region_seed = 0;
    base.parts = lulesh::partition_sizes::tuned_for(w->size);
    std::vector<int> cpus;
    {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
            }
        }
    }
    if (cpus.empty()) throw std::runtime_error("no CPU in the affinity mask");
    base.workers = cpus.size();
    base.traced = a.trace;
    base.resolve = w->resolve;
    base.fault_cycle = fault_cycle;
    const double zones = static_cast<double>(w->size) *
                         static_cast<double>(w->size) *
                         static_cast<double>(w->size);

    // --- set-up, several times; the last one is kept ---------------------
    run_ledger ledger;
    std::vector<double> setup_times;
    std::unique_ptr<lane_set> set;
    for (int i = 0; i < w->setups; ++i) {
        set.reset();
        const auto t0 = clock_type::now();
        set = set_up(*w, base, a.seed % lane_names().size(), cpus, ledger);
        setup_times.push_back(seconds_since(t0));
    }
    lulesh::taskgraph_driver* tg = set->find("taskgraph")->taskgraph();

    // --- interleaved blocks: the lane with the least wall time goes next --
    if (a.trace) {
        amt::metrics::reset();
        amt::metrics::arm();
        tg->reset_profile();
    }
    const auto t_run = clock_type::now();
    while (seconds_since(t_run) < a.seconds) {
        lane* next = nullptr;
        for (auto& l : set->lanes) {
            if (l->active() && (next == nullptr ||
                                l->stats().block_wall_s <
                                    next->stats().block_wall_s)) {
                next = l.get();
            }
        }
        if (next == nullptr) break;
        next->run_block(w->block_s, ledger);
    }
    const double run_wall = seconds_since(t_run);
    amt::metrics::snapshot msnap;
    if (a.trace) {
        amt::metrics::disarm();
        msnap = amt::metrics::collect();
    }

    // --- checks ----------------------------------------------------------
    if (w->anchor) {
        lane* l = set->find("taskgraph");
        l->finish_solve(ledger);
        const solve_record* s = nullptr;
        for (const auto& r : ledger.solves) {
            if (r.lane == "taskgraph") s = &r;
        }
        if (s == nullptr) {
            ledger.log.fail("taskgraph lane did not reach stoptime");
        } else {
            check_upstream_anchor(*s, ledger.log);
        }
    }
    if (w->resilient) {
        // Each resilient lane completes the solve it is in, untimed, so
        // every run holds a faulted and a clean solve to compare.
        set->find("taskgraph")->finish_solve(ledger);
        set->find("openmp")->finish_solve(ledger);
        const solve_record* clean = nullptr;
        for (const auto& r : ledger.solves) {
            if (r.lane == "openmp" && clean == nullptr) clean = &r;
        }
        std::size_t faulted = 0;
        for (const auto& r : ledger.solves) {
            if (clean == nullptr) break;
            if (r.lane == "taskgraph") {
                check_recovery(r, *clean, 1, ledger.log);
                ++faulted;
            } else if (r.lane == "openmp") {
                check_recovery(r, *clean, 0, ledger.log);
            }
        }
        if (faulted == 0) {
            ledger.log.fail("no fault-injected resilient solve completed");
        }
    }
    check_solve_cycles(ledger.solves, ledger.log);
    ledger.agree.require_common("serial", lane_names(), ledger.log);
    for (auto& l : set->lanes) {
        if (const lulesh::domain* d = l->single_domain()) {
            check_symmetry(*d, l->name(), ledger.log);
        }
    }

    // --- report ----------------------------------------------------------
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    const double setup_s = quantile(setup_times, 0.5);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::printf("workload %s seed %llu: %zu workers, %zu of %zu threads "
                "pinned, %.2f s of blocks, %d set-ups (median %.4f s)\n",
                w->name, static_cast<unsigned long long>(a.seed),
                base.workers, pinned_threads(), thread_ids().size(), run_wall,
                w->setups, setup_s);
    for (auto& l : set->lanes) {
        const lane_stats& st = l->stats();
        attempted += st.attempted;
        failed += st.failed;
        std::printf("  lane %-12s %6zu timed cycles  grind us/z/c median "
                    "%.4f mean %.4f p90 %.4f  share %.3f  solves %llu\n",
                    l->name().c_str(), st.cycle_s.size(),
                    quantile(st.cycle_s, 0.5) / zones * 1e6,
                    mean(st.cycle_s) / zones * 1e6,
                    quantile(st.cycle_s, 0.9) / zones * 1e6,
                    st.block_wall_s / run_wall,
                    static_cast<unsigned long long>(st.solves));
    }
    std::printf("checks: %zu completed solves, %llu cross-lane state "
                "comparisons, %zu failures\n",
                ledger.solves.size(),
                static_cast<unsigned long long>(ledger.agree.comparisons()),
                ledger.log.failures().size());
    for (const std::string& f : ledger.log.failures()) {
        std::printf("  CHECK FAILED: %s\n", f.c_str());
    }
    for (const std::string& f : ledger.failed_ops) {
        std::printf("  OPERATION FAILED: %s\n", f.c_str());
    }
    std::printf("libgomp: %s\n", loaded_libgomp().c_str());
    std::printf("compiler: %s, flags: %s\n", PERFBENCH_COMPILER,
                PERFBENCH_CXX_FLAGS);

    json_metrics m;
    const auto grind = [&](const lane_stats& st, double q) {
        return quantile(st.cycle_s, q) / zones * 1e6;
    };
    if (!a.trace) {
        m.add("setup_s", setup_s, "s");
        for (const std::string& n : lane_names()) {
            m.add("grind_us." + n, grind(set->find(n)->stats(), 0.5),
                  "us/zone/cycle");
        }
        m.add("peak_rss_mb", peak_rss_mb, "MiB");
    } else {
        const double workers = static_cast<double>(base.workers);
        for (const std::string& n : lane_names()) {
            const lane_stats& st = set->find(n)->stats();
            m.add("grind_us_mean." + n, mean(st.cycle_s) / zones * 1e6,
                  "us/zone/cycle");
            m.add("grind_us_p90." + n, grind(st, 0.9), "us/zone/cycle");
            m.add("traced.grind_us." + n, grind(st, 0.5), "us/zone/cycle");
        }
        m.add("traced.setup_s", setup_s, "s");
        m.add("traced.peak_rss_mb", peak_rss_mb, "MiB");

        // lulesh: kernels on a copy of the serial lane's mid-run domain.
        const lulesh::domain& mid = *set->find("serial")->single_domain();
        const kernel_times kt = time_kernels(mid, 5);
        m.add("kernel.force_us", kt.force_us, "us");
        m.add("kernel.node_us", kt.node_us, "us");
        m.add("kernel.elem_us", kt.elem_us, "us");
        m.add("kernel.eos_us", kt.eos_us, "us");
        m.add("kernel.constraints_us", kt.constraints_us, "us");
        m.add("kernel.bytes_per_zone", bytes_per_zone(mid, base.parts),
              "B/zone");
        m.add("domain.build_ms", domain_build_ms(base.problem, 3), "ms");

        // lulesh checkpoint chains: the resilient taskgraph lane, which
        // takes the injected fault; zero where no lane checkpoints.
        lane* tgl = set->find("taskgraph");
        const lane_stats& ck = tgl->stats();
        const double solves = static_cast<double>(ck.solves);
        m.add("ckpt.record_kib",
              ratio(static_cast<double>(ck.record_bytes),
                    static_cast<double>(ck.records)) / 1024.0,
              "KiB");
        m.add("ckpt.records_per_solve",
              ratio(static_cast<double>(ck.records), solves), "count");
        m.add("ckpt.rollbacks_per_solve",
              ratio(static_cast<double>(ck.rollbacks), solves), "count");
        m.add("ckpt.replay_ms",
              chain_replay_ms(*tgl->single_domain(), tgl->chain(), 5), "ms");

        // core: the task graph's phases, size and critical path.
        const lulesh::phase_profile& pp = tg->profile();
        for (std::size_t p = 0; p < lulesh::phase_profile::num_phases; ++p) {
            m.add(std::string("tg.phase_us.") + lulesh::phase_profile::name(p),
                  ratio(pp.seconds[p], pp.iterations) * 1e6, "us");
        }
        m.add("tg.tasks_per_cycle",
              static_cast<double>(tg->tasks_last_iteration()), "count");
        m.add("tg.compile_ms",
              graph_compile_ms(*set->rt, *tgl->single_domain(), base.parts, 3),
              "ms");
        const lulesh::critical_path_report cp =
            lulesh::analyze_critical_path(*tg->compiled(), base.workers);
        m.add("tg.cp_work_ms", cp.work_ns / 1e6, "ms");
        m.add("tg.cp_chain_ms", cp.critical_path_ns / 1e6, "ms");
        m.add("tg.cp_parallelism", cp.ideal_speedup, "x");

        // amt: counter deltas over each task lane's blocks.
        for (const char* n : {"taskgraph", "foreach", "dist"}) {
            const lane_stats& st = set->find(n)->stats();
            const auto cycles = static_cast<double>(st.block_cycles);
            const double slots = st.block_wall_s * 1e9 * workers;
            const auto busy = static_cast<double>(st.amt.productive_ns);
            const std::string sfx = std::string(".") + n;
            m.add("amt.tasks_per_cycle" + sfx,
                  ratio(static_cast<double>(st.amt.tasks_executed), cycles),
                  "count");
            m.add("amt.steals_per_cycle" + sfx,
                  ratio(static_cast<double>(st.amt.steals), cycles), "count");
            m.add("amt.steal_hit_ratio" + sfx,
                  ratio(static_cast<double>(st.amt.steals),
                        static_cast<double>(st.amt.steal_attempts)),
                  "ratio");
            m.add("amt.busy_share" + sfx, ratio(busy, slots), "ratio");
            m.add("amt.idle_ms_per_cycle" + sfx,
                  ratio(std::max(0.0, slots - busy), cycles) / 1e6, "ms");
        }
        const auto* task_h = find_hist(msnap, "amt_task_duration_ns");
        const auto* steal_h = find_hist(msnap, "amt_steal_latency_ns");
        m.add("amt.task_ns_p50",
              task_h ? static_cast<double>(task_h->quantile_bound(0.5)) : 0.0,
              "ns");
        m.add("amt.steal_latency_ns_p50",
              steal_h ? static_cast<double>(steal_h->quantile_bound(0.5)) : 0.0,
              "ns");

        // ompsim: the fork-join team's loop-body time over its blocks.
        {
            const lane_stats& st = set->find("parallel_for")->stats();
            const double slots = st.block_wall_s * 1e9 * workers;
            const auto busy = static_cast<double>(st.team_productive_ns);
            m.add("ompsim.busy_share", ratio(busy, slots), "ratio");
            m.add("ompsim.idle_ms_per_cycle",
                  ratio(std::max(0.0, slots - busy),
                        static_cast<double>(st.block_cycles)) / 1e6,
                  "ms");
        }

        // dist: halo receives recorded by the metrics registry.
        {
            const lane_stats& st = set->find("dist")->stats();
            const auto* h = find_hist(msnap, "dist_halo_rtt_ns");
            const double msgs = ratio(h ? static_cast<double>(h->count) : 0.0,
                                      static_cast<double>(st.block_cycles));
            m.add("dist.halo_msgs_per_cycle", msgs, "count");
            m.add("dist.halo_kib_per_cycle",
                  msgs * halo_message_bytes(base.problem, 4) / 1024.0, "KiB");
            m.add("dist.halo_rtt_us_p50",
                  h ? static_cast<double>(h->quantile_bound(0.5)) / 1e3 : 0.0,
                  "us");
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                ledger.log.ok() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), m.str().c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lanebench: %s\n", e.what());
        return 2;
    }
}

// perfbench/cpp/lanes.cpp — see lanes.hpp.

#include "lanes.hpp"

#include <chrono>
#include <stdexcept>

#include "amt/fault.hpp"
#include "core/driver_foreach.hpp"
#include "dist/driver_dist.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/driver_openmp.hpp"
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/resilient_run.hpp"

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

void add_counters(amt::counters_snapshot& sum,
                  const amt::counters_snapshot& d) {
    sum.tasks_executed += d.tasks_executed;
    sum.steals += d.steals;
    sum.steal_attempts += d.steal_attempts;
    sum.productive_ns += d.productive_ns;
    sum.num_workers = d.num_workers;
}

bool uses_amt(const std::string& name) {
    return name == "taskgraph" || name == "foreach" || name == "dist";
}

std::unique_ptr<lulesh::driver> make_driver(const std::string& name,
                                            const lane_env& env) {
    if (name == "serial") return std::make_unique<lulesh::serial_driver>();
    if (name == "openmp") {
        return std::make_unique<lulesh::openmp_driver>(env.workers);
    }
    if (name == "parallel_for") {
        return std::make_unique<lulesh::parallel_for_driver>(*env.team);
    }
    if (name == "foreach") {
        return std::make_unique<lulesh::foreach_driver>(*env.rt);
    }
    if (name == "taskgraph") {
        auto tg = std::make_unique<lulesh::taskgraph_driver>(*env.rt, env.parts);
        // Node profiling feeds the critical-path report; it is part of the
        // compiled shape, so it is set before the first (compiling) cycle.
        tg->enable_node_profiling(env.traced);
        return tg;
    }
    throw std::invalid_argument("unknown lane driver: " + name);
}

/// Resets `d` to the problem's initial state in place.  Copy-assignment
/// keeps every field's storage, so a compiled task graph bound to `d`
/// stays valid and is replayed, not recompiled.
void reset_domain(lulesh::domain& d, const lulesh::options& o) {
    const lulesh::domain fresh(o);
    d = fresh;
}

void reset_slab(lulesh::domain& d, const lulesh::options& o) {
    const lulesh::domain fresh(o, d.slab());
    d = fresh;
}

// --- plain lanes: one public run_simulation call per cycle -------------

class stepping_lane : public lane {
public:
    using lane::lane;

    void warm_up(run_ledger& ledger) override { advance(false, ledger); }

    void finish_solve(run_ledger& ledger) override {
        const std::uint64_t solves = stats_.solves;
        while (active_ && stats_.solves == solves) advance(false, ledger);
    }

protected:
    virtual lulesh::run_result step() = 0;
    [[nodiscard]] virtual int cycle() const = 0;
    [[nodiscard]] virtual bool at_stoptime() const = 0;
    [[nodiscard]] virtual std::uint32_t digest() const = 0;
    virtual void restart() = 0;

    void block(double block_s, run_ledger& ledger) override {
        const auto t0 = clock_type::now();
        do {
            advance(true, ledger);
        } while (active_ && seconds_since(t0) < block_s);
    }

private:
    void advance(bool timed, run_ledger& ledger) {
        const auto t0 = clock_type::now();
        const lulesh::run_result r = step();
        const double dt = seconds_since(t0);
        ++stats_.attempted;
        if (r.run_status != lulesh::status::ok) {
            ++stats_.failed;
            ledger.failed_ops.push_back(name_ + ": " + r.error_message);
            active_ = false;
            return;
        }
        if (timed) {
            stats_.cycle_s.push_back(dt);
            ++stats_.block_cycles;
        }
        const bool done = at_stoptime();
        if (cycle() % digest_every == 0 || done) {
            ledger.agree.record(name_, cycle(), digest(), ledger.log);
        }
        if (done) complete_solve(r, ledger);
    }

    void complete_solve(const lulesh::run_result& r, run_ledger& ledger) {
        ledger.solves.push_back(
            {name_, cycle(), r.final_origin_energy, digest(), 0});
        if (const lulesh::domain* d = single_domain()) {
            check_symmetry(*d, name_, ledger.log);
        }
        ++stats_.solves;
        if (env_.resolve) {
            restart();
        } else {
            active_ = false;
        }
    }
};

class domain_lane final : public stepping_lane {
public:
    domain_lane(const std::string& name, const lane_env& env)
        : stepping_lane(name, env),
          d_(std::make_unique<lulesh::domain>(env.problem)),
          drv_(make_driver(name, env)) {
        amt_ = uses_amt(name);
        team_ = name == "parallel_for";
    }

    [[nodiscard]] const lulesh::domain* single_domain() const override {
        return d_.get();
    }
    [[nodiscard]] lulesh::taskgraph_driver* taskgraph() override {
        return dynamic_cast<lulesh::taskgraph_driver*>(drv_.get());
    }

protected:
    lulesh::run_result step() override {
        return lulesh::run_simulation(*d_, *drv_, d_->cycle + 1);
    }
    [[nodiscard]] int cycle() const override { return d_->cycle; }
    [[nodiscard]] bool at_stoptime() const override {
        return d_->time_ >= d_->stoptime;
    }
    [[nodiscard]] std::uint32_t digest() const override {
        return state_digest(*d_);
    }
    void restart() override { reset_domain(*d_, env_.problem); }

private:
    std::unique_ptr<lulesh::domain> d_;
    std::unique_ptr<lulesh::driver> drv_;
};

/// dist_driver over 4 slabs: futurized exchange, no retry layer, no halo
/// timeout (the fail-stop configuration).
class dist_lane final : public stepping_lane {
public:
    static constexpr lulesh::index_t slabs = 4;

    dist_lane(const std::string& name, const lane_env& env)
        : stepping_lane(name, env),
          c_(std::make_unique<lulesh::dist::cluster>(env.problem, slabs)),
          drv_(std::make_unique<lulesh::dist::dist_driver>(*env.rt,
                                                           env.parts)) {
        amt_ = true;
    }

protected:
    lulesh::run_result step() override {
        return lulesh::dist::run_simulation(*c_, *drv_, c_->cycle() + 1);
    }
    [[nodiscard]] int cycle() const override { return c_->cycle(); }
    [[nodiscard]] bool at_stoptime() const override {
        return c_->time() >= c_->slab(0).stoptime;
    }
    [[nodiscard]] std::uint32_t digest() const override {
        return state_digest(*c_);
    }
    void restart() override {
        for (lulesh::index_t s = 0; s < c_->num_slabs(); ++s) {
            reset_slab(c_->slab(s), env_.problem);
        }
    }

private:
    std::unique_ptr<lulesh::dist::cluster> c_;
    std::unique_ptr<lulesh::dist::dist_driver> drv_;
};

// --- resilient lanes: run_resilient segments ----------------------------

class resilient_lane final : public lane {
public:
    resilient_lane(const std::string& name, const lane_env& env)
        : lane(name, env),
          d_(std::make_unique<lulesh::domain>(env.problem)),
          drv_(make_driver(name, env)),
          inject_(name == "taskgraph") {
        amt_ = uses_amt(name);
    }

    void warm_up(run_ledger&) override {
        // One plain cycle starts the pools and compiles the graph; the
        // solves start from the initial state.
        const lulesh::run_result r = lulesh::run_simulation(*d_, *drv_, 1);
        if (r.run_status != lulesh::status::ok) {
            throw std::runtime_error("warm-up cycle failed: " +
                                     r.error_message);
        }
        reset_domain(*d_, env_.problem);
    }

    void finish_solve(run_ledger& ledger) override {
        const std::uint64_t solves = stats_.solves;
        while (active_ && stats_.solves == solves) segment(false, ledger);
    }

    [[nodiscard]] const lulesh::domain* single_domain() const override {
        return d_.get();
    }
    [[nodiscard]] lulesh::taskgraph_driver* taskgraph() override {
        return dynamic_cast<lulesh::taskgraph_driver*>(drv_.get());
    }

protected:
    void block(double, run_ledger& ledger) override { segment(true, ledger); }

private:
    /// One segment of the current solve: run_resilient over the next
    /// segment_cycles cycles, with its own chain (entry base record, a
    /// record every cycle).  Segments rather than whole solves keep the
    /// blocks short, so every lane meets the host's slow spells alike.
    void segment(bool timed, run_ledger& ledger) {
        std::vector<double> intervals;
        clock_type::time_point last{};
        lulesh::resilience_options opt;
        opt.checkpoint_every = 1;
        // The hook runs between two advances, with the domain quiescent at
        // the cycle just computed — except inside a rollback, where it sees
        // the failed cycle's torn state.  env.fault_cycle is chosen so that
        // no torn cycle is a keyed one.  The hook's own work is excluded
        // from the next interval.
        opt.snapshot_hook = [&](std::string& rec) {
            const auto now = clock_type::now();
            if (last != clock_type::time_point{}) {
                intervals.push_back(
                    std::chrono::duration<double>(now - last).count());
            }
            ++stats_.records;
            stats_.record_bytes += rec.size();
            if (env_.traced) {
                if (lulesh::chain_record_is_base(rec)) chain_.clear();
                chain_.push_back(rec);
            }
            if (d_->cycle % digest_every == 0) {
                ledger.agree.record(name_, d_->cycle, state_digest(*d_),
                                    ledger.log);
            }
            last = clock_type::now();
        };
        // Armed for every segment; it fires only in the one that computes
        // env.fault_cycle, once (the replay runs clean).
        if (inject_) {
            amt::fault::plan p;
            p.site = "elem";
            p.epoch = env_.fault_cycle;
            amt::fault::arm(p);
        }
        const int first = d_->cycle;
        const lulesh::resilient_result rr =
            lulesh::run_resilient(*d_, *drv_, opt, first + segment_cycles);
        if (inject_) amt::fault::disarm();

        // The first interval spans the entry record and two cycles, the
        // last only the final commit; the rest are one cycle each.
        const auto cycles = static_cast<std::uint64_t>(d_->cycle - first);
        stats_.attempted += cycles;
        if (timed) {
            if (intervals.size() > 2) {
                stats_.cycle_s.insert(stats_.cycle_s.end(),
                                      intervals.begin() + 1,
                                      intervals.end() - 1);
            }
            stats_.block_cycles += cycles;
        }
        stats_.rollbacks += static_cast<std::uint64_t>(rr.rollbacks);
        solve_rollbacks_ += rr.rollbacks;
        if (rr.result.run_status != lulesh::status::ok) {
            ++stats_.failed;
            ledger.failed_ops.push_back(name_ + ": " +
                                        rr.result.error_message);
            active_ = false;
            return;
        }
        if (d_->time_ < d_->stoptime) return;

        const solve_record s{name_, d_->cycle, rr.result.final_origin_energy,
                             state_digest(*d_), solve_rollbacks_};
        ledger.agree.record(name_, s.cycles, s.final_digest, ledger.log);
        ledger.solves.push_back(s);
        check_symmetry(*d_, name_, ledger.log);
        ++stats_.solves;
        solve_rollbacks_ = 0;
        reset_domain(*d_, env_.problem);
    }

    static constexpr int segment_cycles = 32;

    std::unique_ptr<lulesh::domain> d_;
    std::unique_ptr<lulesh::driver> drv_;
    bool inject_;
    int solve_rollbacks_ = 0;
};

}  // namespace

void lane::run_block(double block_s, run_ledger& ledger) {
    amt::counters_snapshot a0;
    ompsim::timing_snapshot t0;
    if (amt_) a0 = env_.rt->snapshot_counters();
    if (team_) t0 = env_.team->snapshot_timing();
    const auto w0 = clock_type::now();
    block(block_s, ledger);
    stats_.block_wall_s += seconds_since(w0);
    if (amt_) add_counters(stats_.amt, amt::delta(a0, env_.rt->snapshot_counters()));
    if (team_) {
        stats_.team_productive_ns +=
            env_.team->snapshot_timing().productive_ns - t0.productive_ns;
    }
}

std::unique_ptr<lane> make_plain_lane(const std::string& name,
                                      const lane_env& env) {
    if (name == "dist") return std::make_unique<dist_lane>(name, env);
    return std::make_unique<domain_lane>(name, env);
}

std::unique_ptr<lane> make_resilient_lane(const std::string& name,
                                          const lane_env& env) {
    if (name != "taskgraph" && name != "openmp") {
        throw std::invalid_argument("no resilient lane for driver " + name);
    }
    return std::make_unique<resilient_lane>(name, env);
}

}  // namespace perfbench

// perfbench/cpp/checks.cpp — see checks.hpp.

#include "checks.hpp"

#include <cstdio>
#include <sstream>

#include "lulesh/crc32c.hpp"
#include "lulesh/validate.hpp"

namespace perfbench {

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::real_t;

// Node fields first, then element fields, then the scalars: the order is
// the same for a domain and for a cluster, so the two digests agree.
using field_ptr = std::vector<real_t> domain::*;
constexpr field_ptr node_fields[] = {&domain::x,  &domain::y,  &domain::z,
                                     &domain::xd, &domain::yd, &domain::zd};
constexpr field_ptr elem_fields[] = {&domain::e, &domain::p, &domain::q,
                                     &domain::v, &domain::ss};

void hash_range(lulesh::crc32c& c, const std::vector<real_t>& f,
                index_t lo, index_t hi) {
    c.update(f.data() + lo, static_cast<std::size_t>(hi - lo) * sizeof(real_t));
}

void hash_scalars(lulesh::crc32c& c, const domain& d) {
    const real_t s[] = {d.time_, d.deltatime, d.dtcourant, d.dthydro};
    c.update(s, sizeof s);
    c.update(&d.cycle, sizeof d.cycle);
}

std::string sci(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6e", v);
    return buf;
}

}  // namespace

std::uint32_t state_digest(const domain& d) {
    lulesh::crc32c c;
    for (field_ptr f : node_fields) hash_range(c, d.*f, 0, d.numNode());
    for (field_ptr f : elem_fields) hash_range(c, d.*f, 0, d.numElem());
    hash_scalars(c, d);
    return c.value();
}

std::uint32_t state_digest(const lulesh::dist::cluster& cl) {
    lulesh::crc32c c;
    for (field_ptr f : node_fields) {
        for (index_t s = 0; s < cl.num_slabs(); ++s) {
            const domain& d = cl.slab(s);
            // A slab's lowest node plane is the top plane of the slab below.
            hash_range(c, d.*f, s == 0 ? 0 : d.nodes_per_plane(), d.numNode());
        }
    }
    for (field_ptr f : elem_fields) {
        for (index_t s = 0; s < cl.num_slabs(); ++s) {
            hash_range(c, cl.slab(s).*f, 0, cl.slab(s).numElem());
        }
    }
    hash_scalars(c, cl.slab(0));
    return c.value();
}

void agreement::record(const std::string& lane, int cycle,
                       std::uint32_t digest, check_log& log) {
    cycles_of_[lane].insert(cycle);
    auto [it, inserted] = by_cycle_.try_emplace(cycle, first_record{lane, digest});
    if (inserted) return;
    ++comparisons_;
    if (it->second.digest != digest) {
        std::ostringstream os;
        os << "state of lane " << lane << " at cycle " << cycle
           << " differs from lane " << it->second.lane << " (digest "
           << std::hex << digest << " vs " << it->second.digest << ")";
        log.fail(os.str());
    }
}

void agreement::require_common(const std::string& ref,
                               const std::vector<std::string>& lanes,
                               check_log& log) const {
    const auto r = cycles_of_.find(ref);
    for (const std::string& lane : lanes) {
        if (lane == ref) continue;
        const auto l = cycles_of_.find(lane);
        bool common = false;
        if (r != cycles_of_.end() && l != cycles_of_.end()) {
            for (int c : l->second) {
                if (r->second.count(c) != 0) {
                    common = true;
                    break;
                }
            }
        }
        if (!common) {
            log.fail("lane " + lane + " shares no compared cycle with lane " +
                     ref);
        }
    }
}

void check_solve_cycles(const std::vector<solve_record>& solves,
                        check_log& log) {
    for (const solve_record& s : solves) {
        if (s.cycles != solves.front().cycles) {
            log.fail("solve of lane " + s.lane + " took " +
                     std::to_string(s.cycles) + " cycles, lane " +
                     solves.front().lane + " took " +
                     std::to_string(solves.front().cycles));
        }
    }
}

void check_upstream_anchor(const solve_record& s, check_log& log) {
    constexpr int cycles = 932;
    constexpr const char* energy_text = "2.025075e+05";
    if (s.cycles != cycles) {
        log.fail("lane " + s.lane + " took " + std::to_string(s.cycles) +
                 " cycles to stoptime; the upstream reference takes " +
                 std::to_string(cycles));
    }
    if (sci(s.origin_energy) != energy_text) {
        log.fail("lane " + s.lane + " final origin energy " +
                 sci(s.origin_energy) + "; the upstream reference prints " +
                 energy_text);
    }
}

void check_symmetry(const domain& d, const std::string& lane,
                    check_log& log) {
    const double rel = lulesh::check_energy_symmetry(d).max_rel_diff;
    if (!(rel <= symmetry_max_rel)) {
        log.fail("lane " + lane + " energy symmetry max rel diff " + sci(rel) +
                 " at cycle " + std::to_string(d.cycle));
    }
}

void check_recovery(const solve_record& faulted, const solve_record& clean,
                    int rollbacks, check_log& log) {
    if (faulted.rollbacks != rollbacks) {
        log.fail("resilient solve of lane " + faulted.lane + " rolled back " +
                 std::to_string(faulted.rollbacks) + " times, expected " +
                 std::to_string(rollbacks));
    }
    if (faulted.final_digest != clean.final_digest) {
        log.fail("recovered solve of lane " + faulted.lane +
                 " ends differently from the solve of lane " + clean.lane);
    }
}

}  // namespace perfbench

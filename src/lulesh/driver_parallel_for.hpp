// lulesh/driver_parallel_for.hpp
//
// The OpenMP-reference baseline on the ompsim team: the fork-join skeleton
// (lulesh/fork_join.hpp) with every reference loop one statically-scheduled
// loop and an implicit barrier — ~30 distinct loops per leapfrog iteration,
// plus ~20 loops per region per EOS repetition, exactly the synchronization
// structure whose overhead the paper's task-based approach removes.

#pragma once

#include "lulesh/driver.hpp"
#include "ompsim/ompsim.hpp"

namespace lulesh {

class parallel_for_driver final : public driver {
public:
    /// The team is borrowed; it must outlive the driver.  One driver per
    /// team (scratch buffers are per-driver).
    explicit parallel_for_driver(ompsim::team& team) : team_(team) {}

    [[nodiscard]] std::string name() const override { return "parallel_for"; }
    void advance(domain& d) override;

private:
    ompsim::team& team_;
    fork_join_scratch scratch_;
};

}  // namespace lulesh

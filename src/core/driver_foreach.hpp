// core/driver_foreach.hpp
//
// The naive AMT port the paper's related work discusses (Wei's lulesh-hpx):
// the fork-join skeleton (lulesh/fork_join.hpp) on the task runtime, every
// reference parallel loop an hpx::for_each-style wave of chunk tasks
// followed by a blocking barrier.  It demonstrates why 1:1 loop replacement
// loses to OpenMP (more task-creation overhead than static work sharing,
// same number of barriers) and serves as the ablation baseline for the
// paper's task-chaining tricks.

#pragma once

#include <vector>

#include "amt/amt.hpp"
#include "lulesh/driver.hpp"

namespace lulesh {

class foreach_driver final : public driver {
public:
    /// The runtime is borrowed; it must outlive the driver.
    explicit foreach_driver(amt::runtime& rt) : rt_(rt) {}

    [[nodiscard]] std::string name() const override { return "foreach"; }
    void advance(domain& d) override;

private:
    amt::runtime& rt_;
    fork_join_scratch scratch_;
    std::vector<kernels::dt_constraints> partials_;
};

}  // namespace lulesh

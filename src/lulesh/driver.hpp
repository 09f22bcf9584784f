// lulesh/driver.hpp
//
// A driver advances the Lagrange leapfrog by one iteration.  All drivers
// execute the same kernels (see kernels.hpp) and therefore produce bitwise
// identical fields; they differ only in how the per-iteration work is
// decomposed and synchronized.  Four of them are executors of one fork-join
// skeleton (lulesh/fork_join.hpp) that runs the reference's loop sequence;
// the executor only picks the chunking, the barrier, the boundary-condition
// region and the min-reduction:
//
//   serial_driver        — every loop over its full range, in order.
//   parallel_for_driver  — ompsim team (the OpenMP reference baseline):
//                          one static contiguous chunk per thread, team
//                          barrier per loop, the three BC loops in one
//                          region, reduce_min across the team.
//   openmp_driver        — the same with real `#pragma omp parallel`
//                          regions and reduction(min:) (optional build).
//   foreach_driver       — (src/core) amt runtime, hpx::for_each-style: each
//                          loop a wave of n/(workers*8)-element tasks and a
//                          blocking wait, three BC waves, per-chunk partial
//                          minima; the naive HPX port the paper's related
//                          work shows to be slower than OpenMP.
//
// taskgraph_driver (src/core) is the paper's contribution: a pre-created
// task graph per iteration with continuation chains and few barriers.

#pragma once

#include <memory>
#include <string>

#include "lulesh/domain.hpp"
#include "lulesh/fork_join.hpp"
#include "lulesh/options.hpp"
#include "lulesh/types.hpp"

namespace lulesh {

class dirty_tracker;   // lulesh/checkpoint_chain.hpp
class state_capture;   // lulesh/checkpoint_chain.hpp

class driver {
public:
    driver() = default;
    driver(const driver&) = delete;
    driver& operator=(const driver&) = delete;
    virtual ~driver() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// One LagrangeLeapFrog iteration at the domain's current deltatime:
    /// LagrangeNodal, LagrangeElements, CalcTimeConstraintsForElems.
    /// Throws simulation_error on a volume or qstop violation.
    virtual void advance(domain& d) = 0;

    /// Reports the (field × index-range) write-sets of one advance() to the
    /// incremental-checkpoint dirty tracker.  The default conservatively
    /// marks every checkpointed field over its full extent; the task-graph
    /// driver reports its declared per-task write-sets instead.
    virtual void record_dirty(dirty_tracker& t, const domain& d) const;

    /// Offers the driver a checkpoint capture to pack as tasks overlapped
    /// with its next advance().  Returns false (the default) when the
    /// driver does not overlap; the resilient loop then packs
    /// synchronously.  A driver that accepts must guarantee every region is
    /// packed from the pre-advance state (the task-graph driver joins packs
    /// into the barrier before the first wave that writes each field).
    virtual bool submit_overlapped_capture(std::shared_ptr<state_capture> cap);
};

/// Reference-ordered single-threaded driver; the ground truth for tests.
class serial_driver final : public driver {
public:
    [[nodiscard]] std::string name() const override { return "serial"; }
    void advance(domain& d) override;

private:
    fork_join_scratch scratch_;
};

/// Runs `drv` on `d` until stoptime or `max_cycles`, whichever comes first.
/// The iteration loop matches the reference main(): TimeIncrement, then
/// LagrangeLeapFrog.
run_result run_simulation(domain& d, driver& drv,
                          int max_cycles = std::numeric_limits<int>::max());

}  // namespace lulesh

#pragma once

/**
 * @file
 * Event-driven model of multistage dynamic-network RSINs (paper
 * Section V).  Each of the i networks is a j x j Omega (or indirect
 * binary n-cube) circuit-switched fabric with r resources per output
 * port.  Scheduling uses the distributed algorithm: every request is
 * steered box-by-box toward reachable free resources (OmegaRouter);
 * transmissions hold their path; the path is torn down when the data
 * transfer finishes while the resource continues serving.
 *
 * Two baseline scheduling modes support the paper's comparisons:
 *  - AddressRandomFree: a centralized scheduler hands each request the
 *    address of a uniformly random free resource; the network then
 *    routes by tags and blocks if the fixed path is unavailable
 *    (Section I's conventional address-mapping operation);
 *  - AddressFirstFree: same, but the scheduler always picks the
 *    lowest-numbered free output.
 */

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "rsin/system.hpp"
#include "sched/omega_boxes.hpp"
#include "sched/omega_router.hpp"
#include "sched/resource_pool.hpp"
#include "topology/multistage.hpp"

namespace rsin {

/** How requests are matched with resources in a multistage system. */
enum class OmegaScheduling
{
    Distributed,       ///< RSIN algorithm with exact (fresh) status
    DistributedClocked, ///< RSIN algorithm on the clocked boxes of
                        ///< Fig. 10: stale status, rejects, reroutes
    AddressRandomFree, ///< centralized: random free output, tag routing
    AddressFirstFree,  ///< centralized: first free output, tag routing
};

/** How typed resources are laid out over the output ports (the open
 *  placement question of the paper's conclusion). */
enum class TypePlacement
{
    RoundRobin, ///< deal types cyclically across all ports (spread)
    Clustered,  ///< give each type a contiguous band of ports
};

/** Extra knobs for the multistage model. */
struct OmegaOptions
{
    OmegaScheduling scheduling = OmegaScheduling::Distributed;
    sched::RoutingPolicy policy = sched::RoutingPolicy::MostResources;
    TypePlacement placement = TypePlacement::RoundRobin;

    /**
     * Model the result-return path of Section II: "After the task is
     * serviced, the result is routed to the originating processor...
     * by a separate address-mapping network with parallel routing
     * since the destination address is known."  When enabled, a mirror
     * circuit-switched network carries one result at a time per output
     * port back to the task's processor; response times then include
     * the return queueing and transmission.  The queueing delay d of
     * the figures is unaffected (it ends when the forward connection
     * is established).
     */
    bool modelReturnNetwork = false;
    /** Return-transmission rate; 0 means "same as muN". */
    double muReturn = 0.0;
};

/** Simulation model for p/i x j x j OMEGA/r (or CUBE) systems. */
class OmegaSystem : public SystemSimulation
{
  public:
    OmegaSystem(const SystemConfig &config,
                const workload::WorkloadParams &params,
                const SimOptions &options,
                const OmegaOptions &omega_options = {},
                const ShardContext &shard = {});

#if RSIN_CONTRACTS_ENABLED
    /** TEST ONLY (contract builds): skew one availability register of
     *  the first network, proving the register contract fires. */
    void debugCorruptRegistersForTest();
#endif

  protected:
    /**
     * Re-examine every network: a rejected request is counted (and
     * under AddressRandomFree draws the RNG) each time it is examined,
     * so skipping an untouched network would change the statistics.
     */
    void dispatch(std::size_t proc) override;

#if RSIN_CONTRACTS_ENABLED
    /** Every network's availability registers equal a rebuild. */
    void checkModelStatus() const override;
#endif

  private:
    struct Net
    {
        std::size_t firstProcessor = 0;
        std::unique_ptr<topology::MultistageNetwork> topo;
        std::unique_ptr<topology::CircuitState> circuit;
        std::unique_ptr<sched::ResourcePool> pool;
        std::unique_ptr<sched::OmegaRouter> router;
        /** Live status (Distributed scheduling only): every claim and
         *  release of circuit and pool goes through it. */
        std::unique_ptr<sched::AvailabilityRegisters> registers;
        std::unique_ptr<sched::ClockedOmegaScheduler> clocked;
        /** Return path (only when modelReturnNetwork is set). */
        std::unique_ptr<topology::CircuitState> returnCircuit;
        std::vector<std::deque<workload::Task>> returnQueues;
        std::vector<bool> returnBusy;
    };

    void dispatchNet(Net &net);
    void dispatchNetClocked(Net &net);
    void finishService(Net &net, workload::Task task);
    void dispatchReturns(Net &net);
    std::optional<sched::RouteResult> scheduleRequest(Net &net,
                                                      std::size_t input,
                                                      std::size_t type);
    void startOn(Net &net, std::size_t proc, sched::RouteResult route);
    void releasePath(Net &net, const std::vector<std::size_t> &path);
    void releaseResource(Net &net, const sched::ResourceRef &resource);

    std::vector<Net> nets_;
    OmegaOptions omegaOptions_;
    /** Rejections of each processor's current head task, so that
     *  routingAttempts = rejections + 1 when it finally connects. */
    std::vector<std::uint32_t> headRejections_;
};

} // namespace rsin

#pragma once

/**
 * @file
 * Distributed resource routing over a circuit-switched multistage
 * network (paper Section V), in the "status information is current"
 * idealization that the queueing simulations use (assumption (c):
 * negligible propagation delay).
 *
 * Availability registers: every interchange box keeps, per output port
 * and per resource type, the number of free resources reachable through
 * that port over currently-free links.  A request entering the network
 * is steered at every box toward a port with positive availability; the
 * claimed path's segments and the claimed resource are marked busy, so
 * subsequent requests see updated status.  Because each output is
 * reached by a unique path (banyan property), the availability counts
 * are exact sums and greedy steering always terminates at a free
 * resource when the entry availability is positive.
 *
 * Two sources feed the same steering walk.  AvailabilityRegisters keeps
 * the counts of one live network current as the hardware does: every
 * circuit or resource claim and release pushes its change up the
 * fan-in of the segment it touched, so a request that finds no free
 * resource is rejected by one register read, and a routed request
 * walks stages() boxes.  OmegaRouter's own tryRoute()/availability()
 * rebuild the counts from scratch for one-off probes of a circuit and
 * pool they do not track; that rebuild is also the contract oracle
 * the registers are checked against.
 *
 * The clocked, stale-status hardware realization of the same algorithm
 * (Fig. 10) lives in omega_boxes.hpp; the two are compared in tests.
 */

#include <cstddef>
#include <optional>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "sched/resource_pool.hpp"
#include "topology/multistage.hpp"

namespace rsin {
namespace sched {

/** Tie-break policy when both box ports lead to free resources. */
enum class RoutingPolicy
{
    MostResources, ///< S-register counts: take the richer subtree
    PreferUpper,   ///< deterministic: port 0 when possible
    RandomTie,     ///< break ties uniformly at random
};

/** Outcome of a successful route. */
struct RouteResult
{
    std::vector<std::size_t> path; ///< boundary links, size stages()+1
    std::size_t outputPort = 0;    ///< port whose bus now transmits
    ResourceRef resource;          ///< the claimed resource
    std::size_t boxesTraversed = 0;
};

/**
 * Greedy distributed router with exact (instantaneous) status.
 * Owns neither the circuit state nor the pool; callers hold them so the
 * same objects can feed several cooperating components.
 */
class OmegaRouter
{
  public:
    OmegaRouter(const topology::MultistageNetwork &net,
                RoutingPolicy policy = RoutingPolicy::MostResources);

    RoutingPolicy policy() const { return policy_; }

    /**
     * Availability of type-@p type resources from input @p src given
     * current circuit and pool state: the count of free resources
     * reachable over free segments.  Positive iff tryRoute would
     * succeed.
     */
    std::size_t availability(const topology::CircuitState &circuit,
                             const ResourcePool &pool, std::size_t src,
                             std::size_t type = 0) const;

    /**
     * Attempt to connect input @p src to any free resource of
     * @p type.  On success the path segments are claimed in
     * @p circuit, the resource in @p pool, and the result returned.
     */
    std::optional<RouteResult> tryRoute(topology::CircuitState &circuit,
                                        ResourcePool &pool,
                                        std::size_t src, Rng &rng,
                                        std::size_t type = 0) const;

    /**
     * Address-mapping baseline: route @p src to the *specific* output
     * @p dst (routing tags); fails if any path segment is busy or no
     * type-@p type resource is free there.  Used for the Section V
     * blocking-probability comparison.
     */
    std::optional<RouteResult>
    tryRouteAddressed(topology::CircuitState &circuit, ResourcePool &pool,
                      std::size_t src, std::size_t dst,
                      std::size_t type = 0) const;

    /**
     * Per-boundary-link availability counts for @p type, rebuilt from
     * scratch by a backward pass over the topology: entry
     * b * size() + l is the number of free type-@p type resources
     * reachable when about to traverse segment (b, l), zero when that
     * segment is itself held.
     */
    std::vector<std::size_t>
    availabilityMap(const topology::CircuitState &circuit,
                    const ResourcePool &pool, std::size_t type) const;

  private:
    friend class AvailabilityRegisters;

    /**
     * Steer from input @p src (whose count in @p avail, laid out as
     * availabilityMap's, is positive) box by box to an output port.
     */
    RouteResult steer(const std::size_t *avail, std::size_t src,
                      Rng &rng) const;

    const topology::MultistageNetwork *net_;
    RoutingPolicy policy_;
    std::size_t size_;
    std::size_t stages_;
    /** box_[stage * size_ + l]: the stage's box fed by boundary link l. */
    std::vector<std::size_t> box_;
    /** feed_[stage * size_ + 2 * box + port]: the boundary-stage link
     *  feeding that input port of the stage's box (inverse wiring). */
    std::vector<std::size_t> feed_;
};

/**
 * The availability registers of one network, kept current the way the
 * paper's hardware pushes status: each circuit or resource claim and
 * release updates the count of the segment it touched and pushes the
 * difference up that segment's fan-in, stopping at held segments.
 * Counts are kept per resource type.
 *
 * The bound circuit and pool must change only through this object
 * while it lives; matchesOracle() compares every register with
 * the router's from-scratch availabilityMap.
 */
class AvailabilityRegisters
{
  public:
    /** Bind to @p circuit and @p pool and load their current status. */
    AvailabilityRegisters(const OmegaRouter &router,
                          topology::CircuitState &circuit,
                          ResourcePool &pool);

    /** Register read: free type-@p type resources reachable from
     *  input @p src (0 for a type the pool does not carry). */
    std::size_t availability(std::size_t src, std::size_t type = 0) const;

    /** OmegaRouter::tryRoute on the live registers. */
    std::optional<RouteResult> tryRoute(std::size_t src, Rng &rng,
                                        std::size_t type = 0);

    /** Tear down a circuit set up by tryRoute(). */
    void releasePath(const std::vector<std::size_t> &path);

    /** Return a resource claimed by tryRoute() to the pool. */
    void releaseResource(const ResourceRef &ref);

    /** True iff every register equals the from-scratch rebuild. */
    bool matchesOracle() const;

#if RSIN_CONTRACTS_ENABLED
    /** TEST ONLY (contract builds): skew one register. */
    void debugCorruptForTest() { ++counts_[0]; }
#endif

  private:
    std::size_t
    index(std::size_t type, std::size_t boundary, std::size_t link) const
    {
        return (type * (stages_ + 1) + boundary) * size_ + link;
    }

    /** Add (or, with !raise, subtract) @p amount to every free segment
     *  up the fan-in of segment (@p boundary, @p link). */
    void pushFanIn(std::size_t type, std::size_t boundary,
                   std::size_t link, std::size_t amount, bool raise);

    const OmegaRouter *router_;
    topology::CircuitState *circuit_;
    ResourcePool *pool_;
    std::size_t size_;
    std::size_t stages_;
    std::size_t types_;
    /** [type][boundary][link], each type's slab laid out as
     *  OmegaRouter::availabilityMap's. */
    std::vector<std::size_t> counts_;
};

} // namespace sched
} // namespace rsin

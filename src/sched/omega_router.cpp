#include "omega_router.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rsin {
namespace sched {

OmegaRouter::OmegaRouter(const topology::MultistageNetwork &net,
                         RoutingPolicy policy)
    : net_(&net), policy_(policy), size_(net.size()),
      stages_(net.stages()), box_(stages_ * size_), feed_(stages_ * size_)
{
    for (std::size_t stage = 0; stage < stages_; ++stage) {
        for (std::size_t l = 0; l < size_; ++l) {
            const std::size_t pos = net.stagePosition(stage, l);
            box_[stage * size_ + l] = pos / 2;
            feed_[stage * size_ + pos] = l;
        }
    }
}

std::vector<std::size_t>
OmegaRouter::availabilityMap(const topology::CircuitState &circuit,
                             const ResourcePool &pool,
                             std::size_t type) const
{
    const std::size_t n = net_->size();
    const std::size_t stages = net_->stages();
    RSIN_REQUIRE(pool.ports() == n,
                 "availabilityMap: pool ports != network outputs");

    // Walks the topology itself rather than the router's flat tables,
    // so the map stays an independent oracle for those tables.
    std::vector<std::size_t> avail((stages + 1) * n, 0);
    for (std::size_t l = 0; l < n; ++l) {
        avail[stages * n + l] =
            circuit.segmentFree(stages, l) ? pool.freeCount(l, type) : 0;
    }
    for (std::size_t b = stages; b-- > 0;) {
        for (std::size_t l = 0; l < n; ++l) {
            if (!circuit.segmentFree(b, l))
                continue;
            const std::size_t box = net_->boxOf(b, l);
            avail[b * n + l] =
                avail[(b + 1) * n + net_->outputLink(box, 0)] +
                avail[(b + 1) * n + net_->outputLink(box, 1)];
        }
    }
    return avail;
}

std::size_t
OmegaRouter::availability(const topology::CircuitState &circuit,
                          const ResourcePool &pool, std::size_t src,
                          std::size_t type) const
{
    RSIN_REQUIRE(src < net_->size(), "availability: bad input");
    return availabilityMap(circuit, pool, type)[src];
}

RouteResult
OmegaRouter::steer(const std::size_t *avail, std::size_t src,
                   Rng &rng) const
{
    RouteResult result;
    result.path.reserve(stages_ + 1);
    std::size_t link = src;
    result.path.push_back(link);
    for (std::size_t stage = 0; stage < stages_; ++stage) {
        // The box's output ports drive boundary-(stage+1) links
        // 2 * box and 2 * box + 1.
        const std::size_t up = 2 * box_[stage * size_ + link];
        const std::size_t *next = avail + (stage + 1) * size_;
        const std::size_t a0 = next[up];
        const std::size_t a1 = next[up + 1];
        RSIN_ASSERT(a0 + a1 > 0, "tryRoute: availability bookkeeping hole");
        std::size_t q;
        if (a0 == 0) {
            q = 1;
        } else if (a1 == 0) {
            q = 0;
        } else {
            switch (policy_) {
              case RoutingPolicy::MostResources:
                // The S registers carry counts; take the richer subtree,
                // breaking exact ties toward the upper port.
                q = a1 > a0 ? 1 : 0;
                break;
              case RoutingPolicy::PreferUpper:
                q = 0;
                break;
              case RoutingPolicy::RandomTie:
                q = rng.uniformInt(std::uint64_t{2});
                break;
              default:
                RSIN_PANIC("tryRoute: unknown policy");
            }
        }
        link = up + q;
        result.path.push_back(link);
        ++result.boxesTraversed;
    }
    result.outputPort = link;
    return result;
}

std::optional<RouteResult>
OmegaRouter::tryRoute(topology::CircuitState &circuit, ResourcePool &pool,
                      std::size_t src, Rng &rng, std::size_t type) const
{
    RSIN_REQUIRE(src < net_->size(), "tryRoute: bad input");
    const auto avail = availabilityMap(circuit, pool, type);
    if (avail[src] == 0)
        return std::nullopt;
    RouteResult result = steer(avail.data(), src, rng);
    circuit.claim(result.path);
    result.resource = pool.claim(result.outputPort, type);
    return result;
}

std::optional<RouteResult>
OmegaRouter::tryRouteAddressed(topology::CircuitState &circuit,
                               ResourcePool &pool, std::size_t src,
                               std::size_t dst, std::size_t type) const
{
    RSIN_REQUIRE(src < net_->size() && dst < net_->size(),
                 "tryRouteAddressed: bad endpoints");
    if (!pool.hasFree(dst, type))
        return std::nullopt;
    const std::vector<std::size_t> path = net_->path(src, dst);
    if (!circuit.pathFree(path))
        return std::nullopt;
    RouteResult result;
    result.path = path;
    result.outputPort = dst;
    result.boxesTraversed = net_->stages();
    circuit.claim(result.path);
    result.resource = pool.claim(dst, type);
    return result;
}

AvailabilityRegisters::AvailabilityRegisters(const OmegaRouter &router,
                                             topology::CircuitState &circuit,
                                             ResourcePool &pool)
    : router_(&router), circuit_(&circuit), pool_(&pool),
      size_(router.size_), stages_(router.stages_),
      types_(pool.typeCount())
{
    RSIN_REQUIRE(&circuit.network() == router.net_,
                 "AvailabilityRegisters: circuit of another network");
    counts_.reserve(types_ * (stages_ + 1) * size_);
    for (std::size_t type = 0; type < types_; ++type) {
        const auto map = router.availabilityMap(circuit, pool, type);
        counts_.insert(counts_.end(), map.begin(), map.end());
    }
}

std::size_t
AvailabilityRegisters::availability(std::size_t src, std::size_t type) const
{
    RSIN_REQUIRE(src < size_, "availability: bad input");
    return type < types_ ? counts_[index(type, 0, src)] : 0;
}

void
AvailabilityRegisters::pushFanIn(std::size_t type, std::size_t boundary,
                                 std::size_t link, std::size_t amount,
                                 bool raise)
{
    if (boundary == 0)
        return; // processor wires: nothing upstream
    // Link l at this boundary is driven by box l / 2 of the stage above.
    const std::size_t stage = boundary - 1;
    const std::size_t *feed =
        &router_->feed_[stage * size_ + (link & ~std::size_t{1})];
    for (std::size_t port = 0; port < 2; ++port) {
        const std::size_t in = feed[port];
        if (!circuit_->segmentFree(stage, in))
            continue; // a held segment reads 0 whatever lies below it
        std::size_t &count = counts_[index(type, stage, in)];
        RSIN_ASSERT(raise || count >= amount,
                    "AvailabilityRegisters: count underflow");
        count = raise ? count + amount : count - amount;
        pushFanIn(type, stage, in, amount, raise);
    }
}

std::optional<RouteResult>
AvailabilityRegisters::tryRoute(std::size_t src, Rng &rng,
                                std::size_t type)
{
    if (availability(src, type) == 0)
        return std::nullopt;
    RouteResult result =
        router_->steer(&counts_[index(type, 0, 0)], src, rng);
    // Claim top-down.  A segment's count depends only on the segments
    // below it, so each one still holds its pre-claim count when it is
    // claimed, and the already-held path segment above stops the push.
    for (std::size_t b = 0; b <= stages_; ++b) {
        const std::size_t l = result.path[b];
        circuit_->claimSegment(b, l);
        for (std::size_t t = 0; t < types_; ++t) {
            const std::size_t was = counts_[index(t, b, l)];
            counts_[index(t, b, l)] = 0;
            if (was > 0)
                pushFanIn(t, b, l, was, false);
        }
    }
    // The output segment is held now, so the resource claim behind it
    // changes no register.
    result.resource = pool_->claim(result.outputPort, type);
    return result;
}

void
AvailabilityRegisters::releasePath(const std::vector<std::size_t> &path)
{
    RSIN_REQUIRE(path.size() == stages_ + 1,
                 "releasePath: path has wrong length");
    // Release bottom-up, so each freed segment's count is rebuilt from
    // segments below it that are already current.
    for (std::size_t b = stages_ + 1; b-- > 0;) {
        const std::size_t l = path[b];
        circuit_->releaseSegment(b, l);
        for (std::size_t t = 0; t < types_; ++t) {
            std::size_t now;
            if (b == stages_) {
                now = pool_->freeCount(l, t);
            } else {
                const std::size_t up = 2 * router_->box_[b * size_ + l];
                now = counts_[index(t, b + 1, up)] +
                      counts_[index(t, b + 1, up + 1)];
            }
            counts_[index(t, b, l)] = now;
            if (now > 0)
                pushFanIn(t, b, l, now, true);
        }
    }
}

void
AvailabilityRegisters::releaseResource(const ResourceRef &ref)
{
    pool_->release(ref);
    if (!circuit_->segmentFree(stages_, ref.port))
        return; // the port's bus is held: its register reads 0
    const std::size_t type = pool_->typeOf(ref.port, ref.index);
    ++counts_[index(type, stages_, ref.port)];
    pushFanIn(type, stages_, ref.port, 1, true);
}

bool
AvailabilityRegisters::matchesOracle() const
{
    for (std::size_t type = 0; type < types_; ++type) {
        const auto map = router_->availabilityMap(*circuit_, *pool_, type);
        if (!std::equal(map.begin(), map.end(),
                        counts_.begin() +
                            static_cast<std::ptrdiff_t>(index(type, 0, 0))))
            return false;
    }
    return true;
}

} // namespace sched
} // namespace rsin

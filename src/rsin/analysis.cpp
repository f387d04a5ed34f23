#include "analysis.hpp"

#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "markov/xbar_model.hpp"
#include "queueing/mm_queues.hpp"
#include "rsin/analysis_cache.hpp"
#include "topology/multistage.hpp"

namespace rsin {

namespace {

/** Largest lumped phase space the exact chains are allowed to solve.
 *  Beyond it even the sparse path gets expensive, and the reductions
 *  plus simulation remain the fallback. */
constexpr std::size_t kNetChainPhaseLimit = 1024;

markov::NetChainParams
netChainParams(const SystemConfig &config, double lambda, double mu_n,
               double mu_s)
{
    markov::NetChainParams prm;
    prm.processors = config.inputsPerNet;
    prm.buses = config.outputsPerNet;
    prm.resources = config.resourcesPerPort;
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    return prm;
}

bool
isPowerOfTwo(std::size_t v)
{
    return v >= 2 && (v & (v - 1)) == 0;
}

} // namespace

double
lambdaForRho(const SystemConfig &config, double rho, double mu_n,
             double mu_s)
{
    return queueing::arrivalRateForIntensity(
        config.processors, config.totalResources(), rho, mu_n, mu_s);
}

double
rhoForLambda(const SystemConfig &config, double lambda, double mu_n,
             double mu_s)
{
    return queueing::paperTrafficIntensity(
        config.processors, config.totalResources(), lambda, mu_n, mu_s);
}

markov::SbusSolution
analyzeSbus(const SystemConfig &config, double lambda, double mu_n,
            double mu_s)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::SingleBus,
                 "analyzeSbus: not an SBUS configuration: ", config.str());
    markov::SbusParams prm;
    prm.p = config.processorsPerNet();
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    prm.r = config.resourcesPerPort;
    return AnalysisCache::global().solve(prm,
                                         SbusSolverKind::MatrixGeometric);
}

bool
xbarExactInRange(const SystemConfig &config)
{
    if (config.network != NetworkClass::Crossbar)
        return false;
    return markov::netChainPhaseCount(config.inputsPerNet,
                                      config.outputsPerNet,
                                      config.resourcesPerPort) <=
           kNetChainPhaseLimit;
}

bool
omegaExactInRange(const SystemConfig &config)
{
    if (config.network != NetworkClass::Omega)
        return false;
    // The topology is only defined for square power-of-two networks.
    if (config.inputsPerNet != config.outputsPerNet ||
        !isPowerOfTwo(config.inputsPerNet))
        return false;
    return markov::netChainPhaseCount(config.inputsPerNet,
                                      config.outputsPerNet,
                                      config.resourcesPerPort) <=
           kNetChainPhaseLimit;
}

double
omegaLinkConflict(std::size_t size)
{
    RSIN_REQUIRE(isPowerOfTwo(size),
                 "omegaLinkConflict: size must be a power of two >= 2, "
                 "got ", size);
    // Memoized: the enumeration is O(n^4) path comparisons and every
    // sweep cell of the same network shape asks for the same value.
    static std::mutex mutex;
    static std::map<std::size_t, double> memo;
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = memo.find(size);
    if (it != memo.end())
        return it->second;

    const topology::MultistageNetwork net(
        topology::MultistageKind::Omega, size);
    std::vector<std::vector<std::vector<std::size_t>>> paths(size);
    for (std::size_t x = 0; x < size; ++x) {
        paths[x].resize(size);
        for (std::size_t y = 0; y < size; ++y)
            paths[x][y] = net.path(x, y);
    }
    std::size_t conflicts = 0;
    std::size_t pairs = 0;
    for (std::size_t x = 0; x < size; ++x)
        for (std::size_t y = 0; y < size; ++y)
            for (std::size_t x2 = 0; x2 < size; ++x2) {
                if (x2 == x)
                    continue;
                for (std::size_t y2 = 0; y2 < size; ++y2) {
                    if (y2 == y)
                        continue;
                    ++pairs;
                    // Internal boundaries only: boundary 0 links are
                    // distinct (x != x2), boundary n links are the
                    // output buses (y != y2).
                    const auto &a = paths[x][y];
                    const auto &b = paths[x2][y2];
                    for (std::size_t s = 1; s < net.stages(); ++s) {
                        if (a[s] == b[s]) {
                            ++conflicts;
                            break;
                        }
                    }
                }
            }
    const double c1 =
        pairs == 0 ? 0.0
                   : static_cast<double>(conflicts) /
                         static_cast<double>(pairs);
    memo.emplace(size, c1);
    return c1;
}

markov::SbusSolution
xbarExact(const SystemConfig &config, double lambda, double mu_n,
          double mu_s)
{
    config.validate();
    RSIN_REQUIRE(xbarExactInRange(config),
                 "xbarExact: configuration out of range: ",
                 config.str());
    return AnalysisCache::global().solveNetwork(
        netChainParams(config, lambda, mu_n, mu_s),
        SbusSolverKind::XbarLdQbd);
}

markov::SbusSolution
omegaExact(const SystemConfig &config, double lambda, double mu_n,
           double mu_s)
{
    config.validate();
    RSIN_REQUIRE(omegaExactInRange(config),
                 "omegaExact: configuration out of range: ",
                 config.str());
    markov::NetChainParams prm =
        netChainParams(config, lambda, mu_n, mu_s);
    prm.linkConflict = omegaLinkConflict(config.inputsPerNet);
    return AnalysisCache::global().solveNetwork(
        prm, SbusSolverKind::OmegaLdQbd);
}

markov::SbusSolution
xbarLightLoad(const SystemConfig &config, double lambda, double mu_n,
              double mu_s)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::Crossbar,
                 "xbarLightLoad: not an XBAR configuration: ",
                 config.str());
    markov::SbusParams prm;
    prm.p = 1;
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    prm.r = config.outputsPerNet * config.resourcesPerPort;
    return AnalysisCache::global().solve(prm,
                                         SbusSolverKind::MatrixGeometric);
}

markov::SbusSolution
xbarHeavyLoad(const SystemConfig &config, double lambda, double mu_n,
              double mu_s)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::Crossbar,
                 "xbarHeavyLoad: not an XBAR configuration: ",
                 config.str());
    const std::size_t j = config.inputsPerNet;
    const std::size_t k = config.outputsPerNet;
    markov::SbusParams prm;
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    if (j >= k) {
        RSIN_REQUIRE(j % k == 0,
                     "xbarHeavyLoad: j/k must be integral, got ",
                     config.str());
        prm.p = j / k;
        prm.r = config.resourcesPerPort;
    } else {
        RSIN_REQUIRE(k % j == 0,
                     "xbarHeavyLoad: k/j must be integral, got ",
                     config.str());
        prm.p = 1;
        prm.r = k * config.resourcesPerPort / j;
    }
    return AnalysisCache::global().solve(prm,
                                         SbusSolverKind::MatrixGeometric);
}

markov::SbusSolution
multistageLightLoad(const SystemConfig &config, double lambda,
                    double mu_n, double mu_s)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::Omega ||
                     config.network == NetworkClass::Cube,
                 "multistageLightLoad: not a multistage configuration: ",
                 config.str());
    markov::SbusParams prm;
    prm.p = 1;
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    prm.r = config.outputsPerNet * config.resourcesPerPort;
    return AnalysisCache::global().solve(prm,
                                         SbusSolverKind::MatrixGeometric);
}

markov::SbusSolution
privateBusUnlimited(const SystemConfig &config, double lambda, double mu_n,
                    double mu_s)
{
    config.validate();
    const std::size_t per = config.processorsPerNet();
    const auto mm1 = queueing::mm1(static_cast<double>(per) * lambda, mu_n);
    markov::SbusSolution sol;
    sol.stable = mm1.stable;
    if (!mm1.stable) {
        sol.meanQueueLength = std::numeric_limits<double>::infinity();
        sol.queueingDelay = sol.meanQueueLength;
        sol.normalizedDelay = sol.meanQueueLength;
        return sol;
    }
    sol.meanQueueLength = mm1.meanQueue;
    sol.queueingDelay = mm1.meanWait;
    sol.normalizedDelay = mm1.meanWait * mu_s;
    sol.busUtilization = mm1.utilization;
    sol.resourceUtilization = 0.0; // unbounded pool: utilization -> 0
    sol.probEmptySystem = 1.0 - mm1.utilization;
    return sol;
}

} // namespace rsin

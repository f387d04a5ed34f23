/**
 * @file
 * Golden bit-identity digests of the event-driven system models.
 *
 * Every SimResult field of a small grid of runs is folded into an FNV-1a
 * digest and compared with a pinned value.  The grid covers each
 * dispatch path of the models: multi-partition SBUS (serial and
 * sharded), two-network crossbars under every arbitration, two-network
 * Omega and Cube systems under every routing policy and scheduling
 * mode, typed resources under both placements, and the result-return
 * network.  A change that is meant to leave behaviour alone (a faster
 * dispatch, a new data structure) must leave every digest unchanged:
 * same routing decisions, same RNG draw order, same rejection counts,
 * same calendar sequence.
 *
 * meanRoutingAttempts is pinned in its own column so that a change to
 * what the attempt counter means shows up there alone.
 *
 * The digests hash raw double bits, so they hold for one floating-point
 * environment: x86-64 SSE2 code (no FMA contraction) and the C
 * library's exp/log.  On a mismatch the test prints the digest line to
 * paste back, after the change has been shown to be intended.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "rsin/factory.hpp"

namespace rsin {
namespace {

/** 64-bit FNV-1a over the bytes of each added value. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    template <typename T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (const unsigned char b : bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
    }
};

/** Digest of every SimResult field except meanRoutingAttempts. */
std::uint64_t
coreDigest(const SimResult &r)
{
    Fnv f;
    f.add(static_cast<int>(r.status));
    f.add(r.saturated);
    for (const double v :
         {r.meanDelay, r.delayHalfWidth, r.normalizedDelay,
          r.meanResponse, r.meanBoxesTraversed, r.delayImbalance,
          r.timeAvgQueue, r.delayP95, r.delayP99, r.fractionNoWait,
          r.simulatedTime})
        f.add(v);
    f.add(r.completedTasks);
    f.add(r.countedTasks);
    f.add(r.rejections);
    f.add(r.kernel.scheduled);
    f.add(r.kernel.fired);
    f.add(r.kernel.cancelled);
    f.add(r.kernel.arenaBytes);
    f.add(r.shardsUsed);
    return f.h;
}

std::uint64_t
attemptsDigest(const SimResult &r)
{
    Fnv f;
    f.add(r.meanRoutingAttempts);
    return f.h;
}

struct GoldenCase
{
    std::string name;
    std::string config;
    double lambda = 0.0;
    double muN = 1.0;
    double muS = 1.0;
    std::size_t resourceTypes = 1;
    std::size_t shards = 1;
    ModelOptions model;
};

const char *
arbitrationName(XbarArbitration a)
{
    switch (a) {
      case XbarArbitration::IndexPriority:
        return "index";
      case XbarArbitration::FifoArrival:
        return "fifo";
      case XbarArbitration::RandomToken:
        return "token";
      case XbarArbitration::GateLevel:
        return "gate";
    }
    return "?";
}

const char *
policyName(sched::RoutingPolicy p)
{
    switch (p) {
      case sched::RoutingPolicy::MostResources:
        return "most";
      case sched::RoutingPolicy::PreferUpper:
        return "upper";
      case sched::RoutingPolicy::RandomTie:
        return "random";
    }
    return "?";
}

const char *
schedulingName(OmegaScheduling s)
{
    switch (s) {
      case OmegaScheduling::Distributed:
        return "distributed";
      case OmegaScheduling::DistributedClocked:
        return "clocked";
      case OmegaScheduling::AddressRandomFree:
        return "addr-random";
      case OmegaScheduling::AddressFirstFree:
        return "addr-first";
    }
    return "?";
}

std::vector<GoldenCase>
goldenGrid()
{
    std::vector<GoldenCase> grid;
    for (const std::size_t shards : {1, 2, 4}) {
        GoldenCase c;
        c.name = "sbus/shards" + std::to_string(shards);
        c.config = "16/4x1x1 SBUS/2";
        c.lambda = 0.12;
        c.muS = 0.5;
        c.shards = shards;
        grid.push_back(c);
    }
    for (const XbarArbitration a :
         {XbarArbitration::IndexPriority, XbarArbitration::FifoArrival,
          XbarArbitration::RandomToken, XbarArbitration::GateLevel}) {
        GoldenCase c;
        c.name = std::string("xbar/") + arbitrationName(a);
        c.config = "16/2x8x4 XBAR/2";
        c.lambda = 0.3;
        c.muS = 0.5;
        c.model.xbarArbitration = a;
        grid.push_back(c);
    }
    for (const char *net : {"OMEGA", "CUBE"}) {
        for (const OmegaScheduling s :
             {OmegaScheduling::Distributed,
              OmegaScheduling::DistributedClocked,
              OmegaScheduling::AddressRandomFree,
              OmegaScheduling::AddressFirstFree}) {
            for (const sched::RoutingPolicy p :
                 {sched::RoutingPolicy::MostResources,
                  sched::RoutingPolicy::PreferUpper,
                  sched::RoutingPolicy::RandomTie}) {
                GoldenCase c;
                c.name = std::string(net) + "/" + schedulingName(s) +
                         "/" + policyName(p);
                c.config = std::string("16/2x8x8 ") + net + "/2";
                c.lambda = 0.5;
                c.model.omega.scheduling = s;
                c.model.omega.policy = p;
                grid.push_back(c);
            }
        }
    }
    for (const TypePlacement placement :
         {TypePlacement::RoundRobin, TypePlacement::Clustered}) {
        for (const OmegaScheduling s :
             {OmegaScheduling::Distributed,
              OmegaScheduling::AddressRandomFree}) {
            GoldenCase c;
            c.name = std::string("typed/") +
                     (placement == TypePlacement::RoundRobin
                          ? "round-robin/"
                          : "clustered/") +
                     schedulingName(s);
            c.config = "16/2x8x8 OMEGA/2";
            c.lambda = 0.4;
            c.resourceTypes = 2;
            c.model.omega.scheduling = s;
            c.model.omega.placement = placement;
            grid.push_back(c);
        }
    }
    {
        GoldenCase c;
        c.name = "omega/return-network";
        c.config = "16/2x8x8 OMEGA/2";
        c.lambda = 0.5;
        c.model.omega.modelReturnNetwork = true;
        grid.push_back(c);
    }
    {
        GoldenCase c;
        c.name = "omega/shards2";
        c.config = "16/2x8x8 OMEGA/2";
        c.lambda = 0.5;
        c.shards = 2;
        grid.push_back(c);
    }
    return grid;
}

SimResult
runCase(const GoldenCase &c)
{
    const auto cfg = SystemConfig::parse(c.config);
    workload::WorkloadParams params;
    params.lambda = c.lambda;
    params.muN = c.muN;
    params.muS = c.muS;
    params.resourceTypes = c.resourceTypes;
    SimOptions opts;
    opts.seed = 20260;
    opts.warmupTasks = 500;
    opts.measureTasks = 3000;
    opts.shards = c.shards;
    return simulate(cfg, params, opts, c.model);
}

struct Pinned
{
    const char *name;
    std::uint64_t core;
    std::uint64_t attempts;
};

// clang-format off
const Pinned kPinned[] = {
    {"sbus/shards1", 0xcd38ca40719bc243ull, 0x4a542a7eb18a78faull},
    {"sbus/shards2", 0x536653222e142789ull, 0x4a542a7eb18a78faull},
    {"sbus/shards4", 0x39a857f690617a7dull, 0x4a542a7eb18a78faull},
    {"xbar/index", 0x184b5cd8050b6e30ull, 0x4a542a7eb18a78faull},
    {"xbar/fifo", 0xc4af3761eace695aull, 0x4a542a7eb18a78faull},
    {"xbar/token", 0xc30eb86d0ecb42f1ull, 0x4a542a7eb18a78faull},
    {"xbar/gate", 0x184b5cd8050b6e30ull, 0x4a542a7eb18a78faull},
    {"OMEGA/distributed/most", 0x4a92597dc0b3953dull, 0xc3e99fc261d65ba0ull},
    {"OMEGA/distributed/upper", 0x8841586473491c9full, 0x813f86f117a6c690ull},
    {"OMEGA/distributed/random", 0x641945bd7b1d169bull, 0x3481718493b96255ull},
    {"OMEGA/clocked/most", 0x2fd8ed1f484f91e1ull, 0xc3e99fc261d65ba0ull},
    {"OMEGA/clocked/upper", 0x5547bf6b22d06945ull, 0x813f86f117a6c690ull},
    {"OMEGA/clocked/random", 0x1678def77ba2a5acull, 0x7f252adece0c14cbull},
    {"OMEGA/addr-random/most", 0x04d888d3ff325acfull, 0xe48a9dbc07ce31b0ull},
    {"OMEGA/addr-random/upper", 0x04d888d3ff325acfull, 0xe48a9dbc07ce31b0ull},
    {"OMEGA/addr-random/random", 0x04d888d3ff325acfull, 0xe48a9dbc07ce31b0ull},
    {"OMEGA/addr-first/most", 0x214e4633914ceff2ull, 0x30e953e47fad25fcull},
    {"OMEGA/addr-first/upper", 0x214e4633914ceff2ull, 0x30e953e47fad25fcull},
    {"OMEGA/addr-first/random", 0x214e4633914ceff2ull, 0x30e953e47fad25fcull},
    {"CUBE/distributed/most", 0xca6f5f1290575fa7ull, 0x9e80531c749a6a47ull},
    {"CUBE/distributed/upper", 0x243dda124d137adcull, 0xdcd6c7141d0b3813ull},
    {"CUBE/distributed/random", 0x80b9933bf4f12703ull, 0xd95b40db58689326ull},
    {"CUBE/clocked/most", 0xc0be819905974cb8ull, 0x2f096a541bdf4020ull},
    {"CUBE/clocked/upper", 0x4c290e673237cebeull, 0xdcd6c7141d0b3813ull},
    {"CUBE/clocked/random", 0x469ef09411fca515ull, 0xf5226f70e2d9571aull},
    {"CUBE/addr-random/most", 0x9a0a52d172bee5b3ull, 0xf51bcbdc21b3c53dull},
    {"CUBE/addr-random/upper", 0x9a0a52d172bee5b3ull, 0xf51bcbdc21b3c53dull},
    {"CUBE/addr-random/random", 0x9a0a52d172bee5b3ull, 0xf51bcbdc21b3c53dull},
    {"CUBE/addr-first/most", 0xc7de3f79177eb9f1ull, 0xb3e298d4cc0fc966ull},
    {"CUBE/addr-first/upper", 0xc7de3f79177eb9f1ull, 0xb3e298d4cc0fc966ull},
    {"CUBE/addr-first/random", 0xc7de3f79177eb9f1ull, 0xb3e298d4cc0fc966ull},
    {"typed/round-robin/distributed", 0x6a67fe1870239babull, 0xed3bd64e6202a888ull},
    {"typed/round-robin/addr-random", 0x765cb60210d03964ull, 0x98d8ed023477f531ull},
    {"typed/clustered/distributed", 0x46f9d68d6d8b3dffull, 0x76ee5f56ed3802a4ull},
    {"typed/clustered/addr-random", 0x648f75d2c2ff73f7ull, 0xdb032f38dfbb1cc9ull},
    {"omega/return-network", 0xeb59a3843b422364ull, 0xa5f962b9b7d5661bull},
    {"omega/shards2", 0x3b171d0bc3b7a759ull, 0x5f14c16459ccc015ull},
};
// clang-format on

TEST(GoldenDigestTest, EveryDispatchPathMatchesItsPinnedDigest)
{
    const auto grid = goldenGrid();
    ASSERT_EQ(grid.size(), std::size(kPinned))
        << "grid and pinned table disagree in length";
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const GoldenCase &c = grid[i];
        const SimResult r = runCase(c);
        const std::uint64_t core = coreDigest(r);
        const std::uint64_t attempts = attemptsDigest(r);
        char line[160];
        std::snprintf(line, sizeof line,
                      "    {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                      "ull},",
                      c.name.c_str(), core, attempts);
        // A digest over a saturated or truncated run would pin little
        // of the dispatch logic; every cell must reach its quota.
        EXPECT_EQ(r.status, RunStatus::Ok) << c.name;
        EXPECT_STREQ(kPinned[i].name, c.name.c_str());
        EXPECT_EQ(kPinned[i].core, core) << line;
        EXPECT_EQ(kPinned[i].attempts, attempts) << line;
    }
}

} // namespace
} // namespace rsin

#include "partitioned_run.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "des/partitioned.hpp"

namespace rsin {

namespace {

/**
 * Position of one fired event in the reconstructed global order:
 * time bits first (order-preserving for non-negative times), then
 * shard, then the shard-local fired index.  Within a shard this is
 * exactly the serial order; across shards it matches the serial order
 * wherever timestamps are distinct.
 */
struct Cut
{
    bool valid = false;
    std::uint64_t timeBits = 0;
    std::size_t shard = 0;
    std::uint64_t firedIndex = 0;
    double time = 0.0;

    /** Strict "this stops the run earlier than other" comparison. */
    bool
    before(const Cut &other) const
    {
        if (timeBits != other.timeBits)
            return timeBits < other.timeBits;
        if (shard != other.shard)
            return shard < other.shard;
        return firedIndex < other.firedIndex;
    }
};

/** Keep the earlier of two candidates. */
void
takeEarlier(Cut &best, const Cut &candidate)
{
    if (!candidate.valid)
        return;
    if (!best.valid || candidate.before(best))
        best = candidate;
}

/**
 * Is a record produced at (timeBits, shard, firedIndex) part of the
 * run up to and including the cut event?  The cut event's own records
 * are included (the serial loop finishes the stopping event before it
 * checks the stop conditions); equal-time records on other shards are
 * not (they follow the cut in the canonical global order).
 */
bool
included(const Cut &cut, std::uint64_t timeBits, std::size_t shard,
         std::uint64_t firedIndex)
{
    if (!cut.valid)
        return true;
    if (timeBits != cut.timeBits)
        return timeBits < cut.timeBits;
    return shard == cut.shard && firedIndex <= cut.firedIndex;
}

/** Reference to one log record, sortable into the global order. */
struct MergeRef
{
    std::uint64_t timeBits = 0;
    std::uint32_t shard = 0;
    std::uint32_t index = 0;

    bool
    operator<(const MergeRef &other) const
    {
        if (timeBits != other.timeBits)
            return timeBits < other.timeBits;
        if (shard != other.shard)
            return shard < other.shard;
        return index < other.index;
    }
};

/** Sorted global-order index over one record type of all shard logs. */
template <typename Records, typename TimeOf>
std::vector<MergeRef>
mergeOrder(const std::vector<ShardLog> &logs, Records records,
           TimeOf timeOf)
{
    std::vector<MergeRef> order;
    std::size_t total = 0;
    for (const ShardLog &log : logs)
        total += records(log).size();
    order.reserve(total);
    for (std::size_t s = 0; s < logs.size(); ++s) {
        const auto &recs = records(logs[s]);
        for (std::size_t i = 0; i < recs.size(); ++i)
            order.push_back({des::timeToBits(timeOf(recs[i])),
                             static_cast<std::uint32_t>(s),
                             static_cast<std::uint32_t>(i)});
    }
    std::sort(order.begin(), order.end());
    return order;
}

std::unique_ptr<SystemSimulation>
makeShardSystem(const SystemConfig &config,
                const workload::WorkloadParams &params,
                const SimOptions &options, const ModelOptions &model,
                const ShardContext &shard)
{
    switch (config.network) {
      case NetworkClass::SingleBus:
        return std::make_unique<SbusSystem>(config, params, options,
                                            shard);
      case NetworkClass::Crossbar:
        return std::make_unique<CrossbarSystem>(
            config, params, options, model.xbarArbitration, shard);
      case NetworkClass::Omega:
      case NetworkClass::Cube:
        return std::make_unique<OmegaSystem>(config, params, options,
                                             model.omega, shard);
    }
    RSIN_PANIC("makeShardSystem: unknown network class");
}

/**
 * Exact cross-shard kernel counters as of the cut event: for the cut
 * shard, its journal prefix through the cut event; for every other
 * shard, its journal prefix strictly before the cut time.  Window
 * bases cover everything committed in earlier windows.
 */
des::KernelCounters
countersAtCut(const des::PartitionedSimulator &psim, const Cut &cut)
{
    des::KernelCounters sum;
    for (std::size_t s = 0; s < psim.shardCount(); ++s) {
        const auto &journal = psim.journal(s);
        const auto &base = psim.windowBase(s);
        std::size_t count;
        if (s == cut.shard) {
            RSIN_ASSERT(cut.firedIndex >= base.fired &&
                            cut.firedIndex - base.fired <=
                                journal.size(),
                        "countersAtCut: cut outside the cut shard's "
                        "window journal");
            count = static_cast<std::size_t>(cut.firedIndex -
                                             base.fired);
        } else {
            const auto firstAtOrAfter = std::lower_bound(
                journal.begin(), journal.end(), cut.timeBits,
                [](const des::PartitionedSimulator::JournalEntry &e,
                   std::uint64_t bits) { return e.timeBits < bits; });
            count = static_cast<std::size_t>(firstAtOrAfter -
                                             journal.begin());
        }
        if (count == 0) {
            sum.scheduled += base.scheduled;
            sum.cancelled += base.cancelled;
            sum.fired += base.fired;
        } else {
            const auto &last = journal[count - 1];
            sum.scheduled += last.scheduledAfter;
            sum.cancelled += last.cancelledAfter;
            sum.fired += base.fired + count;
        }
    }
    // Arena high-water marks are a property of the shards' lifetimes,
    // not of the cut; report their sum (the one counter a partitioned
    // run does not reproduce bit-for-bit).
    sum.arenaBytes = psim.totals().arenaBytes;
    return sum;
}

} // namespace

SimResult
runPartitioned(const SystemConfig &config,
               const workload::WorkloadParams &params,
               const SimOptions &options, const ModelOptions &model,
               const PartitionPlan &plan, common::Executor *executor)
{
    RSIN_REQUIRE(plan.kind != PartitionKind::None &&
                     plan.shardCount() >= 1,
                 "runPartitioned: plan has no shards");
    config.validate();

    const std::size_t shardCount = plan.shardCount();
    std::vector<ShardLog> logs(shardCount);
    std::vector<std::unique_ptr<SystemSimulation>> systems(shardCount);
    des::PartitionedSimulator psim(shardCount);
    for (std::size_t s = 0; s < shardCount; ++s) {
        const ShardBounds &bounds = plan.shards[s];
        SystemConfig shardConfig = config;
        shardConfig.networks = bounds.networks();
        shardConfig.processors = bounds.processors();
        systems[s] =
            makeShardSystem(shardConfig, params, options, model,
                            ShardContext{&logs[s], bounds.firstProcessor});
        psim.attach(s, systems[s]->partitionKernel());
        psim.setEventHook(s, [sys = systems[s].get()] {
            RSIN_IF_CONTRACTS(sys->checkEventContracts();)
            return !sys->captureParked();
        });
    }
    // ByNetwork shards share no model state, so no channels are
    // connected here: the paper's networks are independent and every
    // observable cross-shard interaction is the global stop condition,
    // which the merge below reconstructs.  The transmit time still
    // supplies the synchronization bound -- it paces how far a window
    // can usefully run ahead of the merge (see docs/PERF.md).

    for (std::size_t s = 0; s < shardCount; ++s)
        systems[s]->primePartitionedRun();

    workload::MetricsCollector metrics(options.warmupTasks);
    TimeWeighted queueTrace;
    const std::uint64_t quota =
        options.warmupTasks + options.measureTasks;
    std::int64_t globalQueued = 0;
    std::uint64_t cumFired = 0; ///< events committed in past windows

    // Degenerate stop conditions the serial loop hits before its first
    // step(): a zero quota or a zero event budget.
    if (quota == 0 || options.maxEvents == 0) {
        SimResult result =
            assembleSimResult(metrics, queueTrace, false, options,
                              params, 0.0, psim.totals());
        result.shardsUsed = shardCount;
        return result;
    }

    // Window sizing: aim for the full measurement quota in one or two
    // windows (aggregate completion rate ~= aggregate arrival rate for
    // a stable system), then adapt to the observed rate.
    const double aggregateRate =
        params.lambda * static_cast<double>(config.processors);
    double window = aggregateRate > 0.0
                        ? 1.25 * static_cast<double>(quota) /
                              aggregateRate
                        : 1.0;
    double horizon = 0.0;

    while (true) {
        horizon += window;
        psim.beginWindow();
        psim.advanceWindow(horizon, executor);

        std::uint64_t windowFired = 0;
        for (std::size_t s = 0; s < shardCount; ++s)
            windowFired += psim.journal(s).size();

        // ---- locate the earliest stop candidate in this window ----
        Cut cut;

        // (a) The quota-th completion overall.
        const std::vector<MergeRef> completionOrder = mergeOrder(
            logs, [](const ShardLog &l) -> const auto & {
                return l.completions;
            },
            [](const ShardLog::Completion &c) { return c.serviceEnd; });
        {
            std::uint64_t count = metrics.completed();
            for (const MergeRef &ref : completionOrder) {
                if (++count < quota)
                    continue;
                const ShardLog::Completion &c =
                    logs[ref.shard].completions[ref.index];
                takeEarlier(cut, {true, ref.timeBits, ref.shard,
                                  c.firedIndex, c.serviceEnd});
                break;
            }
        }

        // (b) Saturation: the first global queue-limit crossing, or
        // the earliest model-detected satEvent.
        Cut satCut;
        const std::vector<MergeRef> queueOrder = mergeOrder(
            logs, [](const ShardLog &l) -> const auto & {
                return l.queueChanges;
            },
            [](const ShardLog::QueueChange &q) { return q.time; });
        {
            std::int64_t queued = globalQueued;
            for (const MergeRef &ref : queueOrder) {
                const ShardLog::QueueChange &q =
                    logs[ref.shard].queueChanges[ref.index];
                queued += q.delta;
                if (q.delta > 0 &&
                    queued > static_cast<std::int64_t>(
                                 options.saturationQueueLimit)) {
                    takeEarlier(satCut, {true, ref.timeBits, ref.shard,
                                         q.firedIndex, q.time});
                    break;
                }
            }
            for (std::size_t s = 0; s < shardCount; ++s)
                for (const ShardLog::Mark &mark : logs[s].satEvents)
                    takeEarlier(satCut,
                                {true, des::timeToBits(mark.time), s,
                                 mark.firedIndex, mark.time});
        }
        takeEarlier(cut, satCut);

        // (c) The maxEvents safety valve: the budget-exhausting event
        // in the merged journal order.
        if (cumFired + windowFired >= options.maxEvents) {
            struct JournalRef
            {
                std::uint64_t timeBits;
                std::uint32_t shard;
                std::uint32_t index;
                bool
                operator<(const JournalRef &o) const
                {
                    if (timeBits != o.timeBits)
                        return timeBits < o.timeBits;
                    if (shard != o.shard)
                        return shard < o.shard;
                    return index < o.index;
                }
            };
            std::vector<JournalRef> order;
            order.reserve(static_cast<std::size_t>(windowFired));
            for (std::size_t s = 0; s < shardCount; ++s) {
                const auto &journal = psim.journal(s);
                for (std::size_t i = 0; i < journal.size(); ++i)
                    order.push_back({journal[i].timeBits,
                                     static_cast<std::uint32_t>(s),
                                     static_cast<std::uint32_t>(i)});
            }
            std::sort(order.begin(), order.end());
            const std::uint64_t need = options.maxEvents - cumFired;
            RSIN_ASSERT(need >= 1 && need <= order.size(),
                        "runPartitioned: maxEvents cut out of range");
            const JournalRef &ref = order[need - 1];
            takeEarlier(cut,
                        {true, ref.timeBits, ref.shard,
                         psim.windowBase(ref.shard).fired + ref.index + 1,
                         des::bitsToTime(ref.timeBits)});
        }

        const bool saturatedAtCut = satCut.valid && !cut.before(satCut);

        // ---- commit observations at or before the cut, in order ----
        for (const MergeRef &ref : completionOrder) {
            const ShardLog::Completion &c =
                logs[ref.shard].completions[ref.index];
            if (!included(cut, ref.timeBits, ref.shard, c.firedIndex))
                continue;
            workload::Task task;
            task.processor = c.processor;
            task.arrival = c.arrival;
            task.transmitStart = c.transmitStart;
            task.serviceEnd = c.serviceEnd;
            task.routingAttempts = c.routingAttempts;
            task.boxesTraversed = c.boxesTraversed;
            metrics.taskCompleted(task);
        }
        for (const MergeRef &ref : queueOrder) {
            const ShardLog::QueueChange &q =
                logs[ref.shard].queueChanges[ref.index];
            if (!included(cut, ref.timeBits, ref.shard, q.firedIndex))
                continue;
            globalQueued += q.delta;
            queueTrace.record(q.time,
                              static_cast<double>(globalQueued));
        }
        for (std::size_t s = 0; s < shardCount; ++s)
            for (const ShardLog::Mark &mark : logs[s].rejections)
                if (included(cut, des::timeToBits(mark.time), s,
                             mark.firedIndex))
                    metrics.taskRejected();

        if (cut.valid) {
            SimResult result = assembleSimResult(
                metrics, queueTrace, saturatedAtCut, options, params,
                cut.time, countersAtCut(psim, cut));
            result.shardsUsed = shardCount;
            return result;
        }

        cumFired += windowFired;
        for (ShardLog &log : logs)
            log.clear();

        if (psim.drained()) {
            // Every calendar emptied (e.g. a zero-arrival workload):
            // the serial clock would rest at its last fired event.
            double simulatedTime = 0.0;
            for (std::size_t s = 0; s < shardCount; ++s)
                simulatedTime =
                    std::max(simulatedTime, psim.lastEventTime(s));
            SimResult result = assembleSimResult(
                metrics, queueTrace, false, options, params,
                simulatedTime, psim.totals());
            result.shardsUsed = shardCount;
            return result;
        }

        // Adapt the window to the observed completion rate.
        const std::uint64_t fed = metrics.completed();
        if (fed > 0) {
            const double rate = static_cast<double>(fed) / horizon;
            const double desired =
                1.25 * static_cast<double>(quota - fed) / rate;
            window = std::clamp(desired, window * 0.5, window * 4.0);
        } else {
            window *= 2.0;
        }
    }
}

} // namespace rsin

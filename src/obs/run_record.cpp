#include "run_record.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/text.hpp"
#include "markov/sbus_solvers.hpp"
#include "obs/json.hpp"

namespace rsin {
namespace obs {

const char *
toString(RecordKind kind)
{
    switch (kind) {
      case RecordKind::Run:
        return "run";
      case RecordKind::Aggregate:
        return "aggregate";
      case RecordKind::Analytic:
        return "analytic";
    }
    RSIN_PANIC("toString: unknown RecordKind");
}

RecordKind
parseRecordKind(const std::string &name)
{
    if (name == "run")
        return RecordKind::Run;
    if (name == "aggregate")
        return RecordKind::Aggregate;
    if (name == "analytic")
        return RecordKind::Analytic;
    RSIN_FATAL("parseRecordKind: unknown kind '", name, "'");
}

void
writeRunRecordJson(JsonWriter &w, const RunRecord &r)
{
    w.beginObject();
    w.field("curve", r.curve);
    w.field("config", r.config);
    w.field("kind", toString(r.kind));
    w.field("rho", r.rho);
    w.field("lambda", r.lambda);
    w.field("mu_n", r.muN);
    w.field("mu_s", r.muS);
    w.field("seed", r.seed);
    w.field("replication", r.replication);
    w.field("status", toString(r.result.status));
    w.field("display", r.display);
    w.field("wall_seconds", r.wallSeconds);
    w.key("result");
    w.beginObject();
    w.field("mean_delay", r.result.meanDelay);
    w.field("delay_half_width", r.result.delayHalfWidth);
    w.field("normalized_delay", r.result.normalizedDelay);
    w.field("mean_response", r.result.meanResponse);
    w.field("mean_routing_attempts", r.result.meanRoutingAttempts);
    w.field("mean_boxes_traversed", r.result.meanBoxesTraversed);
    w.field("delay_imbalance", r.result.delayImbalance);
    w.field("time_avg_queue", r.result.timeAvgQueue);
    w.field("delay_p95", r.result.delayP95);
    w.field("delay_p99", r.result.delayP99);
    w.field("fraction_no_wait", r.result.fractionNoWait);
    w.field("completed_tasks", r.result.completedTasks);
    w.field("counted_tasks", r.result.countedTasks);
    w.field("rejections", r.result.rejections);
    w.field("simulated_time", r.result.simulatedTime);
    w.endObject();
    w.key("kernel");
    w.beginObject();
    w.field("events_scheduled", r.result.kernel.scheduled);
    w.field("events_fired", r.result.kernel.fired);
    w.field("events_cancelled", r.result.kernel.cancelled);
    w.field("arena_bytes", r.result.kernel.arenaBytes);
    w.field("shards", std::uint64_t{r.result.shardsUsed});
    w.endObject();
    w.endObject();
}

namespace {

/** Required member lookup; throws when absent so torn records fail. */
const JsonValue &
member(const JsonValue &v, const char *key)
{
    const JsonValue *m = v.find(key);
    RSIN_REQUIRE(m != nullptr, "run record: missing field '", key, "'");
    return *m;
}

} // namespace

RunRecord
parseRunRecordJson(const JsonValue &v)
{
    RunRecord r;
    r.curve = member(v, "curve").asString();
    r.config = member(v, "config").asString();
    r.kind = parseRecordKind(member(v, "kind").asString());
    r.rho = member(v, "rho").asDouble();
    r.lambda = member(v, "lambda").asDouble();
    r.muN = member(v, "mu_n").asDouble();
    r.muS = member(v, "mu_s").asDouble();
    r.seed = member(v, "seed").asU64();
    r.replication =
        static_cast<int>(member(v, "replication").asI64());
    r.result.status =
        parseRunStatus(member(v, "status").asString());
    r.result.saturated = r.result.status == RunStatus::Saturated;
    r.display = member(v, "display").asString();
    r.wallSeconds = member(v, "wall_seconds").asDouble();
    const JsonValue &res = member(v, "result");
    r.result.meanDelay = member(res, "mean_delay").asDouble();
    r.result.delayHalfWidth =
        member(res, "delay_half_width").asDouble();
    r.result.normalizedDelay =
        member(res, "normalized_delay").asDouble();
    r.result.meanResponse = member(res, "mean_response").asDouble();
    r.result.meanRoutingAttempts =
        member(res, "mean_routing_attempts").asDouble();
    r.result.meanBoxesTraversed =
        member(res, "mean_boxes_traversed").asDouble();
    r.result.delayImbalance =
        member(res, "delay_imbalance").asDouble();
    r.result.timeAvgQueue = member(res, "time_avg_queue").asDouble();
    r.result.delayP95 = member(res, "delay_p95").asDouble();
    r.result.delayP99 = member(res, "delay_p99").asDouble();
    r.result.fractionNoWait =
        member(res, "fraction_no_wait").asDouble();
    r.result.completedTasks =
        member(res, "completed_tasks").asU64();
    r.result.countedTasks = member(res, "counted_tasks").asU64();
    r.result.rejections = member(res, "rejections").asU64();
    r.result.simulatedTime =
        member(res, "simulated_time").asDouble();
    const JsonValue &kern = member(v, "kernel");
    r.result.kernel.scheduled =
        member(kern, "events_scheduled").asU64();
    r.result.kernel.fired = member(kern, "events_fired").asU64();
    r.result.kernel.cancelled =
        member(kern, "events_cancelled").asU64();
    r.result.kernel.arenaBytes =
        member(kern, "arena_bytes").asU64();
    r.result.shardsUsed =
        static_cast<std::size_t>(member(kern, "shards").asU64());
    return r;
}

RunRecord
analyticRecord(std::string curve, std::string config, double rho,
               double lambda, double mu_n, double mu_s,
               const markov::SbusSolution &sol, double wall_seconds,
               std::string display)
{
    RunRecord rec;
    rec.curve = std::move(curve);
    rec.config = std::move(config);
    rec.kind = RecordKind::Analytic;
    rec.rho = rho;
    rec.lambda = lambda;
    rec.muN = mu_n;
    rec.muS = mu_s;
    rec.replication = -1;
    rec.display = std::move(display);
    rec.wallSeconds = wall_seconds;
    rec.result.status =
        sol.stable ? RunStatus::Ok : RunStatus::Saturated;
    rec.result.saturated = !sol.stable;
    rec.result.meanDelay = sol.queueingDelay;
    rec.result.normalizedDelay = sol.normalizedDelay;
    rec.result.timeAvgQueue = sol.meanQueueLength;
    rec.result.fractionNoWait = sol.probNoWait;
    rec.result.shardsUsed = 0; // no calendar ran
    return rec;
}

std::string
displayValue(const SimResult &result, double value, const char *fmt)
{
    switch (result.status) {
      case RunStatus::Saturated:
        return "inf";
      case RunStatus::Truncated:
      case RunStatus::NoData:
        return "n/a";
      case RunStatus::Ok:
        break;
    }
    if (std::isnan(value))
        return "n/a";
    if (value > 1e6)
        return "inf";
    return formatf(fmt, value);
}

} // namespace obs
} // namespace rsin

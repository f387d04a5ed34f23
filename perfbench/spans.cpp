#include "spans.hpp"

#include <algorithm>
#include <ctime>
#include <limits>

#include "obs/json.hpp"

namespace perfbench {

namespace {

/** Innermost open span of this thread (0 = none). */
thread_local std::uint64_t t_current = 0;

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(ts.tv_nsec);
}

} // namespace

std::int64_t
nowNs()
{
    return clockNs(CLOCK_MONOTONIC);
}

std::int64_t
cpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

std::int64_t
clockNs()
{
    static volatile std::uint64_t sink = 0;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (int rep = 0; rep < 5; ++rep) {
        std::uint64_t x = sink + static_cast<std::uint64_t>(rep) + 1;
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kClockSteps; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            x ^= x >> 17;
        }
        best = std::min(best, nowNs() - t0);
        sink = x;
    }
    return best;
}

Trace &
Trace::global()
{
    static Trace trace;
    return trace;
}

std::uint64_t
Trace::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ++lastId_;
}

void
Trace::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
Trace::writeJson(rsin::obs::JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    w.beginArray();
    for (const Span &s : spans_) {
        w.beginObject();
        w.field("id", s.id);
        w.field("parent", s.parent);
        w.field("name", s.name);
        w.field("start_ns", s.startNs);
        w.field("end_ns", s.endNs);
        w.key("attrs");
        w.beginObject();
        for (const auto &[key, value] : s.attrs)
            w.field(key, value);
        w.endObject();
        w.endObject();
    }
    w.endArray();
}

SpanScope::SpanScope(const char *name) : SpanScope(name, t_current) {}

SpanScope::SpanScope(const char *name, std::uint64_t parent)
{
    Trace &trace = Trace::global();
    if (!trace.enabled())
        return;
    span_.id = trace.nextId();
    span_.parent = parent;
    span_.name = name;
    outer_ = t_current;
    t_current = span_.id;
    span_.startNs = nowNs();
}

SpanScope::~SpanScope()
{
    if (span_.id == 0)
        return;
    span_.endNs = nowNs();
    t_current = outer_;
    Trace::global().add(std::move(span_));
}

void
SpanScope::attr(const char *key, double value)
{
    if (span_.id != 0)
        span_.attrs.emplace_back(key, value);
}

} // namespace perfbench

#pragma once

/**
 * @file
 * In-memory span recorder for the benchmark harness.  A span is a
 * named interval on the steady clock with the id of the span that
 * caused it and a few numeric attributes (counters the program
 * returned at that boundary).  Spans are kept in memory and written as
 * one JSON document when the run ends; with tracing off every call is
 * a no-op, so the untraced run pays nothing.  The clocks the harness
 * times with are declared here too.
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rsin::obs {
class JsonWriter;
}

namespace perfbench {

/** Nanoseconds on the steady (CLOCK_MONOTONIC) clock. */
std::int64_t nowNs();

/** Process CPU time (user + system, all threads) in nanoseconds. */
std::int64_t cpuNs();

/** Steps of the clock loop (see clockNs). */
inline constexpr int kClockSteps = 4096;

/**
 * Time of kClockSteps dependent multiply-xorshift steps on the current
 * CPU, fastest of five, in nanoseconds.  The chain has no memory
 * traffic and no parallelism for a sibling hardware thread to take,
 * so its time follows the core's clock and little else.
 */
std::int64_t clockNs();

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: no parent
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::vector<std::pair<std::string, double>> attrs;
};

/** Process-wide span store; safe to use from worker threads. */
class Trace
{
  public:
    static Trace &global();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    std::uint64_t nextId();
    void add(Span span);
    /** Write every span as one JSON array value. */
    void writeJson(rsin::obs::JsonWriter &w) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::uint64_t lastId_ = 0;
    std::vector<Span> spans_;
};

/**
 * RAII span.  The parent defaults to the innermost open span of the
 * calling thread; pass one explicitly for work handed to another
 * thread.
 */
class SpanScope
{
  public:
    explicit SpanScope(const char *name);
    SpanScope(const char *name, std::uint64_t parent);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void attr(const char *key, double value);
    /** Id of this span (0 when tracing is off). */
    std::uint64_t id() const { return span_.id; }

  private:
    Span span_;
    std::uint64_t outer_ = 0;
};

} // namespace perfbench

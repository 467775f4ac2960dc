/**
 * @file
 * In-memory spans recorded around the calls the benchmark makes into
 * each layer.
 *
 * A span has a name, a start, an end, the span that was open when it
 * began (its parent) and the request it belongs to. Spans stay in
 * memory until write() dumps them at the end of a run. A span's self
 * time is its duration minus the durations of its children. A disabled
 * tracer records nothing and reads no clock, so the same code path
 * serves the traced and the untraced replay.
 *
 * One tracer is used from one thread.
 */

#ifndef TUNEBENCH_TRACE_H
#define TUNEBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tunebench {

using Clock = std::chrono::steady_clock;

/** Monotonic nanoseconds (steady clock). */
int64_t nowNanos();

/** Microseconds from @p from to @p to. */
inline double
micros(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

class Tracer
{
  public:
    struct Record
    {
        const char *name = nullptr; ///< a string literal
        int64_t start = 0;
        int64_t end = 0;
        int parent = -1; ///< index into records(), -1 for a root
        int64_t request = 0;
    };

    /** Per-name totals over every recorded span. */
    struct Totals
    {
        int64_t count = 0;
        int64_t totalNanos = 0;
        int64_t selfNanos = 0;
    };

    /** Closes its span when destroyed. */
    class Span
    {
      public:
        Span(Tracer *tracer, int index) : tracer_(tracer), index_(index) {}
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        ~Span();

      private:
        Tracer *tracer_;
        int index_;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Start a new request; later spans carry its id. */
    void beginRequest() { ++request_; }

    /** Open a span named @p name (a string literal) under the
     * innermost open span. */
    Span span(const char *name);

    const std::vector<Record> &records() const { return records_; }

    std::map<std::string, Totals> totals() const;

    /** One JSON object per line (name, start/end ns, parent, request)
     * for the first @p maxRecords spans; a last line counts the rest. */
    void write(const std::string &path, size_t maxRecords) const;

  private:
    bool enabled_;
    int64_t request_ = 0;
    std::vector<Record> records_;
    std::vector<int> open_;
};

} // namespace tunebench

#endif // TUNEBENCH_TRACE_H

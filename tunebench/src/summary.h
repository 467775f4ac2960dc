/**
 * @file
 * Turning raw samples into the numbers the benchmark reports.
 *
 * A timing is reported as its median, the highest percentile that
 * still has at least ten samples beyond it, and the sample count; a
 * ratio always travels with its base. MetricSet collects named
 * metrics with their units, prints them for people, and renders the
 * `metrics` object of the result line.
 */

#ifndef TUNEBENCH_SUMMARY_H
#define TUNEBENCH_SUMMARY_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace tunebench {

/** Distribution summary of one timing. */
struct Summary
{
    size_t count = 0;
    double p50 = 0.0;
    /** Highest percentile (of 50, 90, 99, 99.9, ...; at most
     * maxPercentile) with >= 10 samples beyond it; 50 when even the
     * median has fewer than ten samples above it. */
    double tailPercentile = 50.0;
    double tail = 0.0;
};

/** Nearest-rank percentile @p q (0 < q <= 100) of sorted @p sorted. */
double percentileSorted(const std::vector<double> &sorted, double q);

/** Summarize @p samples (any order; empty gives an all-zero Summary). */
Summary summarize(std::vector<double> samples, double maxPercentile = 100.0);

/** Median (nearest rank) of @p values; 0 when empty. */
double median(std::vector<double> values);

/**
 * @p values grouped by which of @p windows equal windows of a run
 * lasting @p seconds their time @p at (seconds from the start) falls
 * in; values outside the run are dropped. A run's figures taken as
 * medians over its windows shrug off a stall that hits one window.
 */
std::vector<std::vector<double>> byWindow(const std::vector<double> &values,
                                          const std::vector<double> &at,
                                          int windows, double seconds);

/**
 * Fixed-capacity uniform sample of a stream (Algorithm R with a fixed
 * seed), so a run's memory does not grow with its throughput. count()
 * is the number of values offered, not kept.
 */
class Reservoir
{
  public:
    explicit Reservoir(size_t capacity = size_t{1} << 18)
        : capacity_(capacity)
    {}

    void add(double value);
    size_t count() const { return count_; }
    const std::vector<double> &samples() const { return samples_; }

    /** summarize(samples()) with count set to count(). */
    Summary summary(double maxPercentile = 100.0) const;

  private:
    size_t capacity_;
    size_t count_ = 0;
    uint64_t state_ = 0x9e3779b97f4a7c15ULL;
    std::vector<double> samples_;
};

/** A ratio and the counts it came from. */
struct Ratio
{
    double numerator = 0.0;
    double base = 0.0;
    /** numerator / base, or 0 when the base is 0. */
    double value() const { return base > 0 ? numerator / base : 0.0; }
};

/** Named metrics with units, in insertion order. */
class MetricSet
{
  public:
    /** Add @p name, or overwrite its value and unit if present. */
    void add(const std::string &name, double value, const std::string &unit,
             const std::string &note = "");

    /** Adds the ratio as @p name (unit "ratio") and its base as
     * @p baseName (unit "count"). */
    void addRatio(const std::string &name, const Ratio &ratio,
                  const std::string &baseName);

    /** Adds `<prefix>_p50_<unit>` and `<prefix>_tail_<unit>`; @p scale
     * converts the samples' unit into @p unit. */
    void addTiming(const std::string &prefix, const Summary &summary,
                   const std::string &unit, double scale = 1.0);

    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    /** One `name = value unit` line per metric. */
    void print(std::ostream &out) const;

    /** `{"name": {"value": v, "unit": "u"}, ...}` restricted to
     * @p names (all metrics when empty), in that order. Missing names
     * are an error the caller checks with has(). */
    std::string json(const std::vector<std::string> &names = {}) const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::string note;
    };
    std::vector<Metric> metrics_;
};

/** JSON number text with all significant digits (non-finite -> 0). */
std::string jsonNumber(double value);

} // namespace tunebench

#endif // TUNEBENCH_SUMMARY_H

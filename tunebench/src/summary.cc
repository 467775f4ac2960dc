#include "summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tunebench {

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n - 1e-9));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentileSorted(values, 50.0);
}

std::vector<std::vector<double>>
byWindow(const std::vector<double> &values, const std::vector<double> &at,
         int windows, double seconds)
{
    std::vector<std::vector<double>> grouped(windows);
    for (size_t i = 0; i < values.size() && i < at.size(); ++i) {
        const int window = static_cast<int>(at[i] / seconds * windows);
        if (at[i] >= 0 && window < windows)
            grouped[window].push_back(values[i]);
    }
    return grouped;
}

Summary
summarize(std::vector<double> samples, double maxPercentile)
{
    Summary summary;
    summary.count = samples.size();
    if (samples.empty())
        return summary;
    std::sort(samples.begin(), samples.end());
    summary.p50 = percentileSorted(samples, 50.0);
    summary.tailPercentile = 50.0;
    const double n = static_cast<double>(samples.size());
    for (double q : {90.0, 99.0, 99.9, 99.99, 99.999}) {
        if (q > maxPercentile)
            break;
        double rank = std::ceil(q / 100.0 * n - 1e-9);
        if (n - rank >= 10.0)
            summary.tailPercentile = q;
    }
    summary.tail = percentileSorted(samples, summary.tailPercentile);
    return summary;
}

void
Reservoir::add(double value)
{
    ++count_;
    if (samples_.size() < capacity_) {
        samples_.push_back(value);
        return;
    }
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const uint64_t slot = state_ % count_;
    if (slot < capacity_)
        samples_[slot] = value;
}

Summary
Reservoir::summary(double maxPercentile) const
{
    Summary result = summarize(samples_, maxPercentile);
    result.count = count_;
    return result;
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit, const std::string &note)
{
    for (Metric &metric : metrics_)
        if (metric.name == name) {
            metric = {name, value, unit, note};
            return;
        }
    metrics_.push_back({name, value, unit, note});
}

void
MetricSet::addRatio(const std::string &name, const Ratio &ratio,
                    const std::string &baseName)
{
    add(name, ratio.value(), "ratio",
        jsonNumber(ratio.numerator) + " of " + jsonNumber(ratio.base) + " " +
            baseName);
    add(baseName, ratio.base, "count");
}

void
MetricSet::addTiming(const std::string &prefix, const Summary &summary,
                     const std::string &unit, double scale)
{
    char note[96];
    std::snprintf(note, sizeof(note), "n=%zu", summary.count);
    add(prefix + "_p50_" + unit, summary.p50 * scale, unit, note);
    std::snprintf(note, sizeof(note), "p%g of n=%zu",
                  summary.tailPercentile, summary.count);
    add(prefix + "_tail_" + unit, summary.tail * scale, unit, note);
}

bool
MetricSet::has(const std::string &name) const
{
    for (const Metric &metric : metrics_)
        if (metric.name == name)
            return true;
    return false;
}

double
MetricSet::get(const std::string &name) const
{
    for (const Metric &metric : metrics_)
        if (metric.name == name)
            return metric.value;
    throw std::out_of_range("no metric named " + name);
}

void
MetricSet::print(std::ostream &out) const
{
    for (const Metric &metric : metrics_) {
        out << metric.name << " = " << jsonNumber(metric.value) << " "
            << metric.unit;
        if (!metric.note.empty())
            out << "  (" << metric.note << ")";
        out << "\n";
    }
}

std::string
MetricSet::json(const std::vector<std::string> &names) const
{
    std::vector<const Metric *> chosen;
    if (names.empty()) {
        for (const Metric &metric : metrics_)
            chosen.push_back(&metric);
    } else {
        for (const std::string &name : names)
            for (const Metric &metric : metrics_)
                if (metric.name == name)
                    chosen.push_back(&metric);
    }
    std::string text = "{";
    for (size_t i = 0; i < chosen.size(); ++i) {
        if (i)
            text += ", ";
        text += "\"" + chosen[i]->name + "\": {\"value\": " +
                jsonNumber(chosen[i]->value) + ", \"unit\": \"" +
                chosen[i]->unit + "\"}";
    }
    return text + "}";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace tunebench

#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace tunebench {

int64_t
nowNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

Tracer::Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    tracer_->records_[index_].end = nowNanos();
    tracer_->open_.pop_back();
}

Tracer::Span
Tracer::span(const char *name)
{
    if (!enabled_)
        return Span(nullptr, -1);
    Record record;
    record.name = name;
    record.parent = open_.empty() ? -1 : open_.back();
    record.request = request_;
    const int index = static_cast<int>(records_.size());
    records_.push_back(std::move(record));
    open_.push_back(index);
    records_.back().start = nowNanos();
    return Span(this, index);
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::vector<int64_t> childNanos(records_.size(), 0);
    for (const Record &record : records_)
        if (record.parent >= 0)
            childNanos[record.parent] += record.end - record.start;
    std::map<std::string, Totals> totals;
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &record = records_[i];
        Totals &entry = totals[record.name];
        ++entry.count;
        entry.totalNanos += record.end - record.start;
        entry.selfNanos += record.end - record.start - childNanos[i];
    }
    return totals;
}

void
Tracer::write(const std::string &path, size_t maxRecords) const
{
    std::ofstream out(path);
    const size_t written = std::min(maxRecords, records_.size());
    for (size_t i = 0; i < written; ++i) {
        const Record &record = records_[i];
        out << "{\"name\": \"" << record.name << "\", \"start_ns\": "
            << record.start << ", \"end_ns\": " << record.end
            << ", \"parent\": " << record.parent
            << ", \"request\": " << record.request << "}\n";
    }
    out << "{\"omitted\": " << records_.size() - written << "}\n";
}

} // namespace tunebench

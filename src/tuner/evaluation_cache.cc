#include "tuner/evaluation_cache.h"

namespace petabricks {
namespace tuner {

uint64_t
EvaluationCache::fingerprint(const Config &config)
{
    return config.valueFingerprint();
}

std::optional<double>
EvaluationCache::lookup(const Config &config, int64_t inputSize)
{
    return lookupFingerprint(fingerprint(config), inputSize);
}

std::optional<double>
EvaluationCache::lookupFingerprint(uint64_t fingerprint,
                                   int64_t inputSize)
{
    auto it = entries_.find({inputSize, fingerprint});
    if (it == entries_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    return it->second;
}

void
EvaluationCache::insert(const Config &config, int64_t inputSize,
                        double seconds)
{
    insertFingerprint(fingerprint(config), inputSize, seconds);
}

void
EvaluationCache::insertFingerprint(uint64_t fingerprint,
                                   int64_t inputSize, double seconds)
{
    auto [it, inserted] = entries_.insert_or_assign(
        {inputSize, fingerprint}, seconds);
    (void)it;
    if (inserted)
        stats_.bytes += kEntryBytes;
    ++stats_.insertions;
}

void
EvaluationCache::invalidateBelow(int64_t inputSize)
{
    auto end = entries_.lower_bound({inputSize, 0});
    int64_t dropped =
        static_cast<int64_t>(std::distance(entries_.begin(), end));
    stats_.invalidated += dropped;
    stats_.bytes -= static_cast<size_t>(dropped) * kEntryBytes;
    entries_.erase(entries_.begin(), end);
}

void
EvaluationCache::clear()
{
    stats_.bytes = 0;
    entries_.clear();
}

} // namespace tuner
} // namespace petabricks

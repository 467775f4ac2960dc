/**
 * @file
 * Memoized evaluation results for the tuning session.
 *
 * The evolutionary search re-encounters configurations constantly:
 * survivors are compared against their children for a whole
 * generation block, and mutation chains frequently produce a mutant
 * identical to one already scored (a selector level removed and
 * re-added, a tunable resampled to its old value). Every one of those
 * repeats used to be a full evaluation — in real mode, a full
 * compile-and-execute test process (the paper's 5.2-hour Figure 8
 * accounting). The cache keys results by (configuration fingerprint,
 * input size), so a result is reused only where it is valid: scores at
 * different input sizes are never comparable (Section 5.2 re-measures
 * survivors at every size step), which is also why the session drops
 * entries below the current size as the testing size grows.
 *
 * Reusing a memoized score changes nothing for deterministic
 * evaluators (model mode), which is what keeps the cached search
 * bit-identical to the uncached one.
 */

#ifndef PETABRICKS_TUNER_EVALUATION_CACHE_H
#define PETABRICKS_TUNER_EVALUATION_CACHE_H

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "tuner/config.h"

namespace petabricks {
namespace tuner {

/** Hit/miss/byte accounting, exposed via TuningSession and
 * tests. Counters are cumulative; bytes is the live footprint. */
struct EvaluationCacheStats
{
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t invalidated = 0; // entries dropped by invalidateBelow()
    size_t bytes = 0;        // nominal in-memory footprint right now
};

/** See file comment. */
class EvaluationCache
{
  public:
    /** Nominal in-memory cost of one entry (key + value + map node
     * overhead); the unit stats().bytes is accounted in. */
    static constexpr size_t kEntryBytes = 64;

    /**
     * Stable 64-bit identity of a configuration's *values*
     * (Config::valueFingerprint): equal configurations hash equal
     * across processes, which save()/load() relies on to validate
     * checkpoints.
     */
    static uint64_t fingerprint(const Config &config);

    /** Memoized seconds for @p config at @p inputSize, counting the
     * hit or miss. */
    std::optional<double> lookup(const Config &config, int64_t inputSize);

    /** lookup() when the caller already fingerprinted the config. */
    std::optional<double> lookupFingerprint(uint64_t fingerprint,
                                            int64_t inputSize);

    /** Memoize @p seconds (+inf for infeasible is a valid entry: a
     * duplicate of a known-bad mutant should not re-run either). */
    void insert(const Config &config, int64_t inputSize, double seconds);

    /** insert() when the caller already fingerprinted the config. */
    void insertFingerprint(uint64_t fingerprint, int64_t inputSize,
                           double seconds);

    /**
     * Drop every entry with input size < @p inputSize: scores at
     * smaller sizes can never be consulted again once the testing size
     * has grown past them, so the cache stays bounded by one size
     * level.
     */
    void invalidateBelow(int64_t inputSize);

    /** Drop all entries (stats are cumulative and survive). */
    void clear();

    size_t size() const { return entries_.size(); }

    const EvaluationCacheStats &stats() const { return stats_; }

  private:
    // Ordered by size first so invalidateBelow() is a range erase.
    std::map<std::pair<int64_t, uint64_t>, double> entries_;
    EvaluationCacheStats stats_;
};

} // namespace tuner
} // namespace petabricks

#endif // PETABRICKS_TUNER_EVALUATION_CACHE_H

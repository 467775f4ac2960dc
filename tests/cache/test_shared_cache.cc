/**
 * @file
 * SharedEvaluationCache: the process-wide L2 tier. Basic hit/miss and
 * telemetry, the never-cache-failures contract at the publish
 * boundary, cross-session hit attribution, the LRU byte bound,
 * persistence round trips (bit-exact values, warm start, fsck), and a
 * multi-threaded hammer that drives many owners over overlapping keys
 * — run under the ASan/UBSan and TSan CI jobs.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <gtest/gtest.h>
#include <limits>
#include <thread>
#include <vector>

#include "cache/shared_cache.h"

using namespace petabricks;
using namespace petabricks::cache;

namespace {

namespace fs = std::filesystem;

std::string
cacheDir(const char *name)
{
    std::string path =
        std::string(::testing::TempDir()) + "pb_shared_cache_" + name;
    fs::remove_all(path);
    return path;
}

SharedCacheOptions
memoryOnly(size_t maxBytes = 1 << 20)
{
    SharedCacheOptions options;
    options.maxBytes = maxBytes;
    return options;
}

TEST(SharedCache, MissThenPublishThenHit)
{
    SharedEvaluationCache cache(memoryOnly());
    uint64_t owner = cache.registerOwner();
    EXPECT_FALSE(cache.lookup(1, 64, 100, owner).has_value());
    cache.publish(1, 64, 100, 1.25, owner);
    std::optional<double> hit = cache.lookup(1, 64, 100, owner);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(*hit, 1.25);

    SharedCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.insertions, 1);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.bytes, SharedEvaluationCache::kEntryBytes);
    // Own-session hit: not cross-session.
    EXPECT_EQ(stats.crossSessionHits, 0);
}

TEST(SharedCache, EveryKeyComponentPartitions)
{
    SharedEvaluationCache cache(memoryOnly());
    uint64_t owner = cache.registerOwner();
    cache.publish(1, 64, 100, 1.0, owner);
    EXPECT_FALSE(cache.lookup(2, 64, 100, owner).has_value()); // scope
    EXPECT_FALSE(cache.lookup(1, 128, 100, owner).has_value()); // n
    EXPECT_FALSE(cache.lookup(1, 64, 101, owner).has_value()); // config
    EXPECT_TRUE(cache.lookup(1, 64, 100, owner).has_value());
}

TEST(SharedCache, NonFiniteValuesAreNeverPublished)
{
    // PR 7's contract enforced at the cache boundary: NaN (evaluation
    // failed) and inf (infeasible) are properties of one run, never
    // shared state.
    SharedEvaluationCache cache(memoryOnly());
    uint64_t owner = cache.registerOwner();
    cache.publish(1, 64, 1, std::nan(""), owner);
    cache.publish(1, 64, 2, std::numeric_limits<double>::infinity(),
                  owner);
    cache.publish(1, 64, 3, -std::numeric_limits<double>::infinity(),
                  owner);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().rejectedNonFinite, 3);
    EXPECT_FALSE(cache.lookup(1, 64, 1, owner).has_value());
}

TEST(SharedCache, CrossSessionHitsAreAttributed)
{
    SharedEvaluationCache cache(memoryOnly());
    uint64_t alice = cache.registerOwner();
    uint64_t bob = cache.registerOwner();
    EXPECT_NE(alice, bob);

    cache.publish(1, 64, 100, 1.0, alice);
    cache.lookup(1, 64, 100, alice); // own entry: plain hit
    EXPECT_EQ(cache.stats().crossSessionHits, 0);
    cache.lookup(1, 64, 100, bob); // somebody else's entry
    EXPECT_EQ(cache.stats().crossSessionHits, 1);
    EXPECT_EQ(cache.stats().hits, 2);
}

TEST(SharedCache, RepublishKeepsFirstValue)
{
    // Deterministic evaluators republish equal values; first-wins
    // means every reader observes one stable value even if a buggy
    // caller disagreed.
    SharedEvaluationCache cache(memoryOnly());
    uint64_t owner = cache.registerOwner();
    cache.publish(1, 64, 100, 1.0, owner);
    cache.publish(1, 64, 100, 2.0, owner);
    EXPECT_DOUBLE_EQ(*cache.lookup(1, 64, 100, owner), 1.0);
    EXPECT_EQ(cache.stats().insertions, 1);
}

TEST(SharedCache, ByteBoundEvictsOldEntries)
{
    // A tiny budget on one shard: the cache must stay bounded and keep
    // serving, evicting oldest-first.
    SharedCacheOptions options;
    options.maxBytes = 32 * SharedEvaluationCache::kEntryBytes;
    options.shardCount = 1;
    SharedEvaluationCache cache(options);
    uint64_t owner = cache.registerOwner();

    for (uint64_t fp = 0; fp < 500; ++fp)
        cache.publish(1, 64, fp, 1.0 + fp, owner);

    SharedCacheStats stats = cache.stats();
    EXPECT_LE(stats.entries, 32u);
    EXPECT_LE(stats.bytes, options.maxBytes);
    EXPECT_GT(stats.evictions, 0);
    // The newest entry always survives an eviction sweep.
    EXPECT_TRUE(cache.lookup(1, 64, 499, owner).has_value());
}

TEST(SharedCache, LookupRefreshesLru)
{
    SharedCacheOptions options;
    options.maxBytes = 8 * SharedEvaluationCache::kEntryBytes;
    options.shardCount = 1;
    SharedEvaluationCache cache(options);
    uint64_t owner = cache.registerOwner();

    cache.publish(1, 64, 0, 1.0, owner);
    for (uint64_t fp = 1; fp < 8; ++fp) {
        cache.publish(1, 64, fp, 1.0, owner);
        // Touch key 0 after every publish: it is always the most
        // recently used when the eviction sweep fires.
        cache.lookup(1, 64, 0, owner);
    }
    cache.publish(1, 64, 99, 1.0, owner); // trips the bound
    EXPECT_GT(cache.stats().evictions, 0);
    EXPECT_TRUE(cache.lookup(1, 64, 0, owner).has_value());
}

TEST(SharedCache, PersistsAcrossRestart)
{
    const std::string dir = cacheDir("restart");
    const double exact = 1.0 / 3.0; // no short decimal representation
    {
        SharedCacheOptions options = memoryOnly();
        options.dir = dir;
        SharedEvaluationCache cache(options);
        uint64_t owner = cache.registerOwner();
        cache.publish(1, 64, 100, exact, owner);
        cache.publish(1, 128, 101, 2.5, owner);
        // Destructor flushes the journal.
    }
    SharedCacheOptions options = memoryOnly();
    options.dir = dir;
    SharedEvaluationCache cache(options);
    uint64_t owner = cache.registerOwner();

    SharedCacheStats stats = cache.stats();
    EXPECT_EQ(stats.loadedEntries, 2);
    EXPECT_EQ(stats.segmentsLoaded, 1);

    std::optional<double> hit = cache.lookup(1, 64, 100, owner);
    ASSERT_TRUE(hit.has_value());
    // Bit-exact round trip: the byte-identical-champion guarantee.
    EXPECT_EQ(*hit, exact);
    // Disk entries belong to owner 0 (the previous process), so every
    // hit on them counts as cross-session.
    EXPECT_EQ(cache.stats().crossSessionHits, 1);
}

TEST(SharedCache, ExplicitFlushWritesASegment)
{
    const std::string dir = cacheDir("flush");
    SharedCacheOptions options = memoryOnly();
    options.dir = dir;
    SharedEvaluationCache cache(options);
    uint64_t owner = cache.registerOwner();
    cache.publish(1, 64, 1, 1.0, owner);
    EXPECT_EQ(cache.stats().flushes, 0);
    cache.flush();
    EXPECT_EQ(cache.stats().flushes, 1);
    cache.flush(); // empty journal: no segment
    EXPECT_EQ(cache.stats().flushes, 1);

    SharedCacheOptions reload = memoryOnly();
    reload.dir = dir;
    SharedEvaluationCache warm(reload);
    EXPECT_EQ(warm.stats().loadedEntries, 1);
}

TEST(SharedCache, AutoFlushAfterThreshold)
{
    const std::string dir = cacheDir("autoflush");
    SharedCacheOptions options = memoryOnly();
    options.dir = dir;
    options.flushEveryPublishes = 4;
    SharedEvaluationCache cache(options);
    uint64_t owner = cache.registerOwner();
    for (uint64_t fp = 0; fp < 4; ++fp)
        cache.publish(1, 64, fp, 1.0, owner);
    EXPECT_EQ(cache.stats().flushes, 1);
}

TEST(SharedCache, WarmStartQuarantinesTornSegmentAndBoots)
{
    const std::string dir = cacheDir("fsck");
    {
        SharedCacheOptions options = memoryOnly();
        options.dir = dir;
        SharedEvaluationCache cache(options);
        uint64_t owner = cache.registerOwner();
        cache.publish(1, 64, 1, 1.0, owner);
        cache.flush();
        cache.publish(1, 64, 2, 2.0, owner);
        cache.flush();
    }
    // Tear the first segment.
    std::vector<std::string> segments;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        segments.push_back(entry.path().string());
    std::sort(segments.begin(), segments.end());
    ASSERT_EQ(segments.size(), 2u);
    fs::resize_file(segments[0], 4);

    SharedCacheOptions options = memoryOnly();
    options.dir = dir;
    SharedEvaluationCache cache(options); // must not throw
    uint64_t owner = cache.registerOwner();
    EXPECT_EQ(cache.stats().segmentsQuarantined, 1);
    EXPECT_EQ(cache.stats().loadedEntries, 1);
    EXPECT_TRUE(cache.lookup(1, 64, 2, owner).has_value());
    EXPECT_FALSE(cache.lookup(1, 64, 1, owner).has_value());
}

TEST(SharedCache, WarmStartCompactsLongTail)
{
    const std::string dir = cacheDir("compact");
    {
        SharedCacheOptions options = memoryOnly();
        options.dir = dir;
        options.flushEveryPublishes = 1; // one segment per publish
        SharedEvaluationCache cache(options);
        uint64_t owner = cache.registerOwner();
        for (uint64_t fp = 0; fp < 12; ++fp)
            cache.publish(1, 64, fp, 1.0 + fp, owner);
    }
    SharedCacheOptions options = memoryOnly();
    options.dir = dir;
    options.compactAboveSegments = 8;
    SharedEvaluationCache cache(options);
    EXPECT_EQ(cache.stats().loadedEntries, 12);

    // The tail was rewritten as one segment; everything survived.
    size_t liveSegments = 0;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".kv")
            ++liveSegments;
    EXPECT_EQ(liveSegments, 1u);

    SharedCacheOptions reload = memoryOnly();
    reload.dir = dir;
    SharedEvaluationCache again(reload);
    EXPECT_EQ(again.stats().loadedEntries, 12);
}

TEST(SharedCache, MaxBytesZeroStillWorksDegenerate)
{
    // The server disables the shared tier by not constructing one;
    // the cache itself clamps a zero budget to one entry per shard
    // rather than dividing by zero or evicting forever.
    SharedCacheOptions options;
    options.maxBytes = 0;
    options.shardCount = 4;
    SharedEvaluationCache cache(options);
    uint64_t owner = cache.registerOwner();
    for (uint64_t fp = 0; fp < 64; ++fp)
        cache.publish(1, 64, fp, 1.0, owner);
    EXPECT_LE(cache.size(), 8u); // about one per shard
}

/**
 * The concurrency hammer: many "sessions" (threads with distinct
 * owners) race lookups and publishes over an overlapping key set, with
 * eviction pressure on, while other threads snapshot stats. The
 * invariant that makes sharing safe at all: the value for a key is a
 * pure function of the key, so every hit must return exactly that
 * function — a torn read, a lost update, or cross-key aliasing would
 * break it. Run under ASan/UBSan and TSan in CI.
 */
TEST(SharedCacheHammer, ManySessionsOverlappingKeys)
{
    SharedCacheOptions options;
    options.maxBytes = 256 * SharedEvaluationCache::kEntryBytes;
    options.shardCount = 4; // keys collide on shards, locks contended
    SharedEvaluationCache cache(options);

    constexpr int kThreads = 8;
    constexpr int kRounds = 400;
    constexpr uint64_t kScopes = 3;
    constexpr uint64_t kConfigs = 50;

    auto valueFor = [](uint64_t scope, int64_t n, uint64_t fp) {
        return static_cast<double>(scope * 1000003 +
                                   static_cast<uint64_t>(n) * 101 + fp) +
               0.25;
    };

    std::vector<std::thread> threads;
    std::atomic<int64_t> wrongValues{0};
    threads.reserve(kThreads + 2);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            uint64_t owner = cache.registerOwner();
            // Thread-distinct iteration order over a shared key set.
            uint64_t cursor = static_cast<uint64_t>(t) * 7 + 1;
            for (int round = 0; round < kRounds; ++round) {
                uint64_t scope = cursor % kScopes;
                int64_t n = 64 << (cursor % 3);
                uint64_t fp = cursor % kConfigs;
                cursor = cursor * 6364136223846793005ull + 1442695040888963407ull;

                double expected = valueFor(scope, n, fp);
                if (std::optional<double> hit =
                        cache.lookup(scope, n, fp, owner)) {
                    if (*hit != expected)
                        wrongValues.fetch_add(1);
                } else {
                    cache.publish(scope, n, fp, expected, owner);
                }
                // Sprinkle in rejected failures too.
                if (round % 97 == 0)
                    cache.publish(scope, n, fp + 1000, std::nan(""),
                                  owner);
            }
        });
    }
    // Concurrent stats readers (shared-lock the shards).
    std::atomic<bool> stop{false};
    for (int r = 0; r < 2; ++r)
        threads.emplace_back([&] {
            while (!stop.load())
                (void)cache.stats();
        });
    for (int t = 0; t < kThreads; ++t)
        threads[static_cast<size_t>(t)].join();
    stop.store(true);
    for (size_t t = kThreads; t < threads.size(); ++t)
        threads[t].join();

    EXPECT_EQ(wrongValues.load(), 0);
    SharedCacheStats stats = cache.stats();
    EXPECT_LE(stats.bytes, options.maxBytes);
    EXPECT_GT(stats.hits, 0);
    EXPECT_GT(stats.crossSessionHits, 0);
    EXPECT_GT(stats.rejectedNonFinite, 0);
    // Accounting sanity: every lookup was a hit or a miss.
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<int64_t>(kThreads) * kRounds);
}

/** Same hammer against a persistent cache with aggressive auto-flush:
 * publishes, flush segment writes, and warm-start all interleave with
 * the locks under test. */
TEST(SharedCacheHammer, PersistentConcurrentFlush)
{
    const std::string dir = cacheDir("hammer");
    {
        SharedCacheOptions options;
        options.maxBytes = 1 << 20;
        options.shardCount = 4;
        options.dir = dir;
        options.flushEveryPublishes = 16;
        SharedEvaluationCache cache(options);

        constexpr int kThreads = 6;
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                uint64_t owner = cache.registerOwner();
                for (uint64_t fp = 0; fp < 200; ++fp) {
                    uint64_t key = (fp + static_cast<uint64_t>(t) * 37) %
                                   300;
                    if (!cache.lookup(7, 64, key, owner))
                        cache.publish(7, 64, key,
                                      static_cast<double>(key) + 0.5,
                                      owner);
                    if (fp % 50 == 0)
                        cache.flush();
                }
            });
        for (std::thread &thread : threads)
            thread.join();
    }
    // Everything published must be loadable, each key exactly its
    // pure-function value.
    SharedCacheOptions options;
    options.maxBytes = 1 << 20;
    options.dir = dir;
    SharedEvaluationCache warm(options);
    uint64_t owner = warm.registerOwner();
    EXPECT_GT(warm.stats().loadedEntries, 0);
    for (uint64_t key = 0; key < 300; ++key)
        if (std::optional<double> hit = warm.lookup(7, 64, key, owner)) {
            EXPECT_EQ(*hit, static_cast<double>(key) + 0.5) << key;
        }
}

} // namespace

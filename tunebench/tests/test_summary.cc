#include <gtest/gtest.h>

#include <sstream>

#include "summary.h"

using namespace tunebench;

TEST(Summary, EmptyGivesZeros)
{
    Summary summary = summarize({});
    EXPECT_EQ(summary.count, 0u);
    EXPECT_EQ(summary.p50, 0.0);
    EXPECT_EQ(summary.tail, 0.0);
}

TEST(Summary, MedianIsNearestRank)
{
    EXPECT_EQ(summarize({5, 1, 3}).p50, 3.0);
    EXPECT_EQ(summarize({4, 1, 3, 2}).p50, 2.0);
}

TEST(Summary, TailNeedsTenSamplesBeyondIt)
{
    std::vector<double> samples;
    for (int i = 1; i <= 19; ++i)
        samples.push_back(i);
    // 19 samples: the median has 9 above it, so no percentile qualifies.
    EXPECT_EQ(summarize(samples).tailPercentile, 50.0);
    samples.push_back(20);
    EXPECT_EQ(summarize(samples).tailPercentile, 50.0);
    EXPECT_EQ(summarize(samples).tail, 10.0);

    samples.clear();
    for (int i = 1; i <= 100; ++i)
        samples.push_back(i);
    Summary hundred = summarize(samples);
    EXPECT_EQ(hundred.tailPercentile, 90.0);
    EXPECT_EQ(hundred.tail, 90.0);

    samples.clear();
    for (int i = 1; i <= 1000; ++i)
        samples.push_back(i);
    Summary thousand = summarize(samples);
    EXPECT_EQ(thousand.tailPercentile, 99.0);
    EXPECT_EQ(thousand.tail, 990.0);
    EXPECT_EQ(thousand.count, 1000u);
}

TEST(Summary, WindowsGroupByTimeAndDropOutsiders)
{
    std::vector<std::vector<double>> grouped =
        byWindow({1, 2, 3, 4, 5}, {0.0, 0.9, 1.0, 3.99, 4.0}, 4, 4.0);
    ASSERT_EQ(grouped.size(), 4u);
    EXPECT_EQ(grouped[0], (std::vector<double>{1, 2}));
    EXPECT_EQ(grouped[1], (std::vector<double>{3}));
    EXPECT_TRUE(grouped[2].empty());
    EXPECT_EQ(grouped[3], (std::vector<double>{4}));
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Summary, MaxPercentileCapsTheTail)
{
    std::vector<double> samples;
    for (int i = 1; i <= 100000; ++i)
        samples.push_back(i);
    EXPECT_EQ(summarize(samples).tailPercentile, 99.99);
    EXPECT_EQ(summarize(samples, 99.0).tailPercentile, 99.0);
    EXPECT_EQ(summarize(samples, 99.0).tail, 99000.0);
}

TEST(MetricSet, RatioCarriesItsBase)
{
    MetricSet metrics;
    metrics.addRatio("cache.hit_ratio", Ratio{3, 4}, "cache.probes");
    EXPECT_DOUBLE_EQ(metrics.get("cache.hit_ratio"), 0.75);
    EXPECT_DOUBLE_EQ(metrics.get("cache.probes"), 4.0);
    EXPECT_EQ(Ratio{}.value(), 0.0);

    // Overwriting a metric that was added earlier keeps the ratio's
    // base next to the ratio, not on whatever was added last.
    metrics.add("later", 1, "count");
    metrics.addRatio("cache.hit_ratio", Ratio{1, 2}, "cache.probes");

    std::ostringstream text;
    metrics.print(text);
    EXPECT_NE(text.str().find("cache.hit_ratio = 0.5 ratio  (1 of 2 "
                              "cache.probes)"),
              std::string::npos);
    EXPECT_NE(text.str().find("cache.probes = 2 count"), std::string::npos);
    EXPECT_NE(text.str().find("later = 1 count\n"), std::string::npos);
}

TEST(MetricSet, TimingAddsMedianAndTailWithUnits)
{
    MetricSet metrics;
    std::vector<double> micros;
    for (int i = 1; i <= 1000; ++i)
        micros.push_back(i);
    metrics.addTiming("op", summarize(micros), "ms", 1e-3);
    EXPECT_DOUBLE_EQ(metrics.get("op_p50_ms"), 0.5);
    EXPECT_DOUBLE_EQ(metrics.get("op_tail_ms"), 0.99);
    std::ostringstream text;
    metrics.print(text);
    EXPECT_NE(text.str().find("op_tail_ms = 0.98999999999999999 ms  (p99 "
                              "of n=1000)"),
              std::string::npos);
}

TEST(MetricSet, JsonKeepsRequestedOrderAndAllDigits)
{
    MetricSet metrics;
    metrics.add("b", 1.0 / 3.0, "s");
    metrics.add("a", 2, "count");
    EXPECT_EQ(metrics.json({"a", "b"}),
              "{\"a\": {\"value\": 2, \"unit\": \"count\"}, \"b\": "
              "{\"value\": 0.33333333333333331, \"unit\": \"s\"}}");
    EXPECT_TRUE(metrics.has("a"));
    EXPECT_FALSE(metrics.has("c"));
}

TEST(Reservoir, KeepsAllUntilFullThenAUniformSample)
{
    Reservoir small(100);
    for (int i = 0; i < 50; ++i)
        small.add(i);
    EXPECT_EQ(small.samples().size(), 50u);
    EXPECT_EQ(small.summary().p50, 24.0);

    Reservoir reservoir(10000);
    for (int i = 1; i <= 1000000; ++i)
        reservoir.add(i);
    EXPECT_EQ(reservoir.count(), 1000000u);
    EXPECT_EQ(reservoir.samples().size(), 10000u);
    Summary summary = reservoir.summary(99.0);
    EXPECT_EQ(summary.count, 1000000u);
    EXPECT_NEAR(summary.p50, 500000.0, 20000.0);
    EXPECT_NEAR(summary.tail, 990000.0, 5000.0);
}

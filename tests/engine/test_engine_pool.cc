/**
 * Batched evaluation across the engine layer: the measureBatch
 * default, ModelEngine's parallel batches (order-preserving, so
 * bit-identical to serial), EnginePool fan-out across RuntimeEngine
 * instances, and the concurrency gates that keep function-style
 * benchmarks (shared ChoiceFile) off the parallel path.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "benchmarks/convolution.h"
#include "benchmarks/sort.h"
#include "engine/engine_pool.h"
#include "engine/execution_engine.h"
#include "support/error.h"

namespace petabricks {
namespace engine {
namespace {

/** Model-only benchmark: cost = lws, throws for lws == 13, +inf for
 * lws > 500. */
class SyntheticBenchmark : public apps::Benchmark
{
  public:
    std::string name() const override { return "Synthetic"; }

    tuner::Config
    seedConfig() const override
    {
        tuner::Config config;
        config.addTunable({"lws", 1, 1024, 1, false});
        return config;
    }

    double
    evaluate(const tuner::Config &config, int64_t,
             const sim::MachineProfile &) const override
    {
        int64_t lws = config.tunableValue("lws");
        if (lws == 13)
            PB_FATAL("unlucky configuration");
        if (lws > 500)
            return std::numeric_limits<double>::infinity();
        return static_cast<double>(lws);
    }

    int64_t testingInputSize() const override { return 64; }
    int openclKernelCount() const override { return 0; }
    std::string
    describeConfig(const tuner::Config &, int64_t) const override
    {
        return "n/a";
    }
};

std::vector<tuner::Config>
syntheticBatch(const SyntheticBenchmark &bench,
               std::initializer_list<int64_t> values)
{
    std::vector<tuner::Config> configs;
    for (int64_t lws : values) {
        tuner::Config config = bench.seedConfig();
        config.tunable("lws").value = lws;
        configs.push_back(config);
    }
    return configs;
}

std::vector<tuner::Config>
convolutionBatch()
{
    std::vector<tuner::Config> configs;
    for (bool separable : {false, true})
        for (bool local : {false, true})
            configs.push_back(apps::ConvolutionBenchmark::fixedMapping(
                separable, local));
    return configs;
}

TEST(MeasureBatch, ParallelModelBatchMatchesSerialExactly)
{
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {5, 1, 9, 700, 3, 8, 2, 44});

    ModelEngine serial(sim::MachineProfile::desktop(), 1);
    ModelEngine parallel(sim::MachineProfile::desktop(), 8);

    std::vector<double> a = serial.measureBatch(bench, configs, 64);
    std::vector<double> b = parallel.measureBatch(bench, configs, 64);
    ASSERT_EQ(a.size(), configs.size());
    ASSERT_EQ(b.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        if (std::isinf(a[i]))
            EXPECT_TRUE(std::isinf(b[i])) << i;
        else
            EXPECT_DOUBLE_EQ(a[i], b[i]) << i;
    }

    std::vector<double> seconds = parallel.measureBatch(
        bench, syntheticBatch(bench, {5, 1, 9}), 64);
    ASSERT_EQ(seconds.size(), 3u);
    EXPECT_DOUBLE_EQ(seconds[0], 5.0);
    EXPECT_DOUBLE_EQ(seconds[1], 1.0);
    EXPECT_DOUBLE_EQ(seconds[2], 9.0);
}

TEST(MeasureBatch, PricesInfeasibleAsInfinityInsteadOfThrowing)
{
    SyntheticBenchmark bench;
    ModelEngine engine(sim::MachineProfile::desktop(), 4);
    auto configs = syntheticBatch(bench, {5, 13, 9});
    std::vector<double> seconds = engine.measureBatch(bench, configs, 64);
    ASSERT_EQ(seconds.size(), 3u);
    EXPECT_DOUBLE_EQ(seconds[0], 5.0);
    EXPECT_TRUE(std::isinf(seconds[1])); // FatalError -> +inf
    EXPECT_DOUBLE_EQ(seconds[2], 9.0);
}

TEST(MeasureBatch, DefaultImplementationLoopsOverMeasure)
{
    // RuntimeEngine does not override measureBatch: the base-class loop
    // must execute every config serially on the one engine. A real run
    // whose residual exceeds the tolerance prices as +inf, so finite
    // seconds mean a correct result.
    apps::ConvolutionBenchmark conv(5);
    RuntimeEngine engine;
    auto configs = convolutionBatch();
    std::vector<double> seconds = engine.measureBatch(conv, configs, 48);
    ASSERT_EQ(seconds.size(), configs.size());
    for (double s : seconds) {
        EXPECT_TRUE(std::isfinite(s)) << s;
        EXPECT_GT(s, 0.0);
    }
}

TEST(ConcurrencyGates, FunctionStyleBenchmarksRefuseConcurrentInstances)
{
    apps::ConvolutionBenchmark conv(5); // transform-style: safe
    apps::SortBenchmark sort;           // function-style: shared ChoiceFile
    EXPECT_TRUE(conv.realModeConcurrencySafe());
    EXPECT_FALSE(sort.realModeConcurrencySafe());

    RuntimeEngine runtime;
    EXPECT_TRUE(runtime.concurrentInstancesSafe(conv));
    EXPECT_FALSE(runtime.concurrentInstancesSafe(sort));

    ModelEngine model(sim::MachineProfile::desktop());
    EXPECT_TRUE(model.concurrentInstancesSafe(sort)); // model mode is pure
}

TEST(EnginePool, FansBatchAcrossRuntimeInstances)
{
    apps::ConvolutionBenchmark conv(5);
    EnginePool pool([] { return std::make_unique<RuntimeEngine>(); }, 3);
    EXPECT_EQ(pool.engineCount(), 3);
    EXPECT_TRUE(pool.supports(conv));

    auto configs = convolutionBatch();
    std::vector<double> seconds = pool.measureBatch(conv, configs, 48);
    ASSERT_EQ(seconds.size(), configs.size());
    for (size_t i = 0; i < seconds.size(); ++i) {
        EXPECT_TRUE(std::isfinite(seconds[i])) << i; // within tolerance
        EXPECT_GT(seconds[i], 0.0) << i;
    }
    // All three engines' devices saw kernel launches: the batch really
    // fanned out (4 configs round-robin over 3 engines).
    for (int e = 0; e < pool.engineCount(); ++e) {
        auto *runtimeEngine =
            dynamic_cast<RuntimeEngine *>(&pool.engineAt(e));
        ASSERT_NE(runtimeEngine, nullptr);
        EXPECT_GT(runtimeEngine->device()->stats().launches, 0) << e;
    }
}

TEST(EnginePool, SerializesUnsafeBenchmarksInsteadOfRacing)
{
    // Sort shares an armed ChoiceFile: the pool must degrade to a
    // serial loop on one engine and still return correct results.
    apps::SortBenchmark sort;
    EnginePool pool([] { return std::make_unique<RuntimeEngine>(); }, 2);
    EXPECT_FALSE(pool.concurrentInstancesSafe(sort));

    std::vector<tuner::Config> configs(3, sort.seedConfig());
    std::vector<double> seconds = pool.measureBatch(sort, configs, 512);
    ASSERT_EQ(seconds.size(), 3u);
    for (double s : seconds)
        EXPECT_TRUE(std::isfinite(s)) << s; // within tolerance
    // The single serial lane is the first engine; the second sat idle.
    EXPECT_EQ(pool.instanceStats(0).calls, 3);
    EXPECT_EQ(pool.instanceStats(1).calls, 0);
}

TEST(EnginePool, ModelPoolMatchesSingleEngine)
{
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {7, 700, 2, 13, 41});

    ModelEngine reference(sim::MachineProfile::desktop(), 1);
    EnginePool pool(
        [] {
            return std::make_unique<ModelEngine>(
                sim::MachineProfile::desktop(), 1);
        },
        4);

    std::vector<double> a =
        reference.measureBatch(bench, configs, 64);
    std::vector<double> b = pool.measureBatch(bench, configs, 64);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::isinf(a[i]))
            EXPECT_TRUE(std::isinf(b[i])) << i;
        else
            EXPECT_DOUBLE_EQ(a[i], b[i]) << i;
    }

    // Single-config entry points delegate to the first engine.
    EXPECT_DOUBLE_EQ(pool.measure(bench, configs[0], 64), 7.0);
    EXPECT_DOUBLE_EQ(pool.run(bench, configs[2], 64).seconds, 2.0);
    EXPECT_EQ(pool.name().rfind("pool[4]:", 0), 0u);
}

TEST(EnginePool, BindsEachItemToAFixedLane)
{
    // Lane l of L runs items l, l+L, l+2L…: 7 configs over 3 healthy
    // instances split {3, 2, 2} on every batch, whatever order the
    // lane threads happen to start in.
    SyntheticBenchmark bench;
    auto configs = syntheticBatch(bench, {7, 700, 2, 13, 41, 5, 9});
    ModelEngine reference(sim::MachineProfile::desktop(), 1);
    std::vector<double> expected =
        reference.measureBatch(bench, configs, 64);

    for (int batch = 0; batch < 50; ++batch) {
        EnginePool pool(
            [] {
                return std::make_unique<ModelEngine>(
                    sim::MachineProfile::desktop(), 1);
            },
            3);
        std::vector<double> got = pool.measureBatch(bench, configs, 64);
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i) {
            if (std::isinf(expected[i]))
                EXPECT_TRUE(std::isinf(got[i])) << batch << ":" << i;
            else
                EXPECT_DOUBLE_EQ(got[i], expected[i]) << batch << ":" << i;
        }
        EXPECT_EQ(pool.instanceStats(0).calls, 3) << batch;
        EXPECT_EQ(pool.instanceStats(1).calls, 2) << batch;
        EXPECT_EQ(pool.instanceStats(2).calls, 2) << batch;
    }
}

TEST(EnginePool, ConfiguresTunerLikeItsEngines)
{
    sim::MachineProfile laptop = sim::MachineProfile::laptop();
    EnginePool pool(
        [&] { return std::make_unique<ModelEngine>(laptop); }, 2);
    tuner::TunerOptions options;
    pool.configureTuner(options);
    EXPECT_DOUBLE_EQ(options.kernelCompileSeconds,
                     laptop.kernelCompileSeconds);
    EXPECT_DOUBLE_EQ(options.irCacheSavings, laptop.irCacheSavings);
}

} // namespace
} // namespace engine
} // namespace petabricks

// Golden-equality suite for the model-mode evaluation fast path.
//
// The EvaluationContext path (interned slot ids, coalescing residency,
// memoized stage costs, precomputed analytic constants, the reusable
// scheduler) must be *bit-identical* to the reference path — the
// per-call from-scratch implementation kept as the executable spec. No
// tolerance comparisons here: any divergence, however small, means the
// fast path changed the model.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "engine/execution_engine.h"
#include "support/rng.h"
#include "tuner/mutators.h"
#include "tuner/session.h"

namespace petabricks {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Reference-path evaluation; +inf for infeasible placements. */
double
evalReference(const apps::Benchmark &benchmark,
              const tuner::Config &config, int64_t n,
              const sim::MachineProfile &machine)
{
    try {
        return benchmark.evaluate(config, n, machine);
    } catch (const FatalError &) {
        return kInf;
    }
}

double
evalFast(const apps::Benchmark &benchmark, const tuner::Config &config,
         int64_t n, const sim::MachineProfile &machine,
         const apps::EvalContext *ctx)
{
    try {
        return benchmark.evaluate(config, n, machine, ctx);
    } catch (const FatalError &) {
        return kInf;
    }
}

std::vector<tuner::Config>
mutatedPopulation(const apps::Benchmark &benchmark, int64_t n,
                  int count, uint64_t seed)
{
    tuner::Config base = benchmark.seedConfig();
    std::vector<tuner::MutatorPtr> mutators =
        tuner::generateMutators(base);
    Rng rng(seed);
    std::vector<tuner::Config> configs{base};
    while (configs.size() < static_cast<size_t>(count)) {
        tuner::Config config = base;
        int64_t edits = rng.uniformInt(1, 5);
        for (int64_t e = 0; e < edits; ++e) {
            size_t m = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(mutators.size()) - 1));
            mutators[m]->apply(config, rng, n);
        }
        configs.push_back(std::move(config));
    }
    return configs;
}

/** Fast == reference, bit for bit, on every machine profile. */
void
expectGoldenEquality(const apps::Benchmark &benchmark, int64_t n)
{
    for (const sim::MachineProfile &machine :
         sim::MachineProfile::all()) {
        apps::EvalContextPtr ctx =
            benchmark.makeEvalContext(n, machine);
        std::vector<tuner::Config> configs = mutatedPopulation(
            benchmark, n, 30,
            0xFA57 ^ static_cast<uint64_t>(n) ^
                std::hash<std::string>()(machine.name));
        for (const tuner::Config &config : configs) {
            double ref = evalReference(benchmark, config, n, machine);
            double fast =
                evalFast(benchmark, config, n, machine, ctx.get());
            if (std::isinf(ref))
                EXPECT_TRUE(std::isinf(fast))
                    << benchmark.name() << " n=" << n << " on "
                    << machine.name;
            else
                EXPECT_EQ(ref, fast) << benchmark.name() << " n=" << n
                                     << " on " << machine.name;
        }
    }
}

TEST(EvalFastPath, BitIdenticalCostsAllBenchmarksTwoSizes)
{
    for (const apps::BenchmarkPtr &benchmark : apps::allBenchmarks()) {
        expectGoldenEquality(*benchmark, benchmark->minTuningSize());
        expectGoldenEquality(*benchmark, benchmark->testingInputSize());
    }
}

TEST(EvalFastPath, NullContextFallsBackToReference)
{
    auto benchmarks = apps::allBenchmarks();
    sim::MachineProfile machine = sim::MachineProfile::desktop();
    for (const apps::BenchmarkPtr &benchmark : benchmarks) {
        int64_t n = benchmark->minTuningSize();
        tuner::Config config = benchmark->seedConfig();
        EXPECT_EQ(evalReference(*benchmark, config, n, machine),
                  evalFast(*benchmark, config, n, machine, nullptr));
    }
}

/** Reference-path tuner evaluator: by-name, context-free evaluation. */
class ReferenceEvaluator : public tuner::Evaluator
{
  public:
    ReferenceEvaluator(const apps::Benchmark &benchmark,
                       const sim::MachineProfile &machine)
        : benchmark_(benchmark), machine_(machine)
    {}

    double
    evaluate(const tuner::Config &config, int64_t inputSize) override
    {
        return evalReference(benchmark_, config, inputSize, machine_);
    }

    std::vector<std::string>
    kernelSources(const tuner::Config &config,
                  int64_t inputSize) override
    {
        return benchmark_.kernelSources(config, inputSize);
    }

  private:
    const apps::Benchmark &benchmark_;
    const sim::MachineProfile &machine_;
};

/** A whole search over the fast path lands on the identical champion
 * (and identical accounting) as the reference path. */
TEST(EvalFastPath, TuningSessionChampionsMatchReferencePath)
{
    sim::MachineProfile machine = sim::MachineProfile::desktop();
    for (const apps::BenchmarkPtr &benchmark : apps::allBenchmarks()) {
        tuner::TunerOptions options;
        options.seed = 0x600D;
        options.populationSize = 6;
        options.generationsPerSize = 3;
        options.minInputSize = benchmark->minTuningSize();
        options.maxInputSize = benchmark->testingInputSize();
        options.kernelCompileSeconds = machine.kernelCompileSeconds;
        options.irCacheSavings = machine.irCacheSavings;

        // Fast path: ModelEngine threads an EvaluationContext through
        // every batched generation.
        engine::ModelEngine engine(machine, /*parallelism=*/2);
        tuner::TuningResult fast =
            apps::tuneWithEngine(*benchmark, engine, options);

        ReferenceEvaluator reference(*benchmark, machine);
        tuner::TuningSession session(reference,
                                     benchmark->seedConfig(), options);
        tuner::TuningResult ref = session.run();

        EXPECT_EQ(fast.best.valueFingerprint(),
                  ref.best.valueFingerprint())
            << benchmark->name();
        EXPECT_EQ(fast.bestSeconds, ref.bestSeconds)
            << benchmark->name();
        EXPECT_EQ(fast.evaluations, ref.evaluations)
            << benchmark->name();
    }
}

} // namespace
} // namespace petabricks

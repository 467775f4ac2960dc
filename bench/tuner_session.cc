/**
 * TuningSession harness: the batched/cached/resumable evaluation path
 * against the legacy serial shape, on real tuning runs.
 *
 *  1. Serial baseline: one blocking evaluation per candidate, no
 *     cache (the paper's tuner loop).
 *  2. Session: one parallel ModelEngine batch per generation plus the
 *     evaluation cache. Must produce the *same champion* for the same
 *     seed, faster.
 *  3. Resume: the same search killed mid-way, checkpointed with
 *     save(), restored with load(), and driven to completion — must
 *     reach the same champion as the uninterrupted run.
 *  4. Real mode — where the paper's 5.2 hours actually went: a fixed
 *     batch of configurations really executed serially on one engine
 *     vs. fanned across an EnginePool of RuntimeEngines (identical
 *     work, so the wall-clock ratio is meaningful), plus a full
 *     real-mode tuning run through the pooled session API.
 *
 * Wall-clock ratios scale with the hardware: on a single-core host
 * the parallel paths degrade to serial plus bookkeeping (the printed
 * hardware width says which you are looking at); champion equality
 * and resume equality hold everywhere.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>

#include "benchmarks/convolution.h"
#include "benchmarks/sort.h"
#include "engine/engine_pool.h"
#include "engine/execution_engine.h"
#include "support/table.h"
#include "tuner/session.h"

using namespace petabricks;
using Clock = std::chrono::steady_clock;

namespace {

double
wallSeconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

tuner::TunerOptions
searchOptions(const apps::Benchmark &benchmark, bool cached)
{
    tuner::TunerOptions options;
    options.seed = 20130316;
    options.populationSize = 16;
    options.generationsPerSize = 40;
    options.minInputSize = benchmark.minTuningSize();
    options.maxInputSize = benchmark.testingInputSize();
    options.cacheEvaluations = cached;
    return options;
}

} // namespace

int
main()
{
    std::cout << "=== TuningSession: batched, cached, resumable "
                 "evaluation ===\n\n";
    apps::SortBenchmark bench;
    sim::MachineProfile desktop = sim::MachineProfile::desktop();

    // -- 1. Serial baseline: parallelism 1, cache off ------------------
    auto start = Clock::now();
    engine::ModelEngine serialEngine(desktop, /*parallelism=*/1);
    engine::EngineEvaluator serialEval(bench, serialEngine);
    tuner::TuningSession serial(serialEval, bench.seedConfig(),
                                searchOptions(bench, false));
    tuner::TuningResult serialResult = serial.run();
    double serialWall = wallSeconds(start);

    // -- 2. Batched + cached session -----------------------------------
    start = Clock::now();
    engine::ModelEngine batchEngine(desktop); // one thread per core
    engine::EngineEvaluator batchEval(bench, batchEngine);
    tuner::TuningSession session(batchEval, bench.seedConfig(),
                                 searchOptions(bench, true));
    tuner::TuningResult sessionResult = session.run();
    double sessionWall = wallSeconds(start);

    bool sameChampion = sessionResult.best == serialResult.best;
    TextTable table({"Path", "Wall s", "Evaluations", "Cache hits",
                     "Champion s", "Same champion"});
    table.addRow({"serial, uncached", TextTable::num(serialWall, 2),
                  std::to_string(serialResult.evaluations), "0",
                  TextTable::num(serialResult.bestSeconds * 1e3, 3) + "ms",
                  "(baseline)"});
    table.addRow({"batched + cached", TextTable::num(sessionWall, 2),
                  std::to_string(sessionResult.evaluations),
                  std::to_string(sessionResult.cacheHits),
                  TextTable::num(sessionResult.bestSeconds * 1e3, 3) +
                      "ms",
                  sameChampion ? "yes" : "NO"});
    std::cout << table.toString();
    std::cout << "  wall-clock ratio " << TextTable::num(serialWall / sessionWall, 2)
              << "x, evaluations saved by the cache "
              << TextTable::num(
                     static_cast<double>(serialResult.evaluations) /
                         static_cast<double>(sessionResult.evaluations),
                     2)
              << "x (model evaluations are microsecond-scale; the "
                 "batch path pays off on real runs, below)\n\n";

    // -- 3. Kill mid-search, checkpoint, resume ------------------------
    const std::string checkpoint = "/tmp/petabricks_session.ckpt";
    engine::ModelEngine resumeEngine(desktop);
    engine::EngineEvaluator resumeEval(bench, resumeEngine);
    {
        tuner::TuningSession killed(resumeEval, bench.seedConfig(),
                                    searchOptions(bench, true));
        killed.run(killed.totalSteps() / 2);
        killed.save(checkpoint);
        // `killed` is destroyed here: the search process "dies".
    }
    tuner::TuningSession resumed(resumeEval, bench.seedConfig(),
                                 searchOptions(bench, true));
    resumed.load(checkpoint);
    tuner::TuningResult resumedResult = resumed.run();
    std::remove(checkpoint.c_str());
    std::cout << "resume after kill at 50%: champion "
              << (resumedResult.best == sessionResult.best
                      ? "matches uninterrupted run\n\n"
                      : "DIVERGED from uninterrupted run\n\n");

    // -- 4a. Real mode, identical work: fixed batch ---------------------
    // Each real run costs milliseconds to tens of milliseconds, so
    // this is the path where fan-out across engine instances buys
    // wall-clock (given cores to fan onto).
    apps::ConvolutionBenchmark conv(5);
    std::vector<tuner::Config> batch;
    for (bool separable : {false, true})
        for (bool local : {false, true})
            batch.push_back(apps::ConvolutionBenchmark::fixedMapping(
                separable, local));
    const int64_t realN = 512;

    start = Clock::now();
    engine::RuntimeEngine single;
    std::vector<double> serialSeconds =
        single.measureBatch(conv, batch, realN);
    double realSerialWall = wallSeconds(start);

    start = Clock::now();
    engine::EnginePool pool(
        [] { return std::make_unique<engine::RuntimeEngine>(); },
        static_cast<int>(batch.size()));
    std::vector<double> pooledSeconds =
        pool.measureBatch(conv, batch, realN);
    double realPoolWall = wallSeconds(start);

    // measure() prices a residual over tolerance as +inf.
    bool allCorrect = true;
    for (size_t i = 0; i < pooledSeconds.size(); ++i)
        allCorrect &= std::isfinite(pooledSeconds[i]) &&
                      pooledSeconds[i] > 0.0 &&
                      std::isfinite(serialSeconds[i]) &&
                      serialSeconds[i] > 0.0;
    std::cout << "real-mode batch of " << batch.size()
              << " configs (Convolution, n=" << realN << ", "
              << std::thread::hardware_concurrency()
              << " hardware threads):\n"
              << "  one engine, serial: "
              << TextTable::num(realSerialWall * 1e3, 0) << " ms\n"
              << "  pool[" << pool.engineCount()
              << "] fan-out:     " << TextTable::num(realPoolWall * 1e3, 0)
              << " ms (" << TextTable::num(realSerialWall / realPoolWall, 2)
              << "x), results "
              << (allCorrect ? "all within tolerance" : "WRONG") << "\n\n";

    // -- 4b. Real-mode tuning through the pooled session ---------------
    // The full stack end to end: TuningSession -> EngineEvaluator ->
    // EnginePool.measureBatch -> N RuntimeEngines, one batch per
    // generation. (Real timings are noisy, so real-mode champions are
    // not compared against a serial twin — determinism is a model-mode
    // guarantee.)
    tuner::TunerOptions realOptions;
    realOptions.seed = 20130316;
    realOptions.populationSize = 6;
    realOptions.generationsPerSize = 3;
    realOptions.minInputSize = 64;
    realOptions.maxInputSize = 256;
    realOptions.sizeGrowthFactor = 2;
    start = Clock::now();
    engine::EngineEvaluator pooledEval(conv, pool);
    tuner::TuningSession realSession(pooledEval, conv.seedConfig(),
                                     realOptions);
    tuner::TuningResult realResult = realSession.run();
    std::cout << "real-mode tuning via pooled session (sizes 64..256): "
              << realResult.evaluations << " real runs, "
              << realResult.cacheHits << " cache hits, "
              << TextTable::num(wallSeconds(start), 2)
              << "s wall; champion: "
              << conv.describeConfig(realResult.best, 256) << "\n";

    bool realFeasible = std::isfinite(realResult.bestSeconds);
    return sameChampion && resumedResult.best == sessionResult.best &&
                   allCorrect && realFeasible
               ? 0
               : 1;
}

/**
 * Microbenchmarks of the runtime substrates (google-benchmark): deque
 * operations, task lifecycle, steal throughput, command-queue
 * round-trips, GPU memory table dedup, the schedule simulator, and the
 * checkpoint layers every daemon boot and step pays (KvFile::load of a
 * spooled checkpoint, TuningSession::checkpointKv plus its signed
 * render, TuningSession::load).
 */

#include <benchmark/benchmark.h>

#include <filesystem>

#include "benchmarks/registry.h"
#include "compiler/simulator.h"
#include "engine/execution_engine.h"
#include "ocl/queue.h"
#include "runtime/runtime.h"
#include "service/hosted_session.h"
#include "sim/machine.h"
#include "support/kvfile.h"
#include "tuner/session.h"

using namespace petabricks;

namespace {

void
BM_DequePushPop(benchmark::State &state)
{
    runtime::WorkDeque deque;
    runtime::TaskPtr task = runtime::Task::cpu("t", [] {});
    for (auto _ : state) {
        deque.pushTop(task);
        benchmark::DoNotOptimize(deque.popTop());
    }
}
BENCHMARK(BM_DequePushPop);

void
BM_DequeSteal(benchmark::State &state)
{
    runtime::WorkDeque deque;
    runtime::TaskPtr task = runtime::Task::cpu("t", [] {});
    for (auto _ : state) {
        deque.pushTop(task);
        benchmark::DoNotOptimize(deque.stealBottom());
    }
}
BENCHMARK(BM_DequeSteal);

void
BM_TaskLifecycle(benchmark::State &state)
{
    for (auto _ : state) {
        runtime::TaskPtr a = runtime::Task::cpu("a", [] {});
        runtime::TaskPtr b = runtime::Task::cpu("b", [] {});
        b->dependsOn(a);
        a->finishCreation();
        b->finishCreation();
        runtime::TaskContext ctx;
        std::vector<runtime::TaskPtr> runnable;
        a->run(ctx, runnable);
        runtime::TaskContext ctx2;
        runnable[0]->run(ctx2, runnable);
    }
}
BENCHMARK(BM_TaskLifecycle);

void
BM_RuntimeSpawnThroughput(benchmark::State &state)
{
    runtime::Runtime rt(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            rt.spawn(runtime::Task::cpu("t", [] {}));
        rt.wait();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RuntimeSpawnThroughput)->Arg(1)->Arg(4);

void
BM_CommandQueueRoundTrip(benchmark::State &state)
{
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    ocl::CommandQueue queue(device);
    auto buf = std::make_shared<ocl::Buffer>(4096);
    std::vector<double> host(512, 1.0);
    for (auto _ : state) {
        queue.enqueueWrite(buf, host.data(), 4096);
        queue.enqueueRead(buf, host.data(), 4096)->wait();
    }
}
BENCHMARK(BM_CommandQueueRoundTrip);

void
BM_GpuMemoryCopyInDedup(benchmark::State &state)
{
    ocl::Device device(sim::MachineProfile::desktop().ocl);
    ocl::CommandQueue queue(device);
    runtime::GpuMemoryTable table(queue);
    MatrixD m(256, 256);
    table.prepare(m);
    table.copyIn(m, m.fullRegion());
    queue.finish();
    for (auto _ : state)
        benchmark::DoNotOptimize(table.copyIn(m, m.fullRegion()));
}
BENCHMARK(BM_GpuMemoryCopyInDedup);

void
BM_ScheduleSimulator(benchmark::State &state)
{
    for (auto _ : state) {
        sim::ScheduleSimulator sched(
            sim::MachineProfile::desktop());
        sim::SimTaskId prev = -1;
        for (int i = 0; i < 256; ++i) {
            std::vector<sim::SimTaskId> deps;
            if (prev >= 0)
                deps.push_back(prev);
            prev = sched.addTask(sim::SimResource::CpuWorker, 1e-6,
                                 deps);
        }
        benchmark::DoNotOptimize(sched.run());
    }
}
BENCHMARK(BM_ScheduleSimulator);

/**
 * A session as tunerd spools one: a Sort search on Desktop with the
 * daemon's create-request defaults, population 8, stepped twice, so
 * its checkpoint has the size and shape of a spooled `.ckpt`.
 */
struct SpooledSession
{
    service::SessionSpec spec = [] {
        KvFile body;
        body.set("benchmark", "Sort");
        body.set("machine", "Desktop");
        body.setInt("populationSize", 8);
        body.setInt("generationsPerSize", 3);
        body.setInt("seed", 20130316);
        return service::SessionSpec::fromCreateRequest(body);
    }();
    apps::BenchmarkPtr benchmark = apps::findBenchmark(spec.benchmark);
    engine::ModelEngine engine{sim::MachineProfile::byName(spec.machine)};
    engine::EngineEvaluator evaluator{*benchmark, engine};
    tuner::TuningSession session{evaluator, benchmark->seedConfig(),
                                 spec.tuner};
    const std::string path =
        (std::filesystem::temp_directory_path() / "pb_micro_session.ckpt")
            .string();

    SpooledSession()
    {
        session.run(2);
        session.save(path);
    }
    ~SpooledSession() { std::filesystem::remove(path); }
};

void
BM_KvFileLoadCheckpoint(benchmark::State &state)
{
    SpooledSession spooled;
    for (auto _ : state)
        benchmark::DoNotOptimize(KvFile::load(spooled.path));
}
BENCHMARK(BM_KvFileLoadCheckpoint);

void
BM_CheckpointSerialize(benchmark::State &state)
{
    // What a per-step checkpoint renders before its write and fsync.
    SpooledSession spooled;
    for (auto _ : state)
        benchmark::DoNotOptimize(spooled.session.checkpointKv().signedText());
}
BENCHMARK(BM_CheckpointSerialize);

void
BM_TuningSessionLoad(benchmark::State &state)
{
    SpooledSession spooled;
    for (auto _ : state)
        spooled.session.load(spooled.path);
}
BENCHMARK(BM_TuningSessionLoad);

} // namespace

BENCHMARK_MAIN();

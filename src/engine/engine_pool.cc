#include "engine/engine_pool.h"

#include <algorithm>
#include <chrono>
#include <future>

#include "support/error.h"
#include "support/logging.h"

namespace petabricks {
namespace engine {

namespace {

/** Internal marker timedCall() throws on a watchdog timeout; runItem()
 * converts it into quarantine + bounce, so it never escapes the pool. */
struct LaneTimeout
{};

/** Rethrow the first recorded error (by index, matching the serial
 * loop); the shadowed remainder is logged at Warn, not dropped
 * silently. */
void
throwFirstLogRest(const std::vector<std::exception_ptr> &errors)
{
    std::exception_ptr first;
    for (const std::exception_ptr &error : errors) {
        if (!error)
            continue;
        if (!first) {
            first = error;
            continue;
        }
        try {
            std::rethrow_exception(error);
        } catch (const std::exception &shadowed) {
            PB_WARN("batch exception shadowed by an earlier one: "
                    << shadowed.what());
        } catch (...) {
            PB_WARN("non-standard batch exception shadowed by an "
                    "earlier one");
        }
    }
    if (first)
        std::rethrow_exception(first);
}

} // namespace

EnginePool::EnginePool(const EngineFactory &factory, int engineCount,
                       PoolOptions options)
    : options_(options), lanePool_(engineCount)
{
    PB_ASSERT(engineCount >= 1, "engine pool needs at least 1 engine");
    instances_.reserve(static_cast<size_t>(engineCount));
    for (int i = 0; i < engineCount; ++i) {
        auto instance = std::make_unique<Instance>();
        instance->engine = factory();
        PB_ASSERT(instance->engine != nullptr,
                  "engine factory returned null");
        instances_.push_back(std::move(instance));
    }
}

EnginePool::~EnginePool()
{
    reapWedged();
}

ExecutionEngine &
EnginePool::engineAt(int index)
{
    PB_ASSERT(index >= 0 && index < engineCount(),
              "engine index " << index << " out of range");
    return *instances_[static_cast<size_t>(index)]->engine;
}

PoolInstanceStats
EnginePool::instanceStats(int index) const
{
    PB_ASSERT(index >= 0 && index < engineCount(),
              "engine index " << index << " out of range");
    std::lock_guard<std::mutex> lock(mutex_);
    return instances_[static_cast<size_t>(index)]->stats;
}

int
EnginePool::liveInstanceCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int live = 0;
    for (const auto &instance : instances_)
        if (!instance->stats.quarantined)
            ++live;
    return live;
}

std::string
EnginePool::name() const
{
    return "pool[" + std::to_string(instances_.size()) + "]:" +
           instances_.front()->engine->name();
}

bool
EnginePool::supports(const apps::Benchmark &benchmark) const
{
    return instances_.front()->engine->supports(benchmark);
}

RunResult
EnginePool::run(const apps::Benchmark &benchmark,
                const tuner::Config &config, int64_t n)
{
    return instances_.front()->engine->run(benchmark, config, n);
}

double
EnginePool::measure(const apps::Benchmark &benchmark,
                    const tuner::Config &config, int64_t n)
{
    return instances_.front()->engine->measure(benchmark, config, n);
}

void
EnginePool::configureTuner(tuner::TunerOptions &options) const
{
    instances_.front()->engine->configureTuner(options);
}

bool
EnginePool::concurrentInstancesSafe(const apps::Benchmark &benchmark) const
{
    return instances_.front()->engine->concurrentInstancesSafe(benchmark);
}

// ---- fault-tolerant fan-out machinery ----------------------------------

std::vector<EnginePool::Instance *>
EnginePool::laneSet(const apps::Benchmark &benchmark)
{
    std::vector<Instance *> lanes;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &instance : instances_)
            if (!instance->stats.quarantined)
                lanes.push_back(instance.get());
    }
    // Benchmarks whose real-mode surface is shared across instances
    // must not race: degrade to a single serial lane.
    if (lanes.size() > 1 &&
        !instances_.front()->engine->concurrentInstancesSafe(benchmark))
        lanes.resize(1);
    return lanes;
}

double
EnginePool::timedCall(Instance &instance,
                      const std::function<double()> &evaluate)
{
    if (options_.deadlineMillis <= 0)
        return evaluate();
    std::packaged_task<double()> task(evaluate);
    std::future<double> future = task.get_future();
    std::thread worker(std::move(task));
    if (future.wait_for(std::chrono::milliseconds(
            options_.deadlineMillis)) == std::future_status::ready) {
        worker.join();
        return future.get();
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        instance.wedged.push_back(std::move(worker));
    }
    throw LaneTimeout{};
}

bool
EnginePool::recordFailure(Instance &instance, bool timedOut)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++instance.stats.transientFailures;
    ++instance.stats.consecutiveFailures;
    if (timedOut)
        ++instance.stats.timeouts;
    if (!instance.stats.quarantined) {
        int live = 0;
        for (const auto &other : instances_)
            if (!other->stats.quarantined)
                ++live;
        // Timeouts quarantine unconditionally: the worker may still be
        // wedged inside the evaluation, so the engine is unsafe to
        // reuse. Plain transients quarantine on a long-enough streak,
        // but never the last live instance.
        bool quarantine =
            timedOut ||
            (options_.quarantineAfter > 0 &&
             instance.stats.consecutiveFailures >=
                 options_.quarantineAfter &&
             live > 1);
        if (quarantine) {
            instance.stats.quarantined = true;
            PB_WARN("quarantining pool instance '"
                    << instance.engine->name() << "' after "
                    << instance.stats.consecutiveFailures
                    << " consecutive failure(s)"
                    << (timedOut ? " (watchdog timeout)" : "") << "; "
                    << (live - 1) << " live instance(s) remain");
        }
    }
    return instance.stats.quarantined;
}

void
EnginePool::recordSuccess(Instance &instance)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++instance.stats.calls;
    instance.stats.consecutiveFailures = 0;
}

void
EnginePool::recordRetry(Instance &instance)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++instance.stats.retries;
}

bool
EnginePool::isQuarantined(const Instance &instance) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return instance.stats.quarantined;
}

EnginePool::Instance *
EnginePool::firstLive()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &instance : instances_)
        if (!instance->stats.quarantined)
            return instance.get();
    return nullptr;
}

void
EnginePool::reapWedged()
{
    std::vector<std::thread> wedged;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &instance : instances_)
            for (std::thread &thread : instance->wedged)
                wedged.push_back(std::move(thread));
        for (const auto &instance : instances_)
            instance->wedged.clear();
    }
    for (std::thread &thread : wedged)
        thread.join();
}

bool
EnginePool::runItem(Instance &instance, const apps::Benchmark &benchmark,
                    std::span<const tuner::Config> configs, int64_t n,
                    size_t i, std::vector<double> &results,
                    std::vector<std::exception_ptr> &errors)
{
    const RetryPolicy &policy = retryPolicy();
    ExecutionEngine *engine = instance.engine.get();
    for (int attempt = 1;; ++attempt) {
        try {
            results[i] =
                timedCall(instance, [engine, &benchmark, configs, n, i] {
                    return engine->measure(benchmark, configs[i], n);
                });
            recordSuccess(instance);
            return true;
        } catch (const LaneTimeout &) {
            noteTransientFailure();
            recordFailure(instance, /*timedOut=*/true);
            return false;
        } catch (const TransientError &) {
            noteTransientFailure();
            if (recordFailure(instance, /*timedOut=*/false))
                return false;
            if (attempt >= policy.maxAttempts)
                return false;
            noteRetryAttempt();
            recordRetry(instance);
            retryBackoffSleep(policy, attempt);
        } catch (const FatalError &) {
            // Infeasible configuration: a deterministic property of the
            // configuration, not an instance fault. Worst cost, and
            // cacheable — unlike the NaN evaluation-failure sentinel.
            recordSuccess(instance);
            results[i] = std::numeric_limits<double>::infinity();
            return true;
        } catch (...) {
            recordSuccess(instance);
            errors[i] = std::current_exception();
            return true;
        }
    }
}

std::vector<double>
EnginePool::measureBatch(const apps::Benchmark &benchmark,
                         std::span<const tuner::Config> configs, int64_t n)
{
    // An item no instance can finish keeps the NaN sentinel.
    const size_t count = configs.size();
    std::vector<double> results(count,
                                std::numeric_limits<double>::quiet_NaN());
    if (count == 0)
        return results;
    Reaper reaper(*this);
    std::vector<Instance *> lanes = laneSet(benchmark);
    if (lanes.size() > count)
        lanes.resize(count);
    std::vector<size_t> leftovers;
    if (lanes.empty()) {
        PB_WARN("all " << instances_.size()
                       << " pool instances are quarantined; giving up on "
                       << count << " evaluation(s)");
        for (size_t i = 0; i < count; ++i)
            leftovers.push_back(i);
    }

    // Lane l owns items l, l+L, l+2L…; what it cannot finish — bounced,
    // or its instance quarantined — waits in its own leftovers.
    std::vector<std::exception_ptr> errors(count);
    std::vector<std::vector<size_t>> laneLeftovers(lanes.size());
    lanePool_.parallelFor(lanes.size(), [&](size_t lane) {
        Instance &instance = *lanes[lane];
        for (size_t i = lane; i < count; i += lanes.size())
            if (isQuarantined(instance) ||
                !runItem(instance, benchmark, configs, n, i, results,
                         errors))
                laneLeftovers[lane].push_back(i);
    });
    for (const std::vector<size_t> &mine : laneLeftovers)
        leftovers.insert(leftovers.end(), mine.begin(), mine.end());
    std::sort(leftovers.begin(), leftovers.end());

    // Serial floor: one more pass for leftover items on a surviving
    // instance, in index order. When instances must not run
    // concurrently, a watchdog-abandoned evaluation may still be in
    // flight — wait it out first.
    if (!leftovers.empty() && !concurrentInstancesSafe(benchmark))
        reapWedged();
    for (size_t i : leftovers) {
        Instance *floor = firstLive();
        if (floor != nullptr &&
            runItem(*floor, benchmark, configs, n, i, results, errors))
            continue;
        noteEvaluationFailure();
        PB_WARN("evaluation of batch item "
                << i << " failed on every available instance; "
                   "pricing as worst cost (not cached)");
    }

    throwFirstLogRest(errors);
    return results;
}

} // namespace engine
} // namespace petabricks

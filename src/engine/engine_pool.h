/**
 * @file
 * EnginePool: batch fan-out across N engine instances, with the
 * fault-tolerance the real-mode path needs.
 *
 * RuntimeEngine is serial per engine (one runtime, one device, wall
 * times that overlap would be garbage), so real-mode batches cannot be
 * parallelized *inside* an engine. The pool owns N independently
 * constructed engines and fans the configurations of one batch across
 * them in fixed lanes: with L lanes, lane l runs items l, l+L, l+2L…
 * serially in index order on one engine, and the lanes run side by
 * side on a ThreadPool the pool owns — the same shape as running N
 * autotuner test processes on N machines. Which instance sees which
 * item never depends on thread timing.
 *
 * Failure semantics (measureBatch, the pool's one batch call):
 *  - TransientError from an instance is retried on that instance with
 *    bounded exponential backoff (the pool's RetryPolicy).
 *  - An item that exhausts its retries is handed to a surviving
 *    instance (one serial floor pass); if it still fails it yields the
 *    NaN "evaluation failed" sentinel — worst cost upstream, never a
 *    cached measurement.
 *  - An instance accumulating quarantineAfter *consecutive* transient
 *    failures is quarantined: it drops out of this and every later
 *    batch, and the rest of its lane's items go to the serial floor
 *    pass on the first live instance. The final live instance is never
 *    quarantined for plain transients; per-instance counters record
 *    what happened.
 *  - With deadlineMillis set, every evaluation runs under a watchdog:
 *    an evaluation that outlives the deadline becomes a TransientError
 *    instead of a wedged pool lane, and the instance is quarantined
 *    unconditionally (even the last one — its worker may still be
 *    stuck inside the evaluation, so reuse is unsafe). The abandoned
 *    evaluation is reaped at the end of the batch, so it can never
 *    outlive the memory the batch handed it.
 *
 * Correctness gate: the pool asks its engines whether concurrent
 * instances are safe for the benchmark (RuntimeEngine forwards to
 * Benchmark::realModeConcurrencySafe() — function-style benchmarks
 * share an armed ChoiceFile and are not). Unsafe pairings degrade to a
 * serial loop on the first engine instead of racing.
 */

#ifndef PETABRICKS_ENGINE_ENGINE_POOL_H
#define PETABRICKS_ENGINE_ENGINE_POOL_H

#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "engine/execution_engine.h"
#include "support/thread_pool.h"

namespace petabricks {
namespace engine {

/** Fault-tolerance knobs for EnginePool (retry uses RetryPolicy). */
struct PoolOptions
{
    /** Quarantine an instance after this many *consecutive* transient
     * failures (a success resets the streak). <= 0 disables. */
    int quarantineAfter = 3;

    /** Watchdog deadline per evaluation, in milliseconds; an
     * evaluation that exceeds it becomes a TransientError and the
     * instance is quarantined. 0 disables the watchdog. */
    int64_t deadlineMillis = 0;
};

/** Per-instance failure/retry counters (stats inspection). */
struct PoolInstanceStats
{
    int64_t calls = 0;             ///< evaluations completed (any outcome)
    int64_t transientFailures = 0; ///< TransientErrors (incl. timeouts)
    int64_t retries = 0;           ///< same-instance re-attempts
    int64_t timeouts = 0;          ///< watchdog deadline hits
    int consecutiveFailures = 0;   ///< current streak
    bool quarantined = false;
};

/** See file comment. */
class EnginePool : public ExecutionEngine
{
  public:
    using EngineFactory =
        std::function<std::unique_ptr<ExecutionEngine>()>;

    /**
     * @param factory invoked @p engineCount times at construction;
     *        every call must yield an independent engine (own runtime,
     *        own device) of the same kind.
     * @param engineCount number of instances (>= 1).
     * @param options fault-tolerance knobs.
     */
    EnginePool(const EngineFactory &factory, int engineCount,
               PoolOptions options = {});

    /** Joins any watchdog-abandoned evaluations still in flight. */
    ~EnginePool() override;

    int engineCount() const { return static_cast<int>(instances_.size()); }

    /** Member engine @p index (0-based), e.g. for stats inspection. */
    ExecutionEngine &engineAt(int index);

    /** Failure/retry counters for instance @p index. */
    PoolInstanceStats instanceStats(int index) const;

    /** Instances not currently quarantined. */
    int liveInstanceCount() const;

    const PoolOptions &poolOptions() const { return options_; }

    // Single-config calls delegate to the first engine.
    std::string name() const override;
    bool supports(const apps::Benchmark &benchmark) const override;
    RunResult run(const apps::Benchmark &benchmark,
                  const tuner::Config &config, int64_t n) override;
    double measure(const apps::Benchmark &benchmark,
                   const tuner::Config &config, int64_t n) override;
    void configureTuner(tuner::TunerOptions &options) const override;
    bool
    concurrentInstancesSafe(const apps::Benchmark &benchmark) const override;

    /** The fan-out (see file comment); an unexpected exception (not
     * an evaluation-level failure) from an item is rethrown, the first
     * by index, after the whole batch has run. */
    std::vector<double>
    measureBatch(const apps::Benchmark &benchmark,
                 std::span<const tuner::Config> configs,
                 int64_t n) override;

  private:
    struct Instance
    {
        std::unique_ptr<ExecutionEngine> engine;
        PoolInstanceStats stats;          ///< guarded by mutex_
        std::vector<std::thread> wedged;  ///< watchdog-abandoned evals
    };

    /** Joins watchdog-abandoned evaluations when a batch call unwinds,
     * so they can never outlive the configs span they reference. */
    struct Reaper
    {
        explicit Reaper(EnginePool &pool) : pool_(pool) {}
        ~Reaper() { pool_.reapWedged(); }
        EnginePool &pool_;
    };

    /** The live instances a batch for @p benchmark may use: all of
     * them, or just the first when concurrent instances are unsafe. */
    std::vector<Instance *> laneSet(const apps::Benchmark &benchmark);

    /**
     * Item @p i of a measureBatch on one instance, with the pool's
     * retry loop: transient failures back off and retry in place; the
     * seconds, or +inf for an infeasible config (FatalError), land in
     * @p results; an unexpected exception finishes the item into
     * @p errors. Returns false when the item needs another instance.
     */
    bool runItem(Instance &instance, const apps::Benchmark &benchmark,
                 std::span<const tuner::Config> configs, int64_t n,
                 size_t i, std::vector<double> &results,
                 std::vector<std::exception_ptr> &errors);

    /**
     * Evaluate under the watchdog deadline (runs @p evaluate on a
     * helper thread when deadlineMillis > 0). On timeout, stashes the
     * abandoned thread on @p instance and throws the internal timeout
     * marker runItem() converts into quarantine + bounce.
     */
    double timedCall(Instance &instance,
                     const std::function<double()> &evaluate);

    /** Failure bookkeeping; returns true when the caller's lane must
     * stop using this instance (quarantined). Locks mutex_. */
    bool recordFailure(Instance &instance, bool timedOut);
    void recordSuccess(Instance &instance);
    void recordRetry(Instance &instance);
    bool isQuarantined(const Instance &instance) const;

    /** First non-quarantined instance, or null when all are out. */
    Instance *firstLive();

    /** Join evaluations abandoned by the watchdog (end of batch). */
    void reapWedged();

    PoolOptions options_;
    std::vector<std::unique_ptr<Instance>> instances_;
    mutable std::mutex mutex_; ///< guards stats / quarantine flags
    ThreadPool lanePool_;      ///< one thread per instance runs the lanes
};

} // namespace engine
} // namespace petabricks

#endif // PETABRICKS_ENGINE_ENGINE_POOL_H

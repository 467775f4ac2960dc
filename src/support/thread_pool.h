/**
 * @file
 * A minimal reusable fork-join thread pool.
 *
 * The batched evaluation path (engine::ModelEngine::measureBatch and
 * engine::EnginePool) prices the candidates of a tuner generation in
 * parallel. Generations are small (a population is ~8-16 configs) and
 * frequent, so spawning threads per batch would dominate; the pool
 * keeps its workers parked on a condition variable between batches.
 *
 * parallelFor() is order-preserving by construction: every index
 * writes only its own result slot, so callers observe exactly the
 * serial outcome regardless of worker count — the property the
 * tuner's batch-vs-serial determinism guarantee rests on.
 */

#ifndef PETABRICKS_SUPPORT_THREAD_POOL_H
#define PETABRICKS_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace petabricks {

/** See file comment. */
class ThreadPool
{
  public:
    /**
     * @param threads total execution width, including the thread that
     *        calls parallelFor() (so 1 means no workers, purely
     *        serial). Clamped to >= 1.
     */
    explicit ThreadPool(int threads);

    /** Drains nothing: joins idle workers. Outstanding parallelFor()
     * calls must have returned. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution width, including the calling thread. */
    int threadCount() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /**
     * Run body(i) for every i in [0, count) across the workers plus
     * the calling thread; returns when all indices completed. If any
     * body throws, the exception of the lowest index is rethrown after
     * the batch drains (matching what a serial loop would surface
     * first). Not reentrant: body must not call parallelFor() on the
     * same pool.
     */
    void parallelFor(size_t count, const std::function<void(size_t)> &body);

  private:
    struct Job
    {
        const std::function<void(size_t)> *body = nullptr;
        size_t count = 0;
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::mutex doneMutex;
        std::condition_variable doneCv;
        std::mutex errorMutex;
        size_t errorIndex = SIZE_MAX;
        std::exception_ptr error;
    };

    void workerLoop();
    static void runJob(Job &job);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::shared_ptr<Job> job_;
    uint64_t jobSeq_ = 0;
    bool stop_ = false;
    std::mutex submitMutex_; // serializes parallelFor() callers
};

} // namespace petabricks

#endif // PETABRICKS_SUPPORT_THREAD_POOL_H

/**
 * @file
 * The tuning stack assembled in process from the library's public
 * pieces, so the benchmark can time the call into every layer.
 *
 * LocalSession builds a search exactly as service::HostedSession does
 * (spec -> benchmark, ModelEngine, EngineEvaluator, TuningSession,
 * optional shared L2). ComposedTable steps such sessions under a
 * resident cap the way service::SessionTable does: evict the least
 * recently used idle session by checkpointing it, rehydrate by
 * rebuilding from the spec and loading the checkpoint, and checkpoint
 * after every generation (TuningSession::checkpointKv, then
 * KvFile::saveAtomic, which is HostedSession::save split in two).
 *
 * With tracing on, every request opens a `request.*` span and each
 * layer call inside it a child span. Work that the library does inside
 * one call (fingerprints, L2 probes, simulator runs, champion puts) is
 * timed by Replay, which repeats the call on the same inputs right
 * after the request, outside its span.
 */

#ifndef TUNEBENCH_LOCAL_STACK_H
#define TUNEBENCH_LOCAL_STACK_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cache/shared_cache.h"
#include "engine/execution_engine.h"
#include "service/hosted_session.h"
#include "trace.h"
#include "tuner/session.h"

namespace tunebench {

/** Evaluator decorator: spans each generation's batch and remembers
 * what it priced, for Replay. */
class TracingEvaluator : public pb::tuner::Evaluator
{
  public:
    struct Batch
    {
        std::vector<pb::tuner::Config> configs;
        int64_t inputSize = 0;
    };

    TracingEvaluator(pb::tuner::Evaluator &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    double evaluate(const pb::tuner::Config &config,
                    int64_t inputSize) override;
    std::vector<double> evaluateBatch(std::span<const pb::tuner::Config> configs,
                                      int64_t inputSize) override;
    std::vector<std::string> kernelSources(const pb::tuner::Config &config,
                                           int64_t inputSize) override;

    /** Batches since the last call. */
    std::vector<Batch> takeBatches();

  private:
    pb::tuner::Evaluator &inner_;
    Tracer &tracer_;
    std::vector<Batch> batches_;
};

/** One search, built as HostedSession builds it. */
class LocalSession
{
  public:
    /** @p tracer null: no decorator, the plain library path. */
    LocalSession(const pb::KvFile &body, Tracer *tracer,
                 pb::cache::SharedEvaluationCache *shared);

    pb::tuner::TuningSession &session() { return *session_; }
    const pb::service::SessionSpec &spec() const { return spec_; }
    const pb::apps::Benchmark &benchmark() const { return *benchmark_; }
    const pb::engine::ModelEngine &engine() const { return engine_; }
    TracingEvaluator *tracing() { return tracing_.get(); }

    /** The champion as /champion reports it (minus the description). */
    pb::KvFile championKv() const;

  private:
    pb::service::SessionSpec spec_;
    pb::apps::BenchmarkPtr benchmark_;
    pb::engine::ModelEngine engine_;
    pb::engine::EngineEvaluator evaluator_;
    std::unique_ptr<TracingEvaluator> tracing_;
    std::unique_ptr<pb::tuner::TuningSession> session_;
};

/** Per-call timings of work that happens inside library calls. */
class Replay
{
  public:
    /** @p cacheDir: where the replay's own L2, configured like the
     * daemon's, persists its segments. */
    explicit Replay(const std::string &cacheDir);

    /** Re-run what @p session priced in its last request. */
    void afterStep(LocalSession &session);

    /** Time the pricing of @p config at @p n on @p machine. */
    void price(const pb::apps::Benchmark &benchmark,
               const pb::tuner::Config &config, int64_t n,
               const pb::sim::MachineProfile &machine);

    /** Time a flush of the replay L2 (every 64 steps and at the end). */
    void maybeFlush(bool force);

    std::vector<double> contextBuildUs;
    std::map<std::string, std::vector<double>> simEvaluateUs;
    std::vector<double> fingerprintUs;
    std::vector<double> lookupUs;
    std::vector<double> publishUs;
    std::vector<double> flushUs;

  private:
    std::unique_ptr<pb::cache::SharedEvaluationCache> cache_;
    uint64_t owner_ = 0;
    int64_t steps_ = 0;
};

/** Metric-name form of a benchmark's display name. */
std::string metricName(const std::string &benchmark);

struct LocalResult
{
    Reservoir opMicros; ///< one request, as the caller sees it
    std::vector<Finished> completed;
    int64_t configs = 0; ///< evaluations + cache hits of finished searches
    int64_t steps = 0;
    int64_t completedSteps = 0; ///< steps of finished searches
    int64_t l1Hits = 0;
    int64_t l1Misses = 0;
    int64_t l2Hits = 0;   ///< tune-inproc's shared L2
    int64_t l2Misses = 0;
    int64_t crossSessionHits = 0;
    int64_t attempted = 0;
    std::vector<double> ckptBytes;
    /** dispatch-mixed: answers per policy. */
    std::map<std::string, int64_t> policies;
    std::map<std::string, std::vector<double>> dispatchUsByPolicy;
    std::vector<double> putUs;
    double elapsedSeconds = 0.0;

    /** Fold another run of the same kind into this one. */
    void absorb(const LocalResult &part);
};

/**
 * tune-resident / tune-evict without the daemon: one thread steps the
 * workload's session stream through a ComposedTable (cap and checkpoint
 * policy of the daemon's table, spool under @p spoolDir) round-robin
 * over kConnections x slots sessions for @p seconds.
 */
LocalResult runComposedTable(const RunOptions &options,
                             const std::string &spoolDir, double seconds,
                             Tracer &tracer, Replay *replay);

/** tune-inproc: sessions @p first, first + @p stride, ... of the
 * session stream run to completion one search at a time with
 * TuningSession::step (run() unrolled so each generation is timed)
 * over one in-memory shared L2; no daemon, no checkpoints. */
LocalResult runInproc(const RunOptions &options, double seconds,
                      Tracer &tracer, Replay *replay, int64_t first = 0,
                      int64_t stride = 1);

/** dispatch-mixed without the daemon: the query stream through an
 * in-process Dispatcher over @p portfolioDir as fast as it answers,
 * with one PortfolioTuner ladder every kDispatchRate x
 * kLadderIntervalSeconds queries, as the daemon's writer interleaves. */
LocalResult runComposedDispatch(const RunOptions &options,
                                const std::string &portfolioDir,
                                double seconds, Tracer &tracer,
                                Replay *replay);

} // namespace tunebench

#endif // TUNEBENCH_LOCAL_STACK_H

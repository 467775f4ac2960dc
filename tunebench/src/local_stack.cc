#include "local_stack.h"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>

#include "benchmarks/registry.h"
#include "portfolio/dispatcher.h"
#include "tuner/evaluation_cache.h"
#include "tuner/portfolio_tuner.h"

namespace tunebench {

namespace fs = std::filesystem;

namespace {

Clock::time_point
deadlineAfter(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/** Add a live session's private-cache counters to @p out. */
void
addL1(LocalSession &session, LocalResult &out)
{
    pb::tuner::EvaluationCacheStats stats = session.session().cache().stats();
    out.l1Hits += stats.hits;
    out.l1Misses += stats.misses;
}

/**
 * Sessions under a resident cap with the daemon table's policies: LRU
 * eviction through a checkpoint, rehydration from spec + checkpoint,
 * a checkpoint after every generation.
 */
class ComposedTable
{
  public:
    ComposedTable(std::string spoolDir, size_t cap,
                  pb::cache::SharedEvaluationCache *shared, Tracer &tracer,
                  LocalResult &out)
        : spool_(std::move(spoolDir)), cap_(cap), shared_(shared),
          tracer_(tracer), out_(out)
    {
        fs::create_directories(spool_);
    }

    void
    create(int64_t key, const pb::KvFile &body)
    {
        Entry &entry = entries_[key];
        entry.body = body;
        entry.checkpoint = spool_ + "/s" + std::to_string(key) + ".ckpt";
        entry.meta = spool_ + "/s" + std::to_string(key) + ".meta";
        // The spec is persisted before the session becomes resident,
        // as SessionTable::create does.
        {
            Tracer::Span span = tracer_.span("table.meta_write");
            pb::service::SessionSpec::fromCreateRequest(body).toKv().saveAtomic(
                entry.meta, "spool.meta");
        }
        acquire(entry, "table.materialize");
    }

    /** One generation. @return true when the search is done. */
    bool
    step(int64_t key)
    {
        Entry &entry = entries_.at(key);
        acquire(entry, "table.rehydrate");
        entry.lastTouch = ++tick_;
        pb::tuner::TuningSession &session = entry.live->session();
        {
            Tracer::Span span = tracer_.span("tuner.step");
            session.step();
        }
        std::optional<pb::KvFile> checkpoint;
        {
            Tracer::Span span = tracer_.span("table.ckpt_serialize");
            checkpoint.emplace(session.checkpointKv());
        }
        {
            // Freeing the rendered checkpoint belongs to the save, as
            // in HostedSession::save.
            Tracer::Span span = tracer_.span("table.ckpt_write");
            checkpoint->saveAtomic(entry.checkpoint, "spool.ckpt");
            checkpoint.reset();
        }
        return session.done();
    }

    LocalSession &session(int64_t key) { return *entries_.at(key).live; }

    std::string
    checkpointPath(int64_t key) const
    {
        return entries_.at(key).checkpoint;
    }

    void
    stop(int64_t key)
    {
        Entry &entry = entries_.at(key);
        if (entry.live) {
            addL1(*entry.live, out_);
            --resident_;
        }
        fs::remove(entry.checkpoint);
        fs::remove(entry.meta);
        entries_.erase(key);
    }

  private:
    struct Entry
    {
        pb::KvFile body;
        std::string checkpoint;
        std::string meta;
        std::unique_ptr<LocalSession> live;
        uint64_t lastTouch = 0;
    };

    void
    acquire(Entry &entry, const char *spanName)
    {
        if (entry.live)
            return;
        if (resident_ >= cap_) {
            Entry *victim = nullptr;
            for (auto &[key, candidate] : entries_)
                if (candidate.live && &candidate != &entry &&
                    (!victim || candidate.lastTouch < victim->lastTouch))
                    victim = &candidate;
            Tracer::Span span = tracer_.span("table.evict");
            addL1(*victim->live, out_);
            victim->live->session().checkpointKv().saveAtomic(
                victim->checkpoint, "spool.ckpt");
            victim->live.reset();
            --resident_;
        }
        Tracer::Span span = tracer_.span(spanName);
        entry.live = std::make_unique<LocalSession>(
            entry.body, tracer_.enabled() ? &tracer_ : nullptr, shared_);
        if (fs::exists(entry.checkpoint))
            entry.live->session().load(entry.checkpoint);
        ++resident_;
    }

    std::string spool_;
    size_t cap_;
    pb::cache::SharedEvaluationCache *shared_;
    Tracer &tracer_;
    LocalResult &out_;
    std::map<int64_t, Entry> entries_;
    size_t resident_ = 0;
    uint64_t tick_ = 0;
};

/** Record a finished search in @p out. */
void
finish(int64_t index, LocalSession &session, LocalResult &out)
{
    pb::tuner::SessionIntrospection view = session.session().introspect();
    out.configs += view.evaluations + view.cacheHits;
    out.completedSteps += view.completedSteps;
    out.completed.push_back({index, championDigest(session.championKv())});
}

} // namespace

double
TracingEvaluator::evaluate(const pb::tuner::Config &config, int64_t inputSize)
{
    return inner_.evaluate(config, inputSize);
}

std::vector<double>
TracingEvaluator::evaluateBatch(std::span<const pb::tuner::Config> configs,
                                int64_t inputSize)
{
    std::vector<double> seconds;
    {
        Tracer::Span span = tracer_.span("engine.batch");
        seconds = inner_.evaluateBatch(configs, inputSize);
    }
    batches_.push_back(
        {std::vector<pb::tuner::Config>(configs.begin(), configs.end()),
         inputSize});
    return seconds;
}

std::vector<std::string>
TracingEvaluator::kernelSources(const pb::tuner::Config &config,
                                int64_t inputSize)
{
    Tracer::Span span = tracer_.span("compiler.kernel_sources");
    return inner_.kernelSources(config, inputSize);
}

std::vector<TracingEvaluator::Batch>
TracingEvaluator::takeBatches()
{
    return std::exchange(batches_, {});
}

LocalSession::LocalSession(const pb::KvFile &body, Tracer *tracer,
                           pb::cache::SharedEvaluationCache *shared)
    : spec_(pb::service::SessionSpec::fromCreateRequest(body)),
      benchmark_(pb::apps::findBenchmark(spec_.benchmark)),
      engine_(pb::sim::MachineProfile::byName(spec_.machine),
              spec_.engineParallelism),
      evaluator_(*benchmark_, engine_)
{
    pb::tuner::Evaluator *evaluator = &evaluator_;
    if (tracer != nullptr) {
        tracing_ = std::make_unique<TracingEvaluator>(evaluator_, *tracer);
        evaluator = tracing_.get();
    }
    session_ = std::make_unique<pb::tuner::TuningSession>(
        *evaluator, benchmark_->seedConfig(), spec_.tuner);
    if (shared != nullptr)
        session_->attachSharedCache(shared, engine_.cacheScope(*benchmark_));
}

pb::KvFile
LocalSession::championKv() const
{
    pb::tuner::TuningResult result = session_->result();
    pb::KvFile kv = result.best.toKv();
    kv.setDouble("champion.seconds", result.bestSeconds);
    kv.setInt("champion.done", session_->done() ? 1 : 0);
    return kv;
}

Replay::Replay(const std::string &cacheDir)
    : cache_(std::make_unique<pb::cache::SharedEvaluationCache>(
          cacheOptions(cacheDir))),
      owner_(cache_->registerOwner())
{}

void
Replay::price(const pb::apps::Benchmark &benchmark,
              const pb::tuner::Config &config, int64_t n,
              const pb::sim::MachineProfile &machine)
{
    Clock::time_point start = Clock::now();
    pb::apps::EvalContextPtr context = benchmark.makeEvalContext(n, machine);
    contextBuildUs.push_back(micros(start, Clock::now()));
    start = Clock::now();
    try {
        benchmark.evaluate(config, n, machine, context.get());
    } catch (const std::exception &) {
        // Infeasible configs throw; pricing them still took the time.
    }
    simEvaluateUs[metricName(benchmark.name())].push_back(
        micros(start, Clock::now()));
}

void
Replay::afterStep(LocalSession &session)
{
    const pb::apps::Benchmark &benchmark = session.benchmark();
    const pb::sim::MachineProfile &machine = session.engine().machine();
    const uint64_t scope = session.engine().cacheScope(benchmark);
    for (TracingEvaluator::Batch &batch : session.tracing()->takeBatches()) {
        Clock::time_point start = Clock::now();
        pb::apps::EvalContextPtr context =
            benchmark.makeEvalContext(batch.inputSize, machine);
        contextBuildUs.push_back(micros(start, Clock::now()));
        std::vector<double> &simUs =
            simEvaluateUs[metricName(benchmark.name())];
        for (const pb::tuner::Config &config : batch.configs) {
            start = Clock::now();
            double seconds = std::numeric_limits<double>::infinity();
            try {
                seconds = benchmark.evaluate(config, batch.inputSize, machine,
                                             context.get());
            } catch (const std::exception &) {
            }
            simUs.push_back(micros(start, Clock::now()));

            start = Clock::now();
            const uint64_t fingerprint =
                pb::tuner::EvaluationCache::fingerprint(config);
            fingerprintUs.push_back(micros(start, Clock::now()));

            start = Clock::now();
            cache_->lookup(scope, batch.inputSize, fingerprint, owner_);
            lookupUs.push_back(micros(start, Clock::now()));
            if (std::isfinite(seconds)) {
                start = Clock::now();
                cache_->publish(scope, batch.inputSize, fingerprint, seconds,
                                owner_);
                publishUs.push_back(micros(start, Clock::now()));
            }
        }
    }
    ++steps_;
    maybeFlush(false);
}

void
Replay::maybeFlush(bool force)
{
    if (!force && steps_ % 64 != 0)
        return;
    const Clock::time_point start = Clock::now();
    cache_->flush();
    flushUs.push_back(micros(start, Clock::now()));
}

void
LocalResult::absorb(const LocalResult &part)
{
    for (double sample : part.opMicros.samples())
        opMicros.add(sample);
    completed.insert(completed.end(), part.completed.begin(),
                     part.completed.end());
    configs += part.configs;
    steps += part.steps;
    completedSteps += part.completedSteps;
    l1Hits += part.l1Hits;
    l1Misses += part.l1Misses;
    l2Hits += part.l2Hits;
    l2Misses += part.l2Misses;
    crossSessionHits += part.crossSessionHits;
    attempted += part.attempted;
    ckptBytes.insert(ckptBytes.end(), part.ckptBytes.begin(),
                     part.ckptBytes.end());
    for (const auto &[policy, count] : part.policies)
        policies[policy] += count;
    for (const auto &[policy, samples] : part.dispatchUsByPolicy)
        dispatchUsByPolicy[policy].insert(dispatchUsByPolicy[policy].end(),
                                          samples.begin(), samples.end());
    putUs.insert(putUs.end(), part.putUs.begin(), part.putUs.end());
    elapsedSeconds += part.elapsedSeconds;
}

std::string
metricName(const std::string &benchmark)
{
    std::string name = benchmark;
    for (char &c : name)
        if (c == ' ')
            c = '_';
    return name;
}

LocalResult
runComposedTable(const RunOptions &options, const std::string &spoolDir,
                 double seconds, Tracer &tracer, Replay *replay)
{
    LocalResult out;
    pb::cache::SharedEvaluationCache shared(cacheOptions(spoolDir + "-cache"));
    const bool evict = options.workload == "tune-evict";
    ComposedTable table(spoolDir, evict ? kEvictCap : kResidentCap, &shared,
                        tracer, out);

    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = deadlineAfter(seconds);
    const int slots =
        kConnections * (evict ? kEvictSlots : kResidentSlots);
    int64_t next = 0;
    auto open = [&]() {
        const int64_t key = next++;
        ++out.attempted;
        tracer.beginRequest();
        Tracer::Span span = tracer.span("request.create");
        table.create(key, sessionBody(options.workload, options.seed, key));
        return key;
    };
    std::vector<int64_t> keys;
    for (int s = 0; s < slots; ++s)
        keys.push_back(open());
    while (Clock::now() < deadline) {
        for (int64_t &key : keys) {
            if (Clock::now() >= deadline)
                break;
            ++out.attempted;
            tracer.beginRequest();
            const Clock::time_point sent = Clock::now();
            bool done = false;
            {
                Tracer::Span span = tracer.span("request.step");
                done = table.step(key);
            }
            out.opMicros.add(micros(sent, Clock::now()));
            ++out.steps;
            if (tracer.enabled())
                out.ckptBytes.push_back(static_cast<double>(
                    fs::file_size(table.checkpointPath(key))));
            if (replay != nullptr)
                replay->afterStep(table.session(key));
            if (!done)
                continue;
            ++out.attempted;
            finish(key, table.session(key), out);
            table.stop(key);
            key = open();
        }
    }
    out.elapsedSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (replay != nullptr)
        replay->maybeFlush(true);
    return out;
}

LocalResult
runInproc(const RunOptions &options, double seconds, Tracer &tracer,
          Replay *replay, int64_t first, int64_t stride)
{
    LocalResult out;
    pb::cache::SharedEvaluationCache shared(cacheOptions(""));
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = deadlineAfter(seconds);
    for (int64_t index = first; Clock::now() < deadline; index += stride) {
        const pb::KvFile body =
            sessionBody(options.workload, options.seed, index);
        ++out.attempted;
        LocalSession local(body, tracer.enabled() ? &tracer : nullptr,
                           &shared);
        pb::tuner::TuningSession &session = local.session();
        // TuningSession::run(), one generation at a time.
        while (!session.done()) {
            ++out.attempted;
            tracer.beginRequest();
            const Clock::time_point sent = Clock::now();
            {
                Tracer::Span request = tracer.span("request.step");
                Tracer::Span span = tracer.span("tuner.step");
                session.step();
            }
            out.opMicros.add(micros(sent, Clock::now()));
            ++out.steps;
            if (replay != nullptr)
                replay->afterStep(local);
        }
        addL1(local, out);
        finish(index, local, out);
    }
    out.elapsedSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    const pb::cache::SharedCacheStats stats = shared.stats();
    out.l2Hits = stats.hits;
    out.l2Misses = stats.misses;
    out.crossSessionHits = stats.crossSessionHits;
    return out;
}

LocalResult
runComposedDispatch(const RunOptions &options,
                    const std::string &portfolioDir, double seconds,
                    Tracer &tracer, Replay *replay)
{
    LocalResult out;
    pb::portfolio::ChampionPortfolio portfolio(portfolioDir, true);
    pb::cache::SharedEvaluationCache shared(cacheOptions(""));
    pb::tuner::PortfolioTuner tuner(portfolio, &shared);
    pb::portfolio::Dispatcher dispatcher(portfolio);
    const std::vector<pb::KvFile> ladders =
        ladderBodies(options.workload, options.seed);
    const int64_t queriesPerLadder =
        static_cast<int64_t>(kDispatchRate * kLadderIntervalSeconds);
    std::map<std::string, pb::apps::BenchmarkPtr> benchmarks;
    auto benchmarkFor = [&](const std::string &name) -> pb::apps::Benchmark & {
        pb::apps::BenchmarkPtr &benchmark = benchmarks[name];
        if (!benchmark)
            benchmark = pb::apps::findBenchmark(name);
        return *benchmark;
    };

    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = deadlineAfter(seconds);
    for (int64_t j = 0; Clock::now() < deadline; ++j) {
        if (j % queriesPerLadder == 0) {
            // The daemon's /portfolio/tune handler, minus the transport.
            const pb::KvFile &body =
                ladders[(j / queriesPerLadder) % ladders.size()];
            pb::tuner::PortfolioTunerOptions tune;
            tune.growthFactor = static_cast<int>(body.getInt("growth"));
            tune.tuner.populationSize =
                static_cast<int>(body.getInt("population"));
            tune.tuner.generationsPerSize =
                static_cast<int>(body.getInt("generations"));
            tune.tuner.seed = static_cast<uint64_t>(body.getInt("seed"));
            const pb::apps::Benchmark &benchmark =
                benchmarkFor(body.get("benchmark"));
            const pb::sim::MachineProfile machine =
                pb::sim::MachineProfile::byName(body.get("machine"));
            ++out.attempted;
            tracer.beginRequest();
            std::vector<pb::tuner::PortfolioRung> rungs;
            {
                Tracer::Span request = tracer.span("request.ladder");
                Tracer::Span span = tracer.span("portfolio.ladder");
                rungs = tuner.tune(benchmark, machine, tune);
            }
            if (tracer.enabled())
                for (const pb::tuner::PortfolioRung &rung : rungs) {
                    const Clock::time_point put = Clock::now();
                    portfolio.put(rung.champion);
                    out.putUs.push_back(micros(put, Clock::now()));
                }
        }
        const Query query = dispatchQuery(options.seed, j);
        const pb::apps::Benchmark &benchmark = benchmarkFor(query.benchmark);
        const pb::sim::MachineProfile machine =
            pb::sim::MachineProfile::byName(query.machine);
        ++out.attempted;
        tracer.beginRequest();
        const Clock::time_point sent = Clock::now();
        pb::portfolio::DispatchDecision decision;
        double dispatchUs = 0.0;
        {
            Tracer::Span request = tracer.span("request.dispatch");
            Tracer::Span span = tracer.span("portfolio.dispatch");
            const Clock::time_point called = Clock::now();
            decision = dispatcher.dispatch(benchmark, query.n, machine);
            dispatchUs = micros(called, Clock::now());
        }
        out.opMicros.add(micros(sent, Clock::now()));
        ++out.policies[decision.policy];
        out.dispatchUsByPolicy[decision.policy].push_back(dispatchUs);
        if (replay != nullptr)
            replay->price(benchmark, decision.champion.config, query.n,
                          machine);
    }
    out.elapsedSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return out;
}

} // namespace tunebench

#include "service/server.h"

#include <bit>
#include <chrono>
#include <poll.h>
#include <vector>

#include "benchmarks/registry.h"
#include "portfolio/dispatcher.h"
#include "sim/machine.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/logging.h"
#include "tuner/portfolio_tuner.h"

namespace petabricks {
namespace service {

namespace {

using Clock = std::chrono::steady_clock;

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

/** Render a status snapshot as the `status` endpoint's body. */
KvFile
introspectionToKv(const tuner::SessionIntrospection &view)
{
    KvFile kv;
    kv.setInt("status.done", view.done ? 1 : 0);
    kv.setInt("status.completedSteps", view.completedSteps);
    kv.setInt("status.totalSteps", view.totalSteps);
    kv.setInt("status.generation", view.generation);
    kv.setInt("status.generationsPerSize", view.generationsPerSize);
    kv.setInt("status.currentInputSize", view.currentInputSize);
    kv.setInt("status.populationSize",
              static_cast<int64_t>(view.populationSize));
    kv.setDouble("status.bestSeconds", view.bestSeconds);
    kv.setInt("status.evaluations", view.evaluations);
    kv.setInt("status.mutationsAccepted", view.mutationsAccepted);
    kv.setInt("status.mutationsRejected", view.mutationsRejected);
    kv.setInt("status.cacheHits", view.cacheHits);
    kv.setDouble("status.tuningSeconds", view.tuningSeconds);
    kv.setDouble("status.compileSeconds", view.compileSeconds);
    kv.setInt("cache.hits", view.cacheStats.hits);
    kv.setInt("cache.misses", view.cacheStats.misses);
    kv.setInt("cache.insertions", view.cacheStats.insertions);
    kv.setInt("cache.invalidated", view.cacheStats.invalidated);
    kv.setInt("cache.bytes",
              static_cast<int64_t>(view.cacheStats.bytes));
    // This session's traffic against the process-wide L2 tier (all
    // zero when the daemon runs without a shared cache).
    kv.setInt("cache.sharedHits", view.sharedHits);
    kv.setInt("cache.sharedMisses", view.sharedMisses);
    kv.setInt("cache.sharedPublishes", view.sharedPublishes);
    return kv;
}

const std::string &
requiredParam(const HttpRequest &request, const std::string &key)
{
    auto it = request.query.find(key);
    if (it == request.query.end() || it->second.empty())
        PB_FATAL("missing required parameter '" << key << "'");
    return it->second;
}

/**
 * Commands that can wait on a session's busy flag or on residency
 * capacity (condition-variable waits inside SessionTable). They run on
 * the worker pool, never inline on the I/O thread — a champion request
 * against a mid-step session must stall its own connection, not the
 * daemon's accept/read loop.
 */
bool
routesToWorker(const std::string &path)
{
    return path == "/step" || path == "/create" || path == "/champion" ||
           path == "/resume" || path == "/stop" ||
           path == "/portfolio/tune" || path == "/portfolio/champion";
}

const std::string &
requiredBodyField(const KvFile &body, const std::string &key)
{
    if (!body.has(key))
        PB_FATAL("missing required body field '" << key << "'");
    return body.get(key);
}

} // namespace

namespace {

/** Build the server's shared cache (maxBytes = 0 disables it) and
 * inject it into the table options the SessionTable is built from. */
std::unique_ptr<cache::SharedEvaluationCache>
makeSharedCache(ServerOptions &options)
{
    options.table.sharedCache = nullptr;
    if (options.cache.maxBytes == 0)
        return nullptr;
    auto cache =
        std::make_unique<cache::SharedEvaluationCache>(options.cache);
    options.table.sharedCache = cache.get();
    return cache;
}

} // namespace

TuningServer::TuningServer(ServerOptions options)
    : options_(std::move(options)), sharedCache_(makeSharedCache(options_)),
      portfolio_(std::make_unique<portfolio::ChampionPortfolio>(
          options_.portfolioDir, options_.portfolioFsck)),
      table_(options_.table)
{
    PB_ASSERT(options_.workers >= 1, "need at least one worker");
}

TuningServer::~TuningServer()
{
    stop();
}

void
TuningServer::start()
{
    PB_ASSERT(!running_.load(), "server already started");
    listener_ = std::make_unique<net::TcpListener>(options_.host,
                                                   options_.port);
    port_ = listener_->port();
    stopping_.store(false);
    running_.store(true);
    startTime_ = std::chrono::steady_clock::now();

    ioThread_ = std::thread([this] { ioLoop(); });

    // The worker pool: park one parallelFor() on a pump thread, with
    // every index running the drain loop until shutdown — ThreadPool's
    // fork-join surface reused as a resident worker pool.
    pool_ = std::make_unique<ThreadPool>(options_.workers);
    const size_t width = static_cast<size_t>(pool_->threadCount());
    pumpThread_ = std::thread([this, width] {
        pool_->parallelFor(width, [this](size_t) { workerLoop(); });
    });
    PB_INFORM("tunerd listening on " << options_.host << ":" << port_);
}

void
TuningServer::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_.store(true);
    wakeup_.notify();
    if (ioThread_.joinable())
        ioThread_.join();
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        workCv_.notify_all();
    }
    if (pumpThread_.joinable())
        pumpThread_.join();
    pool_.reset();
    connections_.clear();
    listener_.reset();
}

void
TuningServer::drain()
{
    if (draining_.exchange(true))
        return; // a concurrent drain already owns the protocol
    if (!running_.load())
        return;
    PB_INFORM("tunerd: draining — finishing in-flight commands");
    {
        // New worker commands are now rejected at admission (503), so
        // the queue can only shrink; wait for it to empty and for the
        // last busy worker to finish.
        std::unique_lock<std::mutex> lock(workMutex_);
        drainCv_.wait(lock, [this] {
            return workQueue_.empty() && busyWorkers_ == 0;
        });
    }
    // Every session is idle now: flush them all so a restart resumes
    // from exactly the drained state, and persist the shared cache so
    // the restarted daemon warm-starts with this run's results.
    table_.checkpointAll();
    if (sharedCache_ != nullptr)
        sharedCache_->flush();
    PB_INFORM("tunerd: drained; all sessions checkpointed");
    stop();
}

void
TuningServer::workerLoop()
{
    for (;;) {
        WorkItem item;
        {
            std::unique_lock<std::mutex> lock(workMutex_);
            workCv_.wait(lock, [this] {
                return stopping_.load() || !workQueue_.empty();
            });
            if (stopping_.load())
                return; // queued work is abandoned; sessions are
                        // checkpointed at their last completed step
            item = std::move(workQueue_.front());
            workQueue_.pop_front();
            ++busyWorkers_;
        }
        HttpResponse response;
        const int64_t deadline = options_.requestDeadlineSeconds;
        const auto queuedSeconds =
            std::chrono::duration_cast<std::chrono::seconds>(
                Clock::now() - item.enqueued)
                .count();
        if (deadline > 0 && queuedSeconds >= deadline) {
            // The client has usually timed out and retried by now;
            // dispatching would run the same command twice.
            ++deadlineRejections_;
            response = HttpResponse::error(
                503, "request spent too long queued (deadline "
                         + std::to_string(deadline) + "s)");
            response.retryAfterSeconds = 1;
            recordCommand(item.request.path.empty()
                              ? std::string("?")
                              : item.request.path.substr(1),
                          response.status, 0.0);
        } else {
            response = timedDispatch(item.request);
        }
        if (item.connId != 0) {
            std::lock_guard<std::mutex> lock(doneMutex_);
            doneQueue_.push_back({item.connId, response.serialize()});
        }
        {
            std::lock_guard<std::mutex> lock(workMutex_);
            --busyWorkers_;
        }
        drainCv_.notify_all();
        wakeup_.notify();
    }
}

void
TuningServer::pumpRequests(uint64_t connId, Connection &connection)
{
    while (!connection.awaitingWorker) {
        std::optional<HttpRequest> request = connection.parser.next();
        if (!request)
            break;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++requestsServed_;
        }
        if (routesToWorker(request->path)) {
            // Admission control before the queue sees the request:
            // drains and full queues shed load with a retry hint
            // rather than buffering doomed work. Only this (I/O)
            // thread pushes, so the depth check cannot race a push.
            bool draining = draining_.load();
            bool full;
            {
                std::lock_guard<std::mutex> lock(workMutex_);
                full = workQueue_.size() >= options_.maxQueueDepth;
            }
            if (draining || full) {
                ++backpressureRejections_;
                HttpResponse busy = HttpResponse::error(
                    503, draining
                             ? "draining: not accepting new commands"
                             : "worker queue is full");
                busy.retryAfterSeconds = draining ? 5 : 1;
                connection.outbox += busy.serialize();
                recordCommand(request->path.empty()
                                  ? std::string("?")
                                  : request->path.substr(1),
                              busy.status, 0.0);
                continue;
            }
            if (request->path == "/step" &&
                request->param("wait", "1") == "0") {
                // Detached step: acknowledge now, step in the
                // background, let `status` polling observe progress.
                HttpResponse accepted;
                accepted.status = 202;
                accepted.body = "accepted = 1\nsession = " +
                                request->param("session") + "\n";
                connection.outbox += accepted.serialize();
                std::lock_guard<std::mutex> lock(workMutex_);
                workQueue_.push_back({0, std::move(*request), Clock::now()});
                workCv_.notify_one();
            } else {
                // Blocking session command: the connection waits for
                // the worker's response; the I/O loop moves on.
                connection.awaitingWorker = true;
                std::lock_guard<std::mutex> lock(workMutex_);
                workQueue_.push_back(
                    {connId, std::move(*request), Clock::now()});
                workCv_.notify_one();
            }
            continue;
        }
        connection.outbox += timedDispatch(*request).serialize();
    }
    if (connection.parser.failed()) {
        connection.outbox +=
            HttpResponse::error(400, connection.parser.failReason())
                .serialize();
        connection.closeAfterWrite = true;
    }
}

HttpResponse
TuningServer::timedDispatch(const HttpRequest &request)
{
    Clock::time_point start = Clock::now();
    HttpResponse response;
    try {
        response = dispatch(request);
    } catch (const FatalError &error) {
        // User-level errors: unknown ids are 404, everything else
        // (bad options, malformed bodies, missing params) is 400.
        const std::string what = error.what();
        int status = (what.find("unknown session") != std::string::npos ||
                      what.find("no spooled session") != std::string::npos)
                         ? 404
                         : 400;
        response = HttpResponse::error(status, what);
    } catch (const std::exception &error) {
        response = HttpResponse::error(500, error.what());
    }
    std::string command =
        request.path.empty() ? std::string("?") : request.path.substr(1);
    recordCommand(command, response.status, microsSince(start));
    return response;
}

void
TuningServer::recordCommand(const std::string &command, int status,
                            double micros)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    CommandStats &stats = commandStats_[command];
    ++stats.count;
    if (status >= 400)
        ++stats.errors;
    stats.totalMicros += micros;
    stats.maxMicros = std::max(stats.maxMicros, micros);
}

HttpResponse
TuningServer::dispatch(const HttpRequest &request)
{
    const std::string &path = request.path;

    if (path == "/ping")
        return HttpResponse::ok("pong = 1\n");

    if (path == "/healthz") {
        // Liveness + load probe: answers inline on the I/O thread, so
        // it stays responsive while every worker is busy — that is
        // precisely when a health check matters.
        KvFile kv;
        {
            std::lock_guard<std::mutex> lock(workMutex_);
            kv.setInt("health.queueDepth",
                      static_cast<int64_t>(workQueue_.size()));
            kv.setInt("health.busyWorkers", busyWorkers_);
        }
        kv.setInt("health.maxQueueDepth",
                  static_cast<int64_t>(options_.maxQueueDepth));
        kv.setInt("health.draining", draining_.load() ? 1 : 0);
        kv.setInt("health.backpressureRejections",
                  backpressureRejections_.load());
        kv.setInt("health.deadlineRejections", deadlineRejections_.load());
        SessionTableStats table = table_.stats();
        kv.setInt("health.residentSessions",
                  static_cast<int64_t>(table.resident));
        kv.setInt("health.totalSessions",
                  static_cast<int64_t>(table.total));
        kv.setInt("health.spoolQuarantined", table.spoolQuarantined);
        kv.setInt("health.evaluationFailures", table.evaluationFailures);
        int64_t ioWriteFailures = table.spoolWriteFailures +
                                  portfolio_->stats().writeFailures;
        if (sharedCache_ != nullptr)
            ioWriteFailures += sharedCache_->stats().writeFailures;
        kv.setInt("health.ioWriteFailures", ioWriteFailures);
        kv.setInt("health.ok", 1);
        return HttpResponse::ok(kv.toString());
    }

    if (path == "/create") {
        SessionSpec spec =
            SessionSpec::fromCreateRequest(KvFile::fromString(request.body));
        const std::string id = table_.create(spec);
        KvFile kv = spec.toKv();
        kv.set("session", id);
        return HttpResponse::ok(kv.toString());
    }

    // Session commands below (create/step/champion/resume/stop) reach
    // here on a worker thread — the I/O loop routes everything that
    // can wait on a session entry or on residency capacity through the
    // work queue (routesToWorker), so blocking here is fine.

    if (path == "/step") {
        const std::string &id = requiredParam(request, "session");
        int steps =
            static_cast<int>(request.intParam("steps", 1));
        if (steps < 1)
            PB_FATAL("'steps' must be >= 1");
        int advanced = table_.step(id, steps);
        KvFile kv = introspectionToKv(table_.status(id));
        kv.set("session", id);
        kv.setInt("step.requested", steps);
        kv.setInt("step.advanced", advanced);
        return HttpResponse::ok(kv.toString());
    }

    if (path == "/status") {
        const std::string &id = requiredParam(request, "session");
        KvFile kv = introspectionToKv(table_.status(id));
        kv.set("session", id);
        return HttpResponse::ok(kv.toString());
    }

    if (path == "/champion") {
        const std::string &id = requiredParam(request, "session");
        KvFile kv = table_.champion(id);
        kv.set("session", id);
        return HttpResponse::ok(kv.toString());
    }

    if (path == "/stop") {
        const std::string &id = requiredParam(request, "session");
        table_.stop(id);
        return HttpResponse::ok("stopped = 1\nsession = " + id + "\n");
    }

    if (path == "/resume") {
        const std::string &id = requiredParam(request, "session");
        table_.resume(id);
        KvFile kv = introspectionToKv(table_.status(id));
        kv.set("session", id);
        return HttpResponse::ok(kv.toString());
    }

    if (path == "/list") {
        KvFile kv;
        std::vector<std::string> ids = table_.list();
        kv.setInt("sessions", static_cast<int64_t>(ids.size()));
        for (size_t i = 0; i < ids.size(); ++i)
            kv.set("session." + std::to_string(i), ids[i]);
        return HttpResponse::ok(kv.toString());
    }

    if (path == "/machines") {
        // Inventory of registered machine profiles with their content
        // fingerprints — the keys portfolio champions are stored
        // under. Pure data, answered inline.
        KvFile kv;
        std::vector<sim::MachineProfile> machines =
            sim::MachineProfile::all();
        kv.setInt("machines", static_cast<int64_t>(machines.size()));
        for (size_t i = 0; i < machines.size(); ++i) {
            const std::string prefix =
                "machine." + std::to_string(i) + ".";
            kv.set(prefix + "name", machines[i].name);
            kv.set(prefix + "fingerprint",
                   hex16(machines[i].fingerprint()));
            kv.setInt(prefix + "hasOpenCL",
                      machines[i].hasOpenCL ? 1 : 0);
        }
        return HttpResponse::ok(kv.toString());
    }

    if (path == "/portfolio") {
        // Stored-champion listing (metadata only, no config values);
        // snapshotting the map is cheap enough for the I/O thread.
        KvFile kv;
        std::vector<portfolio::ChampionRecord> records =
            portfolio_->all();
        portfolio::PortfolioStats stats = portfolio_->stats();
        kv.setInt("portfolio.entries",
                  static_cast<int64_t>(records.size()));
        kv.setInt("portfolio.loaded", stats.loaded);
        kv.setInt("portfolio.quarantined", stats.quarantined);
        kv.setInt("portfolio.stored", stats.stored);
        for (size_t i = 0; i < records.size(); ++i)
            portfolio::championToKv(
                kv, "champion." + std::to_string(i) + ".", records[i]);
        return HttpResponse::ok(kv.toString());
    }

    if (path == "/portfolio/champion") {
        // Input-adaptive dispatch (worker thread: pricing runs the
        // model). Unknown benchmark/machine names 400 with the known
        // lists; an empty portfolio for the benchmark 404s below.
        apps::BenchmarkPtr benchmark =
            apps::findBenchmark(requiredParam(request, "benchmark"));
        sim::MachineProfile machine =
            sim::MachineProfile::byName(requiredParam(request, "machine"));
        int64_t n = request.intParam("n", 0);
        if (n < 1)
            PB_FATAL("'n' must be a positive input size");
        portfolio::DispatchOptions options;
        options.topK =
            static_cast<int>(request.intParam("topk", options.topK));
        options.crossMachine = request.intParam("cross", 0) != 0;
        portfolio::Dispatcher dispatcher(*portfolio_);
        portfolio::DispatchDecision decision =
            dispatcher.dispatch(*benchmark, n, machine, options);

        KvFile kv;
        portfolio::championToKv(kv, "champion.", decision.champion);
        kv.set("dispatch.policy", decision.policy);
        kv.setInt("dispatch.requestedSize", n);
        kv.setDouble("dispatch.pricedSeconds", decision.pricedSeconds);
        kv.set("dispatch.pricedSecondsBits",
               hex16(std::bit_cast<uint64_t>(decision.pricedSeconds)));
        kv.setSection("config.", decision.champion.config.toKv());
        return HttpResponse::ok(kv.toString());
    }

    if (path == "/portfolio/tune") {
        // Fill the portfolio for one (benchmark, machine): a ladder of
        // tuning sessions sharing the daemon's L2 cache. Long-running
        // by design — routed to a worker like /step.
        KvFile body = KvFile::fromString(request.body);
        apps::BenchmarkPtr benchmark =
            apps::findBenchmark(requiredBodyField(body, "benchmark"));
        sim::MachineProfile machine =
            sim::MachineProfile::byName(requiredBodyField(body, "machine"));

        tuner::PortfolioTunerOptions options;
        if (body.has("sizes"))
            options.sizes = body.getIntList("sizes");
        options.minSize = body.getIntOr("minSize", options.minSize);
        options.maxSize = body.getIntOr("maxSize", options.maxSize);
        options.growthFactor = static_cast<int>(
            body.getIntOr("growth", options.growthFactor));
        options.tuner.populationSize = static_cast<int>(body.getIntOr(
            "population", options.tuner.populationSize));
        options.tuner.generationsPerSize = static_cast<int>(body.getIntOr(
            "generations", options.tuner.generationsPerSize));
        options.tuner.seed = static_cast<uint64_t>(
            body.getIntOr("seed", static_cast<int64_t>(options.tuner.seed)));

        tuner::PortfolioTuner tuner(*portfolio_, sharedCache_.get());
        std::vector<tuner::PortfolioRung> rungs =
            tuner.tune(*benchmark, machine, options);

        KvFile kv;
        kv.set("tune.benchmark", benchmark->name());
        kv.set("tune.machine", machine.name);
        kv.set("tune.machineFingerprint", hex16(machine.fingerprint()));
        kv.setInt("tune.rungs", static_cast<int64_t>(rungs.size()));
        for (size_t i = 0; i < rungs.size(); ++i) {
            const std::string prefix = "rung." + std::to_string(i) + ".";
            kv.setInt(prefix + "inputSize", rungs[i].inputSize);
            kv.setDouble(prefix + "seconds", rungs[i].champion.seconds);
            kv.set(prefix + "secondsBits",
                   hex16(std::bit_cast<uint64_t>(
                       rungs[i].champion.seconds)));
            kv.set(prefix + "configFingerprint",
                   hex16(rungs[i].champion.configFingerprint));
            kv.setInt(prefix + "sharedHits", rungs[i].sharedHits);
            kv.setInt(prefix + "sharedPublishes",
                      rungs[i].sharedPublishes);
        }
        return HttpResponse::ok(kv.toString());
    }

    if (path == "/stats")
        return HttpResponse::ok(statsKv().toString());

    if (path == "/shutdown") {
        shutdownRequested_.store(true);
        wakeup_.notify();
        return HttpResponse::ok("shutdown = 1\n");
    }

    return HttpResponse::error(404, "no such command: " + path);
}

KvFile
TuningServer::statsKv() const
{
    KvFile kv;
    kv.setInt("server.uptimeSeconds",
              std::chrono::duration_cast<std::chrono::seconds>(
                  std::chrono::steady_clock::now() - startTime_)
                  .count());
    kv.setInt("server.restartCount", options_.restartCount);
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        kv.setInt("server.connectionsAccepted", connectionsAccepted_);
        kv.setInt("server.requests", requestsServed_);
        for (const auto &[name, stats] : commandStats_) {
            const std::string prefix = "command." + name + ".";
            kv.setInt(prefix + "count", stats.count);
            kv.setInt(prefix + "errors", stats.errors);
            kv.setDouble(prefix + "meanMicros",
                         stats.count ? stats.totalMicros / stats.count
                                     : 0.0);
            kv.setDouble(prefix + "maxMicros", stats.maxMicros);
        }
    }
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        kv.setInt("server.queueDepth",
                  static_cast<int64_t>(workQueue_.size()));
        kv.setInt("server.busyWorkers", busyWorkers_);
    }
    kv.setInt("server.maxQueueDepth",
              static_cast<int64_t>(options_.maxQueueDepth));
    kv.setInt("server.draining", draining_.load() ? 1 : 0);
    kv.setInt("server.backpressureRejections",
              backpressureRejections_.load());
    kv.setInt("server.deadlineRejections", deadlineRejections_.load());
    SessionTableStats table = table_.stats();
    kv.setInt("table.spoolQuarantined", table.spoolQuarantined);
    kv.setInt("table.spoolWriteFailures", table.spoolWriteFailures);
    kv.setInt("table.evaluationFailures", table.evaluationFailures);
    kv.setInt("table.created", table.created);
    kv.setInt("table.resumed", table.resumed);
    kv.setInt("table.evictions", table.evictions);
    kv.setInt("table.rehydrations", table.rehydrations);
    kv.setInt("table.expired", table.expired);
    kv.setInt("table.stopped", table.stopped);
    kv.setInt("table.resident", static_cast<int64_t>(table.resident));
    kv.setInt("table.total", static_cast<int64_t>(table.total));
    kv.setInt("table.peakResident",
              static_cast<int64_t>(table.peakResident));
    kv.setInt("table.residentCap",
              static_cast<int64_t>(options_.table.residentCap));
    kv.setInt("server.workers", options_.workers);
    int64_t ioWriteFailures = table.spoolWriteFailures;
    {
        portfolio::PortfolioStats stats = portfolio_->stats();
        kv.setInt("portfolio.entries",
                  static_cast<int64_t>(portfolio_->size()));
        kv.setInt("portfolio.loaded", stats.loaded);
        kv.setInt("portfolio.quarantined", stats.quarantined);
        kv.setInt("portfolio.stored", stats.stored);
        kv.setInt("portfolio.writeFailures", stats.writeFailures);
        kv.setInt("portfolio.persistent",
                  portfolio_->dir().empty() ? 0 : 1);
        ioWriteFailures += stats.writeFailures;
    }
    kv.setInt("cache.enabled", sharedCache_ != nullptr ? 1 : 0);
    if (sharedCache_ != nullptr) {
        cache::SharedCacheStats shared = sharedCache_->stats();
        ioWriteFailures += shared.writeFailures;
        kv.setInt("cache.writeFailures", shared.writeFailures);
        kv.setInt("cache.hits", shared.hits);
        kv.setInt("cache.misses", shared.misses);
        kv.setInt("cache.insertions", shared.insertions);
        kv.setInt("cache.crossSessionHits", shared.crossSessionHits);
        kv.setInt("cache.rejectedNonFinite", shared.rejectedNonFinite);
        kv.setInt("cache.evictions", shared.evictions);
        kv.setInt("cache.flushes", shared.flushes);
        kv.setInt("cache.loadedEntries", shared.loadedEntries);
        kv.setInt("cache.segmentsLoaded", shared.segmentsLoaded);
        kv.setInt("cache.segmentsQuarantined",
                  shared.segmentsQuarantined);
        kv.setInt("cache.entries", static_cast<int64_t>(shared.entries));
        kv.setInt("cache.bytes", static_cast<int64_t>(shared.bytes));
        kv.setInt("cache.maxBytes",
                  static_cast<int64_t>(options_.cache.maxBytes));
        kv.setInt("cache.persistent",
                  sharedCache_->persistent() ? 1 : 0);
    }
    // The one number an operator watches: every persistence-layer
    // write failure (spool + portfolio + cache), all survived.
    kv.setInt("io.writeFailures", ioWriteFailures);
    return kv;
}

void
TuningServer::ioLoop()
{
    Clock::time_point nextSweep =
        Clock::now() + std::chrono::seconds(options_.sweepIntervalSeconds);

    while (!stopping_.load()) {
        // ---- Build the poll set ---------------------------------------
        std::vector<pollfd> fds;
        std::vector<uint64_t> fdConn; // index-aligned; 0 = not a conn
        fds.push_back({listener_->fd(), POLLIN, 0});
        fdConn.push_back(0);
        fds.push_back({wakeup_.readFd(), POLLIN, 0});
        fdConn.push_back(0);
        for (auto &[id, connection] : connections_) {
            short events = POLLIN;
            if (!connection.outbox.empty())
                events |= POLLOUT;
            fds.push_back({connection.stream.fd(), events, 0});
            fdConn.push_back(id);
        }

        ::poll(fds.data(), fds.size(), 200);
        if (stopping_.load())
            break;

        // ---- Worker completions (the sel_thread bridge) ---------------
        wakeup_.drain();
        {
            std::deque<WorkDone> finished;
            {
                std::lock_guard<std::mutex> lock(doneMutex_);
                finished.swap(doneQueue_);
            }
            for (WorkDone &done : finished) {
                auto it = connections_.find(done.connId);
                if (it == connections_.end())
                    continue; // client vanished mid-step: drop it
                it->second.outbox += done.wire;
                it->second.awaitingWorker = false;
                // Pipelined requests buffered while the step ran.
                pumpRequests(done.connId, it->second);
            }
        }

        // ---- Socket events --------------------------------------------
        std::vector<uint64_t> dead;
        for (size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            if (fds[i].fd == listener_->fd()) {
                for (;;) {
                    net::TcpStream stream = listener_->accept();
                    if (!stream.valid())
                        break;
                    uint64_t id = ++nextConnId_;
                    Connection &connection = connections_[id];
                    connection.stream = std::move(stream);
                    connection.parser =
                        HttpParser(options_.maxRequestBytes);
                    std::lock_guard<std::mutex> lock(statsMutex_);
                    ++connectionsAccepted_;
                }
                continue;
            }
            if (fds[i].fd == wakeup_.readFd())
                continue; // drained above
            uint64_t connId = fdConn[i];
            auto it = connections_.find(connId);
            if (it == connections_.end())
                continue;
            Connection &connection = it->second;

            if (fds[i].revents & (POLLERR | POLLNVAL)) {
                dead.push_back(connId);
                continue;
            }
            try {
                if (fds[i].revents & (POLLIN | POLLHUP)) {
                    char buffer[16384];
                    for (;;) {
                        ptrdiff_t n = connection.stream.read(
                            buffer, sizeof(buffer));
                        if (n > 0) {
                            connection.parser.feed(
                                buffer, static_cast<size_t>(n));
                            continue;
                        }
                        if (n == 0)
                            connection.peerClosed = true;
                        break;
                    }
                    pumpRequests(connId, connection);
                }
                if (!connection.outbox.empty()) {
                    ptrdiff_t n = connection.stream.write(
                        connection.outbox.data(),
                        connection.outbox.size());
                    if (n > 0)
                        connection.outbox.erase(
                            0, static_cast<size_t>(n));
                }
            } catch (const FatalError &) {
                // Hard socket error on one connection: drop it, never
                // the daemon.
                dead.push_back(connId);
                continue;
            }
            if (connection.peerClosed && !connection.awaitingWorker &&
                connection.outbox.empty())
                dead.push_back(connId);
            if (connection.closeAfterWrite && connection.outbox.empty())
                dead.push_back(connId);
        }
        for (uint64_t id : dead)
            connections_.erase(id);

        // ---- Idle-session GC ------------------------------------------
        Clock::time_point now = Clock::now();
        if (now >= nextSweep) {
            table_.sweep(now);
            // Piggyback the cache journal flush on the sweep cadence:
            // a SIGKILLed daemon loses at most one sweep interval of
            // publishes (flush is one atomic segment rename, cheap
            // enough for the I/O thread).
            if (sharedCache_ != nullptr)
                sharedCache_->flush();
            nextSweep =
                now + std::chrono::seconds(options_.sweepIntervalSeconds);
        }
    }
}

} // namespace service
} // namespace petabricks

/**
 * @file
 * tunebench: one run of one workload of the tuning-stack benchmark.
 *
 *   tunebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --work-dir <dir>
 *
 * Untraced runs (--trace 0) measure the end-to-end metrics; traced
 * runs (--trace 1) replay the same generated inputs with spans around
 * every layer call and report the per-layer metrics. Human-readable
 * lines come first; the last line of standard output is the result
 * object. Any failed correctness check makes the exit code 1.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <optional>
#include <thread>
#include <sched.h>
#include <unistd.h>

#include "bench.h"
#include "local_stack.h"
#include "service/client.h"
#include "service_load.h"
#include "support/logging.h"

using namespace tunebench;
namespace fs = std::filesystem;

namespace {

/** Every end-to-end metric, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"ops_per_s", "1/s"}, {"configs_per_s", "1/s"}, {"op_p50_ms", "ms"},
    {"setup_s", "s"},     {"peak_rss_mb", "MB"}};

/** Every per-layer metric, in BENCHMARK.json order. A layer the
 * workload bypasses reports 0. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"op.tail_ms", "ms"},
    {"service.wait_us.step", "us"},
    {"service.server_us.step", "us"},
    {"service.wait_us.champion", "us"},
    {"service.server_us.champion", "us"},
    {"service.wait_us.ladder", "us"},
    {"service.server_us.ladder", "us"},
    {"service.rejected", "count"},
    {"table.step_us", "us"},
    {"table.evict_us", "us"},
    {"table.rehydrate_us", "us"},
    {"table.ckpt_serialize_us", "us"},
    {"table.ckpt_write_us", "us"},
    {"table.ckpt_bytes", "bytes"},
    {"table.evictions", "count"},
    {"table.rehydrations_real", "count"},
    {"table.rehydrations_raw", "count"},
    {"table.created", "count"},
    {"cache.l2_hit_ratio", "ratio"},
    {"cache.l2_probes", "count"},
    {"cache.cross_session_hits", "count"},
    {"cache.lookup_us", "us"},
    {"cache.publish_us", "us"},
    {"cache.flush_us", "us"},
    {"tuner.step_us", "us"},
    {"tuner.self_us", "us"},
    {"tuner.fingerprint_us", "us"},
    {"tuner.l1_hit_ratio", "ratio"},
    {"tuner.l1_probes", "count"},
    {"tuner.configs_per_step", "count"},
    {"engine.batch_us", "us"},
    {"engine.eval_us", "us"},
    {"engine.evaluations", "count"},
    {"compiler.context_build_us", "us"},
    {"compiler.kernel_sources_us", "us"},
    {"sim.evaluate_us.Sort", "us"},
    {"sim.evaluate_us.Poisson2D_SOR", "us"},
    {"sim.evaluate_us.Strassen", "us"},
    {"sim.evaluate_us.Black-Scholes", "us"},
    {"sim.evaluate_us.Mandelbrot", "us"},
    {"portfolio.dispatch_us.exact", "us"},
    {"portfolio.dispatch_us.priced", "us"},
    {"portfolio.dispatch_us.foreign", "us"},
    {"portfolio.policy_share.exact", "ratio"},
    {"portfolio.policy_share.priced", "ratio"},
    {"portfolio.policy_share.foreign", "ratio"},
    {"portfolio.dispatches", "count"},
    {"portfolio.put_us", "us"},
    {"portfolio.ladder_us", "us"},
    {"portfolio.ladder_tune_ms", "ms"},
    {"loadgen.late_p50_us", "us"},
    {"loadgen.late_tail_us", "us"},
    {"setup.table_fsck_us", "us"},
    {"setup.cache_load_us", "us"},
    {"setup.portfolio_load_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.accounted_share", "ratio"},
    {"trace.requests", "count"}};

/** The CPUs this process may run on, in order. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                cpus.push_back(cpu);
    return cpus;
}

/** Keep the calling thread, and every thread it starts from now on,
 * on @p cpu. */
bool
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
}

/**
 * While alive, keeps the calling thread, and every thread it starts,
 * on one CPU (the last it may use); restores its affinity when
 * destroyed. Threads hand a request to each other by a context switch
 * on that CPU rather than by waking another virtual CPU, whose delay
 * on a shared host follows the other tenants' load.
 */
class OneCpu
{
  public:
    OneCpu()
    {
        const std::vector<int> cpus = allowedCpus();
        pinned_ = !cpus.empty() &&
                  sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
                  pinTo(cpus.back());
    }
    ~OneCpu()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    OneCpu(const OneCpu &) = delete;
    OneCpu &operator=(const OneCpu &) = delete;

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

/** tune-inproc's untraced run: kInprocStreams threads (at most one per
 * CPU), each on its own CPU with its own L2, stepping every
 * streams-th search of the session stream. @p rss receives the peak
 * resident set before the streams' results are merged, since the copy
 * would grow with throughput. */
LocalResult
runInprocStreams(const RunOptions &options, double &rss)
{
    std::vector<int> cpus = allowedCpus();
    cpus.resize(std::clamp<size_t>(cpus.size(), 1, kInprocStreams), -1);
    const int64_t streams = static_cast<int64_t>(cpus.size());
    std::vector<LocalResult> parts(cpus.size());
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (int64_t s = 0; s < streams; ++s)
        threads.emplace_back([&, s] {
            if (cpus[s] >= 0)
                pinTo(cpus[s]);
            Tracer off(false);
            parts[s] = runInproc(options, options.seconds, off, nullptr, s,
                                 streams);
        });
    for (std::thread &thread : threads)
        thread.join();
    rss = peakRssMb();
    LocalResult run;
    for (const LocalResult &part : parts)
        run.absorb(part);
    run.elapsedSeconds = micros(start, Clock::now()) / 1e6;
    return run;
}

/** The p99 the tail metric stops short of, printed for people. */
void
printP99(const std::vector<double> &latencyMicros)
{
    std::vector<double> sorted = latencyMicros;
    std::sort(sorted.begin(), sorted.end());
    std::printf("op p99 = %.6f ms (n=%zu; not a metric: too unsteady run to "
                "run)\n",
                percentileSorted(sorted, 99) / 1e3, sorted.size());
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

/** runSpecLocally for every finished search, spread over a few
 * threads. @p requireSome: a run that finished no search fails, since
 * it checked nothing. */
void
verifyChampions(const RunOptions &options, const std::vector<Finished> &done,
                Outcome &outcome, bool requireSome = true)
{
    std::vector<std::string> problems(done.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    const unsigned workers =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    for (unsigned t = 0; t < workers; ++t)
        threads.emplace_back([&] {
            for (size_t i = next++; i < done.size(); i = next++) {
                try {
                    problems[i] = checkChampion(options, done[i]);
                } catch (const std::exception &e) {
                    problems[i] = e.what();
                }
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    for (const std::string &problem : problems)
        if (!problem.empty())
            outcome.fail(problem);
    if (requireSome && done.empty())
        outcome.fail("no search finished within the run");
}

void
addErrors(const std::vector<std::string> &errors, Outcome &outcome)
{
    for (const std::string &error : errors)
        outcome.fail("request failed: " + error);
}

Summary
opSummary(const std::vector<double> &micros)
{
    return summarize(micros, kMaxTailPercentile);
}

/** op_p50_ms and op_tail_ms of a daemon run: medians over its windows
 * of each window's p50 and tail. */
void
addWindowedTiming(MetricSet &metrics, const std::vector<double> &micros,
                  const std::vector<double> &at, double seconds)
{
    std::vector<double> p50s;
    std::vector<double> tails;
    double percentile = 50.0;
    for (const std::vector<double> &window :
         byWindow(micros, at, kWindows, seconds)) {
        Summary summary = opSummary(window);
        p50s.push_back(summary.p50);
        tails.push_back(summary.tail);
        percentile = summary.tailPercentile;
    }
    char note[96];
    std::snprintf(note, sizeof(note), "median of %d windows, n=%zu",
                  kWindows, micros.size());
    metrics.add("op_p50_ms", median(p50s) / 1e3, "ms", note);
    std::snprintf(note, sizeof(note), "p%g, median of %d windows, n=%zu",
                  percentile, kWindows, micros.size());
    metrics.add("op_tail_ms", median(tails) / 1e3, "ms", note);
}

/** Median over the run's windows of the per-second sum of @p amounts. */
double
windowedRate(const std::vector<double> &amounts, const std::vector<double> &at,
             double seconds)
{
    std::vector<double> rates;
    for (const std::vector<double> &window :
         byWindow(amounts, at, kWindows, seconds))
        rates.push_back(std::accumulate(window.begin(), window.end(), 0.0) /
                        (seconds / kWindows));
    return median(rates);
}

int64_t
delta(const pb::KvFile &before, const pb::KvFile &after,
      const std::string &key)
{
    return after.getIntOr(key, 0) - before.getIntOr(key, 0);
}

// ---- Untraced runs: end-to-end metrics -----------------------------

void
endToEnd(const RunOptions &options, const pb::service::ServerOptions &server,
         const StateDirs &dirs, Outcome &out)
{
    MetricSet &metrics = out.metrics;
    double rss = 0.0;
    if (options.workload == "tune-resident" ||
        options.workload == "tune-evict") {
        pb::service::TuningServer daemon(server);
        daemon.start();
        ClosedLoopResult run =
            runClosedLoop(options, daemon.port(), options.seconds);
        rss = peakRssMb();
        daemon.stop();
        out.attempted += run.attempted;
        addErrors(run.errors, out);
        verifyChampions(options, run.completed, out);
        metrics.add("ops_per_s",
                    windowedRate(std::vector<double>(run.completedAt.size(), 1.0),
                                 run.completedAt, options.seconds),
                    "1/s");
        metrics.add("configs_per_s",
                    windowedRate(run.completedConfigs, run.completedAt,
                                 options.seconds),
                    "1/s");
        addWindowedTiming(metrics, run.stepMicros, run.stepAt,
                          options.seconds);
        printP99(run.stepMicros);
    } else if (options.workload == "dispatch-mixed") {
        OpenLoopResult run;
        {
            OneCpu pin;
            pb::service::TuningServer daemon(server);
            daemon.start();
            run = runOpenLoop(options, daemon.port(), options.seconds);
            rss = peakRssMb();
            daemon.stop();
        }
        out.attempted += run.attempted;
        addErrors(run.errors, out);
        const int64_t priced = verifyDispatch(run.answers, dirs.portfolio, out);
        metrics.add("ops_per_s", run.answers.size() / run.elapsedSeconds,
                    "1/s");
        metrics.add("configs_per_s", priced / run.elapsedSeconds, "1/s");
        addWindowedTiming(metrics, run.dispatchMicros, run.dispatchAt,
                          options.seconds);
        printP99(run.dispatchMicros);
        Summary late = opSummary(run.lateMicros);
        Summary ladder = opSummary(run.ladderMicros);
        std::printf("load generator lateness: p50 %.1f us, p%g %.1f us over "
                    "%zu requests; /portfolio/tune p50 %.3f ms (n=%zu)\n",
                    late.p50, late.tailPercentile, late.tail, late.count,
                    ladder.p50 / 1e3, ladder.count);
    } else {
        LocalResult run = runInprocStreams(options, rss);
        out.attempted += run.attempted;
        verifyChampions(options, run.completed, out);
        metrics.add("ops_per_s", run.completed.size() / run.elapsedSeconds,
                    "1/s");
        metrics.add("configs_per_s", run.configs / run.elapsedSeconds, "1/s");
        metrics.addTiming("op", run.opMicros.summary(kMaxTailPercentile),
                          "ms", 1e-3);
        printP99(run.opMicros.samples());
    }
    metrics.add("peak_rss_mb", rss, "MB");
}

// ---- Traced runs: per-layer metrics --------------------------------

/** Mean total (or self) micros per span named @p name. */
double
spanMean(const std::map<std::string, Tracer::Totals> &totals,
         const std::string &name, bool self = false)
{
    auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0)
        return 0.0;
    return static_cast<double>(self ? it->second.selfNanos
                                    : it->second.totalNanos) /
           1e3 / static_cast<double>(it->second.count);
}

/** Per-layer metrics of the traced in-process replay @p traced, with
 * @p untraced (same inputs, no spans) for the tracing overhead. */
void
replayLayers(const Tracer &tracer, const Replay &replay,
             const LocalResult &traced, const LocalResult &untraced,
             Outcome &out)
{
    MetricSet &metrics = out.metrics;
    const std::map<std::string, Tracer::Totals> totals = tracer.totals();
    if (totals.count("table.ckpt_write")) {
        metrics.add("table.step_us", spanMean(totals, "request.step"), "us");
        metrics.add("table.evict_us", spanMean(totals, "table.evict"), "us");
        metrics.add("table.rehydrate_us", spanMean(totals, "table.rehydrate"),
                    "us");
        metrics.add("table.ckpt_serialize_us",
                    spanMean(totals, "table.ckpt_serialize"), "us");
        metrics.add("table.ckpt_write_us", spanMean(totals, "table.ckpt_write"),
                    "us");
        metrics.add("table.ckpt_bytes", mean(traced.ckptBytes), "bytes");
    }
    metrics.add("tuner.step_us", spanMean(totals, "tuner.step"), "us");
    metrics.add("tuner.self_us", spanMean(totals, "tuner.step", true), "us");
    metrics.add("tuner.fingerprint_us", mean(replay.fingerprintUs), "us");
    if (traced.steps > 0) {
        metrics.addRatio("tuner.l1_hit_ratio",
                         Ratio{static_cast<double>(traced.l1Hits),
                               static_cast<double>(traced.l1Hits +
                                                   traced.l1Misses)},
                         "tuner.l1_probes");
        metrics.add("tuner.configs_per_step",
                    traced.completedSteps > 0
                        ? static_cast<double>(traced.configs) /
                              static_cast<double>(traced.completedSteps)
                        : 0.0,
                    "count");
    }
    auto batch = totals.find("engine.batch");
    if (batch != totals.end()) {
        metrics.add("engine.batch_us", spanMean(totals, "engine.batch"), "us");
        const double evaluations =
            static_cast<double>(replay.fingerprintUs.size());
        metrics.add("engine.evaluations", evaluations, "count");
        if (evaluations > 0)
            metrics.add("engine.eval_us",
                        static_cast<double>(batch->second.totalNanos) / 1e3 /
                            evaluations,
                        "us");
    }
    metrics.add("compiler.context_build_us", mean(replay.contextBuildUs),
                "us");
    metrics.add("compiler.kernel_sources_us",
                spanMean(totals, "compiler.kernel_sources"), "us");
    for (const auto &[name, samples] : replay.simEvaluateUs)
        if (metrics.has("sim.evaluate_us." + name))
            metrics.add("sim.evaluate_us." + name, mean(samples), "us");
    metrics.add("cache.lookup_us", mean(replay.lookupUs), "us");
    metrics.add("cache.publish_us", mean(replay.publishUs), "us");
    metrics.add("cache.flush_us", mean(replay.flushUs), "us");

    // Blocking-path accounting: the layer spans inside each request
    // must cover its latency up to the stated tolerance.
    int64_t requestTotal = 0;
    int64_t requestSelf = 0;
    int64_t requests = 0;
    for (const auto &[name, entry] : totals)
        if (name.rfind("request.", 0) == 0) {
            requestTotal += entry.totalNanos;
            requestSelf += entry.selfNanos;
            requests += entry.count;
        }
    const double accounted =
        requestTotal > 0
            ? 1.0 - static_cast<double>(requestSelf) / requestTotal
            : 0.0;
    metrics.add("trace.accounted_share", accounted, "ratio");
    metrics.add("trace.requests", static_cast<double>(requests), "count");
    if (accounted < 1.0 - kAccountingTolerance)
        out.fail("layer accounting: spans cover only " +
                 std::to_string(accounted) + " of traced request latency");
    const double base = untraced.opMicros.summary().p50;
    metrics.add("trace.overhead_pct",
                base > 0 ? (traced.opMicros.summary().p50 - base) / base * 100
                         : 0.0,
                "%");
}

void
layers(const RunOptions &options, const pb::service::ServerOptions &server,
       const StateDirs &dirs, Outcome &out)
{
    MetricSet &metrics = out.metrics;
    for (const auto &[name, unit] : kPerLayer)
        metrics.add(name, 0.0, unit);
    measureSetupLayers(server, metrics);

    const bool tableWorkload = options.workload == "tune-resident" ||
                               options.workload == "tune-evict";
    const double replaySeconds =
        options.workload == "tune-inproc" ? options.seconds / 2
                                          : options.seconds / 4;
    if (tableWorkload || options.workload == "dispatch-mixed") {
        // Phase A: the daemon itself; the service split comes from
        // client timing minus the server's per-command means.
        std::optional<OneCpu> pin;
        if (!tableWorkload)
            pin.emplace();
        pb::service::TuningServer daemon(server);
        daemon.start();
        pb::service::Client stats("127.0.0.1", daemon.port(), 60000);
        const pb::KvFile before = stats.stats();
        if (tableWorkload) {
            ClosedLoopResult run =
                runClosedLoop(options, daemon.port(), options.seconds / 2);
            const pb::KvFile after = stats.stats();
            daemon.stop();
            out.attempted += run.attempted;
            addErrors(run.errors, out);
            verifyChampions(options, run.completed, out);
            MetricSet window;
            addWindowedTiming(window, run.stepMicros, run.stepAt,
                              options.seconds / 2);
            metrics.add("op.tail_ms", window.get("op_tail_ms"), "ms");
            int64_t count = 0;
            const double serverStep =
                serverMicros(before, after, "step", &count);
            metrics.add("service.server_us.step", serverStep, "us");
            metrics.add("service.wait_us.step",
                        mean(run.stepMicros) - serverStep, "us");
            metrics.add("service.rejected",
                        static_cast<double>(
                            delta(before, after,
                                  "server.backpressureRejections") +
                            delta(before, after, "server.deadlineRejections") +
                            static_cast<int64_t>(run.errors.size())),
                        "count");
            const int64_t created = delta(before, after, "table.created");
            const int64_t hydrations =
                delta(before, after, "table.rehydrations");
            metrics.add("table.evictions",
                        static_cast<double>(
                            delta(before, after, "table.evictions")),
                        "count");
            // table.rehydrations also counts each create's first
            // materialization; only the rest are rebuilds from the spool.
            metrics.add("table.rehydrations_real",
                        static_cast<double>(hydrations - created), "count");
            metrics.add("table.rehydrations_raw",
                        static_cast<double>(hydrations), "count");
            metrics.add("table.created", static_cast<double>(created),
                        "count");
            const int64_t hits = delta(before, after, "cache.hits");
            const int64_t misses = delta(before, after, "cache.misses");
            metrics.addRatio("cache.l2_hit_ratio",
                             Ratio{static_cast<double>(hits),
                                   static_cast<double>(hits + misses)},
                             "cache.l2_probes");
            metrics.add("cache.cross_session_hits",
                        static_cast<double>(
                            delta(before, after, "cache.crossSessionHits")),
                        "count");
        } else {
            OpenLoopResult run =
                runOpenLoop(options, daemon.port(), options.seconds / 2);
            const pb::KvFile after = stats.stats();
            daemon.stop();
            out.attempted += run.attempted;
            addErrors(run.errors, out);
            verifyDispatch(run.answers, dirs.portfolio, out);
            MetricSet window;
            addWindowedTiming(window, run.dispatchMicros, run.dispatchAt,
                              options.seconds / 2);
            metrics.add("op.tail_ms", window.get("op_tail_ms"), "ms");
            int64_t count = 0;
            const double serverChampion =
                serverMicros(before, after, "portfolio/champion", &count);
            metrics.add("service.server_us.champion", serverChampion, "us");
            metrics.add("service.wait_us.champion",
                        mean(run.dispatchMicros) - mean(run.lateMicros) -
                            serverChampion,
                        "us");
            const double serverLadder =
                serverMicros(before, after, "portfolio/tune", &count);
            metrics.add("service.server_us.ladder", serverLadder, "us");
            metrics.add("service.wait_us.ladder",
                        mean(run.ladderSentMicros) - serverLadder, "us");
            metrics.add("service.rejected",
                        static_cast<double>(
                            delta(before, after,
                                  "server.backpressureRejections") +
                            delta(before, after, "server.deadlineRejections") +
                            static_cast<int64_t>(run.errors.size())),
                        "count");
            metrics.add("portfolio.ladder_tune_ms",
                        opSummary(run.ladderMicros).p50 / 1e3, "ms");
            Summary late = opSummary(run.lateMicros);
            metrics.add("loadgen.late_p50_us", late.p50, "us");
            metrics.add("loadgen.late_tail_us", late.tail, "us");
            std::map<std::string, int64_t> policies;
            for (const DispatchAnswer &answer : run.answers)
                ++policies[answer.policy];
            for (const char *policy : {"exact", "priced", "foreign"})
                metrics.addRatio(
                    std::string("portfolio.policy_share.") + policy,
                    Ratio{static_cast<double>(policies[policy]),
                          static_cast<double>(run.answers.size())},
                    "portfolio.dispatches");
        }
    }

    // Phase B: the same inputs through the in-process stack, first
    // without spans, then with spans and replays.
    Tracer off(false);
    Tracer on(true);
    Replay replay(options.workDir + "/replay-cache");
    // Untraced and traced replays alternate in short rounds, so a slow
    // spell of the machine lands on both sides of the overhead figure.
    LocalResult untraced;
    LocalResult traced;
    const double roundSeconds = replaySeconds / kReplayRounds;
    for (int round = 0; round < kReplayRounds; ++round) {
        const std::string tag = std::to_string(round);
        if (tableWorkload) {
            untraced.absorb(runComposedTable(
                options, options.workDir + "/b0-spool" + tag, roundSeconds,
                off, nullptr));
            traced.absorb(runComposedTable(
                options, options.workDir + "/b1-spool" + tag, roundSeconds, on,
                &replay));
        } else if (options.workload == "tune-inproc") {
            untraced.absorb(runInproc(options, roundSeconds, off, nullptr));
            traced.absorb(runInproc(options, roundSeconds, on, &replay));
        } else {
            untraced.absorb(runComposedDispatch(options, dirs.portfolio,
                                                roundSeconds, off, nullptr));
            traced.absorb(runComposedDispatch(options, dirs.portfolio,
                                              roundSeconds, on, &replay));
        }
    }
    if (options.workload == "tune-inproc") {
        metrics.add("op.tail_ms",
                    untraced.opMicros.summary(kMaxTailPercentile).tail / 1e3,
                    "ms");
        metrics.addRatio("cache.l2_hit_ratio",
                         Ratio{static_cast<double>(traced.l2Hits),
                               static_cast<double>(traced.l2Hits +
                                                   traced.l2Misses)},
                         "cache.l2_probes");
        metrics.add("cache.cross_session_hits",
                    static_cast<double>(traced.crossSessionHits), "count");
    }
    if (options.workload == "dispatch-mixed") {
        for (const auto &[policy, samples] : traced.dispatchUsByPolicy)
            metrics.add("portfolio.dispatch_us." + policy, mean(samples), "us");
        metrics.add("portfolio.put_us", mean(traced.putUs), "us");
        metrics.add("portfolio.ladder_us",
                    spanMean(on.totals(), "portfolio.ladder"), "us");
    }
    out.attempted += untraced.attempted + traced.attempted;
    if (options.workload != "dispatch-mixed") {
        // Short replay rounds of tune-evict may finish no search.
        verifyChampions(options, untraced.completed, out, false);
        verifyChampions(options, traced.completed, out, false);
    }
    replayLayers(on, replay, traced, untraced, out);
    on.write(options.workDir + "/trace.jsonl", kTraceFileSpans);
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "tunebench: %s\nusage: tunebench --workload "
                 "<tune-resident|tune-evict|dispatch-mixed|tune-inproc> "
                 "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::stoull(value);
        else if (flag == "--seconds")
            options.seconds = std::stod(value);
        else if (flag == "--trace")
            options.trace = value != "0";
        else if (flag == "--work-dir")
            options.workDir = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (!isTuneWorkload(options.workload) &&
        options.workload != "dispatch-mixed")
        return usage("unknown or missing --workload");
    if (options.workDir.empty() || options.seconds <= 0)
        return usage("--work-dir and a positive --seconds are required");

    pb::setLogLevel(pb::LogLevel::Warn);
    Outcome out;
    try {
        fs::remove_all(options.workDir);
        fs::create_directories(options.workDir);
        const StateDirs dirs = prepopulate(options);
        const pb::service::ServerOptions server =
            serverOptions(options.workload, dirs);
        // Boots and the measured window start with every earlier write
        // (the set-up's and the previous run's deletions) on disk.
        ::sync();
        std::vector<double> boots;
        {
            OneCpu pin;
            for (int k = 0; k < kBoots; ++k)
                boots.push_back(timeBoot(server));
        }
        ::sync();
        std::printf("workload %s seed %llu: %.0f s, %s\n",
                    options.workload.c_str(),
                    static_cast<unsigned long long>(options.seed),
                    options.seconds, options.trace ? "traced" : "untraced");
        if (options.trace)
            layers(options, server, dirs, out);
        else
            endToEnd(options, server, dirs, out);
        out.metrics.add("setup_s", summarize(boots).p50, "s");
        // Keep only the trace; spools and caches are scratch.
        for (const fs::directory_entry &entry :
             fs::directory_iterator(options.workDir))
            if (entry.path().filename() != "trace.jsonl")
                fs::remove_all(entry.path());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tunebench: run failed: %s\n", e.what());
        return 1;
    }

    out.metrics.print(std::cout);
    for (const std::string &problem : out.problems)
        std::cout << "CHECK FAILED: " << problem << "\n";
    std::vector<std::string> names;
    for (const auto &[name, unit] : options.trace ? kPerLayer : kEndToEnd)
        names.push_back(name);
    const bool correct = out.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<int64_t>(out.attempted, 1)
              << ", \"failed\": " << out.failed
              << ", \"metrics\": " << out.metrics.json(names) << "}"
              << std::endl;
    return correct ? 0 : 1;
}

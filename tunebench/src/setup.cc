#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sys/resource.h>

#include "bench.h"
#include "benchmarks/registry.h"
#include "cache/shared_cache.h"
#include "portfolio/portfolio.h"
#include "service/client.h"
#include "service/hosted_session.h"
#include "trace.h"
#include "tuner/portfolio_tuner.h"

namespace tunebench {

namespace fs = std::filesystem;

void
Outcome::fail(const std::string &what)
{
    ++failed;
    if (problems.size() < 20)
        problems.push_back(what);
}

uint64_t
mix64(uint64_t seed, uint64_t index)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
unit(uint64_t seed, uint64_t index)
{
    return static_cast<double>(mix64(seed, index) >> 11) * 0x1.0p-53;
}

bool
isTuneWorkload(const std::string &workload)
{
    return workload == "tune-resident" || workload == "tune-evict" ||
           workload == "tune-inproc";
}

pb::KvFile
sessionBody(const std::string &workload, uint64_t seed, int64_t index)
{
    static const char *const kMix[] = {"Sort", "Poisson2D SOR", "Strassen",
                                       "Black-Scholes"};
    pb::KvFile body;
    const uint64_t i = static_cast<uint64_t>(index);
    if (workload == "tune-evict") {
        body.set("benchmark", "Strassen");
        body.setInt("seed",
                    static_cast<int64_t>(
                        mix64(seed, 1000 + mix64(seed, i) % kEvictSeedPool) >>
                        33));
    } else {
        body.set("benchmark", kMix[(i + seed) % 4]);
        body.setInt("seed", static_cast<int64_t>(mix64(seed, i) >> 33));
    }
    body.set("machine", "Desktop");
    body.setInt("populationSize", 8);
    body.setInt("generationsPerSize", 3);
    body.setInt("engineParallelism", 1);
    return body;
}

std::vector<pb::KvFile>
ladderBodies(const std::string &workload, uint64_t seed)
{
    std::vector<std::pair<const char *, const char *>> ladders = {
        {"Black-Scholes", "Desktop"}};
    if (workload == "dispatch-mixed")
        ladders = {{"Black-Scholes", "Desktop"}, {"Black-Scholes", "Server"},
                   {"Sort", "Desktop"},          {"Sort", "Server"},
                   {"Mandelbrot", "Desktop"},    {"Mandelbrot", "Server"}};
    std::vector<pb::KvFile> bodies;
    for (size_t k = 0; k < ladders.size(); ++k) {
        pb::KvFile body;
        body.set("benchmark", ladders[k].first);
        body.set("machine", ladders[k].second);
        body.setInt("growth", 4);
        body.setInt("population", 4);
        body.setInt("generations", 2);
        body.setInt("seed",
                    static_cast<int64_t>(mix64(seed, 5000 + k) >> 33));
        bodies.push_back(body);
    }
    return bodies;
}

Query
dispatchQuery(uint64_t seed, int64_t index)
{
    static const char *const kBenchmarks[] = {"Black-Scholes", "Sort",
                                              "Mandelbrot"};
    static const char *const kMachines[] = {"Desktop", "Server",
                                            "Ultrabook"};
    const uint64_t base = 1'000'000 + 4 * static_cast<uint64_t>(index);
    Query query;
    query.benchmark = kBenchmarks[static_cast<int>(unit(seed, base) * 3)];
    query.machine = kMachines[static_cast<int>(unit(seed, base + 1) * 3)];
    pb::apps::BenchmarkPtr benchmark =
        pb::apps::findBenchmark(query.benchmark);
    const int64_t lo = benchmark->minTuningSize();
    const int64_t hi = benchmark->testingInputSize();
    const double u = unit(seed, base + 3);
    if (unit(seed, base + 2) < 0.25) {
        std::vector<int64_t> rungs =
            pb::tuner::PortfolioTuner::sizeLadder(lo, hi, 4);
        query.n = rungs[static_cast<size_t>(u * rungs.size())];
    } else {
        query.n = std::clamp<int64_t>(
            std::llround(std::exp(std::log(lo) +
                                  u * (std::log(hi) - std::log(lo)))),
            lo, hi);
    }
    return query;
}

pb::cache::SharedCacheOptions
cacheOptions(const std::string &dir)
{
    pb::cache::SharedCacheOptions options;
    options.maxBytes = kCacheBytes;
    options.dir = dir;
    return options;
}

pb::service::ServerOptions
serverOptions(const std::string &workload, const StateDirs &dirs)
{
    pb::service::ServerOptions options;
    options.port = 0;
    options.workers = kWorkers;
    options.table.spoolDir = dirs.spool;
    options.table.residentCap =
        workload == "tune-evict" ? kEvictCap : kResidentCap;
    options.table.checkpointEachStep = true;
    options.cache = cacheOptions(dirs.cache);
    options.portfolioDir = dirs.portfolio;
    return options;
}

StateDirs
prepopulate(const RunOptions &options)
{
    StateDirs dirs;
    const std::string root = options.workDir + "/state";
    dirs.spool = root + "/spool";
    dirs.cache = root + "/cache";
    dirs.portfolio = root + "/portfolio";
    fs::remove_all(root);
    fs::create_directories(root);

    pb::service::TuningServer server(serverOptions(options.workload, dirs));
    server.start();
    pb::service::Client client("127.0.0.1", server.port(), 60000);
    // Sessions from the workload's own stream, at indices the measured
    // phase never reaches, left mid-search on the spool.
    const int spooled = kSpooledSessions;
    for (int i = 0; i < spooled; ++i) {
        std::string id = client.create(
            sessionBody(options.workload, options.seed, 1'000'000'000 + i));
        client.step(id, 2);
    }
    for (const pb::KvFile &body : ladderBodies(options.workload, options.seed))
        client.portfolioTune(body);
    server.drain();
    return dirs;
}

double
timeBoot(const pb::service::ServerOptions &options)
{
    const Clock::time_point start = Clock::now();
    pb::service::TuningServer server(options);
    server.start();
    pb::service::Client client("127.0.0.1", server.port(), 60000);
    client.ping();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    server.stop();
    return seconds;
}

namespace {

template <typename Build>
double
medianMicros(Build build)
{
    std::vector<double> samples;
    for (int i = 0; i < 3; ++i) {
        const Clock::time_point start = Clock::now();
        build();
        samples.push_back(micros(start, Clock::now()));
    }
    return summarize(samples).p50;
}

} // namespace

void
measureSetupLayers(const pb::service::ServerOptions &server,
                   MetricSet &metrics)
{
    pb::service::SessionTableOptions table = server.table;
    table.sharedCache = nullptr;
    metrics.add("setup.table_fsck_us", medianMicros([&] {
                    pb::service::SessionTable probe(table);
                }),
                "us");
    metrics.add("setup.cache_load_us", medianMicros([&] {
                    pb::cache::SharedEvaluationCache probe(server.cache);
                }),
                "us");
    metrics.add("setup.portfolio_load_us", medianMicros([&] {
                    pb::portfolio::ChampionPortfolio probe(
                        server.portfolioDir, server.portfolioFsck);
                }),
                "us");
}

uint64_t
championDigest(const pb::KvFile &champion)
{
    pb::KvFile kept;
    for (const std::string &key : champion.keys())
        if (key != "champion.description" && key != "session")
            kept.set(key, champion.get(key));
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : kept.toString())
        hash = (hash ^ c) * 0x100000001b3ULL;
    return hash;
}

std::string
checkChampion(const RunOptions &options, const Finished &finished)
{
    pb::service::SessionSpec spec = pb::service::SessionSpec::fromCreateRequest(
        sessionBody(options.workload, options.seed, finished.index));
    pb::tuner::TuningResult reference = pb::service::runSpecLocally(spec);
    pb::KvFile expected = reference.best.toKv();
    expected.setDouble("champion.seconds", reference.bestSeconds);
    expected.setInt("champion.done", 1);
    if (championDigest(expected) == finished.digest)
        return "";
    return spec.benchmark + " seed " + std::to_string(spec.tuner.seed) +
           ": champion differs from runSpecLocally";
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
hex16(uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
    return buffer;
}

} // namespace tunebench

#include "service_load.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <sys/prctl.h>

#include "benchmarks/registry.h"
#include "portfolio/dispatcher.h"
#include "service/client.h"
#include "sim/machine.h"
#include "trace.h"

namespace tunebench {

namespace {

/** How long before a request is due its thread stops sleeping. */
constexpr std::chrono::microseconds kSpinBeforeDue{300};

/** Return at @p due: sleep until shortly before it, then spin, so a
 * request goes out on time rather than after a wake-up that lags by
 * tens of microseconds on a virtual machine. */
void
waitUntil(Clock::time_point due)
{
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::this_thread::sleep_until(due - kSpinBeforeDue);
    while (Clock::now() < due) {
    }
}

std::unique_ptr<pb::service::Client>
connect(uint16_t port)
{
    return std::make_unique<pb::service::Client>("127.0.0.1", port, 60000);
}

} // namespace

ClosedLoopResult
runClosedLoop(const RunOptions &options, uint16_t port, double seconds)
{
    const int slotsPerConnection =
        options.workload == "tune-evict" ? kEvictSlots : kResidentSlots;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));

    std::vector<ClosedLoopResult> perConnection(kConnections);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c)
        threads.emplace_back([&, c] {
            ClosedLoopResult &out = perConnection[c];
            std::unique_ptr<pb::service::Client> client = connect(port);
            int64_t next = c;
            struct Slot
            {
                std::string id;
                int64_t index = 0;
            };
            std::vector<Slot> slots(slotsPerConnection);
            auto open = [&](Slot &slot) {
                slot.index = next;
                next += kConnections;
                ++out.attempted;
                slot.id = client->create(
                    sessionBody(options.workload, options.seed, slot.index));
            };
            auto failed = [&](const std::exception &e) {
                out.errors.push_back(e.what());
                client = connect(port);
            };
            for (Slot &slot : slots) {
                try {
                    open(slot);
                } catch (const std::exception &e) {
                    failed(e);
                }
            }
            while (Clock::now() < deadline && out.errors.size() < 50) {
                for (Slot &slot : slots) {
                    if (Clock::now() >= deadline)
                        break;
                    try {
                        if (slot.id.empty()) {
                            open(slot);
                            continue;
                        }
                        ++out.attempted;
                        const Clock::time_point sent = Clock::now();
                        pb::KvFile reply = client->command(
                            "POST", "/step?session=" + slot.id + "&steps=1");
                        const Clock::time_point done = Clock::now();
                        out.stepMicros.push_back(micros(sent, done));
                        out.stepAt.push_back(micros(start, done) / 1e6);
                        if (reply.getInt("status.done") == 0)
                            continue;
                        ++out.attempted;
                        pb::KvFile champion = client->champion(slot.id);
                        out.completedAt.push_back(
                            micros(start, Clock::now()) / 1e6);
                        out.completedConfigs.push_back(static_cast<double>(
                            reply.getInt("status.evaluations") +
                            reply.getInt("status.cacheHits")));
                        out.completed.push_back(
                            {slot.index, championDigest(champion)});
                        ++out.attempted;
                        client->stopSession(slot.id);
                        slot.id.clear();
                        open(slot);
                    } catch (const std::exception &e) {
                        slot.id.clear();
                        failed(e);
                    }
                }
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    ClosedLoopResult merged;
    merged.elapsedSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    for (ClosedLoopResult &part : perConnection) {
        auto append = [](std::vector<double> &to,
                         const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(merged.stepMicros, part.stepMicros);
        append(merged.stepAt, part.stepAt);
        append(merged.completedAt, part.completedAt);
        append(merged.completedConfigs, part.completedConfigs);
        merged.completed.insert(merged.completed.end(),
                                part.completed.begin(), part.completed.end());
        merged.attempted += part.attempted;
        merged.errors.insert(merged.errors.end(), part.errors.begin(),
                             part.errors.end());
    }
    return merged;
}

OpenLoopResult
runOpenLoop(const RunOptions &options, uint16_t port, double seconds)
{
    const int64_t total =
        static_cast<int64_t>(seconds * kDispatchRate) + 1;
    std::vector<Query> queries;
    queries.reserve(total);
    for (int64_t j = 0; j < total; ++j)
        queries.push_back(dispatchQuery(options.seed, j));
    const std::vector<pb::KvFile> ladders =
        ladderBodies(options.workload, options.seed);

    // Connections are open before the clock starts.
    std::vector<std::unique_ptr<pb::service::Client>> clients;
    for (int c = 0; c <= kConnections; ++c)
        clients.push_back(connect(port));
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    auto dueAt = [&](double offsetSeconds) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(offsetSeconds));
    };
    const Clock::time_point deadline = dueAt(seconds);

    std::vector<OpenLoopResult> perThread(kConnections + 1);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c)
        threads.emplace_back([&, c] {
            OpenLoopResult &out = perThread[c];
            for (int64_t j = c; j < total; j += kConnections) {
                const Clock::time_point due = dueAt(j / kDispatchRate);
                if (due >= deadline || out.errors.size() >= 50)
                    break;
                waitUntil(due);
                const Query &query = queries[j];
                const Clock::time_point sent = Clock::now();
                out.lateMicros.push_back(micros(due, sent));
                ++out.attempted;
                try {
                    pb::KvFile reply = clients[c]->portfolioChampion(
                        query.benchmark, query.machine, query.n);
                    out.dispatchMicros.push_back(micros(due, Clock::now()));
                    out.dispatchAt.push_back(micros(start, due) / 1e6);
                    out.answers.push_back(
                        {query, reply.get("dispatch.policy"),
                         reply.get("champion.configFingerprint"),
                         reply.get("dispatch.pricedSecondsBits")});
                } catch (const std::exception &e) {
                    out.errors.push_back(e.what());
                    clients[c] = connect(port);
                }
            }
        });
    threads.emplace_back([&] {
        OpenLoopResult &out = perThread[kConnections];
        for (int64_t k = 0;; ++k) {
            const Clock::time_point due = dueAt(k * kLadderIntervalSeconds);
            if (due >= deadline || out.errors.size() >= 50)
                break;
            waitUntil(due);
            ++out.attempted;
            try {
                const Clock::time_point sent = Clock::now();
                clients[kConnections]->portfolioTune(
                    ladders[k % ladders.size()]);
                const Clock::time_point done = Clock::now();
                out.ladderMicros.push_back(micros(due, done));
                out.ladderSentMicros.push_back(micros(sent, done));
            } catch (const std::exception &e) {
                out.errors.push_back(e.what());
                clients[kConnections] = connect(port);
            }
        }
    });
    for (std::thread &thread : threads)
        thread.join();

    OpenLoopResult merged;
    merged.elapsedSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    for (OpenLoopResult &part : perThread) {
        auto append = [](std::vector<double> &to,
                         const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(merged.dispatchMicros, part.dispatchMicros);
        append(merged.dispatchAt, part.dispatchAt);
        append(merged.lateMicros, part.lateMicros);
        append(merged.ladderMicros, part.ladderMicros);
        append(merged.ladderSentMicros, part.ladderSentMicros);
        for (DispatchAnswer &answer : part.answers)
            merged.answers.push_back(std::move(answer));
        merged.attempted += part.attempted;
        merged.errors.insert(merged.errors.end(), part.errors.begin(),
                             part.errors.end());
    }
    return merged;
}

double
serverMicros(const pb::KvFile &before, const pb::KvFile &after,
             const std::string &command, int64_t *count)
{
    const std::string prefix = "command." + command + ".";
    auto read = [&](const pb::KvFile &kv, int64_t &n, double &mean) {
        n = kv.getIntOr(prefix + "count", 0);
        mean = kv.has(prefix + "meanMicros")
                   ? kv.getDouble(prefix + "meanMicros")
                   : 0.0;
    };
    int64_t n0 = 0, n1 = 0;
    double mean0 = 0, mean1 = 0;
    read(before, n0, mean0);
    read(after, n1, mean1);
    *count = n1 - n0;
    if (*count <= 0)
        return 0.0;
    return (mean1 * n1 - mean0 * n0) / static_cast<double>(*count);
}

int64_t
verifyDispatch(const std::vector<DispatchAnswer> &answers,
               const std::string &portfolioDir, Outcome &outcome)
{
    pb::portfolio::ChampionPortfolio portfolio(portfolioDir, false);
    pb::portfolio::Dispatcher dispatcher(portfolio);
    const pb::portfolio::DispatchOptions defaults;
    std::map<std::string, pb::apps::BenchmarkPtr> benchmarks;
    std::map<std::string, pb::sim::MachineProfile> machines;
    int64_t priced = 0;
    for (const DispatchAnswer &answer : answers) {
        const Query &query = answer.query;
        pb::apps::BenchmarkPtr &benchmark = benchmarks[query.benchmark];
        if (!benchmark)
            benchmark = pb::apps::findBenchmark(query.benchmark);
        auto machine = machines.find(query.machine);
        if (machine == machines.end())
            machine = machines
                          .emplace(query.machine,
                                   pb::sim::MachineProfile::byName(
                                       query.machine))
                          .first;
        pb::portfolio::DispatchDecision expected =
            dispatcher.dispatch(*benchmark, query.n, machine->second);
        if (answer.policy != expected.policy ||
            answer.configFingerprint !=
                hex16(expected.champion.configFingerprint) ||
            answer.pricedSecondsBits !=
                hex16(std::bit_cast<uint64_t>(expected.pricedSeconds)))
            outcome.fail("dispatch " + query.benchmark + "/" +
                         query.machine + "/n=" + std::to_string(query.n) +
                         " answered " + answer.configFingerprint + " (" +
                         answer.policy + "), in-process dispatcher says " +
                         hex16(expected.champion.configFingerprint) + " (" +
                         expected.policy + ")");
        if (expected.policy != "exact") {
            size_t candidates =
                portfolio
                    .championsFor(benchmark->name(),
                                  machine->second.fingerprint())
                    .size();
            if (candidates == 0)
                candidates = portfolio.allFor(benchmark->name()).size();
            priced += static_cast<int64_t>(std::min<size_t>(
                candidates, static_cast<size_t>(std::max(defaults.topK, 2))));
        }
    }
    return priced;
}

} // namespace tunebench

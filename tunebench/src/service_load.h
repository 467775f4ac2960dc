/**
 * @file
 * Load generators that drive a running tunerd (TuningServer) over
 * loopback HTTP: the closed tuning loop and the open dispatch loop.
 */

#ifndef TUNEBENCH_SERVICE_LOAD_H
#define TUNEBENCH_SERVICE_LOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace tunebench {

struct ClosedLoopResult
{
    std::vector<double> stepMicros; ///< one generation, as the client sees it
    std::vector<double> stepAt;     ///< when each step ended (s from start)
    std::vector<Finished> completed;
    std::vector<double> completedAt; ///< when each search finished
    std::vector<double> completedConfigs; ///< its evaluations + cache hits
    int64_t attempted = 0;
    std::vector<std::string> errors; ///< failed or refused requests
    double elapsedSeconds = 0.0;
};

/**
 * kConnections connections, each stepping its own slots of sessions
 * (session i of the stream goes to connection i % kConnections) one
 * generation per request, round-robin, for @p seconds. A finished
 * session's champion is fetched, the session stopped, and the next
 * one of the stream created in its slot.
 */
ClosedLoopResult runClosedLoop(const RunOptions &options, uint16_t port,
                               double seconds);

struct DispatchAnswer
{
    Query query;
    std::string policy;
    std::string configFingerprint;
    std::string pricedSecondsBits;
};

struct OpenLoopResult
{
    std::vector<double> dispatchMicros; ///< from the due time
    std::vector<double> dispatchAt;     ///< due time (s from start)
    std::vector<double> lateMicros;     ///< send time minus due time
    std::vector<double> ladderMicros;   ///< /portfolio/tune, from due time
    std::vector<double> ladderSentMicros; ///< /portfolio/tune, from send
    std::vector<DispatchAnswer> answers;
    int64_t attempted = 0;
    std::vector<std::string> errors;
    double elapsedSeconds = 0.0;
};

/**
 * Open loop: query j of the stream is due at start + j / kDispatchRate
 * and goes out on reader connection j % kConnections; a writer
 * connection re-tunes one of the workload's ladders every
 * kLadderIntervalSeconds (the same bodies as set-up, so the answers do
 * not change under the readers).
 */
OpenLoopResult runOpenLoop(const RunOptions &options, uint16_t port,
                           double seconds);

/** Mean server-side micros of @p command between two /stats reads;
 * @p count receives the number of such requests. */
double serverMicros(const pb::KvFile &before, const pb::KvFile &after,
                    const std::string &command, int64_t *count);

/** Check each answer against an in-process Dispatcher over
 * @p portfolioDir; mismatches go to @p outcome. @return configs the
 * dispatcher priced for the answered queries (candidates re-priced;
 * 0 for an exact hit). */
int64_t verifyDispatch(const std::vector<DispatchAnswer> &answers,
                       const std::string &portfolioDir, Outcome &outcome);

} // namespace tunebench

#endif // TUNEBENCH_SERVICE_LOAD_H

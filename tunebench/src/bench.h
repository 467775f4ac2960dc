/**
 * @file
 * Shared pieces of the tuning-stack benchmark: run options, what a run
 * reports, the generated inputs, and the workload constants.
 *
 * Every input is a pure function of (workload, seed): the daemon and
 * the in-process stack only ever see the create bodies and queries
 * built here. The constants below are mirrored in design.json, which
 * records why each workload exists.
 */

#ifndef TUNEBENCH_BENCH_H
#define TUNEBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "service/server.h"
#include "summary.h"
#include "support/kvfile.h"

namespace tunebench {

namespace pb = petabricks;

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir; ///< scratch state for this run (created fresh)
};

/** What one run reports on its result line. */
struct Outcome
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> problems; ///< failed correctness checks
    MetricSet metrics;

    /** Count one failed, refused or incorrect operation. */
    void fail(const std::string &what);
};

// ---- Workload constants (mirrored in design.json) -----------------

/** Client connections of the closed loops and open-loop readers. */
constexpr int kConnections = 2;
/** Daemon worker threads: with the connections, one per core of a
 * four-core machine (dispatch-mixed's measured window puts them all on
 * one CPU; see OneCpu in main.cc). */
constexpr int kWorkers = 2;
/** Sessions each closed-loop connection steps round-robin. */
constexpr int kResidentSlots = 6;
constexpr int kEvictSlots = 12;
/** Resident caps: above tune-resident's 12 live sessions, far below
 * tune-evict's 24. */
constexpr size_t kResidentCap = 64;
constexpr size_t kEvictCap = 4;
/** Open-loop dispatch rate (requests/s over all readers) and the
 * writer's /portfolio/tune interval. */
constexpr double kDispatchRate = 400.0;
constexpr double kLadderIntervalSeconds = 5.0;
/** tune-evict draws its session seeds from a pool this small, so
 * sessions repeat each other's search. */
constexpr uint64_t kEvictSeedPool = 64;
/** Shared L2 bound (tunerd --cache-bytes): small enough that the cache
 * reaches it early in a run, so memory does not track throughput. */
constexpr size_t kCacheBytes = size_t{4} << 20;
/** Mid-search sessions a previous daemon life left on the spool; the
 * boot's fsck rebuilds each one. */
constexpr int kSpooledSessions = 256;
/** Daemon runs report each end-to-end timing and rate as the median
 * over this many equal windows of the run: fsync stalls on a shared
 * disk come in bursts of a few seconds. */
constexpr int kWindows = 5;
/** tune-inproc's untraced runs step this many independent session
 * streams at once (fewer when the process may use fewer CPUs), each a
 * thread on its own CPU with its own L2. A shared host slows its CPUs
 * partly independently, so the streams' sum spreads less from run to
 * run than one stream: IQR over median 0.145 against 0.229 over six
 * alternating 15 s runs on a four-CPU virtual machine. */
constexpr size_t kInprocStreams = 4;
/** Server boots timed per run; setup_s is their median. */
constexpr int kBoots = 15;
/** Traced runs alternate untraced and traced in-process replays this
 * many times. */
constexpr int kReplayRounds = 4;
/** Spans written to a traced run's trace.jsonl (all are kept in
 * memory and counted; the file keeps the first ones). */
constexpr size_t kTraceFileSpans = 200000;
/** Traced runs: blocking-path layer self times must cover at least
 * this share of the traced request latency. */
constexpr double kAccountingTolerance = 0.10;
/** The tail percentile stops at p90: on a shared four-core machine the
 * run-to-run spread of p99 (IQR over median, five seeds) measured 0.57
 * on tune-evict and 2.3 on dispatch-mixed, far past any usable bound,
 * against 0.14-0.25 for p90. */
constexpr double kMaxTailPercentile = 90.0;

// ---- Generated inputs ---------------------------------------------

/** SplitMix64 of (seed, index): the benchmark's only randomness. */
uint64_t mix64(uint64_t seed, uint64_t index);

/** Uniform double in [0, 1) from mix64. */
double unit(uint64_t seed, uint64_t index);

bool isTuneWorkload(const std::string &workload);

/**
 * Create body of session @p index of @p workload's stream: the
 * benchmark mix (Sort, Poisson2D SOR, Strassen, Black-Scholes in
 * rotation) with distinct seeds, or for tune-evict Strassen alone
 * with seeds from a small pool so sessions repeat each other.
 */
pb::KvFile sessionBody(const std::string &workload, uint64_t seed,
                       int64_t index);

/** One /portfolio/champion query. */
struct Query
{
    std::string benchmark;
    std::string machine;
    int64_t n = 0;
};

/** The ladders dispatch-mixed pre-tunes (and its writer re-tunes):
 * /portfolio/tune bodies, deterministic per seed. */
std::vector<pb::KvFile> ladderBodies(const std::string &workload,
                                     uint64_t seed);

/** Query @p index of dispatch-mixed's stream: a benchmark with a
 * ladder, one of two tuned machines or Ultrabook (no champions of its
 * own), and a log-uniform size, a quarter of them exactly on a rung. */
Query dispatchQuery(uint64_t seed, int64_t index);

// ---- State directories and set-up ---------------------------------

struct StateDirs
{
    std::string spool;
    std::string cache;
    std::string portfolio;
};

/** The daemon's shared L2 settings, persisted under @p dir. */
pb::cache::SharedCacheOptions cacheOptions(const std::string &dir);

/** Daemon options for @p workload over @p dirs (ephemeral port). */
pb::service::ServerOptions serverOptions(const std::string &workload,
                                         const StateDirs &dirs);

/**
 * Fill fresh state directories under @p options.workDir as a previous
 * daemon life would leave them: spooled mid-search sessions, cache
 * segments, and the workload's champion ladders.
 */
StateDirs prepopulate(const RunOptions &options);

/** Seconds from TuningServer construction over @p server's dirs to
 * the first answered /ping (the server is stopped afterwards). */
double timeBoot(const pb::service::ServerOptions &server);

/** Traced set-up split: fsck, cache load and portfolio load, each
 * constructed alone over the pre-populated dirs (median µs of three). */
void measureSetupLayers(const pb::service::ServerOptions &server,
                        MetricSet &metrics);

// ---- Correctness references ---------------------------------------

/** A finished search: its index in the session stream and the digest
 * of the champion it reported. */
struct Finished
{
    int64_t index = 0;
    uint64_t digest = 0;
};

/** FNV-1a digest of a champion KvFile's bytes (config keys,
 * champion.seconds, champion.done; the description and session id are
 * left out), so a run keeps 16 bytes per finished search. */
uint64_t championDigest(const pb::KvFile &champion);

/** Compare @p finished with service::runSpecLocally of the same
 * create body. Empty when byte-identical, else what differs. */
std::string checkChampion(const RunOptions &options, const Finished &finished);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

std::string hex16(uint64_t value);

} // namespace tunebench

#endif // TUNEBENCH_BENCH_H

#include "tuner/session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "cache/shared_cache.h"
#include "support/error.h"
#include "support/logging.h"

namespace petabricks {
namespace tuner {

TuningSession::TuningSession(Evaluator &evaluator, Config seedConfig,
                             TunerOptions options)
    : evaluator_(evaluator), seed_(std::move(seedConfig)),
      options_(options), rng_(options.seed),
      compileModel_(options.kernelCompileSeconds, options.irCacheSavings)
{
    PB_ASSERT(options_.populationSize >= 1, "population must be >= 1");
    PB_ASSERT(options_.minInputSize >= 1 &&
                  options_.minInputSize <= options_.maxInputSize,
              "bad input size range");
    PB_ASSERT(options_.sizeGrowthFactor >= 2, "growth factor must be >= 2");
    PB_ASSERT(options_.generationsPerSize >= 1,
              "generations per size must be >= 1");

    mutators_ = generateMutators(seed_);
    PB_ASSERT(!mutators_.empty(), "config has nothing to tune");

    // Exponentially growing testing input sizes (Section 5.2).
    for (int64_t s = options_.minInputSize; s < options_.maxInputSize;
         s *= options_.sizeGrowthFactor)
        sizes_.push_back(s);
    sizes_.push_back(options_.maxInputSize);

    population_.push_back({seed_, 0.0});
}

int
TuningSession::totalSteps() const
{
    return static_cast<int>(sizes_.size()) * options_.generationsPerSize;
}

int
TuningSession::completedSteps() const
{
    return static_cast<int>(sizeIndex_) * options_.generationsPerSize +
           generation_;
}

int64_t
TuningSession::currentInputSize() const
{
    return sizes_[std::min(sizeIndex_, sizes_.size() - 1)];
}

std::vector<double>
TuningSession::measureBatch(const std::vector<Config> &configs,
                            int64_t size)
{
    const size_t count = configs.size();
    std::vector<double> seconds(count, 0.0);
    std::vector<uint64_t> fingerprints(count, 0);
    std::vector<size_t> duplicateOf(count, SIZE_MAX);
    std::vector<size_t> evalIndex; // configs that really run
    std::unordered_map<uint64_t, size_t> firstInBatch;
    const bool useCache = options_.cacheEvaluations;

    for (size_t i = 0; i < count; ++i) {
        if (!useCache) {
            evalIndex.push_back(i);
            continue;
        }
        uint64_t fp = EvaluationCache::fingerprint(configs[i]);
        fingerprints[i] = fp;
        if (std::optional<double> cached =
                cache_.lookupFingerprint(fp, size)) {
            seconds[i] = *cached;
            ++report_.cacheHits;
            continue;
        }
        // L1 miss: probe the process-wide L2 before paying for an
        // evaluation. A hit is bit-identical to what the evaluator
        // would return (deterministic per scope), so promoting it into
        // the L1 changes accounting, never the search.
        if (shared_ != nullptr) {
            if (std::optional<double> sharedValue =
                    shared_->lookup(sharedScope_, size, fp,
                                    sharedOwner_)) {
                cache_.insertFingerprint(fp, size, *sharedValue);
                seconds[i] = *sharedValue;
                ++report_.cacheHits;
                ++sharedHits_;
                continue;
            }
            ++sharedMisses_;
        }
        auto [it, inserted] = firstInBatch.emplace(fp, i);
        if (!inserted) {
            duplicateOf[i] = it->second;
            continue;
        }
        evalIndex.push_back(i);
    }

    if (!evalIndex.empty()) {
        std::vector<Config> pending;
        pending.reserve(evalIndex.size());
        for (size_t i : evalIndex)
            pending.push_back(configs[i]);

        // The generation-level batch: one evaluator call for every
        // config the cache could not answer.
        std::vector<double> measured =
            evaluator_.evaluateBatch(pending, size);
        PB_ASSERT(measured.size() == pending.size(),
                  "evaluator returned " << measured.size()
                                        << " results for a batch of "
                                        << pending.size());

        for (size_t k = 0; k < evalIndex.size(); ++k) {
            size_t i = evalIndex[k];
            // Section 5.4 accounting: each evaluation is a fresh
            // test-process run — live programs are gone, only the IR
            // cache survives. Identical kernel sources within one
            // configuration are compiled (and priced) once.
            compileModel_.endRun();
            double compile = 0.0;
            std::unordered_set<std::string> uniqueSources;
            for (const std::string &src :
                 evaluator_.kernelSources(configs[i], size))
                if (uniqueSources.insert(src).second)
                    compile += compileModel_.compile(src);
            report_.compileSeconds += compile;

            double secs = measured[k];
            ++report_.evaluations;
            if (std::isnan(secs)) {
                // The engine gave up after its retry budget: an
                // environment fault, not a property of the config.
                // Price as worst cost for this generation only — a
                // NaN must never enter the cache as a real result.
                ++report_.evaluationFailures;
                report_.tuningSeconds += compile;
                seconds[i] = std::numeric_limits<double>::infinity();
                continue;
            }
            double testing = std::isfinite(secs)
                                 ? secs * options_.trialsPerEvaluation
                                 : 0.0;
            report_.tuningSeconds += compile + testing;
            if (useCache) {
                cache_.insertFingerprint(fingerprints[i], size, secs);
                // Publish finite results for other sessions; +inf
                // (infeasible) stays in the private L1 — recomputing
                // it elsewhere is cheap and deterministic, and the
                // shared tier never has to serialize non-finite
                // values. NaN never reaches this line (above).
                if (shared_ != nullptr && std::isfinite(secs)) {
                    shared_->publish(sharedScope_, size,
                                     fingerprints[i], secs,
                                     sharedOwner_);
                    ++sharedPublishes_;
                }
            }
            seconds[i] = secs;
        }
    }

    for (size_t i = 0; i < count; ++i)
        if (duplicateOf[i] != SIZE_MAX) {
            seconds[i] = seconds[duplicateOf[i]];
            ++report_.cacheHits; // in-batch duplicate: never re-run
        }
    return seconds;
}

bool
TuningSession::step()
{
    if (done())
        return false;
    const int64_t size = sizes_[sizeIndex_];

    if (generation_ == 0) {
        // Entering a new size: scores at smaller sizes are never
        // consulted again, and survivors must be re-measured here.
        cache_.invalidateBelow(size);
        std::vector<Config> survivors;
        survivors.reserve(population_.size());
        for (const Member &member : population_)
            survivors.push_back(member.config);
        std::vector<double> scores = measureBatch(survivors, size);
        for (size_t i = 0; i < population_.size(); ++i)
            population_[i].seconds = scores[i];
    }

    // Mutate first (the RNG draws are the search trajectory), then
    // evaluate every changed child as one batch, then select — the
    // same order of draws and comparisons as the serial loop.
    const size_t parents = population_.size();
    std::vector<Config> children;
    std::vector<size_t> childParent;
    for (size_t p = 0; p < parents; ++p) {
        Config child = population_[p].config;
        // Mostly single mutations; occasionally chain several so
        // coupled choices (e.g. an algorithm switch that only pays off
        // together with a backend switch) can be crossed in one step.
        int chain = 1;
        while (chain < 4 && rng_.chance(0.35))
            ++chain;
        bool changed = false;
        for (int m = 0; m < chain; ++m) {
            const Mutator &mutator = *mutators_[static_cast<size_t>(
                rng_.uniformInt(0,
                                static_cast<int64_t>(mutators_.size()) -
                                    1))];
            changed |= mutator.apply(child, rng_, size);
        }
        if (!changed)
            continue;
        children.push_back(std::move(child));
        childParent.push_back(p);
    }

    std::vector<double> childSeconds = measureBatch(children, size);

    for (size_t k = 0; k < children.size(); ++k) {
        size_t p = childParent[k];
        // Asexual selection: the child joins the population only if it
        // outperforms the parent it was created from.
        if (childSeconds[k] < population_[p].seconds) {
            ++report_.mutationsAccepted;
            population_.push_back(
                {std::move(children[k]), childSeconds[k]});
        } else {
            ++report_.mutationsRejected;
        }
    }

    // Prune by performance.
    std::stable_sort(population_.begin(), population_.end(),
                     [](const Member &a, const Member &b) {
                         return a.seconds < b.seconds;
                     });
    if (population_.size() > static_cast<size_t>(options_.populationSize))
        population_.resize(static_cast<size_t>(options_.populationSize));

    ++generation_;
    if (generation_ >= options_.generationsPerSize) {
        PB_DEBUG("tuner size " << size << ": best "
                               << population_.front().seconds << "s");
        generation_ = 0;
        ++sizeIndex_;
    }
    emitProgress();
    return !done();
}

void
TuningSession::emitProgress()
{
    if (!progress_)
        return;
    SessionProgress progress;
    progress.inputSize =
        sizes_[sizeIndex_ > 0 && generation_ == 0 ? sizeIndex_ - 1
                                                  : sizeIndex_];
    progress.generation =
        generation_ == 0 ? options_.generationsPerSize : generation_;
    progress.generationsPerSize = options_.generationsPerSize;
    progress.completedSteps = completedSteps();
    progress.totalSteps = totalSteps();
    progress.bestSeconds = population_.front().seconds;
    progress.evaluations = report_.evaluations;
    progress.cacheHits = report_.cacheHits;
    progress_(progress);
}

TuningResult
TuningSession::run()
{
    while (step()) {
    }
    PB_ASSERT(std::isfinite(population_.front().seconds),
              "no valid configuration found");
    report_.best = population_.front().config;
    report_.bestSeconds = population_.front().seconds;
    return report_;
}

TuningResult
TuningSession::run(int maxSteps)
{
    for (int i = 0; i < maxSteps && !done(); ++i)
        step();
    // A budget that completes the search must pass the same validity
    // guard as an unbounded run (run() on a done session only checks
    // and finalizes the report).
    if (done())
        return run();
    return result();
}

TuningResult
TuningSession::result() const
{
    TuningResult snapshot = report_;
    snapshot.best = population_.front().config;
    snapshot.bestSeconds = population_.front().seconds;
    return snapshot;
}

SessionIntrospection
TuningSession::introspect() const
{
    SessionIntrospection view;
    view.done = done();
    view.completedSteps = completedSteps();
    view.totalSteps = totalSteps();
    view.generation = generation_;
    view.generationsPerSize = options_.generationsPerSize;
    view.currentInputSize = currentInputSize();
    view.populationSize = population_.size();
    view.bestSeconds = population_.front().seconds;
    view.evaluations = report_.evaluations;
    view.mutationsAccepted = report_.mutationsAccepted;
    view.mutationsRejected = report_.mutationsRejected;
    view.cacheHits = report_.cacheHits;
    view.evaluationFailures = report_.evaluationFailures;
    view.tuningSeconds = report_.tuningSeconds;
    view.compileSeconds = report_.compileSeconds;
    view.cacheStats = cache_.stats();
    view.sharedHits = sharedHits_;
    view.sharedMisses = sharedMisses_;
    view.sharedPublishes = sharedPublishes_;
    return view;
}

void
TuningSession::attachSharedCache(cache::SharedEvaluationCache *cache,
                                 uint64_t scope)
{
    shared_ = cache;
    sharedScope_ = scope;
    sharedOwner_ = cache != nullptr ? cache->registerOwner() : 0;
}

void
TuningSession::onProgress(ProgressCallback callback)
{
    progress_ = std::move(callback);
}

// ---- Checkpointing -----------------------------------------------------

namespace {

const char *const kVersionKey = "session.version";
const char *const kSchemaKey = "session.schema";

std::string
memberPrefix(size_t index)
{
    return "population." + std::to_string(index) + ".";
}

} // namespace

KvFile
TuningSession::checkpointKv() const
{
    KvFile kv;
    kv.setInt(kVersionKey, 1);
    kv.set(kSchemaKey,
           std::to_string(EvaluationCache::fingerprint(seed_)));
    // The options that shape the search trajectory: load() rejects a
    // checkpoint whose schedule disagrees with the session's, since a
    // mismatched cursor would silently corrupt or truncate the search.
    kv.setInt("session.populationSize", options_.populationSize);
    kv.setInt("session.generationsPerSize", options_.generationsPerSize);
    kv.setInt("session.minInputSize", options_.minInputSize);
    kv.setInt("session.maxInputSize", options_.maxInputSize);
    kv.setInt("session.sizeGrowthFactor", options_.sizeGrowthFactor);
    kv.setInt("session.sizeIndex", static_cast<int64_t>(sizeIndex_));
    kv.setInt("session.generation", generation_);
    kv.setInt("session.evaluations", report_.evaluations);
    kv.setInt("session.mutationsAccepted", report_.mutationsAccepted);
    kv.setInt("session.mutationsRejected", report_.mutationsRejected);
    kv.setInt("session.cacheHits", report_.cacheHits);
    kv.setInt("session.evaluationFailures", report_.evaluationFailures);
    kv.setDouble("session.tuningSeconds", report_.tuningSeconds);
    kv.setDouble("session.compileSeconds", report_.compileSeconds);

    // The twister's full state as text, which is what makes the
    // resumed mutation sequence identical to the uninterrupted one.
    kv.set("session.rng", rng_.engine().state());

    kv.setInt("session.population",
              static_cast<int64_t>(population_.size()));
    for (size_t i = 0; i < population_.size(); ++i) {
        const std::string prefix = memberPrefix(i);
        kv.setDouble(prefix + "seconds", population_[i].seconds);
        kv.setSection(prefix, population_[i].config.toKv());
    }
    return kv;
}

void
TuningSession::save(const std::string &path) const
{
    checkpointKv().save(path);
}

void
TuningSession::load(const std::string &path)
{
    KvFile kv = KvFile::load(path);
    if (kv.getIntOr(kVersionKey, -1) != 1)
        PB_FATAL("'" << path << "' is not a TuningSession checkpoint");
    if (kv.get(kSchemaKey) !=
        std::to_string(EvaluationCache::fingerprint(seed_)))
        PB_FATAL("checkpoint '"
                 << path
                 << "' was saved for a different seed configuration");
    if (kv.getInt("session.populationSize") != options_.populationSize ||
        kv.getInt("session.generationsPerSize") !=
            options_.generationsPerSize ||
        kv.getInt("session.minInputSize") != options_.minInputSize ||
        kv.getInt("session.maxInputSize") != options_.maxInputSize ||
        kv.getInt("session.sizeGrowthFactor") != options_.sizeGrowthFactor)
        PB_FATAL("checkpoint '"
                 << path
                 << "' was saved under different tuner options (search "
                    "schedule mismatch)");

    // From here on the checkpoint's *content* is being trusted; a
    // truncated or hand-damaged file is a user-input problem, so every
    // violation raises a clean FatalError rather than tripping an
    // internal-invariant assert.
    int64_t sizeIndex = kv.getInt("session.sizeIndex");
    int64_t generation = kv.getInt("session.generation");
    if (sizeIndex < 0 || sizeIndex > static_cast<int64_t>(sizes_.size()))
        PB_FATAL("checkpoint '" << path << "' size index " << sizeIndex
                                << " out of range");
    if (generation < 0 || generation >= options_.generationsPerSize)
        PB_FATAL("checkpoint '" << path << "' generation " << generation
                                << " out of range");
    sizeIndex_ = static_cast<size_t>(sizeIndex);
    generation_ = static_cast<int>(generation);

    report_ = TuningResult{};
    report_.evaluations = kv.getInt("session.evaluations");
    report_.mutationsAccepted = kv.getInt("session.mutationsAccepted");
    report_.mutationsRejected = kv.getInt("session.mutationsRejected");
    report_.cacheHits = kv.getInt("session.cacheHits");
    report_.evaluationFailures = kv.getInt("session.evaluationFailures");
    report_.tuningSeconds = kv.getDouble("session.tuningSeconds");
    report_.compileSeconds = kv.getDouble("session.compileSeconds");

    if (!rng_.engine().setState(kv.get("session.rng")))
        PB_FATAL("checkpoint '" << path << "' has a corrupt RNG state");

    int64_t count = kv.getInt("session.population");
    if (count < 1)
        PB_FATAL("checkpoint '" << path << "' population is empty");
    population_.clear();
    for (int64_t i = 0; i < count; ++i) {
        KvFile values = kv.section(memberPrefix(static_cast<size_t>(i)));
        Member member;
        member.config = seed_;
        member.config.loadValues(values);
        member.seconds = values.getDouble("seconds");
        population_.push_back(std::move(member));
    }

    // A resumed search is a fresh process: memoized evaluations and
    // live JIT programs are gone. Re-deriving them costs only modeled
    // accounting time; the champion is unaffected.
    cache_.clear();
    compileModel_.endRun();
}

} // namespace tuner
} // namespace petabricks

/**
 * TuningSession::load() failure paths: a truncated or corrupt
 * checkpoint, a seed-fingerprint mismatch, or mismatched tuner options
 * must each raise a clean FatalError — never an internal-invariant
 * panic or undefined behavior. The service leans on this: its spool
 * directory contents survive daemon crashes and user meddling, and a
 * damaged checkpoint must fail one `resume`, not take out the daemon.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <string>

#include "support/error.h"
#include "support/kvfile.h"
#include "tuner/session.h"

namespace petabricks {
namespace tuner {
namespace {

/** Convex bowl over one tunable: optimum at lws = 128. */
class BowlEvaluator : public Evaluator
{
  public:
    double
    evaluate(const Config &config, int64_t) override
    {
        double lws = static_cast<double>(config.tunableValue("lws"));
        double err = std::log2(lws / 128.0);
        return 1.0 + err * err;
    }
};

TunerOptions
fastOptions()
{
    TunerOptions opts;
    opts.populationSize = 6;
    opts.generationsPerSize = 6;
    opts.minInputSize = 64;
    opts.maxInputSize = 1 << 16;
    opts.sizeGrowthFactor = 4;
    opts.seed = 42;
    return opts;
}

Config
bowlSeed()
{
    Config seed;
    seed.addTunable({"lws", 1, 1024, 2, false});
    return seed;
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Fixture: a mid-search checkpoint plus a fresh session to load it
 * into, with helpers that re-save a damaged variant. */
class CheckpointErrors : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = tempPath("pb_ckpt_errors.kv");
        BowlEvaluator eval;
        TuningSession donor(eval, bowlSeed(), fastOptions());
        donor.run(3);
        donor.save(path_);
        checkpoint_ = KvFile::load(path_);
    }

    /** A pristine session the (possibly damaged) file is loaded into. */
    void
    expectLoadThrows()
    {
        BowlEvaluator eval;
        TuningSession session(eval, bowlSeed(), fastOptions());
        EXPECT_THROW(session.load(path_), FatalError);
    }

    /** Overwrite the checkpoint with @p kv. */
    void
    rewrite(const KvFile &kv)
    {
        kv.save(path_);
    }

    std::string path_;
    KvFile checkpoint_;
};

} // namespace

TEST_F(CheckpointErrors, IntactCheckpointLoadsCleanly)
{
    // Sanity: the fixture's checkpoint is valid before we damage it.
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    session.load(path_);
    EXPECT_EQ(session.completedSteps(), 3);
}

TEST_F(CheckpointErrors, MissingFileIsAFatalError)
{
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    EXPECT_THROW(session.load(tempPath("pb_ckpt_nonexistent.kv")),
                 FatalError);
}

TEST_F(CheckpointErrors, NonCheckpointKvFileIsRejected)
{
    KvFile other;
    other.set("benchmark", "Sort"); // valid kvfile, not a checkpoint
    rewrite(other);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, GarbageBytesAreRejected)
{
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << "\x7f\x45LF not a kvfile at all\nkey without value\n";
    out.close();
    expectLoadThrows();
}

TEST_F(CheckpointErrors, TruncatedFileIsRejected)
{
    // Chop the serialized text mid-way: the population entries the
    // header promises are gone.
    std::string text = checkpoint_.toString();
    std::ofstream out(path_, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
    out.close();
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    try {
        session.load(path_);
        FAIL() << "truncated checkpoint loaded without error";
    } catch (const FatalError &) {
        // Clean rejection path (which key is missed first depends on
        // sort order; any FatalError is correct).
    }
}

TEST_F(CheckpointErrors, OneDigitEditIsRejected)
{
    // A bit-flipped but still parseable checkpoint: one digit of a
    // member's cost changes, every key and the syntax stay valid. Only
    // the file checksum can tell.
    std::ifstream in(path_);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    size_t pos = text.find("population.0.seconds = ");
    ASSERT_NE(pos, std::string::npos);
    pos = text.find_first_of("0123456789", pos + 23);
    ASSERT_NE(pos, std::string::npos);
    text[pos] = text[pos] == '9' ? '8' : static_cast<char>(text[pos] + 1);
    std::ofstream(path_, std::ios::trunc) << text;
    expectLoadThrows();
}

TEST_F(CheckpointErrors, MismatchedSeedFingerprintIsRejected)
{
    // Same file, but the loading session tunes a different config
    // schema — the seed fingerprint must catch it.
    Config otherSeed;
    otherSeed.addTunable({"blockSize", 1, 64, 2, false});
    BowlEvaluator eval;
    TuningSession session(eval, otherSeed, fastOptions());
    EXPECT_THROW(session.load(path_), FatalError);
}

TEST_F(CheckpointErrors, MismatchedTunerOptionsAreRejected)
{
    // The checkpoint's cursor only makes sense under the schedule it
    // was saved with; every schedule-shaping option must match.
    BowlEvaluator eval;
    TunerOptions changed = fastOptions();
    changed.generationsPerSize = 9;
    TuningSession session(eval, bowlSeed(), changed);
    EXPECT_THROW(session.load(path_), FatalError);

    changed = fastOptions();
    changed.populationSize = 3;
    TuningSession mismatchedPop(eval, bowlSeed(), changed);
    EXPECT_THROW(mismatchedPop.load(path_), FatalError);

    changed = fastOptions();
    changed.maxInputSize = 1 << 18;
    TuningSession mismatchedMax(eval, bowlSeed(), changed);
    EXPECT_THROW(mismatchedMax.load(path_), FatalError);
}

TEST_F(CheckpointErrors, CorruptRngStateIsRejected)
{
    KvFile damaged = checkpoint_;
    damaged.set("session.rng", "not a mersenne twister dump");
    rewrite(damaged);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, OutOfRangeCursorIsRejected)
{
    KvFile damaged = checkpoint_;
    damaged.setInt("session.sizeIndex", 9999);
    rewrite(damaged);
    expectLoadThrows();

    damaged = checkpoint_;
    damaged.setInt("session.generation", -1);
    rewrite(damaged);
    expectLoadThrows();

    damaged = checkpoint_;
    damaged.setInt("session.generation", 6); // == generationsPerSize
    rewrite(damaged);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, EmptyPopulationIsRejected)
{
    KvFile damaged = checkpoint_;
    damaged.setInt("session.population", 0);
    rewrite(damaged);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, FailedLoadLeavesSessionUsable)
{
    // A rejected checkpoint must not leave the session half-restored:
    // after the error it still steps and finishes like a fresh one.
    BowlEvaluator reference;
    TuningSession pristine(reference, bowlSeed(), fastOptions());
    TuningResult expected = pristine.run();

    KvFile damaged = checkpoint_;
    damaged.set("session.schema", "12345"); // wrong fingerprint
    rewrite(damaged);
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    EXPECT_THROW(session.load(path_), FatalError);
    TuningResult result = session.run();
    EXPECT_EQ(result.best.toKv(), expected.best.toKv());
    EXPECT_EQ(result.bestSeconds, expected.bestSeconds);
}

} // namespace tuner
} // namespace petabricks

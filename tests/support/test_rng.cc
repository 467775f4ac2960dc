#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "support/rng.h"

namespace petabricks {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000000), b.uniformInt(0, 1000000));
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniformInt(0, 1000000) == b.uniformInt(0, 1000000))
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.uniformInt(-3, 12);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 12);
    }
}

TEST(Rng, UniformRealStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformReal(0.25, 0.75);
        EXPECT_GE(v, 0.25);
        EXPECT_LT(v, 0.75);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, LognormalScaleMedianNearOne)
{
    // Halving should be about as common as doubling (paper Section 5.2).
    Rng rng(42);
    const int64_t base = 1 << 20;
    int above = 0, total = 4000;
    for (int i = 0; i < total; ++i)
        if (rng.lognormalScale(base) > base)
            ++above;
    double frac = static_cast<double>(above) / total;
    EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(Rng, LognormalScaleNeverBelowOne)
{
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        EXPECT_GE(rng.lognormalScale(1), 1);
}

TEST(Rng, LognormalSpreadMatchesSigma)
{
    // With sigma = ln 2, ~68% of draws land within [base/2, base*2].
    Rng rng(9);
    const int64_t base = 1 << 16;
    int within = 0, total = 4000;
    for (int i = 0; i < total; ++i) {
        int64_t v = rng.lognormalScale(base);
        if (v >= base / 2 && v <= base * 2)
            ++within;
    }
    double frac = static_cast<double>(within) / total;
    EXPECT_NEAR(frac, 0.68, 0.06);
}

// ---- Mt19937_64 against std::mt19937_64 --------------------------------

const uint64_t kSeeds[] = {0, 1, 5489, 0x9e3779b97f4a7c15ull,
                           ~uint64_t(0)};
// Around each regeneration of the 312-word state, and well past it.
const int kDrawCounts[] = {0, 1, 311, 312, 313, 624, 1000, 4999};

std::string
streamed(const std::mt19937_64 &engine)
{
    std::ostringstream out;
    out << engine;
    return out.str();
}

TEST(Mt19937_64, DrawsStateTextAndRoundTripMatchTheStandardEngine)
{
    for (uint64_t seed : kSeeds)
        for (int draws : kDrawCounts) {
            std::mt19937_64 reference(seed);
            Mt19937_64 engine(seed);
            for (int i = 0; i < draws; ++i)
                ASSERT_EQ(engine(), reference())
                    << "seed " << seed << " draw " << i;
            const std::string text = engine.state();
            ASSERT_EQ(text, streamed(reference))
                << "seed " << seed << " after " << draws << " draws";

            // The text restores the same engine, which then continues
            // the reference stream.
            Mt19937_64 restored(12345);
            ASSERT_TRUE(restored.setState(text));
            EXPECT_EQ(restored, engine);
            EXPECT_EQ(restored.state(), text);
            for (int i = 0; i < 400; ++i)
                ASSERT_EQ(restored(), reference());

            // And the standard engine reads it as its own.
            std::mt19937_64 reread;
            std::istringstream in(text);
            in >> reread;
            ASSERT_FALSE(in.fail());
            Mt19937_64 again(seed);
            ASSERT_TRUE(again.setState(text));
            for (int i = 0; i < 400; ++i)
                ASSERT_EQ(again(), reread());
        }
}

TEST(Mt19937_64, DistributionsDrawTheSameValues)
{
    // Rng's distributions see only result_type, min() and max(), so
    // they must consume the two engines identically.
    std::mt19937_64 reference(0x9e3779b97f4a7c15ull);
    Rng rng;
    for (int i = 0; i < 2000; ++i) {
        EXPECT_EQ(rng.uniformInt(-7, 1 << 20),
                  std::uniform_int_distribution<int64_t>(-7, 1 << 20)(
                      reference));
        EXPECT_EQ(rng.uniformReal(0.25, 4.0),
                  std::uniform_real_distribution<double>(0.25, 4.0)(
                      reference));
        EXPECT_EQ(rng.chance(0.35),
                  std::bernoulli_distribution(0.35)(reference));
        const double factor = std::lognormal_distribution<double>(
            0.0, 0.6931471805599453)(reference);
        const double scaled = 4096.0 * factor;
        EXPECT_EQ(rng.lognormalScale(4096),
                  scaled < 1.0 ? 1 : static_cast<int64_t>(scaled));
    }
}

TEST(Mt19937_64, SetStateRejectsMalformedTextAndKeepsTheEngine)
{
    Mt19937_64 engine(7);
    for (int i = 0; i < 100; ++i)
        engine();
    const std::string good = engine.state();
    const size_t lastSpace = good.rfind(' ');
    const std::string words = good.substr(0, lastSpace); // 312 numbers

    const std::string bad[] = {
        "",
        "not a mersenne twister dump",
        words,                             // index missing
        good + " 0",                       // one number too many
        good + " ",                        // trailing separator
        " " + good,                        // leading separator
        words + "  100",                   // double separator
        words + " 313",                    // index past the state
        words + " -1",                     // signed index
        "-" + good,                        // signed word
        "+" + good,                        // explicit plus
        "18446744073709551616" + good.substr(good.find(' ')), // 2^64
        words + " 1x",                     // junk after the index
        words + "\t100",                   // tab separator
    };
    for (const std::string &text : bad) {
        Mt19937_64 copy = engine;
        EXPECT_FALSE(copy.setState(text)) << "'" << text << "'";
        EXPECT_EQ(copy, engine);
    }
    Mt19937_64 copy(1);
    EXPECT_TRUE(copy.setState(words + " 312"));
    EXPECT_TRUE(copy.setState(good));
    EXPECT_EQ(copy, engine);
}

} // namespace
} // namespace petabricks

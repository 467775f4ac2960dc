/**
 * @file
 * Deterministic random number generation for the autotuner and workloads.
 *
 * All randomized components (mutators, workload generators, victim
 * selection in tests) draw from an explicitly seeded Rng so experiments
 * are reproducible run-to-run, a requirement for regenerating the paper's
 * figures deterministically.
 */

#ifndef PETABRICKS_SUPPORT_RNG_H
#define PETABRICKS_SUPPORT_RNG_H

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

namespace petabricks {

/**
 * MT19937-64 with the state layout of libstdc++'s std::mt19937_64: 312
 * words plus the index of the next word to temper. Seeding and draws
 * are bit-identical to std::mt19937_64, so every distribution gives the
 * same values. Unlike the standard engine, its full state reads and
 * writes as text without iostreams: state() renders exactly the bytes
 * `operator<<` writes, and setState() reads them back.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;
    static constexpr size_t kStateWords = 312;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    explicit Mt19937_64(result_type seed) { this->seed(seed); }

    /** Same initialisation as std::mt19937_64::seed(). */
    void
    seed(result_type value)
    {
        words_[0] = value;
        for (size_t i = 1; i < kStateWords; ++i) {
            const uint64_t prev = words_[i - 1];
            words_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
        }
        next_ = kStateWords;
    }

    result_type
    operator()()
    {
        if (next_ >= kStateWords)
            twist();
        uint64_t z = words_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        z ^= z >> 43;
        return z;
    }

    /** The 312 words and the index in decimal, separated by single
     * spaces: the bytes std::mt19937_64's operator<< writes. */
    std::string state() const;

    /**
     * Restore a state() text. Returns false, leaving the engine
     * unchanged, unless @p text is exactly 313 decimal numbers
     * separated by single spaces with an index of at most 312.
     */
    bool setState(std::string_view text);

    bool operator==(const Mt19937_64 &other) const = default;

  private:
    /** Regenerate all 312 words (libstdc++'s _M_gen_rand). */
    void twist();

    uint64_t words_[kStateWords];
    size_t next_;
};

/**
 * Seeded pseudo-random source over Mt19937_64.
 *
 * Provides the distributions the autotuner needs, notably the lognormal
 * scaling used by cutoff mutators (Section 5.2 of the paper: "a value is
 * equally likely be halved as it is to be doubled").
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        std::uniform_int_distribution<int64_t> dist(lo, hi);
        return dist(engine_);
    }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo, double hi)
    {
        std::uniform_real_distribution<double> dist(lo, hi);
        return dist(engine_);
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        std::bernoulli_distribution dist(p);
        return dist(engine_);
    }

    /**
     * Scale @p value by a lognormal factor with median 1.
     *
     * @param value value to scale; must be positive for a useful result.
     * @param sigma spread; ln(2) makes halving and doubling one-sigma
     *        events, matching the paper's mutator description.
     */
    int64_t
    lognormalScale(int64_t value, double sigma = 0.6931471805599453)
    {
        std::lognormal_distribution<double> dist(0.0, sigma);
        double scaled = static_cast<double>(value) * dist(engine_);
        if (scaled < 1.0)
            return 1;
        return static_cast<int64_t>(scaled);
    }

    /** Underlying engine, for std::shuffle and custom distributions,
     * and for checkpointing its state as text. */
    Mt19937_64 &engine() { return engine_; }
    const Mt19937_64 &engine() const { return engine_; }

  private:
    Mt19937_64 engine_;
};

} // namespace petabricks

#endif // PETABRICKS_SUPPORT_RNG_H

/**
 * @file
 * Deterministic random number generation for reproducible runs.
 *
 * All stochastic behaviour in the simulator (measurement sampling,
 * SPSA perturbations, workload generation) draws from a Rng seeded
 * explicitly, so identical configurations give identical results.
 */

#ifndef QTENON_SIM_RANDOM_HH
#define QTENON_SIM_RANDOM_HH

#include <cstddef>
#include <cstdint>
#include <random>

namespace qtenon::sim {

namespace mt19937 {

/** Words of MT19937-64 state; one refill produces this many outputs. */
inline constexpr std::size_t stateWords = 312;

/**
 * One whole-block refill: twist @p state in place and write the
 * tempered outputs of the new block to @p out.
 */
using RefillFn = void (*)(std::uint64_t *state, std::uint64_t *out);

/** Initialize @p state from @p seed exactly as std::mt19937_64 does. */
void seedState(std::uint64_t seed, std::uint64_t *state);

/** Portable refill. */
void refillScalar(std::uint64_t *state, std::uint64_t *out);

/**
 * The AVX2 refill, or nullptr when it is not built in or the running
 * CPU lacks AVX2.
 */
RefillFn avx2Refill();

/** The refill engines use: AVX2 when available, else scalar. */
RefillFn activeRefill();

} // namespace mt19937

/**
 * MT19937-64 whose output stream is identical to std::mt19937_64 for
 * the same seed, generated a whole 312-word block at a time (twist
 * and tempering both vectorize). Satisfies UniformRandomBitGenerator,
 * so standard distributions see exactly the values they would see
 * from std::mt19937_64.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    explicit Mt19937_64(result_type seed = 5489u)
    {
        mt19937::seedState(seed, _state);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    result_type
    operator()()
    {
        if (_next == mt19937::stateWords)
            refill();
        return _out[_next++];
    }

  private:
    void refill();

    std::uint64_t _state[mt19937::stateWords];
    std::uint64_t _out[mt19937::stateWords] = {};
    std::size_t _next = mt19937::stateWords;
};

/** A seedable wrapper around a 64-bit Mersenne Twister. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x51a3b5u) : _engine(seed) {}

    /** Uniform in [0, 1); consumes exactly one raw draw. */
    double uniform() { return uniformFromRaw(raw()); }

    /**
     * The value uniform() returns when the engine's next output is
     * @p x. Monotone non-decreasing in @p x.
     */
    static double
    uniformFromRaw(std::uint64_t x)
    {
        struct Fixed {
            using result_type = std::uint64_t;
            static constexpr result_type min() { return Mt19937_64::min(); }
            static constexpr result_type max() { return Mt19937_64::max(); }
            result_type operator()() { return value; }
            result_type value;
        } g{x};
        return std::uniform_real_distribution<double>(0.0, 1.0)(g);
    }

    /** Uniform in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(_engine);
    }

    /** Uniform integer in [0, n). */
    std::uint64_t
    index(std::uint64_t n)
    {
        return std::uniform_int_distribution<std::uint64_t>(
            0, n - 1)(_engine);
    }

    /** Bernoulli trial with success probability @p p. */
    bool coin(double p) { return uniform() < p; }

    /**
     * Integer form of coin(p) for one raw draw x: coin(p) is true
     * exactly when `always || x < below`. Exact because uniform()
     * consumes one draw and is monotone in it; p <= 0 and NaN give
     * never-true, p >= 1 always-true.
     */
    struct CoinThreshold {
        std::uint64_t below = 0;
        bool always = false;
    };
    static CoinThreshold coinThreshold(double p);

    /** Standard normal sample. */
    double
    normal()
    {
        return std::normal_distribution<double>(0.0, 1.0)(_engine);
    }

    /** Rademacher (+1/-1) sample, used by SPSA. */
    double rademacher() { return coin(0.5) ? 1.0 : -1.0; }

    /** Raw 64-bit draw. */
    std::uint64_t raw() { return _engine(); }

    Mt19937_64 &engine() { return _engine; }

  private:
    Mt19937_64 _engine;
};

} // namespace qtenon::sim

#endif // QTENON_SIM_RANDOM_HH

/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All stochastic behaviour in this library flows through Rng so that
 * every experiment is reproducible from a single 64-bit seed.  The
 * engine is xoshiro256** seeded via splitmix64, both public-domain
 * algorithms by Blackman & Vigna.
 */

#ifndef CACHELAB_UTIL_RANDOM_HH
#define CACHELAB_UTIL_RANDOM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace cachelab
{

/**
 * Deterministic random number generator with the distribution helpers
 * the workload models need.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also
 * be used with <random> distributions and std::shuffle.  The draws the
 * workload generators make per reference are defined here, inline.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** @return the next raw 64-bit value. */
    result_type
    operator()()
    {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);

        return result;
    }

    /** @return a uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        CACHELAB_ASSERT(bound != 0, "uniformInt bound must be nonzero");
        // Debiased multiply-shift (Lemire).
        while (true) {
            const std::uint64_t x = (*this)();
            const __uint128_t m = static_cast<__uint128_t>(x) * bound;
            const std::uint64_t low = static_cast<std::uint64_t>(m);
            if (low >= bound || low >= (-bound) % bound)
                return static_cast<std::uint64_t>(m >> 64);
        }
    }

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformRange(std::uint64_t lo, std::uint64_t hi)
    {
        CACHELAB_ASSERT(lo <= hi, "uniformRange requires lo <= hi");
        return lo + uniformInt(hi - lo + 1);
    }

    /** @return a uniform double in [0, 1). */
    double
    uniformReal()
    {
        // 53 random mantissa bits -> [0, 1).
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p (clamped to [0, 1]). */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniformReal() < p;
    }

    /**
     * Sample a geometric distribution: number of successes before the
     * first failure, with mean @p mean (mean >= 0).  One-off form of
     * GeometricSampler; draws repeated at one mean should hold a
     * sampler instead.
     */
    std::uint64_t geometric(double mean);

    /**
     * Sample an index in [0, n) with probability proportional to
     * 1 / (i + 1)^theta — a Zipf-like favouring of low indices that
     * approximates LRU stack-distance locality.
     */
    std::uint64_t zipf(std::uint64_t n, double theta);

    /** Derive an independent child generator (for sub-streams). */
    Rng split();

    /**
     * @return the raw xoshiro256** state, for exact checkpointing.
     * Restoring it with setState() resumes the stream bit for bit.
     */
    const std::array<std::uint64_t, 4> &state() const { return state_; }

    /** Restore a state captured with state(); must not be all zero. */
    void setState(const std::array<std::uint64_t, 4> &state);

  private:
    std::array<std::uint64_t, 4> state_;
};

/**
 * Geometric sampler for one mean: the number of successes before the
 * first failure, by inverse-CDF sampling, with the per-mean
 * denominator log(1 - p_stop) computed once in setMean() instead of
 * per draw.  Draws consume one uniformReal() (none when mean <= 0) and
 * are bit-identical to computing the whole formula per call.
 */
class GeometricSampler
{
  public:
    explicit GeometricSampler(double mean = 0.0) { setMean(mean); }

    /** Change the mean; later draws use the new one. */
    void
    setMean(double mean)
    {
        mean_ = mean;
        if (mean > 0.0) {
            // P(success) each step = mean / (mean + 1) gives E[count] =
            // mean.
            const double p_stop = 1.0 / (mean + 1.0);
            logContinue_ = std::log(1.0 - p_stop);
        }
    }

    double mean() const { return mean_; }

    /** @return one draw with E[count] = mean(). */
    std::uint64_t
    operator()(Rng &rng) const
    {
        if (mean_ <= 0.0)
            return 0;
        const double u = rng.uniformReal();
        return static_cast<std::uint64_t>(std::log(1.0 - u) / logContinue_);
    }

  private:
    double mean_ = 0.0;
    double logContinue_ = 0.0; ///< log(1 - p_stop); valid when mean_ > 0
};

inline std::uint64_t
Rng::geometric(double mean)
{
    return GeometricSampler(mean)(*this);
}

/**
 * Precomputed sampler for the Zipf-like stack-distance distribution.
 *
 * Rng::zipf() recomputes the normalizing constant per call, which is
 * fine for small n; this class builds the CDF once for hot loops.
 *
 * A draw is lower_bound(cdf, u) for u = uniformReal().  A guide table
 * narrows the search: with 2^k buckets, guide[b] = lower_bound(cdf,
 * b / 2^k), and u in bucket b = floor(u * 2^k) has its answer in
 * [guide[b], guide[b + 1]].  Both u * 2^k and b / 2^k are exact in
 * binary, so the guided search returns the plain lower_bound's index
 * for every u; 2^k >= n keeps the expected search to about two CDF
 * entries.
 */
class ZipfSampler
{
  public:
    /** Build the CDF for indices [0, n) with exponent @p theta. */
    ZipfSampler(std::uint64_t n, double theta);

    /** @return a sampled index in [0, n). */
    std::uint64_t
    operator()(Rng &rng) const
    {
        return indexOf(rng.uniformReal());
    }

    /** @return lower_bound(cdf, @p u) for @p u in [0, 1): the index a
     *  draw of @p u maps to. */
    std::uint64_t
    indexOf(double u) const
    {
        const auto bucket = static_cast<std::size_t>(u * bucketScale_);
        const double *first = cdf_.data() + guide_[bucket];
        const double *last = cdf_.data() + guide_[bucket + 1];
        return static_cast<std::uint64_t>(std::lower_bound(first, last, u) -
                                          cdf_.data());
    }

    std::uint64_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_; ///< 2^k + 1 bucket starts
    double bucketScale_ = 1.0;         ///< 2^k
};

} // namespace cachelab

#endif // CACHELAB_UTIL_RANDOM_HH

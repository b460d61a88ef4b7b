/**
 * @file
 * xoshiro256** engine and distribution helpers.
 */

#include "util/random.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace cachelab
{

namespace
{

/** splitmix64 step, used to expand the seed into engine state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

void
Rng::setState(const std::array<std::uint64_t, 4> &state)
{
    CACHELAB_ASSERT(state[0] != 0 || state[1] != 0 || state[2] != 0 ||
                        state[3] != 0,
                    "all-zero xoshiro256** state is a fixed point");
    state_ = state;
}

std::uint64_t
Rng::zipf(std::uint64_t n, double theta)
{
    CACHELAB_ASSERT(n != 0, "zipf needs a nonempty domain");
    double norm = 0.0;
    for (std::uint64_t i = 0; i < n; ++i)
        norm += std::pow(static_cast<double>(i + 1), -theta);
    double u = uniformReal() * norm;
    for (std::uint64_t i = 0; i < n; ++i) {
        u -= std::pow(static_cast<double>(i + 1), -theta);
        if (u <= 0.0)
            return i;
    }
    return n - 1;
}

Rng
Rng::split()
{
    return Rng((*this)() ^ 0xd1b54a32d192ed03ULL);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
{
    CACHELAB_ASSERT(n != 0, "ZipfSampler needs a nonempty domain");
    CACHELAB_ASSERT(n <= UINT32_MAX, "ZipfSampler domain too large");
    cdf_.resize(n);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        acc += std::pow(static_cast<double>(i + 1), -theta);
        cdf_[i] = acc;
    }
    for (auto &v : cdf_)
        v /= acc;

    // 2^k >= n buckets (the KV model's 32 K keys get 2^15); a larger
    // domain stops at 2^16 and searches a few more entries per bucket.
    const int k = std::min(static_cast<int>(std::bit_width(n - 1)), 16);
    const std::size_t buckets = std::size_t{1} << k;
    bucketScale_ = static_cast<double>(buckets);
    guide_.resize(buckets + 1);
    for (std::size_t b = 0; b <= buckets; ++b) {
        const double edge = static_cast<double>(b) / bucketScale_;
        guide_[b] = static_cast<std::uint32_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), edge) - cdf_.begin());
    }
}

} // namespace cachelab

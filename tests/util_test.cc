/**
 * @file
 * Unit tests for src/util: bit helpers, PRNG, formatting, CSV.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <vector>

#include "arch/profile.hh"
#include "util/bits.hh"
#include "util/csv.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace cachelab
{
namespace
{

TEST(Bits, PowerOfTwoDetection)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1ULL << 63), 63u);
}

TEST(Bits, AlignDownAndUp)
{
    EXPECT_EQ(alignDown(0x1234, 16), 0x1230u);
    EXPECT_EQ(alignDown(0x1230, 16), 0x1230u);
    EXPECT_EQ(alignUp(0x1234, 16), 0x1240u);
    EXPECT_EQ(alignUp(0x1240, 16), 0x1240u);
    EXPECT_EQ(alignDown(0xffff, 1), 0xffffu);
}

TEST(Bits, RoundUpPowerOfTwo)
{
    EXPECT_EQ(roundUpPowerOfTwo(1), 1u);
    EXPECT_EQ(roundUpPowerOfTwo(3), 4u);
    EXPECT_EQ(roundUpPowerOfTwo(4), 4u);
    EXPECT_EQ(roundUpPowerOfTwo(1000), 1024u);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto va = a();
        EXPECT_EQ(va, b());
        (void)c;
    }
    Rng d(42);
    Rng e(43);
    int differing = 0;
    for (int i = 0; i < 100; ++i)
        differing += d() != e();
    EXPECT_GT(differing, 90);
}

TEST(Rng, UniformIntInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    std::array<int, 8> counts{};
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.uniformInt(8)];
    for (int c : counts) {
        EXPECT_GT(c, 800);
        EXPECT_LT(c, 1200);
    }
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniformReal();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, GeometricMeanApproximatesTarget)
{
    Rng rng(9);
    const double target = 12.0;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(target));
    EXPECT_NEAR(sum / n, target, target * 0.05);
}

TEST(Rng, GeometricZeroMean)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(0.0), 0u);
}

/** The geometric draw as Rng::geometric() once computed it per call. */
std::uint64_t
literalGeometric(Rng &rng, double mean)
{
    if (mean <= 0.0)
        return 0;
    const double p_stop = 1.0 / (mean + 1.0);
    const double u = rng.uniformReal();
    const double count = std::log(1.0 - u) / std::log(1.0 - p_stop);
    return static_cast<std::uint64_t>(count);
}

/** Means the generators use, plus the extremes. */
std::vector<double>
geometricMeans()
{
    std::vector<double> means = {0.0, 1e-9, 0.5, 10.0, 12.0, 768.0, 1e9};
    for (Machine m : allMachines()) {
        const ArchProfile &a = archProfile(m);
        means.push_back(std::max(a.meanInstrBytes - a.minInstrBytes, 0.0));
    }
    return means;
}

TEST(GeometricSampler, MatchesLiteralFormulaDrawForDraw)
{
    for (double mean : geometricMeans()) {
        const GeometricSampler sampler(mean);
        Rng a(77), b(77), c(77);
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t want = literalGeometric(a, mean);
            ASSERT_EQ(sampler(b), want) << "mean " << mean << " draw " << i;
            ASSERT_EQ(c.geometric(mean), want) << "mean " << mean;
        }
        EXPECT_EQ(a.state(), b.state()) << "mean " << mean;
        EXPECT_EQ(a.state(), c.state()) << "mean " << mean;
    }
}

TEST(GeometricSampler, MeanChangedBetweenDrawsMatchesLiteralFormula)
{
    const std::vector<double> means = geometricMeans();
    GeometricSampler sampler;
    Rng a(5), b(5), pick(6);
    for (int i = 0; i < 20000; ++i) {
        const double mean = means[pick.uniformInt(means.size())];
        sampler.setMean(mean);
        EXPECT_EQ(sampler.mean(), mean);
        ASSERT_EQ(sampler(b), literalGeometric(a, mean))
            << "mean " << mean << " draw " << i;
    }
    EXPECT_EQ(a.state(), b.state());
}

/** The CDF ZipfSampler builds, computed the same way. */
std::vector<double>
literalZipfCdf(std::uint64_t n, double theta)
{
    std::vector<double> cdf(n);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        acc += std::pow(static_cast<double>(i + 1), -theta);
        cdf[i] = acc;
    }
    for (auto &v : cdf)
        v /= acc;
    return cdf;
}

TEST(ZipfSampler, GuidedSearchMatchesPlainLowerBound)
{
    for (std::uint64_t n : {1u, 2u, 48u, 192u, 256u, 32768u}) {
        for (double theta : {0.0, 0.45, 0.9, 1.0}) {
            const ZipfSampler sampler(n, theta);
            const std::vector<double> cdf = literalZipfCdf(n, theta);
            auto check = [&](double u) {
                if (u < 0.0 || u >= 1.0)
                    return;
                const auto want = static_cast<std::uint64_t>(
                    std::lower_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
                ASSERT_EQ(sampler.indexOf(u), want)
                    << "n " << n << " theta " << theta << " u " << u;
            };
            // Every bucket edge b / 2^k for any table of up to 2^16
            // buckets, and one ulp either side of it.
            for (std::uint32_t b = 0; b < (1u << 16); ++b) {
                const double edge = std::ldexp(static_cast<double>(b), -16);
                check(edge);
                check(std::nextafter(edge, 0.0));
                check(std::nextafter(edge, 1.0));
            }
            // Every CDF value and one ulp either side of it.
            for (double c : cdf) {
                check(c);
                check(std::nextafter(c, 0.0));
                check(std::nextafter(c, 1.0));
            }
            // Seeded draws: same index and same stream as the plain
            // search over a second generator.
            Rng a(n), b(n);
            for (int i = 0; i < 2000; ++i) {
                const auto want = static_cast<std::uint64_t>(
                    std::lower_bound(cdf.begin(), cdf.end(),
                                     a.uniformReal()) -
                    cdf.begin());
                ASSERT_EQ(sampler(b), want) << "n " << n;
            }
        }
    }
}

TEST(Rng, ZipfFavorsLowIndices)
{
    Rng rng(13);
    std::uint64_t low = 0, high = 0;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.zipf(100, 1.0);
        ASSERT_LT(v, 100u);
        if (v < 10)
            ++low;
        if (v >= 90)
            ++high;
    }
    EXPECT_GT(low, 4 * high);
}

TEST(ZipfSampler, MatchesDirectZipfDistribution)
{
    ZipfSampler sampler(50, 0.8);
    Rng rng(17);
    std::vector<int> counts(50, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[sampler(rng)];
    // Monotone-ish decay: first index much more popular than last.
    EXPECT_GT(counts[0], counts[49] * 5);
    // All indices reachable in a healthy sample.
    int reached = 0;
    for (int c : counts)
        reached += c > 0;
    EXPECT_GT(reached, 45);
}

TEST(ZipfSampler, ThetaZeroIsUniform)
{
    ZipfSampler sampler(10, 0.0);
    Rng rng(19);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[sampler(rng)];
    for (int c : counts) {
        EXPECT_GT(c, 1600);
        EXPECT_LT(c, 2400);
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(123);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a() == b();
    EXPECT_LT(same, 5);
}

TEST(Format, FixedDecimals)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(2.0, 0), "2");
    EXPECT_EQ(formatFixed(-1.5, 1), "-1.5");
}

TEST(Format, Percent)
{
    EXPECT_EQ(formatPercent(0.1234), "12.34%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(Format, SizeSuffixes)
{
    EXPECT_EQ(formatSize(32), "32");
    EXPECT_EQ(formatSize(1024), "1K");
    EXPECT_EQ(formatSize(16384), "16K");
    EXPECT_EQ(formatSize(1048576), "1M");
    EXPECT_EQ(formatSize(1500), "1500");
}

TEST(Format, Padding)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(Format, ThousandsSeparators)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
    EXPECT_EQ(formatCount(250000), "250,000");
    EXPECT_EQ(formatCount(1234567890), "1,234,567,890");
}

TEST(Csv, WritesHeaderAndRows)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.header({"name", "value"});
    csv.field(std::string("plain")).field(std::uint64_t{42});
    csv.endRow();
    csv.field(std::string("x,y")).field(1.5, 2);
    csv.endRow();
    EXPECT_EQ(os.str(), "name,value\nplain,42\n\"x,y\",1.50\n");
    EXPECT_EQ(csv.rowCount(), 2u);
}

TEST(Csv, EscapesQuotes)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.field(std::string("say \"hi\""));
    csv.endRow();
    EXPECT_EQ(os.str(), "\"say \"\"hi\"\"\"\n");
}

TEST(Logging, EnableDisableRoundTrip)
{
    const bool before = loggingEnabled();
    setLoggingEnabled(false);
    EXPECT_FALSE(loggingEnabled());
    setLoggingEnabled(true);
    EXPECT_TRUE(loggingEnabled());
    setLoggingEnabled(before);
}

} // namespace
} // namespace cachelab

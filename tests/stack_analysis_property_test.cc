/**
 * @file
 * Property tests for the rank-bitset StackAnalyzer: on randomized
 * traces (multi-line references, writes, address reuse at many
 * scales) it must agree exactly with the original O(depth)
 * move-to-front list walk, kept here as an executable reference, and
 * its single-pass table1StatsFor() must reproduce a real Cache run
 * field for field.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/stack_analysis.hh"
#include "sim/experiments.hh"
#include "sim/run.hh"
#include "util/bits.hh"
#include "util/random.hh"

namespace cachelab
{
namespace
{

/**
 * The original StackAnalyzer: an explicit MRU-first vector walked
 * and spliced per touch.  O(depth) per access, but obviously correct —
 * the property tests below hold the production analyzer to exact
 * agreement with it.
 */
class NaiveStackAnalyzer
{
  public:
    explicit NaiveStackAnalyzer(std::uint32_t line_bytes)
        : lineBytes_(line_bytes)
    {
    }

    void
    access(const MemoryRef &ref)
    {
        ++refs_;
        const Addr first = alignDown(ref.addr, lineBytes_);
        const Addr last = alignDown(ref.addr + ref.size - 1, lineBytes_);
        std::uint64_t worst = 1;
        bool any_cold = false;
        for (Addr line = first;; line += lineBytes_) {
            const std::uint64_t d = touchLine(line);
            if (d == 0)
                any_cold = true;
            else
                worst = std::max(worst, d);
            if (line == last)
                break;
        }
        if (any_cold) {
            ++refColdOrDeep_;
        } else {
            if (worst > refWorst_.size())
                refWorst_.resize(worst, 0);
            ++refWorst_[worst - 1];
        }
    }

    std::uint64_t refCount() const { return refs_; }
    std::uint64_t coldCount() const { return cold_; }
    const std::vector<std::uint64_t> &distanceCounts() const
    {
        return distances_;
    }

    std::uint64_t
    missCountFor(std::uint64_t size_bytes) const
    {
        const std::uint64_t lines = size_bytes / lineBytes_;
        std::uint64_t misses = cold_;
        for (std::uint64_t d = lines + 1; d <= distances_.size(); ++d)
            misses += distances_[d - 1];
        return misses;
    }

    double
    refMissRatioFor(std::uint64_t size_bytes) const
    {
        if (refs_ == 0)
            return 0.0;
        const std::uint64_t lines = size_bytes / lineBytes_;
        std::uint64_t misses = refColdOrDeep_;
        for (std::uint64_t d = lines + 1; d <= refWorst_.size(); ++d)
            misses += refWorst_[d - 1];
        return static_cast<double>(misses) / static_cast<double>(refs_);
    }

    double
    meanDistance() const
    {
        std::uint64_t n = 0;
        double sum = 0.0;
        for (std::uint64_t d = 1; d <= distances_.size(); ++d) {
            n += distances_[d - 1];
            sum += static_cast<double>(d) *
                static_cast<double>(distances_[d - 1]);
        }
        return n ? sum / static_cast<double>(n) : 0.0;
    }

  private:
    std::uint64_t
    touchLine(Addr line_addr)
    {
        if (!present_.contains(line_addr)) {
            present_.emplace(line_addr, 1);
            stack_.insert(stack_.begin(), line_addr);
            ++cold_;
            return 0;
        }
        const auto it = std::find(stack_.begin(), stack_.end(), line_addr);
        const auto depth =
            static_cast<std::uint64_t>(it - stack_.begin()) + 1;
        stack_.erase(it);
        stack_.insert(stack_.begin(), line_addr);
        if (depth > distances_.size())
            distances_.resize(depth, 0);
        ++distances_[depth - 1];
        return depth;
    }

    std::uint32_t lineBytes_;
    std::uint64_t refs_ = 0;
    std::uint64_t cold_ = 0;
    std::uint64_t refColdOrDeep_ = 0;
    std::vector<std::uint64_t> distances_;
    std::vector<std::uint64_t> refWorst_;
    std::vector<Addr> stack_;
    std::unordered_map<Addr, char> present_;
};

/**
 * A randomized trace exercising what the corpus generators do not:
 * straddling multi-line references, heavy immediate reuse, and
 * occasional far jumps that force deep stack distances.
 */
Trace
randomTrace(std::uint64_t seed, std::uint64_t refs,
            std::uint64_t footprint_bytes)
{
    Rng rng(seed);
    Trace t("property");
    std::vector<Addr> recent;
    for (std::uint64_t i = 0; i < refs; ++i) {
        Addr addr;
        if (!recent.empty() && rng.bernoulli(0.6)) {
            // Revisit somewhere near a recent address.
            addr = recent[rng.uniformInt(recent.size())] +
                rng.uniformInt(64);
        } else {
            addr = rng.uniformInt(footprint_bytes);
        }
        const auto size =
            static_cast<std::uint32_t>(rng.uniformRange(1, 40));
        const double kind_draw = rng.uniformReal();
        const AccessKind kind = kind_draw < 0.5
            ? AccessKind::IFetch
            : (kind_draw < 0.8 ? AccessKind::Read : AccessKind::Write);
        t.append(addr, size, kind);
        recent.push_back(addr);
        if (recent.size() > 32)
            recent.erase(recent.begin());
    }
    return t;
}

class PropertySeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeeds,
                         ::testing::Values(1, 9, 77, 123, 9001));

TEST_P(PropertySeeds, FenwickMatchesNaiveReference)
{
    // Small footprint / line size maximizes collisions, reuse and
    // clock compactions (capacity 1024 timestamps).
    const Trace t = randomTrace(GetParam(), 6000, 1 << 14);

    StackAnalyzer fast(16);
    NaiveStackAnalyzer naive(16);
    for (const MemoryRef &ref : t) {
        fast.access(ref);
        naive.access(ref);
    }

    EXPECT_EQ(fast.refCount(), naive.refCount());
    EXPECT_EQ(fast.coldCount(), naive.coldCount());
    EXPECT_EQ(fast.distanceCounts(), naive.distanceCounts());
    EXPECT_DOUBLE_EQ(fast.meanDistance(), naive.meanDistance());
    for (std::uint64_t size : {16u, 64u, 256u, 1024u, 4096u, 65536u}) {
        EXPECT_EQ(fast.missCountFor(size), naive.missCountFor(size))
            << "size " << size;
        EXPECT_DOUBLE_EQ(fast.refMissRatioFor(size),
                         naive.refMissRatioFor(size))
            << "size " << size;
    }
}

TEST_P(PropertySeeds, FenwickMatchesNaiveAcrossLineSizes)
{
    const Trace t = randomTrace(GetParam() * 1337, 3000, 1 << 12);
    for (std::uint32_t line_bytes : {4u, 16u, 64u}) {
        StackAnalyzer fast(line_bytes);
        NaiveStackAnalyzer naive(line_bytes);
        for (const MemoryRef &ref : t) {
            fast.access(ref);
            naive.access(ref);
        }
        EXPECT_EQ(fast.coldCount(), naive.coldCount())
            << "line " << line_bytes;
        EXPECT_EQ(fast.distanceCounts(), naive.distanceCounts())
            << "line " << line_bytes;
    }
}

TEST_P(PropertySeeds, Table1StatsMatchRealCacheFieldForField)
{
    const Trace t = randomTrace(GetParam() * 29 + 5, 8000, 1 << 15);

    StackAnalyzer analyzer(16);
    analyzer.accessAll(t);

    for (std::uint64_t size : {32u, 128u, 512u, 2048u, 8192u, 32768u}) {
        Cache cache(table1Config(size));
        const CacheStats real = runTrace(t, cache);
        const CacheStats fast = analyzer.table1StatsFor(size);
        EXPECT_EQ(std::memcmp(&real, &fast, sizeof(CacheStats)), 0)
            << "size " << size << "\n  cache:       " << real.summarize()
            << "\n  single-pass: " << fast.summarize();
    }
}

TEST(StackAnalyzerProperty, CompactionSurvivesLargeFootprint)
{
    // Footprint >> the initial 1024-timestamp capacity forces both
    // in-place renumbering and capacity doubling.
    Trace t("big");
    for (std::uint64_t i = 0; i < 5000; ++i)
        t.append(i * 16, 4, AccessKind::Read);
    for (std::uint64_t i = 0; i < 5000; ++i) // re-touch in order: depth 5000
        t.append(i * 16, 4, AccessKind::Read);

    StackAnalyzer a(16);
    a.accessAll(t);
    EXPECT_EQ(a.coldCount(), 5000u);
    EXPECT_EQ(a.distinctLineCount(), 5000u);
    ASSERT_EQ(a.distanceCounts().size(), 5000u);
    // Every second-round touch found its line at the bottom.
    EXPECT_EQ(a.distanceCounts()[4999], 5000u);
    EXPECT_EQ(a.missCountFor(5000 * 16), 5000u);  // only cold misses
    EXPECT_EQ(a.missCountFor(4999 * 16), 10000u); // one line short
}

/**
 * Feed @p t to the analyzer and the naive reference and require exact
 * agreement on every distance and at every power-of-two size from one
 * line to 64 KiB lines.
 */
void
expectMatchesNaive(const Trace &t, std::uint32_t line_bytes)
{
    StackAnalyzer fast(line_bytes);
    NaiveStackAnalyzer naive(line_bytes);
    for (const MemoryRef &ref : t) {
        fast.access(ref);
        naive.access(ref);
    }
    EXPECT_EQ(fast.refCount(), naive.refCount());
    EXPECT_EQ(fast.coldCount(), naive.coldCount());
    EXPECT_EQ(fast.distinctLineCount(), naive.coldCount());
    EXPECT_EQ(fast.distanceCounts(), naive.distanceCounts());
    EXPECT_DOUBLE_EQ(fast.meanDistance(), naive.meanDistance());
    for (std::uint64_t lines = 1; lines <= 65536; lines *= 2) {
        const std::uint64_t size = lines * line_bytes;
        EXPECT_EQ(fast.missCountFor(size), naive.missCountFor(size))
            << "size " << size;
        EXPECT_EQ(fast.refMissRatioFor(size), naive.refMissRatioFor(size))
            << "size " << size;
    }
}

TEST(StackAnalyzerProperty, FootprintAtAndPastHalfTheInitialClock)
{
    // The clock starts with 1024 timestamps.  A 512-line footprint is
    // renumbered in place when they run out; 513 lines force a
    // doubling.  Cycle through the lines in shuffled rounds so every
    // compaction finds marks spread over the whole clock.
    for (std::uint64_t footprint : {512u, 513u}) {
        Rng rng(footprint);
        Trace t("boundary");
        std::vector<Addr> lines(footprint);
        for (std::uint64_t i = 0; i < footprint; ++i)
            lines[i] = 0x8000 + i * 16;
        for (int round = 0; round < 8; ++round) {
            for (std::uint64_t i = footprint; i > 1; --i)
                std::swap(lines[i - 1], lines[rng.uniformInt(i)]);
            for (Addr line : lines)
                t.append(line, 4,
                         rng.bernoulli(0.3) ? AccessKind::Write
                                            : AccessKind::Read);
        }
        SCOPED_TRACE(footprint);
        expectMatchesNaive(t, 16);
    }
}

TEST(StackAnalyzerProperty, LinesAtTheBottomAndTopOfTheAddressSpace)
{
    for (std::uint32_t line_bytes : {4u, 16u, 64u}) {
        const Addr top = ~Addr{0} & ~Addr{line_bytes - 1};
        Rng rng(line_bytes);
        Trace t("extremes");
        for (int i = 0; i < 3000; ++i) {
            const std::uint64_t pick = rng.uniformInt(6);
            if (pick == 0)
                t.append(0, 1, AccessKind::Read);
            else if (pick == 1)
                t.append(top, line_bytes, AccessKind::Write);
            else if (pick == 2)
                t.append(top - line_bytes * rng.uniformInt(4), 4,
                         AccessKind::IFetch);
            else
                t.append(line_bytes * rng.uniformInt(600), 4,
                         AccessKind::Read);
        }
        SCOPED_TRACE(line_bytes);
        expectMatchesNaive(t, line_bytes);
    }
}

TEST(StackAnalyzerProperty, ReuseGapsAroundTheNearScanCutoff)
{
    // A probe line is re-touched after every gap length from zero to
    // two words past the near-scan cutoff, so its depth is counted on
    // both sides of the cutoff, at it, and with its last touch in
    // every position of a word.  Half the filler touches repeat the
    // previous filler line, so timestamps and depths drift apart.
    constexpr std::uint64_t kCutoff = StackAnalyzer::kNearWords * 64;
    const Addr probe = 0x100;
    Trace t("gaps");
    std::uint64_t next_filler = 0;
    Rng rng(kCutoff);
    for (std::uint64_t gap = 0; gap <= kCutoff + 128; ++gap) {
        t.append(probe, 4, AccessKind::Read);
        Addr filler = 0x10000;
        for (std::uint64_t i = 0; i < gap; ++i) {
            if (i == 0 || !rng.bernoulli(0.5))
                filler = 0x10000 + (next_filler++ % 700) * 16;
            t.append(filler, 4,
                     rng.bernoulli(0.2) ? AccessKind::Write
                                        : AccessKind::Read);
        }
    }
    t.append(probe, 4, AccessKind::Read);
    expectMatchesNaive(t, 16);
}

TEST(StackAnalyzerProperty, Table1StatsRightAfterEveryCompaction)
{
    // Replay the clock's capacity policy (1024 timestamps to start, one
    // per line touch; renumber in place when at most half are live,
    // double otherwise) to find the references during which it
    // compacts, then check the full single-pass statistics at every
    // size right there against real caches fed the same prefix.
    constexpr std::uint32_t kLine = 16;
    const Trace t = randomTrace(4242, 8000, 1 << 15);

    std::vector<std::size_t> after; // ref indices that compacted
    std::uint64_t in_place = 0, doubled = 0;
    {
        std::set<Addr> seen;
        std::uint64_t time = 0, capacity = 1024;
        for (std::size_t i = 0; i < t.size(); ++i) {
            bool compacted = false;
            const Addr last = alignDown(t[i].addr + t[i].size - 1, kLine);
            for (Addr line = alignDown(t[i].addr, kLine);; line += kLine) {
                if (time == capacity) {
                    compacted = true;
                    if (seen.size() <= capacity / 2) {
                        ++in_place;
                    } else {
                        capacity *= 2;
                        ++doubled;
                    }
                    time = seen.size();
                }
                ++time;
                seen.insert(line);
                if (line == last)
                    break;
            }
            if (compacted)
                after.push_back(i);
        }
    }
    ASSERT_GT(in_place, 0u);
    ASSERT_GT(doubled, 0u);

    std::vector<std::uint64_t> sizes;
    for (std::uint64_t size = kLine; size <= (1u << 16); size *= 2)
        sizes.push_back(size);
    std::vector<std::unique_ptr<Cache>> caches;
    for (std::uint64_t size : sizes)
        caches.push_back(std::make_unique<Cache>(table1Config(size)));

    StackAnalyzer analyzer(kLine);
    NaiveStackAnalyzer naive(kLine);
    std::size_t next = 0;
    for (std::size_t i = 0; i < t.size() && next < after.size(); ++i) {
        analyzer.access(t[i]);
        naive.access(t[i]);
        for (const auto &cache : caches)
            cache->access(t[i]);
        if (i != after[next])
            continue;
        ++next;
        EXPECT_EQ(analyzer.distanceCounts(), naive.distanceCounts())
            << "after ref " << i;
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            const CacheStats real = caches[s]->stats();
            const CacheStats fast = analyzer.table1StatsFor(sizes[s]);
            EXPECT_EQ(std::memcmp(&real, &fast, sizeof(CacheStats)), 0)
                << "after ref " << i << " size " << sizes[s]
                << "\n  cache:       " << real.summarize()
                << "\n  single-pass: " << fast.summarize();
            EXPECT_EQ(analyzer.refMissRatioFor(sizes[s]),
                      naive.refMissRatioFor(sizes[s]))
                << "after ref " << i << " size " << sizes[s];
        }
    }
    EXPECT_EQ(next, after.size());
}

} // namespace
} // namespace cachelab

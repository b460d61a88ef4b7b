/**
 * @file
 * Results-identity ledger for the Cache model.
 *
 * Every row of tests/golden/cache_state.tsv pins one organization: an
 * FNV-1a digest of the final CacheStats, the way-indexed line array
 * and the recency image after a fixed seeded trace (mixed reads,
 * writes and instruction fetches, including references that cross a
 * line boundary).  The matrix covers lru/fifo/random × associativity
 * {1, 2, 4, 8, 16, 32, full} × {copy-back, write-through +
 * no-allocate} × {demand, prefetch-always} × {no purge, purge every
 * 5 000 refs}, plus TinyLFU admission on 4-way and 32-way LRU.
 *
 * The digests are absolute, not engine-vs-engine: a change that moves
 * Cache and its reference models together still fails here.  Rewrite
 * the table only on purpose:
 *
 *     build/tests/cache_golden_test --update-golden
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hh"

namespace cachelab
{
namespace
{

bool gUpdateGolden = false;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::size_t kTraceRefs = 40000;
constexpr std::uint64_t kPurgeInterval = 5000;

class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            hash_ ^= (v >> (8 * b)) & 0xff;
            hash_ *= kFnvPrime;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = kFnvOffset;
};

/** Digest of stats (fixed field order), lines and recency. */
std::uint64_t
stateDigest(const CacheState &state)
{
    Fnv1a h;
    const CacheStats &s = state.stats;
    for (std::uint64_t v : s.accesses)
        h.add(v);
    for (std::uint64_t v : s.misses)
        h.add(v);
    for (std::uint64_t v :
         {s.demandFetches, s.prefetchFetches, s.bytesFromMemory,
          s.bytesToMemory, s.replacementPushes, s.dirtyReplacementPushes,
          s.purgePushes, s.dirtyPurgePushes, s.writeThroughs, s.purges})
        h.add(v);
    for (const CacheState::Line &line : state.lines) {
        h.add(line.lineAddr);
        h.add((line.valid ? 1u : 0u) | (line.dirty ? 2u : 0u));
    }
    for (std::uint32_t way : state.recency)
        h.add(way);
    return h.value();
}

/**
 * Seeded mixed trace over 16 B lines: a hot loop, a warm region four
 * times a 4 KiB cache, and sequential scan bursts.  About one
 * reference in eight is unaligned so that it crosses into the next
 * line.
 */
std::vector<MemoryRef>
goldenTrace()
{
    std::vector<MemoryRef> out;
    out.reserve(kTraceRefs);
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    while (out.size() < kTraceRefs) {
        const std::uint64_t r = next() % 100;
        const std::uint64_t k = next() % 100;
        const AccessKind kind = k < 20   ? AccessKind::IFetch
                                : k < 70 ? AccessKind::Read
                                         : AccessKind::Write;
        if (r < 85) {
            Addr addr = r < 45 ? 0x10000 + (next() % 64) * 16   // hot
                               : 0x40000 + (next() % 1024) * 16; // warm
            std::uint32_t size = 4;
            if (next() % 8 == 0) {
                addr += 14; // straddles the next line
                size = 1u << (next() % 3 + 2);
            }
            out.push_back({addr, size, kind});
        } else {
            const Addr base = 0x100000 + (next() % 8192) * 16; // scan
            for (int i = 0; i < 24 && out.size() < kTraceRefs; ++i)
                out.push_back({base + Addr(i) * 16, 4, kind});
        }
    }
    return out;
}

struct Row
{
    std::string key;
    CacheConfig config;
    bool purge = false;
};

std::vector<Row>
goldenMatrix()
{
    std::vector<Row> rows;
    for (const char *policy : {"lru", "fifo", "random"}) {
        for (std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u, 32u, 0u}) {
            for (bool through : {false, true}) {
                for (bool prefetch : {false, true}) {
                    for (bool purge : {false, true}) {
                        Row row;
                        CacheConfig &c = row.config;
                        c.sizeBytes = 4096;
                        c.lineBytes = 16;
                        c.associativity = assoc;
                        c.replacement = policySpec(policy);
                        c.randomSeed = 7;
                        if (through) {
                            c.writePolicy = WritePolicy::WriteThrough;
                            c.writeMiss = WriteMissPolicy::NoAllocate;
                        }
                        if (prefetch)
                            c.fetchPolicy = FetchPolicy::PrefetchAlways;
                        row.purge = purge;
                        row.key = std::string(policy) + "\t" +
                            (assoc == 0 ? "full" : std::to_string(assoc)) +
                            "\t" + (through ? "wt-na" : "cb") + "\t" +
                            (prefetch ? "prefetch" : "demand") + "\t" +
                            (purge ? "purge5000" : "nopurge") + "\tnone";
                        rows.push_back(row);
                    }
                }
            }
        }
    }
    for (std::uint32_t assoc : {4u, 32u}) {
        Row row;
        row.config.sizeBytes = 4096;
        row.config.lineBytes = 16;
        row.config.associativity = assoc;
        row.config.admission = policySpec("tinylfu");
        row.key = "lru\t" + std::to_string(assoc) +
            "\tcb\tdemand\tnopurge\ttinylfu";
        rows.push_back(row);
    }
    return rows;
}

std::uint64_t
runRow(const Row &row, const std::vector<MemoryRef> &trace)
{
    Cache cache(row.config);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (row.purge && i > 0 && i % kPurgeInterval == 0)
            cache.purge();
        cache.access(trace[i]);
    }
    return stateDigest(cache.exportState());
}

std::string
goldenPath()
{
    return std::string(CACHELAB_GOLDEN_DIR) + "/cache_state.tsv";
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream out;
    out << std::hex;
    out.width(16);
    out.fill('0');
    out << v;
    return out.str();
}

TEST(CacheGolden, MatrixMatchesCommittedDigests)
{
    const std::vector<MemoryRef> trace = goldenTrace();
    const std::vector<Row> rows = goldenMatrix();

    if (gUpdateGolden) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << "# policy\tassoc\twrite\tfetch\tpurge\tadmission\tdigest\n";
        for (const Row &row : rows)
            out << row.key << '\t' << hex(runRow(row, trace)) << '\n';
        GTEST_SKIP() << "rewrote " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing " << goldenPath()
                    << " (regenerate with --update-golden)";
    std::map<std::string, std::string> want;
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto tab = line.rfind('\t');
        ASSERT_NE(tab, std::string::npos) << "malformed row: " << line;
        want[line.substr(0, tab)] = line.substr(tab + 1);
    }
    ASSERT_EQ(want.size(), rows.size())
        << "golden table and matrix disagree on the row set";

    for (const Row &row : rows) {
        const auto it = want.find(row.key);
        ASSERT_NE(it, want.end()) << "no golden row for " << row.key;
        EXPECT_EQ(hex(runRow(row, trace)), it->second) << row.key;
    }
}

} // namespace
} // namespace cachelab

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--update-golden") == 0)
            cachelab::gUpdateGolden = true;
    return RUN_ALL_TESTS();
}

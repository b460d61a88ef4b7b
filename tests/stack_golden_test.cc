/**
 * @file
 * Results-identity ledger for the single-pass Mattson engine.
 *
 * Every row of tests/golden/stack_curve.tsv pins one single-pass
 * analysis: an FNV-1a digest of the whole LRU curve a StackAnalyzer
 * (or the split single-pass sweep) produces over a fixed trace.  A
 * unified row covers refCount(), coldCount(), distinctLineCount(),
 * distanceCounts(), meanDistance() bits, and at every power of two
 * from 32 B (or one line) to 64 MiB the complete table1StatsFor()
 * plus the refMissRatioFor() bits.  A split row covers both sides'
 * table1 statistics from sweepSplit(..., SweepEngine::SinglePass) at
 * the same sizes.
 *
 * Rows: MVS1, LISP1, VAXIMA1 and ZGREP × line sizes {8, 16, 64} ×
 * {unified, split}; one KV-model row (Zipf GET/SET mix with scans and
 * drift); one row from a straddling random trace.
 *
 * The digests are absolute, not engine-vs-engine: a change that moves
 * the analyzer and its reference models together still fails here.
 * Rewrite the table only on purpose:
 *
 *     build/tests/stack_golden_test --update-golden
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cache/stack_analysis.hh"
#include "sim/experiments.hh"
#include "sim/sweep.hh"
#include "util/random.hh"
#include "workload/kv_model.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

bool gUpdateGolden = false;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kProfileRefs = 200000;
constexpr std::uint64_t kMaxCurveBytes = 64ull << 20;

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

    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = kFnvOffset;
};

void
addStats(Fnv1a &h, const CacheStats &s)
{
    for (std::uint64_t v : s.accesses)
        h.add(v);
    for (std::uint64_t v : s.misses)
        h.add(v);
    for (std::uint64_t v :
         {s.demandFetches, s.prefetchFetches, s.bytesFromMemory,
          s.bytesToMemory, s.replacementPushes, s.dirtyReplacementPushes,
          s.purgePushes, s.dirtyPurgePushes, s.writeThroughs, s.purges})
        h.add(v);
}

/** Powers of two from max(32 B, one line) to 64 MiB. */
std::vector<std::uint64_t>
curveSizes(std::uint32_t line_bytes)
{
    return powersOfTwo(std::max<std::uint64_t>(32, line_bytes),
                       kMaxCurveBytes);
}

std::uint64_t
unifiedDigest(const Trace &trace, std::uint32_t line_bytes)
{
    StackAnalyzer a(line_bytes);
    a.accessAll(trace);
    Fnv1a h;
    h.add(a.refCount());
    h.add(a.coldCount());
    h.add(a.distinctLineCount());
    h.add(std::uint64_t{a.distanceCounts().size()});
    for (std::uint64_t v : a.distanceCounts())
        h.add(v);
    h.add(a.meanDistance());
    for (std::uint64_t size : curveSizes(line_bytes)) {
        addStats(h, a.table1StatsFor(size));
        h.add(a.refMissRatioFor(size));
    }
    return h.value();
}

std::uint64_t
splitDigest(const Trace &trace, std::uint32_t line_bytes)
{
    CacheConfig base = table1Config(1024);
    base.lineBytes = line_bytes;
    RunConfig run;
    run.jobs = 1;
    Fnv1a h;
    for (const SplitSweepPoint &pt :
         sweepSplit(trace, curveSizes(line_bytes), base, run,
                    SweepEngine::SinglePass)) {
        h.add(pt.cacheBytes);
        addStats(h, pt.icache);
        addStats(h, pt.dcache);
    }
    return h.value();
}

/** Zipf GET/SET mix with scan bursts and working-set drift. */
Trace
kvTrace()
{
    KvWorkloadParams p;
    p.refCount = 200000;
    p.keyCount = 4096;
    p.objectBytes = 64;
    p.refBytes = 8;
    p.readRatio = 0.7;
    p.scanFraction = 0.05;
    p.driftRefs = 5000;
    p.seed = 13;
    return generateKvWorkload(p, "kv");
}

/**
 * The stack property test's randomized trace: straddling multi-line
 * references, heavy immediate reuse and occasional far jumps.
 */
Trace
straddlingTrace()
{
    Rng rng(9001);
    Trace t("property");
    std::vector<Addr> recent;
    for (std::uint64_t i = 0; i < 40000; ++i) {
        Addr addr;
        if (!recent.empty() && rng.bernoulli(0.6))
            addr = recent[rng.uniformInt(recent.size())] +
                rng.uniformInt(64);
        else
            addr = rng.uniformInt(1 << 16);
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

/** @return key ("input\tline\torganization") -> digest, in row order. */
std::vector<std::pair<std::string, std::uint64_t>>
goldenRows()
{
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    for (const char *name : {"MVS1", "LISP1", "VAXIMA1", "ZGREP"}) {
        const Trace trace = generateTrace(*findTraceProfile(name),
                                          kProfileRefs);
        for (std::uint32_t line : {8u, 16u, 64u}) {
            const std::string key =
                std::string(name) + "\t" + std::to_string(line);
            rows.emplace_back(key + "\tunified", unifiedDigest(trace, line));
            rows.emplace_back(key + "\tsplit", splitDigest(trace, line));
        }
    }
    rows.emplace_back("kv\t16\tunified", unifiedDigest(kvTrace(), 16));
    rows.emplace_back("straddle\t16\tunified",
                      unifiedDigest(straddlingTrace(), 16));
    return rows;
}

std::string
goldenPath()
{
    return std::string(CACHELAB_GOLDEN_DIR) + "/stack_curve.tsv";
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

TEST(StackGolden, CurvesMatchCommittedDigests)
{
    const auto rows = goldenRows();

    if (gUpdateGolden) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << "# input\tline\torganization\tdigest\n";
        for (const auto &[key, digest] : rows)
            out << key << '\t' << hex(digest) << '\n';
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
        << "golden table and row set disagree";

    for (const auto &[key, digest] : rows) {
        const auto it = want.find(key);
        ASSERT_NE(it, want.end()) << "no golden row for " << key;
        EXPECT_EQ(hex(digest), it->second) << key;
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

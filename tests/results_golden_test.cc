/**
 * @file
 * Whole-system results ledger: CacheStats digests of complete sweeps
 * and spec runs, built through the public entry points the tools use.
 *
 * Every row of tests/golden/results.tsv pins one sweep: an FNV-1a
 * digest over (cacheBytes, every CacheStats counter) of each point.
 * The same digest must come out of four routes — sweepUnified() /
 * sweepSplit() on a materialized Trace and on a streamed TraceSource,
 * each under SweepEngine::PerSize and SweepEngine::Auto — so the
 * streamed chunk-synchronous loop, the materialized per-size runs and
 * (where Auto picks it) the single-pass engine are all held to one
 * committed answer.
 *
 * Rows: MVS1, VAXIMA1, ZGREP × {unified, split with purge every
 * 20 000 refs} × {lru, fifo at 1-way, 4-way and full; arc; 2q with a
 * tinylfu filter} × {copy-back demand, write-through no-allocate with
 * always-prefetch}.  Spec rows: three same-input specs (different
 * purge interval, warm-up and associativity) in one runCoalesced()
 * pass, and one KV spec.
 *
 * The digests are absolute, not engine-vs-engine: a change that moves
 * every engine together still fails here.  Rewrite the table only on
 * purpose:
 *
 *     build/tests/results_golden_test --update-golden
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/engine.hh"
#include "serve/spec.hh"
#include "sim/sweep.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

bool gUpdateGolden = false;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kProfileRefs = 50000;
constexpr std::uint64_t kPurgeInterval = 20000;
/** Deliberately not a divisor of anything, so batches straddle. */
constexpr std::size_t kBatchRefs = 4093;

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

std::uint64_t
digest(const std::vector<SweepPoint> &points)
{
    Fnv1a h;
    for (const SweepPoint &pt : points) {
        h.add(pt.cacheBytes);
        addStats(h, pt.stats);
    }
    return h.value();
}

std::uint64_t
digest(const std::vector<SplitSweepPoint> &points)
{
    Fnv1a h;
    for (const SplitSweepPoint &pt : points) {
        h.add(pt.cacheBytes);
        addStats(h, pt.icache);
        addStats(h, pt.dcache);
    }
    return h.value();
}

const std::vector<std::uint64_t> kSizes = {512, 2048, 8192};

struct Policy
{
    const char *name;
    const char *replacement;
    const char *admission;
    std::uint32_t assoc;
};

constexpr Policy kPolicies[] = {
    {"lru", "lru", "", 1},   {"lru", "lru", "", 4},   {"lru", "lru", "", 0},
    {"fifo", "fifo", "", 1}, {"fifo", "fifo", "", 4}, {"fifo", "fifo", "", 0},
    {"arc", "arc", "", 4},   {"2q+tinylfu", "2q", "tinylfu", 4},
};

/** One sweep row: its key and the digest of each of the four routes. */
struct SweepRow
{
    std::string key;
    std::vector<std::pair<std::string, std::uint64_t>> routes;
};

std::vector<SweepRow>
sweepRows()
{
    std::vector<SweepRow> rows;
    for (const char *name : {"MVS1", "VAXIMA1", "ZGREP"}) {
        const TraceProfile &profile = *findTraceProfile(name);
        const Trace trace = generateTrace(profile, kProfileRefs);
        for (bool split : {false, true}) {
            RunConfig run;
            run.batchRefs = kBatchRefs;
            if (split)
                run.purgeInterval = kPurgeInterval;
            for (const Policy &policy : kPolicies) {
                for (bool through : {false, true}) {
                    CacheConfig base;
                    base.lineBytes = 16;
                    base.associativity = policy.assoc;
                    base.replacement = policySpec(policy.replacement);
                    if (*policy.admission != '\0')
                        base.admission = policySpec(policy.admission);
                    if (through) {
                        base.writePolicy = WritePolicy::WriteThrough;
                        base.writeMiss = WriteMissPolicy::NoAllocate;
                        base.fetchPolicy = FetchPolicy::PrefetchAlways;
                    }
                    SweepRow row;
                    row.key = std::string(name) + "\t" +
                        (split ? "split-purge" : "unified") + "\t" +
                        policy.name + "\t" +
                        (policy.assoc == 0 ? "full"
                                           : std::to_string(policy.assoc)) +
                        "\t" + (through ? "wt-na-prefetch" : "cb-demand");
                    for (SweepEngine engine :
                         {SweepEngine::PerSize, SweepEngine::Auto}) {
                        const std::string tag =
                            engine == SweepEngine::PerSize ? "per-size"
                                                           : "auto";
                        const auto source =
                            streamTrace(profile, kProfileRefs);
                        if (split) {
                            row.routes.emplace_back(
                                "trace/" + tag,
                                digest(sweepSplit(trace, kSizes, base, run,
                                                  engine)));
                            row.routes.emplace_back(
                                "source/" + tag,
                                digest(sweepSplit(*source, kSizes, base,
                                                  run, engine)));
                        } else {
                            row.routes.emplace_back(
                                "trace/" + tag,
                                digest(sweepUnified(trace, kSizes, base, run,
                                                    engine)));
                            row.routes.emplace_back(
                                "source/" + tag,
                                digest(sweepUnified(*source, kSizes, base,
                                                    run, engine)));
                        }
                    }
                    rows.push_back(std::move(row));
                }
            }
        }
    }
    return rows;
}

/** Same input, different purge, warm-up and associativity. */
constexpr const char *kCoalescedSpecs[] = {
    R"({"id": "full-lru", "input": {"kind": "profile", "name": "ZGREP",
        "refs": 50000}, "cache": {"line_bytes": 16},
        "sizes": [1024, 4096]})",
    R"({"id": "4way-purge", "input": {"kind": "profile", "name": "ZGREP",
        "refs": 50000}, "cache": {"line_bytes": 16, "associativity": 4},
        "purge_interval": 5000, "sizes": [2048, 8192]})",
    R"({"id": "dm-fifo-warm", "input": {"kind": "profile",
        "name": "ZGREP", "refs": 50000},
        "cache": {"line_bytes": 32, "associativity": 1,
                  "replacement": "fifo"},
        "warmup_refs": 10000, "sizes": {"lo": 512, "hi": 4096}})",
};

constexpr const char *kKvSpec = R"({"id": "kv-arc",
    "input": {"kind": "kv", "refs": 50000, "key_count": 2048,
              "object_bytes": 64, "zipf_theta": 0.9,
              "scan_fraction": 0.05, "seed": 11},
    "cache": {"line_bytes": 64, "associativity": 8,
              "replacement": "arc"},
    "sizes": {"lo": 4096, "hi": 32768}})";

serve::ExperimentSpec
parseSpec(const char *text)
{
    serve::ExperimentSpec spec;
    const auto error = serve::parseExperimentSpec(text, spec);
    EXPECT_FALSE(error) << *error;
    return spec;
}

/** @return key -> digest for the spec rows, in row order. */
std::vector<std::pair<std::string, std::uint64_t>>
specRows()
{
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    std::vector<serve::ExperimentSpec> specs;
    for (const char *text : kCoalescedSpecs)
        specs.push_back(parseSpec(text));
    std::string error;
    const auto source = specs.front().input.open(&error);
    EXPECT_NE(source, nullptr) << error;
    if (source == nullptr)
        return rows;
    const auto results = serve::runCoalesced(*source, specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(results[i].coalescedGroup, specs.size());
        rows.emplace_back("spec\tcoalesced\t" + specs[i].id,
                          digest(results[i].points));
    }
    const serve::ExperimentResult kv =
        serve::runExperiment(parseSpec(kKvSpec));
    EXPECT_TRUE(kv.error.empty()) << kv.error;
    rows.emplace_back("spec\tstandalone\tkv-arc", digest(kv.points));
    return rows;
}

std::string
goldenPath()
{
    return std::string(CACHELAB_GOLDEN_DIR) + "/results.tsv";
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

TEST(ResultsGolden, SweepsAndSpecsMatchCommittedDigests)
{
    const auto sweeps = sweepRows();
    const auto specs = specRows();

    if (gUpdateGolden) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << "# input\torganization\tpolicy\tassoc\twrite-fetch\tdigest\n";
        for (const SweepRow &row : sweeps) {
            // Every route must agree before a digest is worth pinning.
            for (const auto &[route, value] : row.routes)
                ASSERT_EQ(value, row.routes.front().second)
                    << row.key << " via " << route;
            out << row.key << '\t' << hex(row.routes.front().second)
                << '\n';
        }
        for (const auto &[key, value] : specs)
            out << key << '\t' << hex(value) << '\n';
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
    ASSERT_EQ(want.size(), sweeps.size() + specs.size())
        << "golden table and row set disagree";

    for (const SweepRow &row : sweeps) {
        const auto it = want.find(row.key);
        ASSERT_NE(it, want.end()) << "no golden row for " << row.key;
        for (const auto &[route, value] : row.routes)
            EXPECT_EQ(hex(value), it->second) << row.key << " via " << route;
    }
    for (const auto &[key, value] : specs) {
        const auto it = want.find(key);
        ASSERT_NE(it, want.end()) << "no golden row for " << key;
        EXPECT_EQ(hex(value), it->second) << key;
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

/**
 * @file
 * Results-identity ledger for the workload generators.
 *
 * Every row of tests/golden/workload_stream.tsv pins one generated
 * reference stream: an FNV-1a digest of the reference count and of
 * (addr, size, kind) for every reference, in order.
 *
 * Rows: each of the 57 corpus profiles at its full length, once
 * materialized through generateTrace() and once streamed through
 * streamTrace() at an odd batch size (so batch boundaries fall inside
 * macro steps); MVS1 streamed through streamTraceExactly() well past
 * its calibrated length; one KV-model run (Zipf GET/SET mix with
 * scans and drift) through generateKvWorkload().
 *
 * The digests are absolute: a generator change that keeps its own
 * paths consistent but moves one random draw or one emitted reference
 * still fails here.  Rewrite the table only on purpose:
 *
 *     build/tests/workload_golden_test --update-golden
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "workload/kv_model.hh"
#include "workload/profiles.hh"

namespace cachelab
{
namespace
{

bool gUpdateGolden = false;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::size_t kOddBatch = 4093;
constexpr std::uint64_t kExactRefs = 2000000;

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

    void
    add(const MemoryRef &ref)
    {
        add(ref.addr);
        add(std::uint64_t{ref.size});
        add(static_cast<std::uint64_t>(ref.kind));
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = kFnvOffset;
};

std::uint64_t
traceDigest(const Trace &trace)
{
    Fnv1a h;
    for (const MemoryRef &ref : trace)
        h.add(ref);
    h.add(std::uint64_t{trace.size()});
    return h.value();
}

/** Pull @p source to the end in batches of kOddBatch. */
std::uint64_t
streamDigest(TraceSource &source)
{
    Fnv1a h;
    std::vector<MemoryRef> batch(kOddBatch);
    std::uint64_t count = 0;
    while (const std::size_t n = source.nextBatch(batch)) {
        for (std::size_t i = 0; i < n; ++i)
            h.add(batch[i]);
        count += n;
    }
    h.add(count);
    return h.value();
}

/** Zipf GET/SET mix with scan bursts and working-set drift. */
Trace
kvTrace()
{
    KvWorkloadParams p;
    p.refCount = 1000000;
    p.keyCount = 32768;
    p.objectBytes = 64;
    p.refBytes = 8;
    p.zipfTheta = 0.9;
    p.readRatio = 0.8;
    p.scanFraction = 0.04;
    p.meanScanObjects = 8.0;
    p.driftRefs = 4096;
    p.seed = 29;
    return generateKvWorkload(p, "kv");
}

/** @return key ("input\tpath") -> digest, in row order. */
std::vector<std::pair<std::string, std::uint64_t>>
goldenRows()
{
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    for (const TraceProfile &profile : allTraceProfiles()) {
        rows.emplace_back(profile.name + "\tgenerate",
                          traceDigest(generateTrace(profile)));
        rows.emplace_back(profile.name + "\tstream",
                          streamDigest(*streamTrace(profile)));
    }
    rows.emplace_back(
        "MVS1\tstream_exact",
        streamDigest(*streamTraceExactly(*findTraceProfile("MVS1"),
                                         kExactRefs)));
    rows.emplace_back("kv\tgenerate", traceDigest(kvTrace()));
    return rows;
}

std::string
goldenPath()
{
    return std::string(CACHELAB_GOLDEN_DIR) + "/workload_stream.tsv";
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

TEST(WorkloadGolden, StreamsMatchCommittedDigests)
{
    const auto rows = goldenRows();

    if (gUpdateGolden) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << "# input\tpath\tdigest\n";
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

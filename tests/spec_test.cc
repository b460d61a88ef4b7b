/**
 * @file
 * Tests for declarative experiment specs (src/serve): one-line
 * diagnostics for malformed specs, and bitwise equivalence of
 * coalesced spec passes against standalone sweeps.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "serve/engine.hh"
#include "serve/spec.hh"
#include "sim/sweep.hh"
#include "workload/kv_model.hh"
#include "workload/profiles.hh"

namespace cachelab::serve
{
namespace
{

ExperimentSpec
parse(const char *text)
{
    ExperimentSpec spec;
    const auto error = parseExperimentSpec(text, spec);
    EXPECT_FALSE(error) << *error;
    return spec;
}

void
expectSamePoints(const std::vector<SweepPoint> &got,
                 const std::vector<SweepPoint> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].cacheBytes, want[i].cacheBytes);
        EXPECT_EQ(std::memcmp(&got[i].stats, &want[i].stats,
                              sizeof(CacheStats)),
                  0)
            << "at " << want[i].cacheBytes << " bytes:\n  spec:  "
            << got[i].stats.summarize() << "\n  sweep: "
            << want[i].stats.summarize();
    }
}

constexpr const char *kProfileSpecA = R"({
    "id": "run-a",
    "input": {"kind": "profile", "name": "VSPICE"},
    "cache": {"line_bytes": 16},
    "sizes": {"lo": 1024, "hi": 4096}
})";

constexpr const char *kProfileSpecB = R"({
    "id": "run-b",
    "input": {"kind": "profile", "name": "VSPICE"},
    "cache": {"line_bytes": 32, "associativity": 2},
    "sizes": [2048, 8192]
})";

TEST(Spec, InvalidSpecsGetOneLineDiagnostics)
{
    ExperimentSpec spec;
    const auto not_json = parseExperimentSpec("{nope", spec);
    ASSERT_TRUE(not_json);
    EXPECT_NE(not_json->find("not valid JSON"), std::string::npos);

    for (const char *bad : {
             R"({"input": {"kind": "profile", "name": "NOSUCH"},
                 "sizes": [1024]})",
             R"({"input": {"kind": "profile", "name": "VSPICE"}})",
             R"({"input": {"kind": "martian"}, "sizes": [1024]})",
             R"({"input": {"kind": "profile", "name": "VSPICE"},
                 "sizes": [1000]})",
             R"({"input": {"kind": "kv", "refs": 100, "ref_bytes": 24},
                 "sizes": [1024]})",
             R"({"input": {"kind": "kv", "refs": 100},
                 "warmup_refs": 100, "sizes": [1024]})",
             R"([1, 2, 3])",
         }) {
        ExperimentSpec out;
        const auto error = parseExperimentSpec(bad, out);
        ASSERT_TRUE(error) << bad;
        EXPECT_FALSE(error->empty()) << bad;
        EXPECT_EQ(error->find('\n'), std::string::npos) << *error;
    }

    // The size rule's text is CacheConfig::check()'s, word for word.
    ExperimentSpec out;
    EXPECT_EQ(parseExperimentSpec(
                  R"({"input": {"kind": "profile", "name": "VSPICE"},
                      "sizes": [1000]})",
                  out),
              std::optional<std::string>(
                  "cache size 1000 is not a power of two"));

    // A missing trace file parses fine and fails when it is opened.
    const ExperimentSpec missing = parse(
        R"({"input": {"kind": "file", "name": "/nonexistent/x.din"},
            "sizes": [1024]})");
    std::string error;
    EXPECT_EQ(missing.input.open(&error), nullptr);
    EXPECT_NE(error.find("cannot open trace file"), std::string::npos);
}

TEST(Spec, CoalescedSpecsAreBitwiseEqualToStandaloneSweeps)
{
    const std::vector<ExperimentSpec> specs = {parse(kProfileSpecA),
                                               parse(kProfileSpecB)};
    ASSERT_EQ(specs[0].batchKey(), specs[1].batchKey());
    std::string error;
    const auto source = specs[0].input.open(&error);
    ASSERT_NE(source, nullptr) << error;
    const auto results = runCoalesced(*source, specs);
    ASSERT_EQ(results.size(), 2u);
    for (const ExperimentResult &result : results)
        EXPECT_EQ(result.coalescedGroup, 2u);

    // The standalone truth: materialize the same profile and sweep it
    // through the ordinary engine.
    const Trace trace = generateTrace(*findTraceProfile("VSPICE"));
    CacheConfig a;
    a.lineBytes = 16;
    expectSamePoints(results[0].points,
                     sweepUnified(trace, {1024, 2048, 4096}, a, RunConfig{}));
    CacheConfig b;
    b.lineBytes = 32;
    b.associativity = 2;
    expectSamePoints(results[1].points,
                     sweepUnified(trace, {2048, 8192}, b, RunConfig{}));
}

TEST(Spec, KvSpecsMatchDirectKvWorkloadSweeps)
{
    const ExperimentResult result = runExperiment(parse(
        R"({"id": "kv", "input": {"kind": "kv", "refs": 30000,
                "key_count": 1024, "object_bytes": 64, "zipf_theta": 0.9,
                "scan_fraction": 0.05, "seed": 7},
            "cache": {"line_bytes": 64}, "sizes": [4096, 16384]})"));
    ASSERT_TRUE(result.error.empty()) << result.error;
    EXPECT_EQ(result.refsProcessed, 30000u);

    KvWorkloadParams params;
    params.refCount = 30000;
    params.keyCount = 1024;
    params.objectBytes = 64;
    params.zipfTheta = 0.9;
    params.scanFraction = 0.05;
    params.seed = 7;
    const Trace trace = generateKvWorkload(params, "kv");
    CacheConfig base;
    base.lineBytes = 64;
    expectSamePoints(result.points,
                     sweepUnified(trace, {4096, 16384}, base, RunConfig{}));
}

TEST(Spec, SameInputSpecsWithDifferentSchedulesShareOnePass)
{
    const std::vector<ExperimentSpec> specs = {
        parse(R"({"input": {"kind": "profile", "name": "ZGREP",
                  "refs": 60000}, "cache": {"associativity": 1},
                  "sizes": [1024, 4096]})"),
        parse(R"({"input": {"kind": "profile", "name": "ZGREP",
                  "refs": 60000}, "cache": {"associativity": 4},
                  "purge_interval": 7000, "sizes": [2048, 8192]})"),
        parse(R"({"input": {"kind": "profile", "name": "ZGREP",
                  "refs": 60000}, "warmup_refs": 15000,
                  "sizes": [512, 16384]})"),
    };
    obs::Counter &passes =
        obs::Registry::global().counter("serve.engine.passes");
    const std::uint64_t passes_before = passes.value();
    std::string error;
    const auto source = specs[0].input.open(&error);
    ASSERT_NE(source, nullptr) << error;
    const auto results = runCoalesced(*source, specs);
    EXPECT_EQ(passes.value(), passes_before + 1);
    ASSERT_EQ(results.size(), specs.size());

    const Trace trace = generateTraceExactly(*findTraceProfile("ZGREP"),
                                             60000);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(results[i].coalescedGroup, specs.size());
        EXPECT_EQ(results[i].refsProcessed, 60000u);
        RunConfig run;
        run.purgeInterval = specs[i].purgeInterval;
        run.warmupRefs = specs[i].warmupRefs;
        expectSamePoints(results[i].points,
                         sweepUnified(trace, specs[i].sizes, specs[i].base,
                                      run, SweepEngine::PerSize));
    }
}

} // namespace
} // namespace cachelab::serve

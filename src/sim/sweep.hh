/**
 * @file
 * Parameter-sweep engine: run one trace across a family of cache
 * configurations and collect per-point results.  This is the workhorse
 * behind Table 1 / Figures 1 and 3-10.
 *
 * Two orthogonal accelerations over the naive |sizes| serial runs:
 *
 *  - **Parallel per-size runs**: each size point owns its Cache, so
 *    points are data-race-free by construction and fan out over the
 *    shared ThreadPool (RunConfig::jobs picks the width; jobs = 1
 *    forces serial, as does already running on a pool worker).
 *  - **Single-pass fast path**: when the configuration is the
 *    Table 1 shape (fully associative, LRU, demand fetch, copy-back
 *    with fetch-on-write, no purging, no warm-up), one Mattson
 *    stack-analysis pass reconstructs the statistics of *every* size
 *    at once — see StackAnalyzer::table1StatsFor().
 *
 * Both produce CacheStats bit-identical to the serial per-size runs;
 * SweepEngine::Verify asserts that equivalence at runtime.
 */

#ifndef CACHELAB_SIM_SWEEP_HH
#define CACHELAB_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/config.hh"
#include "cache/stats.hh"
#include "sim/run.hh"
#include "trace/trace.hh"

namespace cachelab
{

namespace detail
{

/**
 * Run fn(0) .. fn(n-1), fanned out per RunConfig::jobs (serial when
 * jobs = 1 or when already on a pool worker).  Shared by the sweep
 * engines and the sampled sweep drivers.
 */
void sweepParallelFor(std::size_t n, const RunConfig &run,
                      const std::function<void(std::size_t)> &fn);

} // namespace detail

/** @return powers of two from @p lo to @p hi inclusive. */
std::vector<std::uint64_t> powersOfTwo(std::uint64_t lo, std::uint64_t hi);

/** The paper's cache-size axis: 32 bytes through 64 Kbytes. */
const std::vector<std::uint64_t> &paperCacheSizes();

/** One point of a sweep. */
struct SweepPoint
{
    std::uint64_t cacheBytes = 0;
    CacheStats stats;
};

/** How a sweep turns its size axis into results. */
enum class SweepEngine
{
    /** Single-pass when the config allows it, else parallel per-size. */
    Auto,
    /** One full cache run per size (parallel unless jobs = 1). */
    PerSize,
    /** One Mattson pass for the whole curve; fatal if config unfit. */
    SinglePass,
    /** Run both PerSize and SinglePass and panic on any mismatch. */
    Verify,
    /**
     * Statistically sampled per-size runs with a default SampleConfig
     * (10% systematic sampling, functional warming).  The returned
     * statistics are *estimates*, not bitwise results; use
     * sweepUnifiedSampled() / sweepSplitSampled() (sim/sampled.hh)
     * directly to control the plan and read confidence intervals.
     */
    Sampled,
};

/**
 * @return true when (@p base, @p run) is the Table 1 shape the
 * single-pass engine handles: fully associative LRU, demand fetch,
 * copy-back with fetch-on-write, no purging, no warm-up.
 */
bool sweepSinglePassEligible(const CacheConfig &base, const RunConfig &run);

/**
 * Sweep a unified cache over @p sizes for one trace.
 *
 * @param base all parameters except sizeBytes are taken from here.
 */
std::vector<SweepPoint> sweepUnified(const Trace &trace,
                                     const std::vector<std::uint64_t> &sizes,
                                     const CacheConfig &base,
                                     const RunConfig &run = {},
                                     SweepEngine engine = SweepEngine::Auto);

/** Result of a split-cache sweep: per-size I and D statistics. */
struct SplitSweepPoint
{
    std::uint64_t cacheBytes = 0; ///< per-side capacity
    CacheStats icache;
    CacheStats dcache;
};

/**
 * Sweep a split organization: at each size both the I- and the D-cache
 * have that capacity (the paper's Figures 3-4 setup).
 */
std::vector<SplitSweepPoint> sweepSplit(
    const Trace &trace, const std::vector<std::uint64_t> &sizes,
    const CacheConfig &base, const RunConfig &run = {},
    SweepEngine engine = SweepEngine::Auto);

/**
 * Out-of-core sweepUnified(): stream @p source through every size in
 * one input pass, never materializing the trace.
 *
 * The per-size engine is chunk-synchronous — each batch read from the
 * source fans out over the size axis (each size owns its cache and
 * carried driver state), so memory is O(batch + sizes), the input is
 * decoded once, and the statistics are bit-identical to the
 * materialized sweep.  Single-pass streams the Mattson analyzer; its
 * memory is O(footprint), not O(length).
 *
 * The source must be positioned at its beginning.  Engines that need
 * more than one pass (Verify; Sampled when the length is unknown)
 * reset() it between passes.
 */
std::vector<SweepPoint> sweepUnified(TraceSource &source,
                                     const std::vector<std::uint64_t> &sizes,
                                     const CacheConfig &base,
                                     const RunConfig &run = {},
                                     SweepEngine engine = SweepEngine::Auto);

/** Out-of-core sweepSplit(); same guarantees as streaming
 *  sweepUnified(). */
std::vector<SplitSweepPoint> sweepSplit(
    TraceSource &source, const std::vector<std::uint64_t> &sizes,
    const CacheConfig &base, const RunConfig &run = {},
    SweepEngine engine = SweepEngine::Auto);

} // namespace cachelab

#endif // CACHELAB_SIM_SWEEP_HH

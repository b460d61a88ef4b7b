/**
 * @file
 * Internal span-based simulation driver shared by runTrace(), the
 * sweep engines, the sampled driver and the spec engine.
 *
 * The hot loop lives here exactly once: driveSpan() advances one
 * System over a span of references, carrying {purge phase, warm-up
 * progress, reference count} across calls in a DriveState.  Feeding a
 * whole trace as one span reproduces the historical runTrace() loop
 * (and its codegen: the state is copied into locals around the loop);
 * feeding consecutive batches yields the identical access/purge/
 * resetStats sequence, which is what makes streamed and materialized
 * runs bit-identical.
 *
 * drivePass() is the one streamed multi-point loop on top of it: N
 * systems, each with its own run schedule and DriveState, fed
 * batch-by-batch from one TraceSource pass.
 */

#ifndef CACHELAB_SIM_DRIVE_HH
#define CACHELAB_SIM_DRIVE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace_event.hh"
#include "sim/run.hh"
#include "trace/memory_ref.hh"
#include "trace/source.hh"

namespace cachelab
{

class ThreadPool;

namespace detail
{

/** Driver state carried across driveSpan() calls (one per System). */
struct DriveState
{
    std::uint64_t sincePurge = 0;
    std::uint64_t seen = 0;      ///< references applied so far
    bool counting = false;       ///< past warm-up, stats are live

    explicit DriveState(const RunConfig &config)
        : counting(config.warmupRefs == 0)
    {}
};

/**
 * Observability handles sampled once per run (not per span): the
 * per-reference cost when everything is off stays one well-predicted
 * branch, and the simulated result is identical either way.
 */
struct DriveObs
{
    obs::ProgressMeter *progress;
    obs::TraceRecorder *recorder;
    bool reportProgress;
    bool recordPurges;

    DriveObs()
        : progress(&obs::ProgressMeter::global()),
          recorder(&obs::TraceRecorder::global()),
          reportProgress(progress->enabled()),
          recordPurges(recorder->enabled())
    {}
};

constexpr std::uint64_t kDriveProgressChunk = 1 << 16;

/**
 * Apply @p refs to @p system under @p config, continuing from
 * @p state.  Thread-safe across distinct (system, state) pairs.
 */
template <typename System>
void
driveSpan(std::span<const MemoryRef> refs, System &system,
          const RunConfig &config, DriveState &state, const DriveObs &ob)
{
    // Locals restore the register allocation of the historical
    // single-loop driver; members would reload every iteration.
    std::uint64_t since_purge = state.sincePurge;
    std::uint64_t seen = state.seen;
    bool counting = state.counting;

    // The loop exists twice so the (default) no-progress path carries
    // no per-reference progress check at all.
    if (ob.reportProgress) {
        for (const MemoryRef &ref : refs) {
            if (config.purgeInterval != 0 &&
                since_purge == config.purgeInterval) {
                system.purge();
                if (ob.recordPurges)
                    ob.recorder->instant("purge", "sim");
                since_purge = 0;
            }
            system.access(ref);
            ++since_purge;
            ++seen;
            if ((seen & (kDriveProgressChunk - 1)) == 0)
                ob.progress->advance(kDriveProgressChunk);
            if (!counting && seen == config.warmupRefs) {
                system.resetStats();
                counting = true;
            }
        }
    } else {
        for (const MemoryRef &ref : refs) {
            if (config.purgeInterval != 0 &&
                since_purge == config.purgeInterval) {
                system.purge();
                if (ob.recordPurges)
                    ob.recorder->instant("purge", "sim");
                since_purge = 0;
            }
            system.access(ref);
            ++since_purge;
            ++seen;
            if (!counting && seen == config.warmupRefs) {
                system.resetStats();
                counting = true;
            }
        }
    }

    state.sincePurge = since_purge;
    state.seen = seen;
    state.counting = counting;
}

/**
 * Close out one driven run: flush the sub-chunk progress remainder,
 * bump the sim.* counters, and enforce the length-dependent config
 * rules that a streaming run can only check once the stream has
 * drained (see RunConfig::warmupRefs).
 */
void driveFinish(const DriveState &state, const RunConfig &config,
                 const DriveObs &ob);

/**
 * source.nextBatch(out) timed as one "source" phase, so a streamed
 * run's phase profile shows what generating or decoding its input
 * cost apart from the simulation that consumes it.
 */
std::size_t nextSourceBatch(TraceSource &source, std::span<MemoryRef> out);

/**
 * Fan-out helper for the chunk-synchronous streaming engines: the
 * same serial / shared-pool / local-pool policy as sweepParallelFor
 * (sim/sweep.hh), but holding any local pool open across *all*
 * batches of a stream instead of rebuilding it per batch.
 */
class BatchExecutor
{
  public:
    explicit BatchExecutor(const RunConfig &run);
    ~BatchExecutor();

    /** Run fn(0) .. fn(n-1) under the policy chosen at construction. */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    ThreadPool *pool_ = nullptr;
    std::unique_ptr<ThreadPool> local_;
};

/**
 * One simulated point of a streamed pass: a system with its own run
 * schedule (purge interval, warm-up) and carried driver state, so
 * points with different schedules share one pass.
 */
template <typename System>
struct PassPoint
{
    std::unique_ptr<System> system;
    RunConfig run;
    DriveState state;

    PassPoint(std::unique_ptr<System> sys, const RunConfig &config)
        : system(std::move(sys)), run(config), state(config)
    {}
};

/**
 * Stream @p source once, chunk-synchronously: each batch (pulled
 * through nextSourceBatch(), so it is timed as "source") fans out over
 * @p points, and every point is closed with driveFinish() after the
 * stream drains.  Each point sees exactly the reference sequence a
 * dedicated run would feed it, so its statistics are bitwise those of
 * a standalone run.  @p fan supplies the fan-out width (jobs) and the
 * batch size; counters and profile scopes beyond driveFinish()'s are
 * the caller's.
 *
 * @return the number of references read from @p source.
 */
template <typename System>
std::uint64_t
drivePass(TraceSource &source, std::span<PassPoint<System>> points,
          const RunConfig &fan)
{
    const DriveObs ob;
    BatchExecutor exec(fan);
    std::vector<MemoryRef> buffer(fan.resolvedBatchRefs());
    std::uint64_t total = 0;
    while (const std::size_t got = nextSourceBatch(source, buffer)) {
        const std::span<const MemoryRef> batch(buffer.data(), got);
        exec.parallelFor(points.size(), [&](std::size_t i) {
            PassPoint<System> &point = points[i];
            driveSpan(batch, *point.system, point.run, point.state, ob);
        });
        total += got;
    }
    for (PassPoint<System> &point : points)
        driveFinish(point.state, point.run, ob);
    return total;
}

} // namespace detail
} // namespace cachelab

#endif // CACHELAB_SIM_DRIVE_HH

/**
 * @file
 * Implementation of the simulation drivers.
 */

#include "sim/run.hh"

#include <vector>

#include "obs/profile.hh"
#include "sim/drive.hh"
#include "util/logging.hh"

namespace cachelab
{

namespace detail
{

void
driveFinish(const DriveState &state, const RunConfig &config,
            const DriveObs &ob)
{
    // Length-dependent config rules, checked here so streaming runs
    // (length unknown up front) enforce the same contract as
    // materialized ones: a warm-up that consumed every reference
    // measured nothing, and a purge interval longer than the run
    // never fired.
    if (config.warmupRefs != 0 && config.warmupRefs >= state.seen)
        fatal("warmupRefs (", config.warmupRefs,
              ") must leave at least one measured reference; the run "
              "had only ", state.seen);
    CACHELAB_ASSERT(config.purgeInterval == 0 ||
                        config.purgeInterval <= state.seen,
                    "purgeInterval (", config.purgeInterval,
                    ") exceeds run length (", state.seen,
                    "); no purge would ever fire");

    if (ob.reportProgress)
        ob.progress->advance(state.seen & (kDriveProgressChunk - 1));
    obs::Registry &registry = obs::Registry::global();
    registry.counter("sim.runs").add(1);
    registry.counter("sim.refs").add(state.seen);
}

std::size_t
nextSourceBatch(TraceSource &source, std::span<MemoryRef> out)
{
    obs::ProfileScope profile("source");
    return source.nextBatch(out);
}

} // namespace detail

namespace
{

/** Materialized fast path: the whole trace is one span. */
template <typename System, typename StatsFn>
CacheStats
driveTrace(const Trace &trace, System &system, const RunConfig &config,
           StatsFn &&stats_of)
{
    // Check up front — the materialized length is known, so there is
    // no reason to burn a full run before reporting a bad config.
    if (config.warmupRefs != 0 && config.warmupRefs >= trace.size())
        fatal("warmupRefs (", config.warmupRefs,
              ") must leave at least one measured reference; trace '",
              trace.name(), "' has ", trace.size());
    CACHELAB_ASSERT(config.purgeInterval == 0 ||
                        config.purgeInterval <= trace.size(),
                    "purgeInterval (", config.purgeInterval,
                    ") exceeds trace length (", trace.size(),
                    "); no purge would ever fire");

    detail::DriveState state(config);
    const detail::DriveObs ob;
    detail::driveSpan(trace.refs(), system, config, state, ob);
    detail::driveFinish(state, config, ob);
    return stats_of(system);
}

/** Streaming path: consume batches until the source drains. */
template <typename System, typename StatsFn>
CacheStats
driveSource(TraceSource &source, System &system, const RunConfig &config,
            StatsFn &&stats_of)
{
    detail::DriveState state(config);
    const detail::DriveObs ob;
    std::vector<MemoryRef> buffer(config.resolvedBatchRefs());
    std::size_t got;
    while ((got = detail::nextSourceBatch(source, buffer)) != 0)
        detail::driveSpan(std::span<const MemoryRef>(buffer.data(), got),
                          system, config, state, ob);
    detail::driveFinish(state, config, ob);
    return stats_of(system);
}

} // namespace

CacheStats
runTrace(const Trace &trace, CacheSystem &system, const RunConfig &config)
{
    return driveTrace(trace, system, config,
                      [](CacheSystem &s) { return s.combinedStats(); });
}

CacheStats
runTrace(const Trace &trace, Cache &cache, const RunConfig &config)
{
    return driveTrace(trace, cache, config,
                      [](Cache &c) { return c.stats(); });
}

CacheStats
runTrace(TraceSource &source, CacheSystem &system, const RunConfig &config)
{
    return driveSource(source, system, config,
                       [](CacheSystem &s) { return s.combinedStats(); });
}

CacheStats
runTrace(TraceSource &source, Cache &cache, const RunConfig &config)
{
    return driveSource(source, cache, config,
                       [](Cache &c) { return c.stats(); });
}

} // namespace cachelab

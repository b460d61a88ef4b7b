/**
 * @file
 * Coalesced experiment engine: N compatible experiment specs, one
 * trace pass.
 *
 * Every simulated point carries its *own* cache, run schedule and
 * DriveState, so points belonging to different specs share a pass
 * exactly the way one sweep's size axis does: detail::drivePass()
 * (sim/drive.hh) fans each batch read from the input out over the
 * union of all specs' (config x size) points.  N specs over the same
 * input cost ~one trace decode instead of N, and each point's
 * access/purge/resetStats sequence is identical to a standalone run,
 * so the statistics are bitwise identical to running each spec alone
 * (specs may even differ in purge interval and warm-up).
 *
 * `cachelab_sim --spec a.json --spec b.json` groups its specs by
 * batchKey() and runs each group through runCoalesced().
 */

#ifndef CACHELAB_SERVE_ENGINE_HH
#define CACHELAB_SERVE_ENGINE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/manifest.hh"
#include "serve/spec.hh"
#include "sim/sweep.hh"
#include "trace/source.hh"

namespace cachelab::serve
{

/** Outcome of one experiment spec. */
struct ExperimentResult
{
    std::vector<SweepPoint> points;    ///< one per spec size, in order
    std::uint64_t refsProcessed = 0;   ///< input length actually driven
    double wallSeconds = 0.0;          ///< shared pass wall clock
    std::uint64_t coalescedGroup = 1;  ///< specs sharing the pass
    std::string error;                 ///< non-empty = request failed
};

/** Knobs of one engine pass. */
struct EngineOptions
{
    /** Fan-out width over points (RunConfig::jobs semantics). */
    unsigned jobs = 0;

    /** Streaming batch size; 0 = kDefaultBatchRefs. */
    std::size_t batchRefs = 0;
};

/**
 * Drive @p source once, fanning every batch over the union of the
 * specs' points.  All specs must share a batchKey() — i.e. describe
 * the same input; @p source must be that input, positioned at its
 * start.  Specs must already be validated (parseExperimentSpec).
 *
 * @return one result per spec, in order.
 */
std::vector<ExperimentResult> runCoalesced(
    TraceSource &source, std::span<const ExperimentSpec> specs,
    const EngineOptions &options = {});

/**
 * Standalone convenience: open the spec's input and run it alone.
 * On input failure the result carries the error instead.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec,
                               const EngineOptions &options = {});

/** Assemble the schema-versioned run manifest for one completed spec. */
obs::RunManifest buildExperimentManifest(const ExperimentSpec &spec,
                                         const ExperimentResult &result,
                                         const std::string &tool,
                                         const std::string &argv);

} // namespace cachelab::serve

#endif // CACHELAB_SERVE_ENGINE_HH

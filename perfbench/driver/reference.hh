/**
 * @file
 * An independent reference cache model the benchmark checks the
 * library's results against, on any seed.
 *
 * It covers the configurations whose behaviour is textbook-simple:
 * set-associative (or fully associative) LRU or FIFO, demand fetch,
 * copy-back with fetch-on-write, optional purge every N references,
 * unified or split I/D.  It shares no code with cachelab's Cache: a
 * flat way array per set, a linear scan, and timestamps for recency.
 */

#ifndef CACHELAB_PERFBENCH_REFERENCE_HH
#define CACHELAB_PERFBENCH_REFERENCE_HH

#include <cstdint>

#include "cache/stats.hh"
#include "trace/source.hh"

namespace perfbench
{

/** Geometry and policy of one reference cache. */
struct RefGeometry
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t lineBytes = 16;
    std::uint32_t assoc = 0; ///< 0 = fully associative
    bool fifo = false;       ///< false = LRU
};

/**
 * Stream @p source (from its current position) through one unified
 * reference cache, or through an I/D pair when @p split, purging every
 * @p purge_interval references (0 = never).
 * @return the combined statistics.
 */
cachelab::CacheStats referenceRun(cachelab::TraceSource &source,
                                  const RefGeometry &geo, bool split,
                                  std::uint64_t purge_interval);

} // namespace perfbench

#endif // CACHELAB_PERFBENCH_REFERENCE_HH

/**
 * @file
 * Calibrated KV/CDN workload model.
 *
 * The program model (program_model.hh) synthesizes *CPU* reference
 * streams — loops, stacks, records — in the image of the paper's 1985
 * trace corpus.  KV experiment specs ask a different
 * question: "what cache would this production key-value / CDN workload
 * need?".  This model generates that traffic class directly, with the
 * knobs the storage-trace literature calibrates against production
 * systems (2DIO-style):
 *
 *  - key popularity: Zipfian over a fixed key space.  theta ~0.9-1.0
 *    matches measured memcached/CDN popularity curves; theta 0 is a
 *    uniform stress test.
 *  - read/write mix: each point operation is a GET (reads the whole
 *    object) or a SET (writes the whole object) with a configurable
 *    read ratio.
 *  - scan bursts: with a configurable probability an operation is a
 *    range scan instead — a sequential walk over consecutive objects
 *    with geometric length.  Scans are what defeats LRU in storage
 *    caches and what makes prefetching look good; the fraction is the
 *    knob.
 *  - working-set drift: the popularity-rank -> key mapping rotates by
 *    one key every driftRefs references, so the hot set slowly moves
 *    through the key space the way item churn moves a CDN's.  Zero
 *    disables drift (stationary popularity).
 *
 * Objects are laid out contiguously (key k occupies
 * [k*objectBytes, (k+1)*objectBytes)); every operation touches its
 * whole object as a run of refBytes-wide sequential references, so
 * spatial locality within an object and across a scan is physical,
 * not simulated.  The stream is data-only (no instruction fetches) —
 * simulate it against a unified or data cache.
 *
 * Determinism: the whole stream is a pure function of the params
 * (including seed).  KvWorkloadSource delivers it through the standard
 * pull-based TraceSource contract; reset() restarts the stream bit
 * for bit, and any batch-size chunking reproduces the same sequence.
 */

#ifndef CACHELAB_WORKLOAD_KV_MODEL_HH
#define CACHELAB_WORKLOAD_KV_MODEL_HH

#include <cstdint>
#include <optional>
#include <string>

#include "trace/source.hh"
#include "trace/trace.hh"
#include "util/random.hh"

namespace cachelab
{

/** Everything that parameterizes one KV/CDN workload. */
struct KvWorkloadParams
{
    /** Number of memory references to generate. */
    std::uint64_t refCount = 250000;

    /** Distinct objects (keys) in the store. */
    std::uint64_t keyCount = 16384;

    /** Bytes per object; each operation touches the whole object. */
    std::uint32_t objectBytes = 64;

    /** Width of one emitted reference; must divide objectBytes. */
    std::uint32_t refBytes = 8;

    /** Zipf exponent of the key-popularity distribution (>= 0). */
    double zipfTheta = 0.9;

    /** GET share of point operations, in [0, 1]. */
    double readRatio = 0.9;

    /** Probability an operation is a range scan, in [0, 1). */
    double scanFraction = 0.02;

    /** Mean objects per scan (geometric, >= 1). */
    double meanScanObjects = 32.0;

    /** References between one-key rotations of the rank -> key
     *  mapping; 0 disables working-set drift. */
    std::uint64_t driftRefs = 0;

    /** Base address of the object array. */
    std::uint64_t baseAddr = 0x10000000;

    /** PRNG seed; the stream is a pure function of these params. */
    std::uint64_t seed = 1;

    /** fatal() if the parameters are inconsistent. */
    void validate() const;

    /**
     * @return a diagnostic if the parameters are inconsistent, or
     * std::nullopt when valid.  The non-fatal twin of validate(), for
     * callers (experiment specs) that must survive bad input.
     */
    std::optional<std::string> check() const;
};

/**
 * Streaming generator for one KV workload: delivers the deterministic
 * reference stream through the TraceSource contract without ever
 * holding more than one operation plus the consumer's batch in
 * memory.  reset() restarts the stream from the beginning.
 */
class KvWorkloadSource : public TraceSource
{
  public:
    KvWorkloadSource(const KvWorkloadParams &params, std::string name);

    const std::string &name() const override { return name_; }
    std::size_t nextBatch(std::span<MemoryRef> out) override;
    void reset() override;
    std::uint64_t knownLength() const override { return params_.refCount; }

  private:
    /** Append one operation's references to pending_. */
    void stepOp();

    /** Append the refs covering object @p key with @p kind. */
    void appendObject(std::uint64_t key, AccessKind kind);

    /** @return the key at popularity rank @p rank after drift. */
    std::uint64_t keyAtRank(std::uint64_t rank) const;

    KvWorkloadParams params_;
    std::string name_;
    Rng rng_;
    ZipfSampler popularity_;

    std::vector<MemoryRef> pending_; ///< generated, not yet delivered
    std::size_t pendingPos_ = 0;
    std::uint64_t delivered_ = 0; ///< refs handed to the consumer
    std::uint64_t generated_ = 0; ///< refs appended (drives drift)
};

/** Materialize the whole workload as a Trace named @p name. */
Trace generateKvWorkload(const KvWorkloadParams &params, std::string name);

} // namespace cachelab

#endif // CACHELAB_WORKLOAD_KV_MODEL_HH

/**
 * @file
 * The benchmark's three workloads.  Each builds its inputs from the
 * benchmark seed in setup(), runs one timed pass of library calls in
 * pass(), and re-checks results against the reference model in
 * verify().  See perfbench/README.md for why each workload exists.
 */

#ifndef CACHELAB_PERFBENCH_WORKLOADS_HH
#define CACHELAB_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "cache/stats.hh"
#include "sample/sample_config.hh"
#include "trace/trace.hh"

#include "kit.hh"

namespace perfbench
{

/** The fan-out width every sweep in the benchmark uses (capped by
 *  the machine's core count). */
inline constexpr unsigned kJobs = 2;

/** What one pass produced, point by point. */
class PassResults
{
  public:
    PassResults(SpanRecorder &rec, unsigned jobs, bool perturb)
        : rec_(rec), jobs_(jobs), perturb_(perturb)
    {}

    SpanRecorder &recorder() { return rec_; }
    unsigned jobs() const { return jobs_; }

    /**
     * Record an exactly simulated point.  @p expect_refs is the
     * reference count the point's accesses must add up to.
     */
    void exact(const std::string &id, cachelab::CacheStats stats,
               std::uint64_t expect_refs);

    /** Record a point whose digest covers several stats blocks. */
    void digestOnly(const std::string &id, std::uint64_t digest, bool sane);

    /** Count @p refs input references consumed by the pass. */
    void addRefs(std::uint64_t refs) { refs_ += refs; }
    std::uint64_t refs() const { return refs_; }

    /** Point ids in recording order, with their digests. */
    const std::vector<std::pair<std::string, std::uint64_t>> &
    digests() const { return digests_; }

    /** Ids of points whose internal consistency check failed. */
    const std::vector<std::string> &insane() const { return insane_; }

    /** Exact points' statistics, by id. */
    const std::map<std::string, cachelab::CacheStats> &
    stats() const { return stats_; }

    /** Sum over all exact points. */
    cachelab::CacheStats total() const;

  private:
    /** Apply the self-test's one-count perturbation to the first point. */
    void maybePerturb(cachelab::CacheStats &stats);

    SpanRecorder &rec_;
    unsigned jobs_;
    bool perturb_;
    std::uint64_t refs_ = 0;
    std::vector<std::pair<std::string, std::uint64_t>> digests_;
    std::vector<std::string> insane_;
    std::map<std::string, cachelab::CacheStats> stats_;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs; may be called repeatedly (each rebuilds). */
    virtual void setup(SpanRecorder &rec) = 0;

    /** One timed pass over the inputs. */
    virtual void pass(PassResults &out) = 0;

    /**
     * @return a materialized slice of about @p refs references of
     * this workload's inputs, for the per-layer probes.
     */
    virtual cachelab::Trace probeTrace(std::uint64_t refs) = 0;

    /**
     * Re-simulate a seeded selection of @p last's exact points with
     * the reference model; append the ids that disagree to
     * @p failures.  @return how many points were checked.
     */
    virtual std::size_t verify(const PassResults &last,
                               std::vector<std::string> &failures) = 0;

    /** Extra human-readable figures (e.g. the [Clar83] error). */
    virtual void report(const PassResults &) {}
};

/**
 * @return the workload called @p name, seeded by @p seed, that keeps
 * its files under @p work_dir; nullptr for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &work_dir);

/** The configurations the per-layer cache probes time. */
struct ProbeConfig
{
    std::string name; ///< metric suffix: cache.access_<name>
    cachelab::CacheConfig base;
    std::vector<std::uint64_t> sizes;
    bool split = false;
    std::uint64_t purgeInterval = 0;
};

/** Every configuration either workload simulates, in metric order. */
const std::vector<ProbeConfig> &probeConfigs();

/** The KV size axis and the live-point sampling plan (ckpt probes). */
const std::vector<std::uint64_t> &kvSizes();
cachelab::CacheConfig kvBaseConfig();
cachelab::SampleConfig kvSampleConfig();

} // namespace perfbench

#endif // CACHELAB_PERFBENCH_WORKLOADS_HH

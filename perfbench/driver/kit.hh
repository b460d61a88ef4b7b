/**
 * @file
 * Outside-in timing kit for the benchmark driver: wall and CPU clocks,
 * an in-memory span recorder, a timing TraceSource decorator, a null
 * CacheSystem, and the results digest.
 *
 * Everything here measures the library from the outside, around calls
 * into its public entry points; nothing is compiled into the library.
 */

#ifndef CACHELAB_PERFBENCH_KIT_HH
#define CACHELAB_PERFBENCH_KIT_HH

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cache/organization.hh"
#include "cache/stats.hh"
#include "trace/source.hh"

namespace perfbench
{

/** Seconds on the monotonic clock. */
double wallNow();

/** User + system CPU seconds of the whole process (all threads). */
double cpuNow();

/** Peak resident set of this process, in MiB. */
double peakRssMib();

/** Wall and CPU time elapsed since construction. */
class Stopwatch
{
  public:
    Stopwatch() : wall0_(wallNow()), cpu0_(cpuNow()) {}

    double wall() const { return wallNow() - wall0_; }
    double cpu() const { return cpuNow() - cpu0_; }

  private:
    double wall0_;
    double cpu0_;
};

/** One recorded call into a layer. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    double cpu = 0;          ///< process CPU seconds spent inside
    int parent = -1;         ///< index of the enclosing span, -1 = root
    int run = 0;             ///< which pass / probe round it belongs to
    std::uint64_t refs = 0;  ///< references the call consumed
    unsigned jobs = 0;       ///< fan-out width of a sweep call, else 0
};

/**
 * Keeps spans in memory while the run goes and writes them out when it
 * ends.  Disabled recorders cost one branch per call site.
 *
 * Only the driving thread opens enclosing spans; leaf spans (source
 * batches) may come from any thread and are parented to the span that
 * is open on the driving thread at that moment.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Run id stamped on every span opened from now on. */
    void setRun(int run) { run_ = run; }

    /** Open an enclosing span; @return its index, or -1 when off. */
    int open(const std::string &name, unsigned jobs = 0);

    /** Close span @p id, crediting it @p refs references. */
    void close(int id, std::uint64_t refs);

    /** Record a finished leaf span under the open span. */
    void leaf(const std::string &name, double start, double end,
              std::uint64_t refs);

    /** @return the spans recorded so far (not thread-safe vs writers). */
    const std::vector<Span> &spans() const { return spans_; }

    /**
     * @return each span's duration minus the part of it its children
     * cover (children may overlap; their union is subtracted).
     */
    std::vector<double> selfTimes() const;

    /** Write every span as one JSON object per line to @p path. */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    int run_ = 0;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< stack of open enclosing spans
};

/** RAII enclosing span; records nothing when the recorder is off. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name, unsigned jobs = 0)
        : rec_(rec), id_(rec.open(name, jobs))
    {}
    ~ScopedSpan() { rec_.close(id_, refs_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void setRefs(std::uint64_t refs) { refs_ = refs; }

  private:
    SpanRecorder &rec_;
    int id_;
    std::uint64_t refs_ = 0;
};

/**
 * Non-owning TraceSource decorator: forwards every call to @p inner,
 * counts the references delivered or skipped, and (when the recorder
 * is on) records each nextBatch() as a leaf span named @p layer.
 *
 * Wrapping also routes a materialized Trace to the library's
 * TraceSource overloads, which is the only overload family the
 * benchmark calls.
 */
class TimingSource final : public cachelab::TraceSource
{
  public:
    TimingSource(cachelab::TraceSource &inner, std::string layer,
                 SpanRecorder &rec)
        : inner_(inner), layer_(std::move(layer)), rec_(rec)
    {}

    const std::string &name() const override { return inner_.name(); }
    std::size_t nextBatch(std::span<cachelab::MemoryRef> out) override;
    void reset() override { inner_.reset(); }
    std::uint64_t knownLength() const override { return inner_.knownLength(); }
    std::uint64_t skip(std::uint64_t n) override;

    /** References delivered or skipped since construction. */
    std::uint64_t refs() const { return refs_; }

  private:
    cachelab::TraceSource &inner_;
    std::string layer_;
    SpanRecorder &rec_;
    std::uint64_t refs_ = 0;
};

/**
 * A CacheSystem that does no cache work: it only counts accesses by
 * kind, so runTrace() over it times the drive loop itself.
 */
class NullSystem final : public cachelab::CacheSystem
{
  public:
    bool access(const cachelab::MemoryRef &ref) override;
    void purge() override { ++stats_.purges; }
    cachelab::CacheStats combinedStats() const override { return stats_; }
    void resetStats() override { stats_ = {}; }
    std::string describe() const override { return "null"; }

  private:
    cachelab::CacheStats stats_;
};

/** FNV-1a offset basis (64-bit). */
inline constexpr std::uint64_t kDigestBasis = 1469598103934665603ULL;

/**
 * Fold every CacheStats counter into @p hash, in the field order of
 * cache/stats.hh, as 8 little-endian bytes each (FNV-1a).
 */
std::uint64_t digestStats(std::uint64_t hash, const cachelab::CacheStats &s);

/** FNV-1a over one 64-bit value, little-endian. */
std::uint64_t digestWord(std::uint64_t hash, std::uint64_t word);

/** splitmix64 finalizer: derives independent seeds from one seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Median of @p values (which is reordered); 0 when empty. */
double median(std::vector<double> values);

} // namespace perfbench

#endif // CACHELAB_PERFBENCH_KIT_HH

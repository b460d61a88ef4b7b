/**
 * @file
 * One-pass LRU stack-distance analysis (Mattson et al., 1970).
 *
 * For a fully associative LRU cache, the references that miss in a
 * cache of N lines are exactly those whose LRU stack distance exceeds
 * N (plus cold first-touches).  One pass over a trace therefore
 * yields the miss ratio at *every* cache size simultaneously — the
 * standard trick behind 1980s trace-driven studies like this paper's,
 * where "computer time is a limited resource" (section 3.2).
 *
 * Distances come from a rank bitset over timestamps.  Every line
 * touch takes the next timestamp; a line remembers the timestamp of
 * its last touch, and one bit per timestamp is set iff that timestamp
 * is some line's latest touch.  The stack depth of a line is then the
 * number of set bits at or after its own: lines touched since
 * (inclusive).  Counting is cheap at either end.  A line reused soon
 * after its last touch (the common case) sums the popcounts of the
 * few words between its mark and the clock.  A deeper line subtracts
 * the marks *before* its own from the line count, read from a small
 * Fenwick tree over per-word popcounts (64x smaller than a tree over
 * timestamps) plus one partial word.
 *
 * Lines are dense ids: an open-addressing table of 32-bit slots
 * (linear probing, load <= 1/2, no node allocation) maps a line
 * address to an index into one flat per-line state vector.  The
 * empty slot is an id no line can have, so every address — line 0
 * and the top line included — is a valid key.  An
 * owner[timestamp] -> id array lets the clock be compacted without a
 * sort or a hash lookup: when the timestamps run out, a walk over the
 * set bits in order renumbers the live marks 0..lines-1 through
 * owner, and the block tree is rebuilt in O(n).  The timestamp space
 * stays within 2x the number of distinct lines (renumber in place
 * when at most half of it is live, double it otherwise).
 *
 * None of this changes a result.  Depths depend only on the *order*
 * of the last touches, which compaction preserves, and the per-kind,
 * dirty and histogram accounting below is exactly that of the
 * original move-to-front list walk (kept as the reference model in
 * the property tests and pinned across revisions by
 * tests/golden/stack_curve.tsv).
 *
 * The distances this class records are per-line-touch distances for
 * the line containing each reference; a multi-line reference records
 * one distance per touched line.  missCountFor() therefore agrees
 * with Cache's *line-fetch* count (demandFetches), and
 * refMissRatioFor() with its per-reference miss ratio, for the
 * Table 1 configuration (fully associative, LRU, demand fetch,
 * write-allocate, no purges).
 *
 * Beyond distances, the analyzer tracks enough per-kind and dirty
 * state to reconstruct the *complete* CacheStats of a Table 1 run at
 * any size from the single pass — see table1StatsFor().  Dirty
 * accounting rests on an LRU invariant: after any access to a line,
 * the set of cache sizes at which the line is dirty is always of the
 * form {N >= t} for one threshold t (a write makes it dirty
 * everywhere; a read at stack distance d means sizes < d refetched
 * the line clean), so one integer per line suffices.
 */

#ifndef CACHELAB_CACHE_STACK_ANALYSIS_HH
#define CACHELAB_CACHE_STACK_ANALYSIS_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/stats.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace cachelab
{

/**
 * Incremental LRU stack profiler.
 *
 * Feed references with access(); query miss counts or full curves at
 * any point.
 */
class StackAnalyzer
{
  public:
    /** @param line_bytes cache line size (power of two). */
    explicit StackAnalyzer(std::uint32_t line_bytes = 16);

    /** Record one memory reference (all lines it touches). */
    void access(const MemoryRef &ref);

    /** Record every reference of @p trace. */
    void accessAll(const Trace &trace);

    /** Record a batch of references (streaming consumers). */
    void accessAll(std::span<const MemoryRef> refs);

    /** Total references recorded. */
    std::uint64_t refCount() const { return refs_; }

    /** Line touches whose stack distance was d (0-based index d-1). */
    const std::vector<std::uint64_t> &distanceCounts() const
    {
        return distances_;
    }

    /** First-touch (cold) line accesses. */
    std::uint64_t coldCount() const { return cold_; }

    /** Distinct lines seen so far. */
    std::uint64_t distinctLineCount() const { return lines_.size(); }

    /**
     * Line fetches a fully associative LRU cache of @p size_bytes
     * would perform on the recorded stream (distance > lines + cold).
     */
    std::uint64_t missCountFor(std::uint64_t size_bytes) const;

    /** Line-touch miss ratio at @p size_bytes. */
    double missRatioFor(std::uint64_t size_bytes) const;

    /**
     * Per-reference miss ratio at @p size_bytes (a reference misses
     * when any line it touches does).  Exact because the analyzer
     * also tracks per-reference outcomes per size via the distance of
     * the worst line touched.
     */
    double refMissRatioFor(std::uint64_t size_bytes) const;

    /** Mean stack distance of non-cold line touches. */
    double meanDistance() const;

    /**
     * The complete statistics a Table 1 run (fully associative LRU,
     * demand fetch, copy-back with fetch-on-write, no purges, no
     * warm-up) of @p size_bytes would produce over the recorded
     * stream — bit-identical to runTrace() with a Cache, including
     * per-kind misses, replacement pushes and dirty-push traffic.
     */
    CacheStats table1StatsFor(std::uint64_t size_bytes) const;

    /**
     * A reused line whose last touch lies at most this many bitset
     * words below the clock's word counts its depth by summing those
     * words' popcounts; deeper lines query the block tree instead.
     */
    static constexpr std::uint64_t kNearWords = 4;

  private:
    /** Sentinel dirty threshold: clean at every size. */
    static constexpr std::uint64_t kClean = ~std::uint64_t{0};

    /** Empty slot of the line-id table (an id no line can have). */
    static constexpr std::uint32_t kNoLine = ~std::uint32_t{0};

    struct LineState
    {
        std::uint64_t lastTime;  ///< timestamp of the last touch
        std::uint64_t dirtyFrom; ///< dirty at sizes >= this (kClean: none)
        Addr addr;               ///< line address
    };

    /** @return stack distance (1-based) or 0 for a cold touch. */
    std::uint64_t touchLine(Addr line_addr, bool is_write);

    /** @return the id-table slot of @p line_addr, or its empty slot. */
    std::size_t findSlot(Addr line_addr) const;

    /** Double the id table and re-insert every line. */
    void growIndex();

    /** Block-tree add at bitset word @p word. */
    void blockAdd(std::uint64_t word, std::int32_t delta);

    /** @return marks in bitset words [0, word). */
    std::uint64_t blockPrefix(std::uint64_t word) const;

    /** Mark timestamp @p t as a line's latest touch. */
    void addMark(std::uint64_t t);

    /** Move a line's mark from timestamp @p from to @p to. */
    void moveMark(std::uint64_t from, std::uint64_t to);

    /** Current 1-based stack depth of @p state's line. */
    std::uint64_t depthOf(const LineState &state) const;

    /** @return a fresh timestamp, compacting/growing the clock first. */
    std::uint64_t allocTimestamp();

    /** Renumber live timestamps 0..n-1 and resize the clock to @p cap. */
    void compact(std::uint64_t capacity);

    /** Record one push range [first, last] into the delta array. */
    void recordDirtyPushes(std::uint64_t first, std::uint64_t last);

    std::uint32_t lineBytes_;
    unsigned lineShift_ = 0;
    std::uint64_t refs_ = 0;
    std::uint64_t lineTouches_ = 0;
    std::uint64_t cold_ = 0;

    /** distances_[d-1] = touches at stack distance d. */
    std::vector<std::uint64_t> distances_;

    /** Per-kind reference counts and worst-distance histograms. */
    std::array<std::uint64_t, 3> refsByKind_{};
    std::array<std::uint64_t, 3> refColdByKind_{};
    std::array<std::vector<std::uint64_t>, 3> refWorstByKind_{};

    /**
     * Completed dirty evictions by cache size, as a difference array:
     * the number of dirty pushes a size-N cache performed is the
     * prefix sum dirtyPushDelta_[1..N] plus the still-resident lines'
     * contribution computed at query time.
     */
    std::vector<std::int64_t> dirtyPushDelta_;

    /** Per-line state, indexed by dense id (first-touch order). */
    std::vector<LineState> lines_;

    /** Open-addressing line address -> id table (kNoLine: empty). */
    std::vector<std::uint32_t> index_;
    unsigned indexShift_ = 0; ///< 64 - log2(index_.size())

    // The clock: timestamps [0, owner_.size()), time_ of them issued.
    std::uint64_t time_ = 0;
    std::vector<std::uint32_t> owner_;  ///< timestamp -> id (when marked)
    std::vector<std::uint64_t> marks_;  ///< one bit per timestamp
    std::vector<std::int32_t> blocks_;  ///< Fenwick over word popcounts
};

/**
 * Convenience: one pass over @p trace, returning per-reference miss
 * ratios at each size in @p sizes (Table 1 semantics).
 */
std::vector<double> lruMissRatioCurve(const Trace &trace,
                                      const std::vector<std::uint64_t> &sizes,
                                      std::uint32_t line_bytes = 16);

/** lruMissRatioCurve() over a streamed source (one pass, O(batch) +
 *  footprint memory; consumes from the current position). */
std::vector<double> lruMissRatioCurve(TraceSource &source,
                                      const std::vector<std::uint64_t> &sizes,
                                      std::uint32_t line_bytes = 16);

/**
 * All-associativity stack analysis at a fixed set count: one pass
 * yields the line-fetch counts of a set-associative LRU cache for
 * *every* way count simultaneously (Mattson generalizes per set,
 * because set membership does not depend on associativity when the
 * set count is fixed).
 */
class SetAssocStackAnalyzer
{
  public:
    /**
     * @param set_count number of sets (power of two).
     * @param line_bytes line size (power of two).
     */
    SetAssocStackAnalyzer(std::uint64_t set_count,
                          std::uint32_t line_bytes = 16);

    /** Record one reference (all lines it touches). */
    void access(const MemoryRef &ref);

    /** Record a whole trace. */
    void accessAll(const Trace &trace);

    /** Record a batch of references (streaming consumers). */
    void accessAll(std::span<const MemoryRef> refs);

    /** Line fetches an LRU cache with @p ways ways would perform. */
    std::uint64_t missCountFor(std::uint64_t ways) const;

    /** Line-touch miss ratio at @p ways. */
    double missRatioFor(std::uint64_t ways) const;

    std::uint64_t lineTouches() const { return lineTouches_; }
    std::uint64_t coldCount() const { return cold_; }

  private:
    std::uint64_t touchLine(Addr line_addr);

    std::uint64_t setCount_;
    std::uint32_t lineBytes_;
    std::uint64_t lineTouches_ = 0;
    std::uint64_t cold_ = 0;
    std::vector<std::uint64_t> distances_; ///< per within-set depth
    std::vector<std::vector<Addr>> stacks_; ///< per-set MRU lists
};

} // namespace cachelab

#endif // CACHELAB_CACHE_STACK_ANALYSIS_HH

/**
 * @file
 * Implementation of the LRU stack-distance analyzer.
 */

#include "cache/stack_analysis.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/bits.hh"
#include "util/logging.hh"

namespace cachelab
{

namespace
{

/** Initial clock capacity (a multiple of 64); doubles as the trace's
 *  footprint grows. */
constexpr std::uint64_t kInitialTimeCapacity = 1024;

/** Initial id-table slots (a power of two). */
constexpr std::size_t kInitialIndexSlots = 1024;

/** Distinct-line limit: ids stay below kNoLine and block-tree sums
 *  fit their int32 nodes. */
constexpr std::size_t kMaxLines = std::numeric_limits<std::int32_t>::max();

/** Fibonacci-hashing multiplier: the table takes the product's top bits. */
constexpr std::uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ULL;

constexpr std::uint64_t
bitOf(std::uint64_t t)
{
    return std::uint64_t{1} << (t & 63);
}

} // namespace

StackAnalyzer::StackAnalyzer(std::uint32_t line_bytes)
    : lineBytes_(line_bytes)
{
    CACHELAB_ASSERT(isPowerOfTwo(line_bytes),
                    "line size must be a power of two");
    lineShift_ = floorLog2(line_bytes);
    index_.assign(kInitialIndexSlots, kNoLine);
    indexShift_ = 64 - floorLog2(kInitialIndexSlots);
    compact(kInitialTimeCapacity); // an empty clock
}

std::size_t
StackAnalyzer::findSlot(Addr line_addr) const
{
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(
        ((line_addr >> lineShift_) * kHashMultiplier) >> indexShift_);
    for (;; slot = (slot + 1) & mask) {
        const std::uint32_t id = index_[slot];
        if (id == kNoLine || lines_[id].addr == line_addr)
            return slot;
    }
}

void
StackAnalyzer::growIndex()
{
    index_.assign(index_.size() * 2, kNoLine);
    --indexShift_;
    for (std::size_t id = 0; id < lines_.size(); ++id)
        index_[findSlot(lines_[id].addr)] = static_cast<std::uint32_t>(id);
}

void
StackAnalyzer::blockAdd(std::uint64_t word, std::int32_t delta)
{
    for (std::uint64_t i = word + 1; i < blocks_.size(); i += i & (~i + 1))
        blocks_[i] += delta;
}

std::uint64_t
StackAnalyzer::blockPrefix(std::uint64_t word) const
{
    std::int64_t sum = 0;
    for (std::uint64_t i = word; i; i &= i - 1)
        sum += blocks_[i];
    return static_cast<std::uint64_t>(sum);
}

void
StackAnalyzer::addMark(std::uint64_t t)
{
    marks_[t >> 6] |= bitOf(t);
    blockAdd(t >> 6, +1);
}

void
StackAnalyzer::moveMark(std::uint64_t from, std::uint64_t to)
{
    marks_[from >> 6] &= ~bitOf(from);
    marks_[to >> 6] |= bitOf(to);
    if ((from >> 6) != (to >> 6)) {
        blockAdd(from >> 6, -1);
        blockAdd(to >> 6, +1);
    }
}

std::uint64_t
StackAnalyzer::depthOf(const LineState &state) const
{
    // Marks at or after the line's own = lines touched since
    // (inclusive), which is its 1-based stack depth.
    const std::uint64_t word = state.lastTime >> 6;
    const std::uint64_t top = (time_ - 1) >> 6;
    if (top - word <= kNearWords) {
        std::uint64_t depth = static_cast<std::uint64_t>(
            std::popcount(marks_[word] >> (state.lastTime & 63)));
        for (std::uint64_t w = word + 1; w <= top; ++w)
            depth += static_cast<std::uint64_t>(std::popcount(marks_[w]));
        return depth;
    }
    const std::uint64_t below = static_cast<std::uint64_t>(
        std::popcount(marks_[word] & (bitOf(state.lastTime) - 1)));
    return lines_.size() - blockPrefix(word) - below;
}

void
StackAnalyzer::compact(std::uint64_t capacity)
{
    CACHELAB_ASSERT(lines_.size() < capacity, "compaction target too small");
    // Walk the marks in clock order and renumber through owner_.  The
    // write cursor never passes the read cursor, so owner_ is
    // rewritten in place.
    std::uint64_t live = 0;
    for (std::uint64_t w = 0; w * 64 < time_; ++w) {
        for (std::uint64_t bits = marks_[w]; bits; bits &= bits - 1) {
            const std::uint32_t id =
                owner_[w * 64 + static_cast<std::uint64_t>(
                                    std::countr_zero(bits))];
            owner_[live] = id;
            lines_[id].lastTime = live++;
        }
    }
    CACHELAB_ASSERT(live == lines_.size(), "compaction found ", live,
                    " marks for ", lines_.size(), " lines");

    // The live marks are now exactly timestamps [0, live).
    time_ = live;
    owner_.resize(capacity);
    marks_.assign(capacity / 64, 0);
    for (std::uint64_t w = 0; w < live / 64; ++w)
        marks_[w] = ~std::uint64_t{0};
    if (live % 64)
        marks_[live / 64] = bitOf(live) - 1;

    // O(n) Fenwick build: each node pushes its sum to its parent.
    blocks_.assign(marks_.size() + 1, 0);
    for (std::uint64_t i = 1; i < blocks_.size(); ++i) {
        blocks_[i] += std::popcount(marks_[i - 1]);
        const std::uint64_t parent = i + (i & (~i + 1));
        if (parent < blocks_.size())
            blocks_[parent] += blocks_[i];
    }
}

std::uint64_t
StackAnalyzer::allocTimestamp()
{
    const std::uint64_t capacity = owner_.size();
    if (time_ == capacity) {
        // Renumber in place when at most half the timestamps are
        // live; otherwise double the clock as well.
        compact(lines_.size() <= capacity / 2 ? capacity : capacity * 2);
    }
    return time_++;
}

void
StackAnalyzer::recordDirtyPushes(std::uint64_t first, std::uint64_t last)
{
    // +1 dirty push for every cache size N in [first, last].
    if (dirtyPushDelta_.size() < last + 2)
        dirtyPushDelta_.resize(last + 2, 0);
    dirtyPushDelta_[first] += 1;
    dirtyPushDelta_[last + 1] -= 1;
}

std::uint64_t
StackAnalyzer::touchLine(Addr line_addr, bool is_write)
{
    ++lineTouches_;
    const std::size_t slot = findSlot(line_addr);
    if (index_[slot] == kNoLine) {
        CACHELAB_ASSERT(lines_.size() < kMaxLines, "too many distinct lines");
        // Take the timestamp before the line joins, so a compaction
        // here sees exactly one mark per existing line.
        const std::uint64_t t = allocTimestamp();
        const auto id = static_cast<std::uint32_t>(lines_.size());
        lines_.push_back({t, is_write ? 1 : kClean, line_addr});
        owner_[t] = id;
        addMark(t);
        index_[slot] = id;
        if (2 * lines_.size() > index_.size())
            growIndex();
        ++cold_;
        return 0;
    }

    const std::uint32_t id = index_[slot];
    LineState &state = lines_[id];
    const std::uint64_t depth = depthOf(state);
    CACHELAB_ASSERT(depth >= 1 && depth <= lines_.size(),
                    "corrupt stack depth");

    // Since its last touch the line sank from depth 1 to this depth,
    // so every cache of size N in [1, depth-1] evicted it; those
    // pushes were dirty where the line's dirty threshold reaches.
    if (state.dirtyFrom != kClean && state.dirtyFrom < depth)
        recordDirtyPushes(state.dirtyFrom, depth - 1);
    state.dirtyFrom = is_write
        ? 1
        : (state.dirtyFrom == kClean ? kClean
                                     : std::max(state.dirtyFrom, depth));

    // Re-stamp: allocate first (a compaction renumbers lastTime), then
    // move the line's mark to the fresh timestamp.
    const std::uint64_t t = allocTimestamp();
    moveMark(state.lastTime, t);
    owner_[t] = id;
    state.lastTime = t;

    if (depth > distances_.size())
        distances_.resize(depth, 0);
    ++distances_[depth - 1];
    return depth;
}

void
StackAnalyzer::access(const MemoryRef &ref)
{
    CACHELAB_ASSERT(ref.size > 0, "zero-sized reference");
    ++refs_;
    const auto kind = static_cast<std::size_t>(ref.kind);
    ++refsByKind_[kind];
    const bool is_write = ref.kind == AccessKind::Write;

    const Addr first = alignDown(ref.addr, lineBytes_);
    const Addr last = alignDown(ref.addr + ref.size - 1, lineBytes_);
    std::uint64_t worst = 1;
    bool any_cold = false;
    for (Addr line = first;; line += lineBytes_) {
        const std::uint64_t d = touchLine(line, is_write);
        if (d == 0)
            any_cold = true;
        else
            worst = std::max(worst, d);
        if (line == last)
            break;
    }
    if (any_cold) {
        ++refColdByKind_[kind];
    } else {
        auto &hist = refWorstByKind_[kind];
        if (worst > hist.size())
            hist.resize(worst, 0);
        ++hist[worst - 1];
    }
}

void
StackAnalyzer::accessAll(const Trace &trace)
{
    accessAll(trace.refs());
}

void
StackAnalyzer::accessAll(std::span<const MemoryRef> refs)
{
    for (const MemoryRef &ref : refs)
        access(ref);
}

std::uint64_t
StackAnalyzer::missCountFor(std::uint64_t size_bytes) const
{
    const std::uint64_t lines = size_bytes / lineBytes_;
    std::uint64_t misses = cold_;
    for (std::uint64_t d = lines + 1; d <= distances_.size(); ++d)
        misses += distances_[d - 1];
    return misses;
}

double
StackAnalyzer::missRatioFor(std::uint64_t size_bytes) const
{
    return lineTouches_
        ? static_cast<double>(missCountFor(size_bytes)) /
            static_cast<double>(lineTouches_)
        : 0.0;
}

double
StackAnalyzer::refMissRatioFor(std::uint64_t size_bytes) const
{
    if (refs_ == 0)
        return 0.0;
    const std::uint64_t lines = size_bytes / lineBytes_;
    std::uint64_t misses = 0;
    for (std::size_t k = 0; k < 3; ++k) {
        misses += refColdByKind_[k];
        const auto &hist = refWorstByKind_[k];
        for (std::uint64_t w = lines + 1; w <= hist.size(); ++w)
            misses += hist[w - 1];
    }
    return static_cast<double>(misses) / static_cast<double>(refs_);
}

double
StackAnalyzer::meanDistance() const
{
    std::uint64_t n = 0;
    double sum = 0.0;
    for (std::uint64_t d = 1; d <= distances_.size(); ++d) {
        n += distances_[d - 1];
        sum += static_cast<double>(d) *
            static_cast<double>(distances_[d - 1]);
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

CacheStats
StackAnalyzer::table1StatsFor(std::uint64_t size_bytes) const
{
    CACHELAB_ASSERT(size_bytes >= lineBytes_,
                    "cache smaller than one line");
    const std::uint64_t lines = size_bytes / lineBytes_;

    CacheStats stats;
    for (std::size_t k = 0; k < 3; ++k) {
        stats.accesses[k] = refsByKind_[k];
        stats.misses[k] = refColdByKind_[k];
        const auto &hist = refWorstByKind_[k];
        for (std::uint64_t w = lines + 1; w <= hist.size(); ++w)
            stats.misses[k] += hist[w - 1];
    }

    stats.demandFetches = missCountFor(size_bytes);
    stats.bytesFromMemory = stats.demandFetches * lineBytes_;

    // Every fetch either fills an empty way or evicts a valid line.
    const std::uint64_t resident =
        std::min<std::uint64_t>(lines, lines_.size());
    stats.replacementPushes = stats.demandFetches - resident;

    // Dirty pushes already completed (the pushed line was touched
    // again afterwards) live in the difference array ...
    std::int64_t dirty = 0;
    const std::uint64_t bound =
        std::min<std::uint64_t>(lines,
                                dirtyPushDelta_.empty()
                                    ? 0
                                    : dirtyPushDelta_.size() - 1);
    for (std::uint64_t n = 1; n <= bound; ++n)
        dirty += dirtyPushDelta_[n];
    // ... plus lines never touched again: pushed from every size
    // smaller than their current depth, dirty down to their threshold.
    for (const LineState &state : lines_) {
        if (state.dirtyFrom == kClean || state.dirtyFrom > lines)
            continue;
        if (lines < depthOf(state))
            ++dirty;
    }
    stats.dirtyReplacementPushes = static_cast<std::uint64_t>(dirty);
    stats.bytesToMemory = stats.dirtyReplacementPushes * lineBytes_;
    return stats;
}

SetAssocStackAnalyzer::SetAssocStackAnalyzer(std::uint64_t set_count,
                                             std::uint32_t line_bytes)
    : setCount_(set_count), lineBytes_(line_bytes)
{
    CACHELAB_ASSERT(isPowerOfTwo(set_count), "set count must be 2^k");
    CACHELAB_ASSERT(isPowerOfTwo(line_bytes), "line size must be 2^k");
    stacks_.resize(set_count);
}

std::uint64_t
SetAssocStackAnalyzer::touchLine(Addr line_addr)
{
    auto &stack = stacks_[(line_addr / lineBytes_) % setCount_];
    const auto it = std::find(stack.begin(), stack.end(), line_addr);
    ++lineTouches_;
    if (it == stack.end()) {
        stack.insert(stack.begin(), line_addr);
        ++cold_;
        return 0;
    }
    const auto depth = static_cast<std::uint64_t>(it - stack.begin()) + 1;
    stack.erase(it);
    stack.insert(stack.begin(), line_addr);
    if (depth > distances_.size())
        distances_.resize(depth, 0);
    ++distances_[depth - 1];
    return depth;
}

void
SetAssocStackAnalyzer::access(const MemoryRef &ref)
{
    CACHELAB_ASSERT(ref.size > 0, "zero-sized reference");
    const Addr first = alignDown(ref.addr, lineBytes_);
    const Addr last = alignDown(ref.addr + ref.size - 1, lineBytes_);
    for (Addr line = first;; line += lineBytes_) {
        touchLine(line);
        if (line == last)
            break;
    }
}

void
SetAssocStackAnalyzer::accessAll(const Trace &trace)
{
    accessAll(trace.refs());
}

void
SetAssocStackAnalyzer::accessAll(std::span<const MemoryRef> refs)
{
    for (const MemoryRef &ref : refs)
        access(ref);
}

std::uint64_t
SetAssocStackAnalyzer::missCountFor(std::uint64_t ways) const
{
    std::uint64_t misses = cold_;
    for (std::uint64_t d = ways + 1; d <= distances_.size(); ++d)
        misses += distances_[d - 1];
    return misses;
}

double
SetAssocStackAnalyzer::missRatioFor(std::uint64_t ways) const
{
    return lineTouches_
        ? static_cast<double>(missCountFor(ways)) /
            static_cast<double>(lineTouches_)
        : 0.0;
}

std::vector<double>
lruMissRatioCurve(const Trace &trace,
                  const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes)
{
    MemorySource source(trace.refs(), trace.name());
    return lruMissRatioCurve(source, sizes, line_bytes);
}

std::vector<double>
lruMissRatioCurve(TraceSource &source,
                  const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes)
{
    StackAnalyzer analyzer(line_bytes);
    source.forEachBatch([&](std::span<const MemoryRef> batch) {
        analyzer.accessAll(batch);
    });
    std::vector<double> out;
    out.reserve(sizes.size());
    for (std::uint64_t s : sizes)
        out.push_back(analyzer.refMissRatioFor(s));
    return out;
}

} // namespace cachelab

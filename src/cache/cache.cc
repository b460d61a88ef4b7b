/**
 * @file
 * Implementation of the cache model.
 */

#include "cache/cache.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace cachelab
{

Cache::Cache(const CacheConfig &config)
    : config_(config), rng_(config.randomSeed)
{
    config_.validate();
    assoc_ = config_.effectiveAssociativity();
    sets_ = config_.setCount();
    lineShift_ = floorLog2(config_.lineBytes);
    assocShift_ = floorLog2(assoc_);
    scan_ = assoc_ <= kScanMaxWays;

    lines_.assign(config_.lineCount(), Line{});
    if (!scan_)
        index_.reserve(lines_.size() * 2);

    const std::string &name = config_.replacement.name;
    classic_ = name == "lru"    ? Classic::Lru
               : name == "fifo" ? Classic::Fifo
               : name == "random" ? Classic::Random
                                  : Classic::Zoo;
    if (classic_ == Classic::Zoo) {
        policy_ = makeReplacementPolicy(config_.replacement);
        policy_->bind(sets_, static_cast<std::uint32_t>(assoc_), this,
                      &rng_);
    } else {
        resetReplacement();
    }
    admission_ = makeAdmissionPolicy(config_.admission);
}

// ------------------------------------------------------------------
// Classic-trio recency: intrusive lists for wide sets.
// ------------------------------------------------------------------

void
Cache::RecencyList::init(std::uint64_t sets, std::uint32_t assoc)
{
    sets_ = sets;
    assoc_ = assoc;
    const std::uint64_t n = sets * assoc;
    next_.assign(n, kInvalid);
    prev_.assign(n, kInvalid);
    head_.assign(sets, kInvalid);
    tail_.assign(sets, kInvalid);
    for (std::uint64_t set = 0; set < sets; ++set)
        for (std::uint64_t way = 0; way < assoc; ++way)
            pushMru(set, static_cast<std::uint32_t>(set * assoc + way));
}

void
Cache::RecencyList::touchMru(std::uint64_t set, std::uint32_t idx)
{
    unlink(set, idx);
    pushMru(set, idx);
}

void
Cache::RecencyList::exportOrder(std::vector<std::uint32_t> &out) const
{
    for (std::uint64_t set = 0; set < sets_; ++set)
        for (std::uint32_t idx = head_[set]; idx != kInvalid; idx = next_[idx])
            out.push_back(idx);
}

void
Cache::RecencyList::importOrder(std::span<const std::uint32_t> order)
{
    std::fill(head_.begin(), head_.end(), kInvalid);
    std::fill(tail_.begin(), tail_.end(), kInvalid);
    std::fill(next_.begin(), next_.end(), kInvalid);
    std::fill(prev_.begin(), prev_.end(), kInvalid);
    for (std::uint64_t set = 0; set < sets_; ++set) {
        std::uint32_t prev = kInvalid;
        for (std::uint64_t pos = 0; pos < assoc_; ++pos) {
            const std::uint32_t idx = order[set * assoc_ + pos];
            CACHELAB_ASSERT(idx / assoc_ == set && next_[idx] == kInvalid &&
                                prev_[idx] == kInvalid && head_[set] != idx,
                            "recency import: list of set ", set,
                            " is not a permutation of its ways");
            if (prev == kInvalid)
                head_[set] = idx;
            else
                next_[prev] = idx;
            prev_[idx] = prev;
            prev = idx;
        }
        tail_[set] = prev;
    }
}

void
Cache::RecencyList::unlink(std::uint64_t set, std::uint32_t idx)
{
    const std::uint32_t p = prev_[idx];
    const std::uint32_t n = next_[idx];
    if (p != kInvalid)
        next_[p] = n;
    else
        head_[set] = n;
    if (n != kInvalid)
        prev_[n] = p;
    else
        tail_[set] = p;
    prev_[idx] = kInvalid;
    next_[idx] = kInvalid;
}

void
Cache::RecencyList::pushMru(std::uint64_t set, std::uint32_t idx)
{
    prev_[idx] = kInvalid;
    next_[idx] = head_[set];
    if (head_[set] != kInvalid)
        prev_[head_[set]] = idx;
    head_[set] = idx;
    if (tail_[set] == kInvalid)
        tail_[set] = idx;
}

// ------------------------------------------------------------------
// Classic-trio recency: per-way ages for scanned sets.  A way's age
// is the stamp of its last touch, so sorting a set by descending age
// gives exactly the MRU-first list a RecencyList would hold.
// ------------------------------------------------------------------

std::uint32_t
Cache::lruWay(std::uint64_t set) const
{
    if (!scan_)
        return recency_.tail(set);
    const auto base = static_cast<std::uint32_t>(set << assocShift_);
    std::uint32_t lru = base;
    for (std::uint32_t w = base + 1; w < base + assoc_; ++w)
        if (lines_[w].age < lines_[lru].age)
            lru = w;
    return lru;
}

std::uint32_t
Cache::victimWay(std::uint64_t set, Addr incoming)
{
    switch (classic_) {
    case Classic::Lru:
    case Classic::Fifo:
        // Invalid ways are never promoted, so they accumulate at the
        // LRU end and are consumed before any valid line is evicted.
        return lruWay(set);
    case Classic::Random: {
        const std::uint32_t lru = lruWay(set);
        if (!lines_[lru].valid)
            return lru;
        return static_cast<std::uint32_t>((set << assocShift_) +
                                          rng_.uniformInt(assoc_));
    }
    case Classic::Zoo:
        break;
    }
    return policy_->victimWay(set, incoming);
}

void
Cache::resetReplacement()
{
    if (classic_ == Classic::Zoo) {
        policy_->reset();
    } else if (scan_) {
        // Way order, so way 0 sits at the LRU end of every set.
        for (std::size_t idx = 0; idx < lines_.size(); ++idx)
            lines_[idx].age = static_cast<std::uint32_t>(idx % assoc_);
        stamp_ = static_cast<std::uint32_t>(assoc_ - 1);
    } else {
        recency_.init(sets_, static_cast<std::uint32_t>(assoc_));
    }
}

void
Cache::exportClassicRecency(std::vector<std::uint32_t> &out) const
{
    if (!scan_) {
        recency_.exportOrder(out);
        return;
    }
    for (std::size_t base = 0; base < lines_.size(); base += assoc_) {
        const std::size_t first = out.size();
        for (std::size_t w = base; w < base + assoc_; ++w)
            out.push_back(static_cast<std::uint32_t>(w));
        std::sort(out.begin() + first, out.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return lines_[a].age > lines_[b].age;
                  });
    }
}

void
Cache::importClassicRecency(std::span<const std::uint32_t> recency)
{
    if (!scan_) {
        recency_.importOrder(recency);
        return;
    }
    for (std::uint64_t set = 0; set < sets_; ++set) {
        std::uint32_t seen = 0; // way bitmask; assoc_ <= kScanMaxWays
        for (std::uint64_t pos = 0; pos < assoc_; ++pos) {
            const std::uint32_t idx = recency[(set << assocShift_) + pos];
            const std::uint32_t bit = 1u << (idx & (assoc_ - 1));
            CACHELAB_ASSERT((idx >> assocShift_) == set && !(seen & bit),
                            "recency import: list of set ", set,
                            " is not a permutation of its ways");
            seen |= bit;
            lines_[idx].age = static_cast<std::uint32_t>(assoc_ - 1 - pos);
        }
    }
    stamp_ = static_cast<std::uint32_t>(assoc_ - 1);
}

void
Cache::renumberAges()
{
    std::vector<std::uint32_t> order;
    order.reserve(lines_.size());
    exportClassicRecency(order);
    importClassicRecency(order);
}

// ------------------------------------------------------------------
// Access path.
// ------------------------------------------------------------------

void
Cache::evict(std::uint32_t idx, bool is_purge)
{
    Line &line = lines_[idx];
    if (!line.valid)
        return;
    if (is_purge) {
        ++stats_.purgePushes;
        if (line.dirty)
            ++stats_.dirtyPurgePushes;
    } else {
        ++stats_.replacementPushes;
        if (line.dirty)
            ++stats_.dirtyReplacementPushes;
    }
    if (line.dirty)
        stats_.bytesToMemory += config_.lineBytes;
    if (observer_ != nullptr)
        observer_->onEvict(line.lineAddr, line.dirty, is_purge);
    if (probe_ != nullptr) {
        CacheEvent event;
        event.type = CacheEventType::Evict;
        event.dirty = line.dirty;
        event.isPurge = is_purge;
        event.lineAddr = line.lineAddr;
        event.set = setOf(line.lineAddr);
        event.refIndex = clock_;
        event.residentRefs = clock_ - probeMeta_[idx].fillClock;
        event.hitCount = probeMeta_[idx].hitCount;
        probe_->onEvent(event);
        if (line.dirty) {
            event.type = CacheEventType::Writeback;
            probe_->onEvent(event);
        }
    }
    if (classic_ == Classic::Zoo)
        policy_->onEvict(idx >> assocShift_, idx, line.lineAddr, is_purge);
    if (!scan_)
        index_.erase(line.lineAddr);
    line.valid = false;
    line.dirty = false;
    --validLines_;
}

std::uint32_t
Cache::install(Addr line_addr, bool prefetched)
{
    const std::uint64_t set = setOf(line_addr);
    const std::uint32_t victim = victimWay(set, line_addr);
    if (admission_ != nullptr &&
        !admission_->admit(line_addr, lines_[victim].lineAddr,
                           lines_[victim].valid))
        return kInvalid;
    evict(victim, /*is_purge=*/false);

    Line &line = lines_[victim];
    line.lineAddr = line_addr;
    line.valid = true;
    line.dirty = false;
    if (!scan_)
        index_.emplace(line_addr, victim);
    ++validLines_;

    if (classic_ == Classic::Zoo)
        policy_->onFill(set, victim, line_addr);
    else
        touchMru(victim);

    stats_.bytesFromMemory += config_.lineBytes;
    if (prefetched)
        ++stats_.prefetchFetches;
    else
        ++stats_.demandFetches;
    if (observer_ != nullptr)
        observer_->onFill(line_addr, prefetched);
    if (probe_ != nullptr) {
        probeMeta_[victim].fillClock = clock_;
        probeMeta_[victim].hitCount = 0;
        CacheEvent event;
        event.type = prefetched ? CacheEventType::Prefetch
                                : CacheEventType::Fill;
        event.lineAddr = line_addr;
        event.set = set;
        event.refIndex = clock_;
        probe_->onEvent(event);
    }
    return victim;
}

template <bool kProbed>
bool
Cache::touchLine(Addr line_addr, AccessKind kind, std::uint32_t size)
{
    if (admission_ != nullptr)
        admission_->onAccess(line_addr);

    const std::uint32_t idx = findWay(line_addr);
    if (idx != kInvalid) {
        if (classic_ == Classic::Lru || classic_ == Classic::Random)
            touchMru(idx);
        else if (classic_ == Classic::Zoo)
            policy_->onHit(setOf(line_addr), idx, line_addr);
        if constexpr (kProbed) {
            ++probeMeta_[idx].hitCount;
            CacheEvent event;
            event.type = CacheEventType::Hit;
            event.kind = kind;
            event.lineAddr = line_addr;
            event.set = setOf(line_addr);
            event.refIndex = clock_;
            probe_->onEvent(event);
        }
        // Reads and writes interleave unpredictably, so the write
        // bookkeeping is branch-free on the hit path.
        const bool write = kind == AccessKind::Write;
        if (config_.writePolicy == WritePolicy::CopyBack) {
            lines_[idx].dirty |= write;
        } else {
            stats_.bytesToMemory += write ? size : 0;
            stats_.writeThroughs += write;
        }
        return true;
    }

    // Miss.  The event fires before any fill or bypass so sinks see
    // the cache in its pre-miss state.
    if constexpr (kProbed) {
        CacheEvent event;
        event.type = CacheEventType::Miss;
        event.kind = kind;
        event.lineAddr = line_addr;
        event.set = setOf(line_addr);
        event.refIndex = clock_;
        probe_->onEvent(event);
    }
    if (kind == AccessKind::Write &&
        config_.writeMiss == WriteMissPolicy::NoAllocate) {
        // The store bypasses the cache entirely.
        stats_.bytesToMemory += size;
        ++stats_.writeThroughs;
        return false;
    }

    const std::uint32_t way = install(line_addr, /*prefetched=*/false);
    if (way == kInvalid) {
        // Admission rejected the fill: the reference is still served
        // (and its memory traffic still flows), the line just is not
        // cached — reads stream the line from memory, writes behave
        // like a no-allocate store.
        if (kind == AccessKind::Write) {
            stats_.bytesToMemory += size;
            ++stats_.writeThroughs;
        } else {
            stats_.bytesFromMemory += config_.lineBytes;
        }
        return false;
    }
    if (kind == AccessKind::Write) {
        if (config_.writePolicy == WritePolicy::CopyBack) {
            lines_[way].dirty = true;
        } else {
            stats_.bytesToMemory += size;
            ++stats_.writeThroughs;
        }
    }
    return false;
}

void
Cache::maybePrefetch(Addr line_addr)
{
    const Addr succ = line_addr + config_.lineBytes;
    if (succ < line_addr)
        return; // address-space wraparound
    if (findWay(succ) == kInvalid)
        install(succ, /*prefetched=*/true);
}

bool
Cache::accessLinesProbed(Addr first, Addr last, AccessKind kind,
                         std::uint32_t size)
{
    bool hit = true;
    for (Addr line = first;; line += config_.lineBytes) {
        hit &= touchLine<true>(line, kind, size);
        if (line == last)
            break;
    }
    return hit;
}

bool
Cache::access(const MemoryRef &ref)
{
    CACHELAB_ASSERT(ref.size > 0, "zero-sized reference");
    ++clock_;
    const auto k = static_cast<std::size_t>(ref.kind);
    ++stats_.accesses[k];

    const Addr first = alignDown(ref.addr, config_.lineBytes);
    const Addr last = alignDown(ref.addr + ref.size - 1, config_.lineBytes);

    bool hit = true;
    if (probe_ != nullptr) {
        hit = accessLinesProbed(first, last, ref.kind, ref.size);
    } else {
        for (Addr line = first;; line += config_.lineBytes) {
            hit &= touchLine<false>(line, ref.kind, ref.size);
            if (line == last)
                break;
        }
    }
    stats_.misses[k] += !hit;

    if (config_.fetchPolicy == FetchPolicy::PrefetchAlways)
        maybePrefetch(last);

    return hit;
}

void
Cache::purge()
{
    if (probe_ != nullptr) {
        CacheEvent event;
        event.type = CacheEventType::Purge;
        event.refIndex = clock_;
        probe_->onEvent(event);
    }
    for (std::uint32_t idx = 0; idx < lines_.size(); ++idx)
        evict(idx, /*is_purge=*/true);

    // Reset the policy so every set drains in way order again.
    resetReplacement();
    if (admission_ != nullptr)
        admission_->reset();

    ++stats_.purges;
}

CacheState
Cache::exportState() const
{
    CacheState state;
    state.sizeBytes = config_.sizeBytes;
    state.lineBytes = config_.lineBytes;
    state.sets = sets_;
    state.assoc = assoc_;
    state.lines.reserve(lines_.size());
    for (const Line &line : lines_)
        state.lines.push_back({line.lineAddr, line.valid, line.dirty});
    state.recency.reserve(lines_.size());
    if (classic_ == Classic::Zoo) {
        policy_->exportRecency(state.recency);
        state.policyWords = policy_->exportWords();
    } else {
        exportClassicRecency(state.recency);
    }
    CACHELAB_ASSERT(state.recency.size() == lines_.size(),
                    "recency lists cover ", state.recency.size(), " of ",
                    lines_.size(), " ways");
    state.rngState = rng_.state();
    state.clock = clock_;
    state.stats = stats_;
    if (admission_ != nullptr)
        state.admissionWords = admission_->exportWords();
    return state;
}

void
Cache::importState(const CacheState &state)
{
    if (state.sizeBytes != config_.sizeBytes ||
        state.lineBytes != config_.lineBytes || state.sets != sets_ ||
        state.assoc != assoc_) {
        fatal("cache state import: snapshot geometry ", state.sizeBytes,
              "B/", state.lineBytes, "B lines/", state.sets, "x",
              state.assoc, " does not match cache ", config_.sizeBytes,
              "B/", config_.lineBytes, "B lines/", sets_, "x", assoc_);
    }
    CACHELAB_ASSERT(state.lines.size() == lines_.size(),
                    "cache state import: ", state.lines.size(),
                    " lines for ", lines_.size(), " ways");
    CACHELAB_ASSERT(state.recency.size() == lines_.size(),
                    "cache state import: recency covers ",
                    state.recency.size(), " of ", lines_.size(), " ways");

    index_.clear();
    validLines_ = 0;
    for (Line &line : lines_)
        line.valid = false;
    for (std::size_t idx = 0; idx < lines_.size(); ++idx) {
        Line &line = lines_[idx];
        line.lineAddr = state.lines[idx].lineAddr;
        line.dirty = state.lines[idx].dirty;
        if (state.lines[idx].valid) {
            CACHELAB_ASSERT(setOf(line.lineAddr) == idx >> assocShift_,
                            "cache state import: line ", line.lineAddr,
                            " in way ", idx, " maps to set ",
                            setOf(line.lineAddr));
            CACHELAB_ASSERT(findWay(line.lineAddr) == kInvalid,
                            "cache state import: duplicate line ",
                            line.lineAddr);
            line.valid = true;
            if (!scan_)
                index_.emplace(line.lineAddr,
                               static_cast<std::uint32_t>(idx));
            ++validLines_;
        }
    }

    // Restore replacement state (recency permutation plus any zoo
    // policy words; the classic trio keeps none).
    if (classic_ == Classic::Zoo) {
        policy_->importRecency(state.recency);
        policy_->importWords(state.policyWords);
    } else {
        importClassicRecency(state.recency);
        if (!state.policyWords.empty())
            fatal("policy state import: ", state.policyWords.size(),
                  " extra state words for a policy that keeps none");
    }
    if (admission_ != nullptr) {
        if (state.admissionWords.empty())
            admission_->reset(); // legacy snapshot: cold sketch
        else
            admission_->importWords(state.admissionWords);
    } else if (!state.admissionWords.empty()) {
        fatal("cache state import: snapshot carries admission state but "
              "no admission policy is configured");
    }

    rng_.setState(state.rngState);
    clock_ = state.clock;
    stats_ = state.stats;
    if (!probeMeta_.empty())
        probeMeta_.assign(lines_.size(), ProbeMeta{});
}

bool
Cache::contains(Addr addr) const
{
    return findWay(alignDown(addr, config_.lineBytes)) != kInvalid;
}

bool
Cache::isDirty(Addr addr) const
{
    const std::uint32_t idx = findWay(alignDown(addr, config_.lineBytes));
    return idx != kInvalid && lines_[idx].dirty;
}

} // namespace cachelab

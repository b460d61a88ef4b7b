#include "reference.hh"

#include <stdexcept>
#include <vector>

namespace perfbench
{

using namespace cachelab;

namespace
{

/** One cache of the reference model. */
class RefCache
{
  public:
    explicit RefCache(const RefGeometry &geo);

    void access(const MemoryRef &ref);
    void purge();

    const CacheStats &stats() const { return stats_; }

  private:
    struct Way
    {
        std::uint64_t line = 0;
        std::uint64_t stamp = 0; ///< last use (LRU) or fill (FIFO)
        bool valid = false;
        bool dirty = false;
    };

    /** Touch line number @p line; @return true on a hit. */
    bool touch(std::uint64_t line, bool write);

    RefGeometry geo_;
    std::uint64_t sets_;
    std::uint64_t assoc_;
    std::vector<Way> ways_;
    std::uint64_t clock_ = 0;
    CacheStats stats_;
};

} // namespace

RefCache::RefCache(const RefGeometry &geo) : geo_(geo)
{
    const std::uint64_t lines = geo.sizeBytes / geo.lineBytes;
    if (lines == 0 || (geo.assoc != 0 && lines % geo.assoc != 0))
        throw std::invalid_argument("reference cache: bad geometry");
    assoc_ = geo.assoc == 0 ? lines : geo.assoc;
    sets_ = lines / assoc_;
    ways_.resize(lines);
}

bool
RefCache::touch(std::uint64_t line, bool write)
{
    ++clock_;
    Way *set = &ways_[(line % sets_) * assoc_];
    Way *victim = nullptr;
    for (std::uint64_t w = 0; w < assoc_; ++w) {
        Way &way = set[w];
        if (way.valid && way.line == line) {
            if (!geo_.fifo)
                way.stamp = clock_;
            way.dirty = way.dirty || write;
            return true;
        }
        // First invalid way, else the oldest stamp.
        if (victim == nullptr ||
            (victim->valid && (!way.valid || way.stamp < victim->stamp)))
            victim = &way;
    }
    if (victim->valid) {
        ++stats_.replacementPushes;
        if (victim->dirty) {
            ++stats_.dirtyReplacementPushes;
            stats_.bytesToMemory += geo_.lineBytes;
        }
    }
    *victim = Way{line, clock_, true, write};
    ++stats_.demandFetches;
    stats_.bytesFromMemory += geo_.lineBytes;
    return false;
}

void
RefCache::access(const MemoryRef &ref)
{
    const auto k = static_cast<std::size_t>(ref.kind);
    ++stats_.accesses[k];
    const std::uint64_t first = ref.addr / geo_.lineBytes;
    const std::uint64_t last = (ref.addr + ref.size - 1) / geo_.lineBytes;
    bool hit = true;
    for (std::uint64_t line = first; line <= last; ++line)
        hit = touch(line, ref.kind == AccessKind::Write) && hit;
    if (!hit)
        ++stats_.misses[k];
}

void
RefCache::purge()
{
    for (Way &way : ways_) {
        if (!way.valid)
            continue;
        ++stats_.purgePushes;
        if (way.dirty) {
            ++stats_.dirtyPurgePushes;
            stats_.bytesToMemory += geo_.lineBytes;
        }
        way = Way{};
    }
    ++stats_.purges;
}

CacheStats
referenceRun(TraceSource &source, const RefGeometry &geo, bool split,
             std::uint64_t purge_interval)
{
    RefCache unified(geo);
    RefCache dcache(geo);
    std::uint64_t since_purge = 0;
    source.forEachBatch([&](std::span<const MemoryRef> refs) {
        for (const MemoryRef &ref : refs) {
            if (purge_interval != 0 && since_purge == purge_interval) {
                unified.purge();
                if (split)
                    dcache.purge();
                since_purge = 0;
            }
            if (split && ref.kind != AccessKind::IFetch)
                dcache.access(ref);
            else
                unified.access(ref);
            ++since_purge;
        }
    });
    CacheStats out = unified.stats();
    if (split)
        out += dcache.stats();
    return out;
}

} // namespace perfbench

/**
 * @file
 * Memory-interface model: turns logical machine activity into the
 * memory-reference stream a trace records.
 *
 * Paper section 1.1: "the number of memory references is affected by
 * the width of the data path to memory: fetching two four-byte
 * instructions requires 4, 2 or 1 memory reference, depending on
 * whether the memory interface is 2, 4 or 8 bytes wide", and an
 * interface with "memory" suppresses a refetch of a granule it already
 * holds.  The workload generator produces *logical* events
 * (instruction executed at address A with length L; data read/write at
 * address A of width W) and this model expands them into MemoryRefs.
 */

#ifndef CACHELAB_ARCH_INTERFACE_MODEL_HH
#define CACHELAB_ARCH_INTERFACE_MODEL_HH

#include <cstdint>

#include "arch/profile.hh"
#include "trace/memory_ref.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace cachelab
{

/**
 * Expands logical accesses into trace references according to a
 * MemoryInterface description.  Stateful: tracks the granule most
 * recently delivered for instructions and for data so an interface
 * with memory can skip redundant fetches.
 *
 * Each expansion hands its references, in order, to an @p emit
 * callable taking a MemoryRef, so the generator writes them straight
 * into its output and sees each one as it is made.  Inline: it runs
 * once or twice per generated reference.
 */
class InterfaceModel
{
  public:
    explicit InterfaceModel(const MemoryInterface &interface)
        : interface_(interface)
    {
        CACHELAB_ASSERT(isPowerOfTwo(interface_.instrGranuleBytes),
                        "instruction granule must be a power of two");
        CACHELAB_ASSERT(isPowerOfTwo(interface_.dataGranuleBytes),
                        "data granule must be a power of two");
    }

    /**
     * Record the fetch of one instruction of @p length bytes at
     * @p addr, emitting the resulting ifetch references.
     */
    template <typename Emit>
    void
    fetchInstruction(Addr addr, std::uint32_t length, Emit &&emit)
    {
        CACHELAB_ASSERT(length > 0, "zero-length instruction");
        const std::uint32_t granule = interface_.instrGranuleBytes;
        const Addr first = alignDown(addr, granule);
        const Addr last = alignDown(addr + length - 1, granule);
        for (Addr g = first; g <= last; g += granule) {
            if (interface_.hasMemory && haveInstrGranule_ &&
                g == lastInstrGranule_) {
                continue; // the interface already holds these bytes
            }
            emit(MemoryRef{g, granule, AccessKind::IFetch});
            haveInstrGranule_ = true;
            lastInstrGranule_ = g;
        }
    }

    /** Record a data access of @p width bytes at @p addr. */
    template <typename Emit>
    void
    dataAccess(Addr addr, std::uint32_t width, AccessKind kind, Emit &&emit)
    {
        CACHELAB_ASSERT(kind != AccessKind::IFetch,
                        "dataAccess cannot carry an ifetch");
        CACHELAB_ASSERT(width > 0, "zero-width data access");
        const std::uint32_t granule = interface_.dataGranuleBytes;
        const Addr first = alignDown(addr, granule);
        const Addr last = alignDown(addr + width - 1, granule);
        for (Addr g = first; g <= last; g += granule)
            emit(MemoryRef{g, granule, kind});
    }

    /** Forget any remembered granules (e.g. across a branch). */
    void reset() { haveInstrGranule_ = false; }

  private:
    MemoryInterface interface_;
    bool haveInstrGranule_ = false;
    Addr lastInstrGranule_ = 0;
};

} // namespace cachelab

#endif // CACHELAB_ARCH_INTERFACE_MODEL_HH

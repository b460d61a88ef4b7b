/**
 * @file
 * Unit tests for src/arch: profiles and the memory-interface model.
 */

#include <gtest/gtest.h>

#include "arch/interface_model.hh"
#include "arch/profile.hh"
#include "trace/trace.hh"

namespace cachelab
{
namespace
{

/** @return an InterfaceModel emit callable appending to @p trace. */
auto
into(Trace &trace)
{
    return [&trace](const MemoryRef &ref) { trace.append(ref); };
}

TEST(ArchProfile, AllMachinesHaveProfiles)
{
    EXPECT_EQ(allMachines().size(), kMachineCount);
    for (Machine m : allMachines()) {
        const ArchProfile &p = archProfile(m);
        EXPECT_EQ(p.machine, m);
        EXPECT_FALSE(p.name.empty());
        EXPECT_GT(p.wordBytes, 0u);
        EXPECT_GE(p.maxInstrBytes, p.minInstrBytes);
        EXPECT_GE(p.meanInstrBytes, static_cast<double>(p.minInstrBytes));
        EXPECT_LE(p.meanInstrBytes, static_cast<double>(p.maxInstrBytes));
    }
}

TEST(ArchProfile, MixFractionsSumToOne)
{
    for (Machine m : allMachines()) {
        const ArchProfile &p = archProfile(m);
        EXPECT_NEAR(p.ifetchFraction + p.readFraction + p.writeFraction, 1.0,
                    1e-9)
            << p.name;
    }
}

TEST(ArchProfile, PaperIfetchFractions)
{
    // Section 3.2: Z8000 75.1%, CDC 6400 77.2%, 370/VAX about half.
    EXPECT_NEAR(archProfile(Machine::Z8000).ifetchFraction, 0.751, 1e-9);
    EXPECT_NEAR(archProfile(Machine::CDC6400).ifetchFraction, 0.772, 1e-9);
    EXPECT_NEAR(archProfile(Machine::VAX).ifetchFraction, 0.50, 0.06);
    EXPECT_NEAR(archProfile(Machine::IBM370).ifetchFraction, 0.50, 0.06);
}

TEST(ArchProfile, PaperBranchFractions)
{
    EXPECT_NEAR(archProfile(Machine::VAX).branchFraction, 0.175, 1e-9);
    EXPECT_NEAR(archProfile(Machine::IBM360_91).branchFraction, 0.160, 1e-9);
    EXPECT_NEAR(archProfile(Machine::IBM370).branchFraction, 0.140, 1e-9);
    EXPECT_NEAR(archProfile(Machine::Z8000).branchFraction, 0.105, 1e-9);
    EXPECT_NEAR(archProfile(Machine::CDC6400).branchFraction, 0.042, 1e-9);
}

TEST(ArchProfile, ReadsOutnumberWritesTwoToOne)
{
    for (Machine m : allMachines()) {
        const ArchProfile &p = archProfile(m);
        EXPECT_NEAR(p.readFraction / p.writeFraction, 2.0, 0.01) << p.name;
    }
}

TEST(ArchProfile, OnlyM68000MergesFetches)
{
    for (Machine m : allMachines()) {
        EXPECT_EQ(archProfile(m).mergedFetch, m == Machine::M68000);
    }
}

TEST(ArchProfile, ComplexityOrdering)
{
    // Section 4.3: VAX most complex, CDC 6400 simplest.
    EXPECT_GT(complexityRank(Machine::VAX),
              complexityRank(Machine::IBM370));
    EXPECT_GT(complexityRank(Machine::IBM370),
              complexityRank(Machine::Z8000));
    EXPECT_GT(complexityRank(Machine::Z8000),
              complexityRank(Machine::CDC6400));
}

TEST(ArchProfile, Names)
{
    EXPECT_EQ(toString(Machine::VAX), "DEC VAX");
    EXPECT_EQ(toString(Machine::CDC6400), "CDC 6400");
}

TEST(InterfaceModel, SingleGranuleFetch)
{
    InterfaceModel model({4, 4, false});
    Trace out;
    model.fetchInstruction(0x100, 4, into(out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].addr, 0x100u);
    EXPECT_EQ(out[0].size, 4u);
    EXPECT_EQ(out[0].kind, AccessKind::IFetch);
}

TEST(InterfaceModel, StraddlingInstructionFetchesTwoGranules)
{
    InterfaceModel model({4, 4, false});
    Trace out;
    model.fetchInstruction(0x102, 4, into(out)); // bytes 0x102..0x105
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].addr, 0x100u);
    EXPECT_EQ(out[1].addr, 0x104u);
}

TEST(InterfaceModel, WidthChangesReferenceCount)
{
    // Paper section 1.1: "fetching two four-byte instructions requires
    // 4, 2 or 1 memory reference, depending on whether the memory
    // interface is 2, 4 or 8 bytes wide" (with interface memory).
    for (const auto &[granule, expected] :
         std::vector<std::pair<std::uint32_t, std::size_t>>{
             {2, 4}, {4, 2}, {8, 1}}) {
        InterfaceModel model({granule, granule, true});
        Trace out;
        model.fetchInstruction(0x100, 4, into(out));
        model.fetchInstruction(0x104, 4, into(out));
        EXPECT_EQ(out.size(), expected) << "granule " << granule;
    }
}

TEST(InterfaceModel, MemorySuppressesRefetchOfHeldGranule)
{
    InterfaceModel with_mem({8, 8, true});
    Trace out;
    with_mem.fetchInstruction(0x100, 4, into(out));
    with_mem.fetchInstruction(0x104, 4, into(out)); // same 8-byte granule
    EXPECT_EQ(out.size(), 1u);

    InterfaceModel no_mem({8, 8, false});
    Trace out2;
    no_mem.fetchInstruction(0x100, 4, into(out2));
    no_mem.fetchInstruction(0x104, 4, into(out2)); // refetched
    EXPECT_EQ(out2.size(), 2u);
}

TEST(InterfaceModel, ResetForgetsHeldGranule)
{
    InterfaceModel model({8, 8, true});
    Trace out;
    model.fetchInstruction(0x100, 4, into(out));
    model.reset(); // e.g. across a taken branch
    model.fetchInstruction(0x104, 4, into(out));
    EXPECT_EQ(out.size(), 2u);
}

TEST(InterfaceModel, DataAccessSplitsAcrossGranules)
{
    InterfaceModel model({4, 4, false});
    Trace out;
    model.dataAccess(0x1002, 4, AccessKind::Write, into(out));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].kind, AccessKind::Write);
    EXPECT_EQ(out[0].addr, 0x1000u);
    EXPECT_EQ(out[1].addr, 0x1004u);
}

TEST(InterfaceModel, DataGranuleIndependentOfInstrGranule)
{
    InterfaceModel model({2, 8, false});
    Trace out;
    model.dataAccess(0x1000, 8, AccessKind::Read, into(out));
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].size, 8u);
}

} // namespace
} // namespace cachelab

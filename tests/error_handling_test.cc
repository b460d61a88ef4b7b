/**
 * @file
 * Failure-injection tests: invalid configurations and corrupt inputs
 * must fail loudly (fatal()) rather than mis-simulate silently.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "cache/config.hh"
#include "cache/sector_cache.hh"
#include "trace/io.hh"
#include "workload/program_model.hh"

namespace cachelab
{
namespace
{

TEST(ConfigValidation, RejectsNonPowerOfTwoSize)
{
    CacheConfig c;
    c.sizeBytes = 3000;
    EXPECT_DEATH({ c.validate(); }, "power of two");
}

TEST(ConfigValidation, RejectsNonPowerOfTwoLine)
{
    CacheConfig c;
    c.lineBytes = 24;
    EXPECT_DEATH({ c.validate(); }, "power of two");
}

TEST(ConfigValidation, RejectsLineLargerThanCache)
{
    CacheConfig c;
    c.sizeBytes = 64;
    c.lineBytes = 128;
    EXPECT_DEATH({ c.validate(); }, "exceeds cache size");
}

TEST(ConfigValidation, RejectsNonPowerOfTwoAssociativity)
{
    CacheConfig c;
    c.sizeBytes = 1024;
    c.associativity = 3;
    EXPECT_DEATH({ c.validate(); }, "power of two");
}

TEST(ConfigValidation, RejectsAssociativityBeyondLineCount)
{
    CacheConfig c;
    c.sizeBytes = 64;
    c.lineBytes = 16;
    c.associativity = 8; // only 4 lines exist
    EXPECT_DEATH({ c.validate(); }, "exceeds line count");
}

TEST(SectorConfigValidation, RejectsSubblockLargerThanSector)
{
    SectorCacheConfig c;
    c.sectorBytes = 16;
    c.subblockBytes = 32;
    EXPECT_DEATH({ c.validate(); }, "exceeds sector size");
}

TEST(SectorConfigValidation, RejectsTooManySubblocks)
{
    SectorCacheConfig c;
    c.sizeBytes = 4096;
    c.sectorBytes = 1024;
    c.subblockBytes = 8; // 128 sub-blocks > 64-bit mask
    EXPECT_DEATH({ c.validate(); }, "64 sub-blocks");
}

TEST(TraceIo, RejectsBadDinLabel)
{
    std::stringstream ss("7 1000\n");
    EXPECT_DEATH({ readTrace(ss, TraceFormat::Din, "bad"); }, "unknown access label");
}

TEST(TraceIo, RejectsMalformedDinLine)
{
    std::stringstream ss("read 0x10\n");
    EXPECT_DEATH({ readTrace(ss, TraceFormat::Din, "bad"); }, "expected");
}

TEST(TraceIo, RejectsBadHexAddress)
{
    std::stringstream ss("0 zzzz\n");
    EXPECT_DEATH({ readTrace(ss, TraceFormat::Din, "bad"); }, "bad address");
}

TEST(TraceIo, RejectsZeroSizeAccess)
{
    std::stringstream ss("0 1000 0\n");
    EXPECT_DEATH({ readTrace(ss, TraceFormat::Din, "bad"); }, "zero access size");
}

TEST(TraceIo, RejectsBadBinaryMagic)
{
    std::stringstream ss("NOPE....");
    EXPECT_DEATH({ readTrace(ss, TraceFormat::Binary, {}); }, "bad magic");
}

TEST(TraceIo, RejectsTruncatedBinary)
{
    // Valid magic, then nothing.
    std::stringstream ss(std::string("CLT1"), std::ios::in);
    EXPECT_DEATH({ readTrace(ss, TraceFormat::Binary, {}); }, "");
}

std::string
writeTempFile(const std::string &leaf, const std::string &bytes)
{
    const std::string path = testing::TempDir() + "/" + leaf;
    std::ofstream(path, std::ios::binary) << bytes;
    return path;
}

/** A CLT1 header (empty name) declaring @p count records, plus one. */
std::string
binaryHeader(std::uint64_t count)
{
    std::string bytes = "CLT1";
    bytes.append(4, '\0'); // name length 0
    bytes.append(reinterpret_cast<const char *>(&count), sizeof(count));
    bytes.append(13, '\0'); // one (read, addr 0, size 0) record
    return bytes;
}

TEST(TraceIo, DinRefsHeaderLargerThanFileIsRejected)
{
    // 4e18 used to escape as std::length_error from reserve(); 4e7
    // reserved ~640 MB before the end-of-stream count check fired.
    for (const char *claim : {"4000000000000000000", "40000000"}) {
        const std::string path = writeTempFile(
            "lying.din", std::string("# trace: x\n# refs: ") + claim +
                             "\n0 1000 4\n1 2000 4\n2 3000 4\n");
        EXPECT_DEATH({ openTraceSource(path)->materialize(); },
                     "din trace '.*lying.din': header declares " +
                         std::string(claim) + " refs");
    }
}

TEST(TraceIo, DinRefsHeaderWithinFileSizeStillChecked)
{
    const std::string path = writeTempFile(
        "short.din", "# refs: 5\n0 1000 4\n1 2000 4\n2 3000 4\n");
    EXPECT_DEATH({ openTraceSource(path)->materialize(); },
                 "header declared 5 refs but the stream held 3");
}

TEST(TraceIo, BinaryCountHeaderLargerThanPayloadIsRejected)
{
    for (std::uint64_t claim : {std::uint64_t{4000000000000000000},
                                std::uint64_t{1} << 62,
                                std::uint64_t{40000000}}) {
        std::stringstream ss(binaryHeader(claim));
        EXPECT_DEATH({ readTrace(ss, TraceFormat::Binary, {}); },
                     "binary trace: header declares " +
                         std::to_string(claim) + " refs but only 13 bytes");
        const std::string path =
            writeTempFile("lying.clt", binaryHeader(claim));
        EXPECT_DEATH({ openTraceSource(path)->materialize(); },
                     "binary trace '.*lying.clt': header declares");
    }
}

TEST(TraceIo, CompressedCountHeaderLargerThanPayloadIsRejected)
{
    std::string bytes = binaryHeader(1000);
    bytes[3] = '2'; // CLT2: the 13 payload bytes hold at most 6 records
    std::stringstream ss(bytes);
    EXPECT_DEATH({ readTrace(ss, TraceFormat::Compressed, {}); },
                 "compressed trace: header declares 1000 refs");
    const std::string path = writeTempFile("lying.ctr", bytes);
    EXPECT_DEATH({ openTraceSource(path)->materialize(); },
                 "compressed trace '.*lying.ctr': header declares");
}

TEST(TraceIo, DinDiagnosticNamesFileAndLine)
{
    const std::string path =
        writeTempFile("bad_line.din", "# c\n0 1000 4\n0 zz\n");
    EXPECT_DEATH({ openTraceSource(path)->materialize(); },
                 "din trace '.*bad_line.din' line 3: bad address 'zz'");
    std::stringstream ss("0 1000 4\n7 10\n");
    EXPECT_DEATH({ readTrace(ss, TraceFormat::Din, "named"); },
                 "din trace 'named' line 2: unknown access label 7");
}

TEST(TraceIo, CompressedDiagnosticNamesFileAndRecord)
{
    // Header (name "t", 3 records), then one good record and a tag
    // whose kind bits read 3.
    std::string bytes = "CLT2";
    bytes += std::string("\x01\x00\x00\x00", 4);
    bytes += "t";
    const std::uint64_t count = 3;
    bytes.append(reinterpret_cast<const char *>(&count), sizeof(count));
    bytes += std::string("\x00\x02\x03\x00\x00\x00", 6);
    const std::string path = writeTempFile("bad_record.ctr", bytes);
    EXPECT_DEATH({ openTraceSource(path)->materialize(); },
                 "compressed trace '.*bad_record.ctr' record 2: "
                 "bad access kind 3");
    std::stringstream ss(bytes);
    EXPECT_DEATH({ readTrace(ss, TraceFormat::Compressed, {}); },
                 "compressed trace 't' record 2: bad access kind 3");
}

TEST(TraceIo, RejectsMissingFile)
{
    EXPECT_DEATH({ openTraceSource("/nonexistent/path/trace.din"); },
                 "cannot open");
}

TEST(WorkloadValidation, RejectsZeroRefCount)
{
    WorkloadParams p;
    p.refCount = 0;
    EXPECT_DEATH({ p.validate(); }, "positive");
}

TEST(WorkloadValidation, RejectsTinyRegions)
{
    WorkloadParams p;
    p.codeBytes = 16;
    EXPECT_DEATH({ p.validate(); }, "code region too small");
}

TEST(WorkloadValidation, RejectsBadWriteSpread)
{
    WorkloadParams p;
    p.writeSpread = 0.0;
    EXPECT_DEATH({ p.validate(); }, "writeSpread");
}

TEST(WorkloadValidation, RejectsBadRecordBytes)
{
    WorkloadParams p;
    p.recordBytes = 48; // not a power of two
    EXPECT_DEATH({ p.validate(); }, "recordBytes");
}

} // namespace
} // namespace cachelab

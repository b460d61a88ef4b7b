/**
 * @file
 * Tests of the din and CLT2 record codecs (src/trace/io.cc):
 *
 *  - a differential test of parseDinLine() against the original
 *    `istringstream` / `stoull` parser, kept here as the reference
 *    model, over a seeded corpus of generated and byte-mutated lines;
 *  - files several times larger than the reader buffer, so lines,
 *    tags and varints straddle every refill, streamed at several batch
 *    sizes with skip() and reset() in the middle;
 *  - truncated and lying inputs, and literal encoder output.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "trace/io.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace cachelab
{
namespace
{

// ---------------------------------------------------------------------
// Reference model: the din line parser as it stood before the buffered
// codec, verbatim except that each fatal() throws its diagnostic class.
// ---------------------------------------------------------------------

struct Reject
{
    std::string cls;
    int label = 0;
    std::string addr;
};

AccessKind
referenceKindFromDinLabel(int label)
{
    switch (label) {
      case 0:
        return AccessKind::Read;
      case 1:
        return AccessKind::Write;
      case 2:
        return AccessKind::IFetch;
      default:
        throw Reject{"unknown access label", label, {}};
    }
}

bool
referenceParseDinLine(const std::string &line, MemoryRef &ref)
{
    if (line.empty() || line[0] == '#')
        return false;
    std::istringstream ls(line);
    int label = -1;
    std::string addr_hex;
    if (!(ls >> label >> addr_hex))
        throw Reject{"expected", 0, {}};
    Addr addr = 0;
    try {
        std::size_t pos = 0;
        addr = std::stoull(addr_hex, &pos, 16);
        if (pos != addr_hex.size())
            throw Reject{"bad address", 0, addr_hex};
    } catch (const std::exception &) {
        throw Reject{"bad address", 0, addr_hex};
    }
    std::uint32_t size = 4;
    ls >> size;
    if (size == 0)
        throw Reject{"zero access size", 0, {}};
    ref = {addr, size, referenceKindFromDinLabel(label)};
    return true;
}

/** One line's verdict in a form both parsers can produce. */
struct Verdict
{
    std::string cls;
    MemoryRef ref{};
    int label = 0;
    std::string addr;

    bool
    operator==(const Verdict &o) const
    {
        return cls == o.cls && ref == o.ref && label == o.label &&
            addr == o.addr;
    }
};

std::ostream &
operator<<(std::ostream &os, const Verdict &v)
{
    return os << v.cls << " {" << std::hex << v.ref.addr << std::dec << ", "
              << v.ref.size << ", " << toString(v.ref.kind) << "} label "
              << v.label << " addr '" << v.addr << "'";
}

Verdict
referenceVerdict(const std::string &line)
{
    try {
        MemoryRef ref;
        if (!referenceParseDinLine(line, ref))
            return {"skip", {}, 0, {}};
        return {"record", ref, 0, {}};
    } catch (const Reject &r) {
        return {r.cls, {}, r.label, r.addr};
    }
}

Verdict
newVerdict(const std::string &line)
{
    const DinLine d = parseDinLine(line);
    switch (d.status) {
      case DinLineStatus::Record:
        return {"record", d.ref, 0, {}};
      case DinLineStatus::Skip:
        return {"skip", {}, 0, {}};
      case DinLineStatus::Malformed:
        return {"expected", {}, 0, {}};
      case DinLineStatus::BadAddress:
        return {"bad address", {}, 0, std::string(d.addr)};
      case DinLineStatus::ZeroSize:
        return {"zero access size", {}, 0, {}};
      case DinLineStatus::BadLabel:
        return {"unknown access label", {}, d.label, {}};
    }
    return {"?", {}, 0, {}};
}

/** Seeded din line generator: well-formed records, every edge of the
 *  grammar, and byte mutations of both. */
class DinCorpus
{
  public:
    explicit DinCorpus(std::uint64_t seed) : rng_(seed) {}

    std::string
    record()
    {
        std::string line = pick({"", "", "", " ", "\t", "  ", " \t", "\r"});
        line += label();
        line += pick({" ", " ", " ", "\t", "  ", "", " \t "});
        line += address();
        const unsigned shape = below(10);
        if (shape < 6) {
            line += pick({" ", " ", "\t", "  "});
            line += size();
        }
        if (shape == 6)
            line += pick({" ", "\t", "  \t"});
        if (below(8) == 0)
            line += pick({" junk", " 12 34", "\tx", " # note", "abc"});
        if (below(6) == 0)
            line += '\r';
        return line;
    }

    /** One to three byte replacements, insertions or deletions. */
    std::string
    mutate(std::string line)
    {
        static const std::string kBytes = std::string(" \t\r\v\f#+-xX0") +
            "19afAFgz" + std::string(1, '\0') + "\x80\xff";
        for (unsigned n = 1 + below(3); n != 0; --n) {
            const char c = below(4) == 0
                ? static_cast<char>(1 + below(255))
                : kBytes[below(static_cast<unsigned>(kBytes.size()))];
            if (c == '\n')
                continue;
            const unsigned op = below(3);
            const std::size_t at =
                line.empty() ? 0 : below(static_cast<unsigned>(line.size()));
            if (op == 0 && !line.empty())
                line[at] = c;
            else if (op == 1 || line.empty())
                line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), c);
            else
                line.erase(at, 1);
        }
        return line;
    }

  private:
    unsigned
    below(unsigned n)
    {
        return static_cast<unsigned>(rng_() % n);
    }

    std::string
    pick(std::initializer_list<const char *> options)
    {
        const auto n = static_cast<unsigned>(options.size());
        return *(options.begin() + below(n));
    }

    std::string
    label()
    {
        switch (below(12)) {
          case 0:
            return pick({"-1", "3", "7", "+2", "-0", "+0", "00001", "12"});
          case 1:
            return pick({"2147483647", "2147483648", "-2147483648",
                         "-2147483649", "99999999999", "+", "-", "x"});
          default:
            return std::to_string(below(3));
        }
    }

    std::string
    hexDigits(unsigned n)
    {
        static const char kHex[] = "0123456789abcdefABCDEF";
        std::string s;
        for (unsigned i = 0; i < n; ++i)
            s += kHex[below(22)];
        return s;
    }

    std::string
    address()
    {
        std::string a;
        if (below(10) == 0)
            a += pick({"+", "-"});
        if (below(4) == 0)
            a += pick({"0x", "0X"});
        // 1-15 digits usually; 16, 17 or 20 digits (wide and
        // overflowing) now and then; a leading-zero run sometimes.
        const unsigned width = below(8) == 0 ? pick16to20() : 1 + below(15);
        if (below(12) == 0)
            a += std::string(1 + below(20), '0');
        a += hexDigits(width);
        if (below(40) == 0)
            a = pick({"0x", "-", "+0x", "0xg1", "g", "1g", "0x-1", "00x1",
                      "ffffffffffffffff", "10000000000000000",
                      "-ffffffffffffffff", "#1"});
        return a;
    }

    unsigned
    pick16to20()
    {
        static const unsigned kWidths[] = {16, 16, 17, 20};
        return kWidths[below(4)];
    }

    std::string
    size()
    {
        switch (below(10)) {
          case 0:
            return pick({"0", "+0", "-0", "00", "0x10", "abc", "-", "+"});
          case 1:
            return pick({"4294967295", "4294967296", "99999999999", "-1",
                         "-4294967295", "-4294967296", "+8", "0004"});
          default:
            return std::to_string(1 + below(64));
        }
    }

    std::mt19937_64 rng_;
};

TEST(DinParser, MatchesReferenceParserOnSeededCorpus)
{
    std::vector<std::string> lines = {
        "", "#", "# refs: 10", "  #", "  # comment", " ", "   ", "\t",
        "\r", " \r", "0 10", "0 10\r", "0\t10\t8", "0 10 4 trailing tokens",
        "1abc", "1abc 20", "10", "0 0x", "0 0x10", "0 0X1F", "0 -1",
        "0 +0x10", "0 ffffffffffffffff", "0 10000000000000000",
        "0 0000000000000000000001", "0 10 4294967295", "0 10 4294967296",
        "0 10 -1", "0 10 abc", "0 10 0", "0 10 -0", "0 10 0x4", "7 10",
        "-1 10", "3 zz", "7 10 0", "2147483648 10", "-2147483648 10",
        "+2 10", "0 10 +4", "0 10 \t", "0 1-5", "0 #", "x 10",
        std::string("0 1\0 4", 6), std::string("0 10 4\0", 7),
        "0 10\v8", "0 10\f8", "\v0 10",
    };
    DinCorpus corpus(0x5eedf00dULL);
    for (int i = 0; i < 60000; ++i)
        lines.push_back(corpus.record());
    for (int i = 0; i < 60000; ++i)
        lines.push_back(corpus.mutate(corpus.record()));

    std::map<std::string, std::size_t> classes;
    std::size_t mismatches = 0;
    for (const std::string &line : lines) {
        const Verdict want = referenceVerdict(line);
        const Verdict got = newVerdict(line);
        ++classes[want.cls];
        if (!(got == want) && ++mismatches <= 20)
            ADD_FAILURE() << "line '" << line << "': reference " << want
                          << ", parser " << got;
    }
    EXPECT_EQ(mismatches, 0u);
    // The corpus must reach every verdict often enough to mean something.
    for (const char *cls : {"record", "skip", "expected", "bad address",
                            "zero access size", "unknown access label"})
        EXPECT_GE(classes[cls], 100u) << cls;
}

TEST(DinParser, PinnedEdgeCases)
{
    const auto ref = [](const char *line) {
        const DinLine d = parseDinLine(line);
        EXPECT_EQ(d.status, DinLineStatus::Record) << line;
        return d.ref;
    };
    EXPECT_EQ(ref("1abc"), (MemoryRef{0xabc, 4, AccessKind::Write}));
    EXPECT_EQ(ref(" \t2 0X1F 8 extra\r"),
              (MemoryRef{0x1f, 8, AccessKind::IFetch}));
    EXPECT_EQ(ref("0 -1"), (MemoryRef{~Addr{0}, 4, AccessKind::Read}));
    EXPECT_EQ(ref("0 10 4294967296"),
              (MemoryRef{0x10, 4294967295u, AccessKind::Read}));
    EXPECT_EQ(ref("0 10 -1"),
              (MemoryRef{0x10, 4294967295u, AccessKind::Read}));
    EXPECT_EQ(parseDinLine("  # not a comment").status,
              DinLineStatus::Malformed);
    EXPECT_EQ(parseDinLine("0 10 abc").status, DinLineStatus::ZeroSize);
    EXPECT_EQ(parseDinLine("0 10000000000000000").status,
              DinLineStatus::BadAddress);
    EXPECT_EQ(parseDinLine("2147483648 10").status,
              DinLineStatus::Malformed);
    const DinLine bad = parseDinLine("-7 10");
    EXPECT_EQ(bad.status, DinLineStatus::BadLabel);
    EXPECT_EQ(bad.label, -7);
}

// ---------------------------------------------------------------------
// Files larger than the reader buffer.
// ---------------------------------------------------------------------

constexpr std::size_t kBigRefs = 60000;

std::string
tempPath(const std::string &leaf)
{
    return (std::filesystem::path(::testing::TempDir()) / leaf).string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary) << bytes;
}

/** Mixed kinds, small and huge address deltas both ways, address 0
 *  and ~0, sizes from 1 to 4294967295: varints of every length. */
Trace
bigTrace()
{
    Trace t("big");
    std::mt19937_64 rng(42);
    Addr addr[3] = {0x1000, 0x80000000, 0x7fff0000};
    for (std::size_t i = 0; i < kBigRefs; ++i) {
        const auto k = static_cast<std::size_t>(rng() % 3);
        switch (rng() % 16) {
          case 0:
            addr[k] = rng();
            break;
          case 1:
            addr[k] = rng() % 2 ? 0 : ~Addr{0};
            break;
          case 2:
            addr[k] -= rng() % 4096;
            break;
          default:
            addr[k] += 4 * (rng() % 8);
            break;
        }
        static const std::uint32_t kSizes[] = {4, 4, 4, 4, 1, 2, 8, 64,
                                               4294967295u};
        t.append(addr[k], kSizes[rng() % 9], static_cast<AccessKind>(k));
    }
    return t;
}

std::vector<MemoryRef>
drain(TraceSource &source, std::size_t batch)
{
    std::vector<MemoryRef> out, buf(batch);
    while (const std::size_t got = source.nextBatch(buf))
        out.insert(out.end(), buf.begin(), buf.begin() + got);
    return out;
}

/** Streams @p path at several batch sizes, with skip() and reset()
 *  mid-file, and checks every result against @p want. */
void
checkStreams(const std::string &path, const Trace &want)
{
    const std::vector<MemoryRef> refs(want.refs().begin(), want.refs().end());
    for (const std::size_t batch : {1u, 7u, 4096u, 65536u}) {
        const auto source = openTraceSource(path);
        EXPECT_EQ(drain(*source, batch), refs) << path << " batch " << batch;
    }

    // skip() across refills, interleaved with small reads.
    const auto source = openTraceSource(path);
    std::vector<MemoryRef> buf(7);
    std::size_t cursor = 0;
    while (cursor < refs.size()) {
        cursor += static_cast<std::size_t>(source->skip(9001));
        const std::size_t n = source->nextBatch(buf);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(buf[i], refs[cursor + i]) << path << " @" << cursor;
        cursor += n;
        if (n == 0)
            break;
    }
    EXPECT_EQ(cursor, refs.size()) << path;

    // reset() mid-file.
    source->reset();
    std::vector<MemoryRef> part(12345);
    ASSERT_EQ(source->nextBatch(part), part.size());
    source->reset();
    EXPECT_EQ(drain(*source, 4096), refs) << path << " after reset";

    std::ifstream is(path, std::ios::binary);
    const Trace read = readTrace(is, formatForPath(path), want.name());
    EXPECT_EQ(std::vector<MemoryRef>(read.refs().begin(), read.refs().end()),
              refs)
        << path << " readTrace";
}

TEST(CodecFiles, DinStraddlesRefillsWithCommentsCrlfAndLongLines)
{
    const Trace trace = bigTrace();
    const std::string plain = tempPath("codec_plain.din");
    saveTrace(trace, plain, TraceFormat::Din);
    const std::string text = slurp(plain);
    ASSERT_GT(text.size(), 8u * 64 * 1024);

    // Re-emit line by line: comments and blank lines mid-file, CRLF on
    // every third line, one comment and one record line longer than
    // the reader buffer, and no newline after the last line.
    std::string edited;
    std::size_t line_no = 0;
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t nl = text.find('\n', pos);
        std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++line_no;
        if (line_no % 97 == 0) {
            edited += "# comment ";
            edited += std::to_string(line_no);
            edited += '\n';
        }
        if (line_no % 89 == 0)
            edited += "\n";
        if (line_no == 1000) {
            edited += '#';
            edited.append(150000, 'c');
            edited += '\n';
        }
        if (line_no == 2000)
            line += std::string(100000, ' ') + "trailing tokens";
        if (line_no % 3 == 0)
            line += '\r';
        edited += line;
        if (pos < text.size())
            edited += '\n';
    }
    const std::string path = tempPath("codec_edited.din");
    spit(path, edited);
    checkStreams(path, trace);
    checkStreams(plain, trace);

    // A `# refs:` that overstates the length still fatals at the end.
    std::string lying = edited;
    const std::string tag = "# refs: " + std::to_string(kBigRefs);
    lying.replace(lying.find(tag), tag.size(),
                  "# refs: " + std::to_string(kBigRefs + 7));
    const std::string lying_path = tempPath("codec_lying.din");
    spit(lying_path, lying);
    EXPECT_DEATH({ openTraceSource(lying_path)->materialize(); },
                 "header declared " + std::to_string(kBigRefs + 7) +
                     " refs but the stream held " + std::to_string(kBigRefs));
    std::filesystem::remove(plain);
    std::filesystem::remove(path);
    std::filesystem::remove(lying_path);
}

TEST(CodecFiles, CompressedStraddlesRefills)
{
    const Trace trace = bigTrace();
    const std::string path = tempPath("codec_big.ctr");
    saveTrace(trace, path, TraceFormat::Compressed);
    ASSERT_GT(std::filesystem::file_size(path), 3u * 64 * 1024);
    checkStreams(path, trace);
    std::filesystem::remove(path);
}

TEST(CodecFiles, TruncatedCompressedFileFatals)
{
    // Record k (0-based) jumps to a far address: a ten-byte varint.
    Trace trace = bigTrace();
    const std::size_t k = kBigRefs - 3;
    Trace cut_source("big");
    for (std::size_t i = 0; i < kBigRefs; ++i) {
        MemoryRef ref = trace[i];
        if (i == k)
            ref = {0x8000000000000000ULL ^ trace[i].addr, trace[i].size,
                   trace[i].kind};
        cut_source.append(ref);
    }
    Trace prefix("big");
    for (std::size_t i = 0; i < k; ++i)
        prefix.append(cut_source[i]);

    const std::string full_path = tempPath("codec_full.ctr");
    const std::string prefix_path = tempPath("codec_prefix.ctr");
    saveTrace(cut_source, full_path, TraceFormat::Compressed);
    saveTrace(prefix, prefix_path, TraceFormat::Compressed);
    const std::string full = slurp(full_path);
    // Both files carry the same name, so the headers have one length
    // and the prefix file's size is where record k begins.
    const std::size_t header = 4 + 4 + 3 + 8;
    const std::size_t boundary = std::filesystem::file_size(prefix_path);
    ASSERT_GT(boundary - header, 2 * kBigRefs); // passes the count check

    const std::string mid_tag = tempPath("codec_cut_tag.ctr");
    spit(mid_tag, full.substr(0, boundary));
    EXPECT_DEATH({ openTraceSource(mid_tag)->materialize(); },
                 "compressed trace '.*codec_cut_tag.ctr' record " +
                     std::to_string(k + 1) + ": truncated record");

    const std::string mid_varint = tempPath("codec_cut_varint.ctr");
    spit(mid_varint, full.substr(0, boundary + 3));
    EXPECT_DEATH({ openTraceSource(mid_varint)->materialize(); },
                 "compressed trace '.*codec_cut_varint.ctr' record " +
                     std::to_string(k + 1) + ": unexpected end of stream");
    std::stringstream ss(full.substr(0, boundary + 3));
    EXPECT_DEATH({ readTrace(ss, TraceFormat::Compressed, {}); },
                 "compressed trace 'big' record " + std::to_string(k + 1) +
                     ": unexpected end of stream");

    for (const std::string &p :
         {full_path, prefix_path, mid_tag, mid_varint})
        std::filesystem::remove(p);
}

/** A CLT2 header named "t" declaring @p count records, then @p body. */
std::string
compressedBytes(std::uint64_t count, const std::string &body)
{
    std::string bytes = "CLT2";
    bytes += std::string("\x01\x00\x00\x00", 4);
    bytes += "t";
    bytes.append(reinterpret_cast<const char *>(&count), sizeof(count));
    return bytes + body;
}

TEST(CodecFiles, MalformedCompressedRecordsFatal)
{
    // Record 2 of each: an 11-byte varint, and a changed size of 0.
    const std::string overflow =
        std::string("\x00\x02\x00", 3) + std::string(10, '\x80') + '\x01';
    std::stringstream a(compressedBytes(2, overflow));
    EXPECT_DEATH({ readTrace(a, TraceFormat::Compressed, {}); },
                 "compressed trace 't' record 2: varint overflow");
    std::stringstream b(
        compressedBytes(2, std::string("\x00\x02\x04\x00\x00", 5)));
    EXPECT_DEATH({ readTrace(b, TraceFormat::Compressed, {}); },
                 "compressed trace 't' record 2: zero access size");
}

// ---------------------------------------------------------------------
// Literal encoder output.
// ---------------------------------------------------------------------

Trace
pinTrace()
{
    Trace t("pin");
    t.append(0, 1, AccessKind::Read);
    t.append(~Addr{0}, 4294967295u, AccessKind::Write);
    t.append(0x1000, 4, AccessKind::IFetch);
    t.append(0xff0, 4, AccessKind::IFetch); // negative delta
    t.append(0x10, 8, AccessKind::Read);
    t.append(0, 4294967295u, AccessKind::Write); // wraps past ~0
    return t;
}

TEST(CodecBytes, PinnedDinAndCompressedOutput)
{
    const std::string din = "# trace: pin\n# refs: 6\n"
                            "0 0 1\n"
                            "1 ffffffffffffffff 4294967295\n"
                            "2 1000 4\n"
                            "2 ff0 4\n"
                            "0 10 8\n"
                            "1 0 4294967295\n";
    const std::string clt2 =
        std::string("CLT2\x03\x00\x00\x00pin\x06\x00\x00\x00\x00\x00\x00\x00",
                    19) +
        // Tag: kind (ifetch 0, read 1, write 2) | 4 when the size
        // changes; then the zigzag address delta and any new size.
        std::string("\x05\x00\x01"                 // size 1 differs from 4
                    "\x06\x01\xff\xff\xff\xff\x0f" // delta -1, size 2^32-1
                    "\x00\x80\x40"                 // delta +0x1000
                    "\x00\x1f"                     // delta -16
                    "\x05\x20\x08"                 // delta +16, size 8
                    "\x02\x02",                    // delta +1 past ~0
                    20);
    const Trace trace = pinTrace();
    for (const auto &[format, want] :
         {std::pair{TraceFormat::Din, din},
          std::pair{TraceFormat::Compressed, clt2}}) {
        std::stringstream ss;
        writeTrace(trace, ss, format);
        EXPECT_EQ(ss.str(), want) << toString(format);

        const std::string path =
            tempPath(format == TraceFormat::Din ? "pin.din" : "pin.ctr");
        Trace copy = trace;
        saveTrace(static_cast<TraceSource &>(copy), path, format);
        EXPECT_EQ(slurp(path), want) << toString(format) << " streamed";

        std::stringstream back(want);
        const Trace read = readTrace(back, format, "pin");
        EXPECT_EQ(std::vector<MemoryRef>(read.refs().begin(),
                                         read.refs().end()),
                  std::vector<MemoryRef>(trace.refs().begin(),
                                         trace.refs().end()))
            << toString(format);
        std::filesystem::remove(path);
    }
}

TEST(CodecBytes, CompressedReadTraceStopsAfterItsRecords)
{
    // The reader buffers ahead; readTrace() must still leave the stream
    // just past the trace's last record, where the next trace begins.
    const Trace first = pinTrace();
    const Trace second = bigTrace();
    std::stringstream ss;
    writeTrace(first, ss, TraceFormat::Compressed);
    writeTrace(second, ss, TraceFormat::Compressed);
    for (const Trace *want : {&first, &second}) {
        const Trace got = readTrace(ss, TraceFormat::Compressed, {});
        EXPECT_EQ(got.name(), want->name());
        EXPECT_EQ(std::vector<MemoryRef>(got.refs().begin(),
                                         got.refs().end()),
                  std::vector<MemoryRef>(want->refs().begin(),
                                         want->refs().end()));
    }
}

} // namespace
} // namespace cachelab

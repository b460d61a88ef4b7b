/**
 * @file
 * Implementation of trace readers, writers, and streaming sources.
 *
 * The low-level record codecs are shared between the materialized
 * readers/writers and the streaming TraceSource implementations so the
 * two paths cannot drift: a record is encoded and decoded by exactly
 * one function per format.
 */

#include "trace/io.hh"

#include <array>
#include <cstring>
#include <optional>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/logging.hh"

namespace cachelab
{

namespace
{

constexpr std::array<char, 4> kMagic = {'C', 'L', 'T', '1'};
constexpr std::array<char, 4> kMagicCompressed = {'C', 'L', 'T', '2'};

/** Packed CLT1 record: addr(8) + size(4) + kind(1), written field by
 *  field with no padding. */
constexpr std::size_t kBinaryRecordBytes = 13;

/** Smallest encodings of one reference, used to bound header-declared
 *  counts by the bytes actually present: a din record is at least
 *  "0 0\n", a CLT2 record a tag byte plus a one-byte varint. */
constexpr std::uint64_t kMinDinRecordBytes = 4;
constexpr std::uint64_t kMinCompressedRecordBytes = 2;

/** @return bytes from the read position of @p is to its end, or
 *  std::nullopt when the stream cannot seek (position unchanged). */
std::optional<std::uint64_t>
bytesLeft(std::istream &is)
{
    const std::streampos here = is.tellg();
    if (here < 0)
        return std::nullopt;
    is.seekg(0, std::ios::end);
    const std::streampos end = is.tellg();
    is.seekg(here);
    if (end < here || !is)
        return std::nullopt;
    return static_cast<std::uint64_t>(end - here);
}

/**
 * fatal() unless @p count records of at least @p min_bytes each fit in
 * @p left bytes, so a lying header can never drive a reservation.
 * @p what names the input in the diagnostic.
 */
void
checkDeclaredCount(const std::string &what, std::uint64_t count,
                   std::uint64_t left, std::uint64_t min_bytes)
{
    if (count > left / min_bytes)
        fatal(what, ": header declares ", count, " refs but only ", left,
              " bytes follow");
}

/** LEB128 unsigned varint. */
void
writeVarint(std::ostream &os, std::uint64_t v)
{
    while (v >= 0x80) {
        os.put(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    os.put(static_cast<char>(v));
}

std::uint64_t
readVarint(std::istream &is)
{
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
        const int c = is.get();
        if (c == std::char_traits<char>::eof())
            fatal("compressed trace: unexpected end of stream");
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0)
            break;
        shift += 7;
        if (shift > 63)
            fatal("compressed trace: varint overflow");
    }
    return v;
}

/** Zigzag-encode a signed delta into an unsigned varint payload. */
constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
        -static_cast<std::int64_t>(v & 1);
}

/** din access labels per the Dinero convention. */
constexpr int
dinLabel(AccessKind kind)
{
    switch (kind) {
      case AccessKind::Read:
        return 0;
      case AccessKind::Write:
        return 1;
      case AccessKind::IFetch:
        return 2;
    }
    return -1;
}

AccessKind
kindFromDinLabel(int label, std::uint64_t line_no)
{
    switch (label) {
      case 0:
        return AccessKind::Read;
      case 1:
        return AccessKind::Write;
      case 2:
        return AccessKind::IFetch;
      default:
        fatal("din line ", line_no, ": unknown access label ", label);
    }
}

template <typename T>
void
writeRaw(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readRaw(std::istream &is)
{
    T value{};
    is.read(reinterpret_cast<char *>(&value), sizeof(T));
    if (!is)
        fatal("binary trace: unexpected end of stream");
    return value;
}

/**
 * Parse one din line into @p ref.  @return false for blank/comment
 * lines; fatal() on malformed records.
 */
bool
parseDinLine(const std::string &line, std::uint64_t line_no, MemoryRef &ref)
{
    if (line.empty() || line[0] == '#')
        return false;
    std::istringstream ls(line);
    int label = -1;
    std::string addr_hex;
    if (!(ls >> label >> addr_hex))
        fatal("din line ", line_no, ": expected '<label> <hex-addr>'");
    Addr addr = 0;
    try {
        std::size_t pos = 0;
        addr = std::stoull(addr_hex, &pos, 16);
        if (pos != addr_hex.size())
            fatal("din line ", line_no, ": bad address '", addr_hex, "'");
    } catch (const std::exception &) {
        fatal("din line ", line_no, ": bad address '", addr_hex, "'");
    }
    std::uint32_t size = 4;
    ls >> size;
    if (size == 0)
        fatal("din line ", line_no, ": zero access size");
    ref = {addr, size, kindFromDinLabel(label, line_no)};
    return true;
}

void
emitDinRecord(std::ostream &os, const MemoryRef &ref)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%d %llx %u\n", dinLabel(ref.kind),
                  static_cast<unsigned long long>(ref.addr), ref.size);
    os << buf;
}

void
emitBinaryRecord(std::ostream &os, const MemoryRef &ref)
{
    writeRaw(os, ref.addr);
    writeRaw(os, ref.size);
    writeRaw(os, static_cast<std::uint8_t>(ref.kind));
}

/** Decode one packed CLT1 record from @p bytes (kBinaryRecordBytes). */
MemoryRef
decodeBinaryRecord(const unsigned char *bytes)
{
    MemoryRef ref;
    std::memcpy(&ref.addr, bytes, sizeof(ref.addr));
    std::memcpy(&ref.size, bytes + 8, sizeof(ref.size));
    const std::uint8_t kind_raw = bytes[12];
    if (kind_raw > 2)
        fatal("binary trace: bad access kind ", unsigned{kind_raw});
    ref.kind = static_cast<AccessKind>(kind_raw);
    return ref;
}

/**
 * Per-kind delta state of the CLT2 codec.  Deltas are tracked per
 * access kind: the instruction stream and each data stream are
 * individually near-sequential, so per-kind deltas stay tiny even
 * though the merged stream jumps around.
 */
struct Clt2State
{
    std::array<Addr, 3> lastAddr{};
    std::array<std::uint32_t, 3> lastSize{4, 4, 4};
};

void
emitCompressedRecord(std::ostream &os, Clt2State &state,
                     const MemoryRef &ref)
{
    const auto k = static_cast<std::size_t>(ref.kind);
    // Tag byte: kind in the low 2 bits, "size changed" in bit 2.
    const bool size_changed = ref.size != state.lastSize[k];
    const std::uint8_t tag = static_cast<std::uint8_t>(
        static_cast<unsigned>(ref.kind) | (size_changed ? 4u : 0u));
    os.put(static_cast<char>(tag));
    writeVarint(os,
                zigzag(static_cast<std::int64_t>(ref.addr) -
                       static_cast<std::int64_t>(state.lastAddr[k])));
    if (size_changed)
        writeVarint(os, ref.size);
    state.lastAddr[k] = ref.addr;
    state.lastSize[k] = ref.size;
}

MemoryRef
readCompressedRecord(std::istream &is, Clt2State &state)
{
    const int tag = is.get();
    if (tag == std::char_traits<char>::eof())
        fatal("compressed trace: truncated record");
    const unsigned kind_raw = static_cast<unsigned>(tag) & 3u;
    if (kind_raw > 2)
        fatal("compressed trace: bad access kind ", kind_raw);
    const auto k = static_cast<std::size_t>(kind_raw);
    const std::int64_t delta = unzigzag(readVarint(is));
    const Addr addr =
        static_cast<Addr>(static_cast<std::int64_t>(state.lastAddr[k]) +
                          delta);
    std::uint32_t size = state.lastSize[k];
    if ((static_cast<unsigned>(tag) & 4u) != 0)
        size = static_cast<std::uint32_t>(readVarint(is));
    if (size == 0)
        fatal("compressed trace: zero access size");
    state.lastAddr[k] = addr;
    state.lastSize[k] = size;
    return {addr, size, static_cast<AccessKind>(kind_raw)};
}

void
writeDinHeader(std::ostream &os, const std::string &name,
               std::uint64_t count, bool count_known)
{
    os << "# trace: " << name << '\n';
    if (count_known)
        os << "# refs: " << count << '\n';
}

void
writePackedHeader(std::ostream &os, const std::array<char, 4> &magic,
                  const std::string &name, std::uint64_t count)
{
    os.write(magic.data(), magic.size());
    const auto name_len = static_cast<std::uint32_t>(name.size());
    writeRaw(os, name_len);
    os.write(name.data(), name_len);
    writeRaw(os, count);
}

/** @return the embedded name after validating @p magic. */
std::string
readPackedHeader(std::istream &is, const std::array<char, 4> &magic,
                 const char *what, std::uint64_t &count)
{
    std::array<char, 4> got{};
    is.read(got.data(), got.size());
    if (!is || got != magic)
        fatal(what, ": bad magic");
    const auto name_len = readRaw<std::uint32_t>(is);
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    if (!is)
        fatal(what, ": truncated name");
    count = readRaw<std::uint64_t>(is);
    return name;
}

bool
hasExtension(const std::string &path, const char *ext)
{
    const std::size_t n = std::strlen(ext);
    return path.size() >= n && path.compare(path.size() - n, n, ext) == 0;
}

std::string
baseName(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const auto dot = base.find_last_of('.');
    if (dot != std::string::npos)
        base.resize(dot);
    return base;
}

} // namespace

std::string_view
toString(TraceFormat format)
{
    switch (format) {
      case TraceFormat::Din:
        return "din";
      case TraceFormat::Binary:
        return "binary";
      case TraceFormat::Compressed:
        return "compressed";
    }
    return "?";
}

TraceFormat
formatForPath(const std::string &path)
{
    if (hasExtension(path, ".din"))
        return TraceFormat::Din;
    if (hasExtension(path, ".ctr"))
        return TraceFormat::Compressed;
    return TraceFormat::Binary;
}

void
writeTrace(const Trace &trace, std::ostream &os, TraceFormat format)
{
    switch (format) {
      case TraceFormat::Din:
        writeDinHeader(os, trace.name(), trace.size(), true);
        for (const MemoryRef &ref : trace.refs())
            emitDinRecord(os, ref);
        return;
      case TraceFormat::Binary:
        writePackedHeader(os, kMagic, trace.name(), trace.size());
        for (const MemoryRef &ref : trace.refs())
            emitBinaryRecord(os, ref);
        return;
      case TraceFormat::Compressed: {
        writePackedHeader(os, kMagicCompressed, trace.name(), trace.size());
        Clt2State state;
        for (const MemoryRef &ref : trace.refs())
            emitCompressedRecord(os, state, ref);
        return;
      }
    }
    panic("unreachable trace format");
}

Trace
readTrace(std::istream &is, TraceFormat format, std::string name)
{
    switch (format) {
      case TraceFormat::Din: {
        Trace trace(std::move(name));
        std::string line;
        std::uint64_t line_no = 0;
        MemoryRef ref;
        while (std::getline(is, line)) {
            ++line_no;
            if (parseDinLine(line, line_no, ref))
                trace.append(ref);
        }
        return trace;
      }
      case TraceFormat::Binary: {
        std::uint64_t count = 0;
        Trace trace(readPackedHeader(is, kMagic, "binary trace", count));
        if (const auto left = bytesLeft(is)) {
            checkDeclaredCount("binary trace", count, *left,
                               kBinaryRecordBytes);
            trace.reserve(count);
        }
        std::array<unsigned char, kBinaryRecordBytes> rec{};
        for (std::uint64_t i = 0; i < count; ++i) {
            is.read(reinterpret_cast<char *>(rec.data()), rec.size());
            if (!is)
                fatal("binary trace: unexpected end of stream");
            trace.append(decodeBinaryRecord(rec.data()));
        }
        return trace;
      }
      case TraceFormat::Compressed: {
        std::uint64_t count = 0;
        Trace trace(readPackedHeader(is, kMagicCompressed,
                                     "compressed trace", count));
        if (const auto left = bytesLeft(is)) {
            checkDeclaredCount("compressed trace", count, *left,
                               kMinCompressedRecordBytes);
            trace.reserve(count);
        }
        Clt2State state;
        for (std::uint64_t i = 0; i < count; ++i)
            trace.append(readCompressedRecord(is, state));
        return trace;
      }
    }
    panic("unreachable trace format");
}

void
saveTrace(const Trace &trace, const std::string &path, TraceFormat format)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeTrace(trace, os, format);
    if (!os)
        fatal("write to '", path, "' failed");
}

void
saveTrace(TraceSource &source, const std::string &path, TraceFormat format)
{
    const bool known = source.lengthKnown();
    if (format != TraceFormat::Din && !known)
        fatal("saveTrace: the ", toString(format), " header carries a "
              "reference count; stream it from a source with a known "
              "length or materialize first");
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open '", path, "' for writing");

    const std::uint64_t declared = known ? source.knownLength() : 0;
    Clt2State state;
    switch (format) {
      case TraceFormat::Din:
        writeDinHeader(os, source.name(), declared, known);
        break;
      case TraceFormat::Binary:
        writePackedHeader(os, kMagic, source.name(), declared);
        break;
      case TraceFormat::Compressed:
        writePackedHeader(os, kMagicCompressed, source.name(), declared);
        break;
    }

    const std::uint64_t written =
        source.forEachBatch([&](std::span<const MemoryRef> batch) {
            for (const MemoryRef &ref : batch) {
                switch (format) {
                  case TraceFormat::Din:
                    emitDinRecord(os, ref);
                    break;
                  case TraceFormat::Binary:
                    emitBinaryRecord(os, ref);
                    break;
                  case TraceFormat::Compressed:
                    emitCompressedRecord(os, state, ref);
                    break;
                }
            }
        });
    if (known && written != declared)
        fatal("saveTrace: source '", source.name(), "' declared ", declared,
              " refs but delivered ", written);
    if (!os)
        fatal("write to '", path, "' failed");
}

// ---------------------------------------------------------------------------
// Streaming sources.

namespace
{

/**
 * Zero-copy CLT1 reader: the file is mapped read-only and records are
 * decoded straight out of the mapping, so resident memory is the
 * kernel's page cache working set, not the trace.  skip() is a cursor
 * move, which makes skipping warming policies (sample/warming.hh)
 * O(1) per skipped range.
 */
class MmapBinarySource : public TraceSource
{
  public:
    MmapBinarySource(const std::string &path, int fd, std::size_t file_bytes)
        : path_(path), fileBytes_(file_bytes)
    {
        map_ = ::mmap(nullptr, fileBytes_, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (map_ == MAP_FAILED)
            fatal("cannot mmap '", path, "'");
        ::madvise(map_, fileBytes_, MADV_SEQUENTIAL);
        parseHeader();
    }

    MmapBinarySource(const MmapBinarySource &) = delete;
    MmapBinarySource &operator=(const MmapBinarySource &) = delete;

    ~MmapBinarySource() override
    {
        if (map_ != MAP_FAILED)
            ::munmap(map_, fileBytes_);
    }

    const std::string &name() const override { return name_; }

    std::size_t
    nextBatch(std::span<MemoryRef> out) override
    {
        const std::uint64_t left = count_ - cursor_;
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size(), left));
        const unsigned char *bytes = payload_ + cursor_ * kBinaryRecordBytes;
        for (std::size_t i = 0; i < n; ++i, bytes += kBinaryRecordBytes)
            out[i] = decodeBinaryRecord(bytes);
        cursor_ += n;
        return n;
    }

    void reset() override { cursor_ = 0; }
    std::uint64_t knownLength() const override { return count_; }

    std::uint64_t
    skip(std::uint64_t n) override
    {
        const std::uint64_t step = std::min(n, count_ - cursor_);
        cursor_ += step;
        return step;
    }

  private:
    void
    parseHeader()
    {
        const unsigned char *bytes = static_cast<unsigned char *>(map_);
        if (fileBytes_ < kMagic.size() + sizeof(std::uint32_t) ||
            std::memcmp(bytes, kMagic.data(), kMagic.size()) != 0)
            fatal("binary trace: bad magic");
        std::size_t off = kMagic.size();
        std::uint32_t name_len = 0;
        std::memcpy(&name_len, bytes + off, sizeof(name_len));
        off += sizeof(name_len);
        if (fileBytes_ < off + name_len + sizeof(std::uint64_t))
            fatal("binary trace: truncated name");
        name_.assign(reinterpret_cast<const char *>(bytes + off), name_len);
        off += name_len;
        std::memcpy(&count_, bytes + off, sizeof(count_));
        off += sizeof(count_);
        checkDeclaredCount("binary trace '" + path_ + "'", count_,
                           fileBytes_ - off, kBinaryRecordBytes);
        payload_ = bytes + off;
    }

    std::string path_;
    std::size_t fileBytes_;
    void *map_ = MAP_FAILED;
    std::string name_;
    std::uint64_t count_ = 0;
    const unsigned char *payload_ = nullptr;
    std::uint64_t cursor_ = 0;
};

/** Buffered-stream CLT1 reader (fallback when mmap is unavailable). */
class BinaryStreamSource : public TraceSource
{
  public:
    explicit BinaryStreamSource(const std::string &path)
        : path_(path), is_(path, std::ios::binary)
    {
        if (!is_)
            fatal("cannot open '", path, "' for reading");
        name_ = readPackedHeader(is_, kMagic, "binary trace", count_);
        payloadOff_ = is_.tellg();
        if (const auto left = bytesLeft(is_))
            checkDeclaredCount("binary trace '" + path + "'", count_, *left,
                               kBinaryRecordBytes);
    }

    const std::string &name() const override { return name_; }

    std::size_t
    nextBatch(std::span<MemoryRef> out) override
    {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size(), count_ - cursor_));
        std::array<unsigned char, kBinaryRecordBytes> rec{};
        for (std::size_t i = 0; i < n; ++i) {
            is_.read(reinterpret_cast<char *>(rec.data()), rec.size());
            if (!is_)
                fatal("binary trace: unexpected end of stream");
            out[i] = decodeBinaryRecord(rec.data());
        }
        cursor_ += n;
        return n;
    }

    void
    reset() override
    {
        is_.clear();
        is_.seekg(payloadOff_);
        if (!is_)
            fatal("cannot rewind '", path_, "'");
        cursor_ = 0;
    }

    std::uint64_t knownLength() const override { return count_; }

    std::uint64_t
    skip(std::uint64_t n) override
    {
        const std::uint64_t step = std::min(n, count_ - cursor_);
        is_.seekg(static_cast<std::streamoff>(step * kBinaryRecordBytes),
                  std::ios::cur);
        if (!is_)
            fatal("binary trace: unexpected end of stream");
        cursor_ += step;
        return step;
    }

  private:
    std::string path_;
    std::ifstream is_;
    std::string name_;
    std::uint64_t count_ = 0;
    std::streampos payloadOff_;
    std::uint64_t cursor_ = 0;
};

/**
 * Incremental din text decoder.  knownLength() is exact when the file
 * carries the writer's `# refs: N` comment (verified against the
 * actual record count when the stream drains); unknown otherwise.
 */
class DinStreamSource : public TraceSource
{
  public:
    explicit DinStreamSource(const std::string &path)
        : path_(path), is_(path), name_(baseName(path))
    {
        if (!is_)
            fatal("cannot open '", path, "' for reading");
        // Scan the leading comment block for the length hint, then
        // rewind; parsing skips comments anyway.  A hint the file is
        // too small to hold is a lie, rejected before anything (such
        // as materialize()) reserves for it.
        std::string line;
        while (std::getline(is_, line) && !line.empty() && line[0] == '#') {
            constexpr std::string_view kRefsTag = "# refs: ";
            if (line.rfind(kRefsTag, 0) == 0) {
                try {
                    count_ = std::stoull(line.substr(kRefsTag.size()));
                    haveCount_ = true;
                } catch (const std::exception &) {
                    // Malformed hint: treat the length as unknown.
                }
                break;
            }
        }
        rewind();
        if (haveCount_) {
            if (const auto bytes = bytesLeft(is_))
                checkDeclaredCount("din trace '" + path + "'", count_,
                                   *bytes, kMinDinRecordBytes);
        }
    }

    const std::string &name() const override { return name_; }

    std::size_t
    nextBatch(std::span<MemoryRef> out) override
    {
        std::size_t n = 0;
        std::string line;
        MemoryRef ref;
        while (n < out.size() && std::getline(is_, line)) {
            ++lineNo_;
            if (parseDinLine(line, lineNo_, ref)) {
                out[n++] = ref;
                ++delivered_;
            }
        }
        if (n == 0 && haveCount_ && delivered_ != count_)
            fatal("din trace '", path_, "': header declared ", count_,
                  " refs but the stream held ", delivered_);
        return n;
    }

    void
    reset() override
    {
        rewind();
        lineNo_ = 0;
        delivered_ = 0;
    }

    std::uint64_t
    knownLength() const override
    {
        return haveCount_ ? count_ : kUnknownLength;
    }

  private:
    void
    rewind()
    {
        is_.clear();
        is_.seekg(0);
        if (!is_)
            fatal("cannot rewind '", path_, "'");
    }

    std::string path_;
    std::ifstream is_;
    std::string name_;
    std::uint64_t lineNo_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t count_ = 0;
    bool haveCount_ = false;
};

/** Incremental CLT2 decoder: per-kind delta state, seekable reset. */
class CompressedStreamSource : public TraceSource
{
  public:
    explicit CompressedStreamSource(const std::string &path)
        : path_(path), is_(path, std::ios::binary)
    {
        if (!is_)
            fatal("cannot open '", path, "' for reading");
        name_ = readPackedHeader(is_, kMagicCompressed, "compressed trace",
                                 count_);
        payloadOff_ = is_.tellg();
        if (const auto left = bytesLeft(is_))
            checkDeclaredCount("compressed trace '" + path + "'", count_,
                               *left, kMinCompressedRecordBytes);
    }

    const std::string &name() const override { return name_; }

    std::size_t
    nextBatch(std::span<MemoryRef> out) override
    {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size(), count_ - cursor_));
        for (std::size_t i = 0; i < n; ++i)
            out[i] = readCompressedRecord(is_, state_);
        cursor_ += n;
        return n;
    }

    void
    reset() override
    {
        is_.clear();
        is_.seekg(payloadOff_);
        if (!is_)
            fatal("cannot rewind '", path_, "'");
        state_ = {};
        cursor_ = 0;
    }

    std::uint64_t knownLength() const override { return count_; }

  private:
    std::string path_;
    std::ifstream is_;
    std::string name_;
    std::uint64_t count_ = 0;
    std::streampos payloadOff_;
    Clt2State state_;
    std::uint64_t cursor_ = 0;
};

} // namespace

std::unique_ptr<TraceSource>
openTraceSource(const std::string &path, TraceFormat format)
{
    switch (format) {
      case TraceFormat::Din:
        return std::make_unique<DinStreamSource>(path);
      case TraceFormat::Compressed:
        return std::make_unique<CompressedStreamSource>(path);
      case TraceFormat::Binary: {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            fatal("cannot open '", path, "' for reading");
        struct stat st{};
        if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0)
            return std::make_unique<MmapBinarySource>(
                path, fd, static_cast<std::size_t>(st.st_size));
        ::close(fd);
        return std::make_unique<BinaryStreamSource>(path);
      }
    }
    panic("unreachable trace format");
}

std::unique_ptr<TraceSource>
openTraceSource(const std::string &path)
{
    return openTraceSource(path, formatForPath(path));
}

} // namespace cachelab

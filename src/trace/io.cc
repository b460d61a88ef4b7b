/**
 * @file
 * Implementation of trace readers, writers, and streaming sources.
 *
 * The low-level record codecs are shared between the materialized
 * readers/writers and the streaming TraceSource implementations so the
 * two paths cannot drift: a record is encoded and decoded by exactly
 * one function per format.  Din and CLT2 records are decoded from, and
 * every format's records encoded into, one fixed kCodecBufferBytes
 * buffer (ByteReader / ByteWriter), so no reference costs a string,
 * a string stream or a per-byte stream call.
 */

#include "trace/io.hh"

#include <array>
#include <charconv>
#include <cstring>
#include <optional>
#include <fstream>
#include <istream>
#include <ostream>

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

/** Largest encodings of one reference: a CLT2 tag byte plus two
 *  ten-byte varints, and a din "-1 <16 hex digits> <10 digits>\n". */
constexpr std::size_t kMaxCompressedRecordBytes = 1 + 2 * 10;
constexpr std::size_t kMaxDinRecordBytes = 2 + 1 + 16 + 1 + 10 + 1;

/** Bytes of the one buffer each reader and writer works through: a
 *  refill or flush is one stream call per 64 KiB. */
constexpr std::size_t kCodecBufferBytes = 64 * 1024;

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

/**
 * Buffered reader over an istream.  refill() moves the unread tail to
 * the front of the fixed buffer and reads behind it with one
 * is.read(), so a line or record that straddles two reads is seen
 * whole.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::istream &is)
        : is_(is), buf_(new char[kCodecBufferBytes]), cur_(buf_.get()),
          end_(buf_.get())
    {}

    const char *cursor() const { return cur_; }
    const char *end() const { return end_; }
    void advance(const char *to) { cur_ = to; }

    std::size_t
    available() const
    {
        return static_cast<std::size_t>(end_ - cur_);
    }

    /** Keep the unread tail, read behind it; @return false at EOF. */
    bool
    refill()
    {
        const std::size_t tail = available();
        std::memmove(buf_.get(), cur_, tail);
        cur_ = buf_.get();
        end_ = cur_ + tail;
        is_.read(buf_.get() + tail,
                 static_cast<std::streamsize>(kCodecBufferBytes - tail));
        end_ += is_.gcount();
        return is_.gcount() > 0;
    }

    /** Drop the buffered bytes and seek to @p pos; @return false when
     *  the stream cannot seek. */
    bool
    seek(std::streampos pos)
    {
        cur_ = end_ = buf_.get();
        is_.clear();
        is_.seekg(pos);
        return static_cast<bool>(is_);
    }

    /** Seek the stream back over the bytes read ahead of the cursor,
     *  so it stands just past the last byte consumed.  A stream that
     *  cannot seek stays where it is, with no error state. */
    void
    giveBack()
    {
        if (cur_ == end_)
            return;
        is_.clear();
        is_.rdbuf()->pubseekoff(-static_cast<std::streamoff>(available()),
                                std::ios::cur, std::ios::in);
        cur_ = end_;
    }

    /**
     * Next line without its '\n', split as std::getline() splits: a
     * last line without '\n' counts, an empty tail does not.  The view
     * is valid until the next call.  @return false at end of stream.
     */
    bool
    nextLine(std::string_view &line)
    {
        longLine_.clear();
        while (true) {
            if (const void *nl = std::memchr(cur_, '\n', available())) {
                const char *stop = static_cast<const char *>(nl);
                line = std::string_view(cur_, stop - cur_);
                cur_ = stop + 1;
                break;
            }
            // A line longer than the whole buffer spills into longLine_.
            if (available() == kCodecBufferBytes) {
                longLine_.append(cur_, end_);
                cur_ = end_;
            }
            if (!refill()) {
                line = std::string_view(cur_, available());
                cur_ = end_;
                if (line.empty() && longLine_.empty())
                    return false;
                break;
            }
        }
        if (!longLine_.empty()) {
            longLine_.append(line);
            line = longLine_;
        }
        return true;
    }

  private:
    std::istream &is_;
    std::unique_ptr<char[]> buf_;
    const char *cur_;
    const char *end_;
    std::string longLine_;
};

/**
 * Buffered writer over an ostream: records are encoded straight into
 * one fixed buffer, which goes out in one os.write() whenever the next
 * record might not fit and on flush().
 */
class ByteWriter
{
  public:
    explicit ByteWriter(std::ostream &os)
        : os_(os), buf_(new char[kCodecBufferBytes]), cur_(buf_.get())
    {}

    /** @return where to encode a record of at most @p bytes. */
    char *
    reserve(std::size_t bytes)
    {
        if (static_cast<std::size_t>(buf_.get() + kCodecBufferBytes - cur_) <
            bytes)
            flush();
        return cur_;
    }

    /** Mark the bytes up to @p end as encoded. */
    void commit(char *end) { cur_ = end; }

    void
    flush()
    {
        os_.write(buf_.get(), cur_ - buf_.get());
        cur_ = buf_.get();
    }

  private:
    std::ostream &os_;
    std::unique_ptr<char[]> buf_;
    char *cur_;
};

/** LEB128 unsigned varint. */
char *
putVarint(char *out, std::uint64_t v)
{
    while (v >= 0x80) {
        *out++ = static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    *out++ = static_cast<char>(v);
    return out;
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

/** isspace() of the "C" locale: what `istream >>` skips. */
constexpr bool
isDinSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

const char *
skipDinSpace(const char *p, const char *end)
{
    while (p != end && isDinSpace(*p))
        ++p;
    return p;
}

/** Consume an optional '+' or '-' at @p p; @return true for '-'. */
bool
takeSign(const char *&p, const char *end)
{
    if (p == end || (*p != '+' && *p != '-'))
        return false;
    return *p++ == '-';
}

/** stoull(token, 16) that must consume all of @p token: a sign, an
 *  optional 0x/0X and at least one hex digit, without overflow. */
bool
parseDinAddress(std::string_view token, Addr &addr)
{
    const char *p = token.data();
    const char *const end = p + token.size();
    const bool negative = takeSign(p, end);
    if (end - p >= 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X'))
        p += 2;
    const auto [stop, ec] = std::from_chars(p, end, addr, 16);
    if (ec != std::errc{} || stop != end)
        return false;
    if (negative)
        addr = Addr{0} - addr;
    return true;
}

[[noreturn]] void
failDinLine(const std::string &what, std::uint64_t line_no,
            const DinLine &line)
{
    switch (line.status) {
      case DinLineStatus::BadAddress:
        fatal(what, " line ", line_no, ": bad address '", line.addr, "'");
      case DinLineStatus::ZeroSize:
        fatal(what, " line ", line_no, ": zero access size");
      case DinLineStatus::BadLabel:
        fatal(what, " line ", line_no, ": unknown access label ",
              line.label);
      default:
        fatal(what, " line ", line_no, ": expected '<label> <hex-addr>'");
    }
}

/** Encode one din line; same bytes as "%d %llx %u\n". */
char *
encodeDinRecord(char *out, const MemoryRef &ref)
{
    out = std::to_chars(out, out + 2, dinLabel(ref.kind)).ptr;
    *out++ = ' ';
    out = std::to_chars(out, out + 16, ref.addr, 16).ptr;
    *out++ = ' ';
    out = std::to_chars(out, out + 10, ref.size).ptr;
    *out++ = '\n';
    return out;
}

/** din text through one ByteReader, counting lines for diagnostics. */
class DinDecoder
{
  public:
    /** @p what names the input in diagnostics. */
    DinDecoder(std::istream &is, std::string what)
        : reader_(is), what_(std::move(what))
    {}

    /** Fill up to out.size() references; @return how many (0 = end).
     *  fatal() on a malformed line. */
    std::size_t
    decode(std::span<MemoryRef> out)
    {
        std::size_t n = 0;
        std::string_view text;
        while (n < out.size() && reader_.nextLine(text)) {
            ++lineNo_;
            const DinLine line = parseDinLine(text);
            if (line.status == DinLineStatus::Record)
                out[n++] = line.ref;
            else if (line.status != DinLineStatus::Skip)
                failDinLine(what_, lineNo_, line);
        }
        return n;
    }

    /** Restart at line 1; @return false when the stream cannot seek. */
    bool
    rewind()
    {
        lineNo_ = 0;
        return reader_.seek(0);
    }

  private:
    ByteReader reader_;
    std::string what_;
    std::uint64_t lineNo_ = 0;
};

char *
encodeBinaryRecord(char *out, const MemoryRef &ref)
{
    std::memcpy(out, &ref.addr, sizeof(ref.addr));
    std::memcpy(out + 8, &ref.size, sizeof(ref.size));
    out[12] = static_cast<char>(ref.kind);
    return out + kBinaryRecordBytes;
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

char *
encodeCompressedRecord(char *out, Clt2State &state, const MemoryRef &ref)
{
    const auto k = static_cast<std::size_t>(ref.kind);
    // Tag byte: kind in the low 2 bits, "size changed" in bit 2.
    const bool size_changed = ref.size != state.lastSize[k];
    *out++ = static_cast<char>(static_cast<unsigned>(ref.kind) |
                               (size_changed ? 4u : 0u));
    // The delta wraps modulo 2^64: unsigned arithmetic gives the two's
    // complement bits without signed overflow.
    out = putVarint(
        out, zigzag(static_cast<std::int64_t>(ref.addr - state.lastAddr[k])));
    if (size_changed)
        out = putVarint(out, ref.size);
    state.lastAddr[k] = ref.addr;
    state.lastSize[k] = ref.size;
    return out;
}

/** LEB128 varint from [p, end), advancing @p p.  @return nullptr, or
 *  what is wrong with the varint. */
const char *
takeVarint(const char *&p, const char *end, std::uint64_t &v)
{
    v = 0;
    for (int shift = 0;; shift += 7) {
        if (shift > 63)
            return "varint overflow";
        if (p == end)
            return "unexpected end of stream";
        const unsigned c = static_cast<unsigned char>(*p++);
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0)
            return nullptr;
    }
}

/** Decode one CLT2 record from [p, end) into @p ref, advancing @p p.
 *  @return nullptr, or what is wrong with the record. */
const char *
decodeCompressedRecord(const char *&p, const char *end, Clt2State &state,
                       MemoryRef &ref)
{
    if (p == end)
        return "truncated record";
    const unsigned tag = static_cast<unsigned char>(*p++);
    const unsigned kind_raw = tag & 3u;
    if (kind_raw > 2)
        return "bad access kind 3";
    const auto k = static_cast<std::size_t>(kind_raw);
    std::uint64_t zz = 0;
    if (const char *error = takeVarint(p, end, zz))
        return error;
    const Addr addr = state.lastAddr[k] + static_cast<Addr>(unzigzag(zz));
    std::uint32_t size = state.lastSize[k];
    if ((tag & 4u) != 0) {
        std::uint64_t raw = 0;
        if (const char *error = takeVarint(p, end, raw))
            return error;
        size = static_cast<std::uint32_t>(raw);
    }
    if (size == 0)
        return "zero access size";
    state.lastAddr[k] = addr;
    state.lastSize[k] = size;
    ref = {addr, size, static_cast<AccessKind>(kind_raw)};
    return nullptr;
}

/** CLT2 records through one ByteReader, counting records for
 *  diagnostics. */
class Clt2Decoder
{
  public:
    /** @p what names the input in diagnostics. */
    Clt2Decoder(std::istream &is, std::string what)
        : reader_(is), what_(std::move(what))
    {}

    /** Decode exactly out.size() records; fatal() on a bad or missing
     *  one. */
    void
    decode(std::span<MemoryRef> out)
    {
        for (MemoryRef &ref : out) {
            if (reader_.available() < kMaxCompressedRecordBytes)
                reader_.refill();
            const char *p = reader_.cursor();
            ++record_;
            if (const char *error =
                    decodeCompressedRecord(p, reader_.end(), state_, ref))
                fatal(what_, " record ", record_, ": ", error);
            reader_.advance(p);
        }
    }

    /** Restart at the first record, stored at @p payload; @return
     *  false when the stream cannot seek. */
    bool
    rewind(std::streampos payload)
    {
        state_ = {};
        record_ = 0;
        return reader_.seek(payload);
    }

    /** Leave the stream just past the last record decoded. */
    void giveBack() { reader_.giveBack(); }

  private:
    ByteReader reader_;
    std::string what_;
    Clt2State state_;
    std::uint64_t record_ = 0;
};

/** Encode @p refs in @p format through @p out. */
void
encodeRecords(ByteWriter &out, TraceFormat format, Clt2State &state,
              std::span<const MemoryRef> refs)
{
    switch (format) {
      case TraceFormat::Din:
        for (const MemoryRef &ref : refs)
            out.commit(encodeDinRecord(out.reserve(kMaxDinRecordBytes), ref));
        return;
      case TraceFormat::Binary:
        for (const MemoryRef &ref : refs)
            out.commit(
                encodeBinaryRecord(out.reserve(kBinaryRecordBytes), ref));
        return;
      case TraceFormat::Compressed:
        for (const MemoryRef &ref : refs)
            out.commit(encodeCompressedRecord(
                out.reserve(kMaxCompressedRecordBytes), state, ref));
        return;
    }
    panic("unreachable trace format");
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

/** Write the header of @p format; a din header states @p count only
 *  when @p count_known. */
void
writeHeader(std::ostream &os, TraceFormat format, const std::string &name,
            std::uint64_t count, bool count_known)
{
    switch (format) {
      case TraceFormat::Din:
        os << "# trace: " << name << '\n';
        if (count_known)
            os << "# refs: " << count << '\n';
        return;
      case TraceFormat::Binary:
        writePackedHeader(os, kMagic, name, count);
        return;
      case TraceFormat::Compressed:
        writePackedHeader(os, kMagicCompressed, name, count);
        return;
    }
    panic("unreachable trace format");
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

DinLine
parseDinLine(std::string_view line)
{
    DinLine out;
    if (line.empty() || line[0] == '#')
        return out;
    const char *p = line.data();
    const char *const end = p + line.size();

    // `>> int`: a signed decimal label that fits an int.
    p = skipDinSpace(p, end);
    const bool label_negative = takeSign(p, end);
    std::uint64_t label = 0;
    const auto [label_end, label_ec] = std::from_chars(p, end, label);
    if (label_ec != std::errc{} ||
        label > (label_negative ? 2147483648u : 2147483647u)) {
        out.status = DinLineStatus::Malformed;
        return out;
    }
    out.label = label_negative
        ? static_cast<int>(-static_cast<std::int64_t>(label))
        : static_cast<int>(label);

    // `>> string`: the next run of non-space bytes, which may start
    // right after the label's digits.
    p = skipDinSpace(label_end, end);
    const char *const addr_begin = p;
    while (p != end && !isDinSpace(*p))
        ++p;
    out.addr = std::string_view(addr_begin, p - addr_begin);
    if (out.addr.empty()) {
        out.status = DinLineStatus::Malformed;
        return out;
    }
    if (!parseDinAddress(out.addr, out.ref.addr)) {
        out.status = DinLineStatus::BadAddress;
        return out;
    }

    // `>> uint32`: absent keeps 4; no digits reads 0; an overflow
    // saturates; a '-' negates modulo 2^32.
    p = skipDinSpace(p, end);
    std::uint32_t size = 4;
    if (p != end) {
        const bool size_negative = takeSign(p, end);
        std::uint32_t value = 0;
        const std::errc ec = std::from_chars(p, end, value).ec;
        if (ec == std::errc::invalid_argument)
            size = 0;
        else if (ec == std::errc::result_out_of_range)
            size = ~std::uint32_t{0};
        else
            size = size_negative ? 0u - value : value;
    }
    if (size == 0) {
        out.status = DinLineStatus::ZeroSize;
        return out;
    }
    out.ref.size = size;

    switch (out.label) {
      case 0:
        out.ref.kind = AccessKind::Read;
        break;
      case 1:
        out.ref.kind = AccessKind::Write;
        break;
      case 2:
        out.ref.kind = AccessKind::IFetch;
        break;
      default:
        out.status = DinLineStatus::BadLabel;
        return out;
    }
    out.status = DinLineStatus::Record;
    return out;
}

void
writeTrace(const Trace &trace, std::ostream &os, TraceFormat format)
{
    writeHeader(os, format, trace.name(), trace.size(), true);
    ByteWriter out(os);
    Clt2State state;
    encodeRecords(out, format, state, trace.refs());
    out.flush();
}

Trace
readTrace(std::istream &is, TraceFormat format, std::string name)
{
    MemoryRef ref;
    switch (format) {
      case TraceFormat::Din: {
        DinDecoder decoder(is, "din trace '" + name + "'");
        Trace trace(std::move(name));
        while (decoder.decode({&ref, 1}) != 0)
            trace.append(ref);
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
        Clt2Decoder decoder(is, "compressed trace '" + trace.name() + "'");
        for (std::uint64_t i = 0; i < count; ++i) {
            decoder.decode({&ref, 1});
            trace.append(ref);
        }
        decoder.giveBack();
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
    writeHeader(os, format, source.name(), declared, known);
    ByteWriter out(os);
    Clt2State state;
    const std::uint64_t written =
        source.forEachBatch([&](std::span<const MemoryRef> batch) {
            encodeRecords(out, format, state, batch);
        });
    out.flush();
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
        : path_(path), is_(path), name_(baseName(path)),
          decoder_(is_, "din trace '" + path + "'")
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
        const std::size_t n = decoder_.decode(out);
        delivered_ += n;
        if (n == 0 && haveCount_ && delivered_ != count_)
            fatal("din trace '", path_, "': header declared ", count_,
                  " refs but the stream held ", delivered_);
        return n;
    }

    void
    reset() override
    {
        rewind();
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
        if (!decoder_.rewind())
            fatal("cannot rewind '", path_, "'");
    }

    std::string path_;
    std::ifstream is_;
    std::string name_;
    DinDecoder decoder_;
    std::uint64_t delivered_ = 0;
    std::uint64_t count_ = 0;
    bool haveCount_ = false;
};

/** Incremental CLT2 decoder: per-kind delta state, seekable reset. */
class CompressedStreamSource : public TraceSource
{
  public:
    explicit CompressedStreamSource(const std::string &path)
        : path_(path), is_(path, std::ios::binary),
          decoder_(is_, "compressed trace '" + path + "'")
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
        decoder_.decode(out.first(n));
        cursor_ += n;
        return n;
    }

    void
    reset() override
    {
        if (!decoder_.rewind(payloadOff_))
            fatal("cannot rewind '", path_, "'");
        cursor_ = 0;
    }

    std::uint64_t knownLength() const override { return count_; }

  private:
    std::string path_;
    std::ifstream is_;
    Clt2Decoder decoder_;
    std::string name_;
    std::uint64_t count_ = 0;
    std::streampos payloadOff_;
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

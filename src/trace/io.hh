/**
 * @file
 * Trace file input/output.
 *
 * Three formats are supported, unified behind the TraceFormat enum:
 *
 *  1. TraceFormat::Din — the classic Dinero text format that the
 *     original 1980s tooling used: one reference per line, `<label>
 *     <hex-addr> [size]`, where label 0 = read, 1 = write, 2 =
 *     instruction fetch.  Lines starting with '#' are comments.  The
 *     optional third field (access size in bytes, decimal) is an
 *     extension; absent sizes default to 4 bytes.  Our writer emits a
 *     `# refs: N` comment so streaming readers can report a length.
 *
 *  2. TraceFormat::Binary — a compact packed format (magic "CLT1")
 *     for fast round-tripping of generated workloads.
 *
 *  3. TraceFormat::Compressed — magic "CLT2": per-kind delta encoding
 *     of addresses with zigzag + LEB128 varints, and run-length
 *     encoded sizes.  Local traces compress to a fraction of the
 *     packed format (typically 3-6x smaller).
 *
 * Two access styles:
 *
 *  - Materialized: writeTrace()/readTrace() move whole Trace objects
 *    through streams; saveTrace() writes one to a path, and
 *    openTraceSource(path)->materialize() reads one back.
 *  - Streaming: openTraceSource() returns a TraceSource that decodes
 *    on demand in O(batch) memory — an mmap-backed zero-copy reader
 *    for Binary, incremental decoders for Din and Compressed — and
 *    saveTrace(TraceSource&, ...) writes a stream without ever
 *    materializing it.
 *
 * Din and Compressed input goes through one fixed 64 KiB byte buffer
 * per reader (a din line is a string_view into it, a CLT2 record a
 * byte cursor over it), and every writer encodes into one such buffer
 * before a single ostream write.  Malformed din or CLT2 input is
 * fatal() with a one-line diagnostic naming the file (or, for
 * readTrace(), the trace) and the line or record number.
 */

#ifndef CACHELAB_TRACE_IO_HH
#define CACHELAB_TRACE_IO_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "trace/source.hh"
#include "trace/trace.hh"

namespace cachelab
{

/** On-disk trace encodings. */
enum class TraceFormat : std::uint8_t
{
    Din,        ///< classic Dinero text, one reference per line
    Binary,     ///< packed records, magic "CLT1"
    Compressed, ///< delta/varint records, magic "CLT2"
};

/** @return display name ("din"/"binary"/"compressed"). */
std::string_view toString(TraceFormat format);

/** @return the format implied by @p path's extension
 *  (".din" = Din, ".ctr" = Compressed, anything else = Binary). */
TraceFormat formatForPath(const std::string &path);

/** Write @p trace to @p os in @p format. */
void writeTrace(const Trace &trace, std::ostream &os, TraceFormat format);

/**
 * Parse one trace from @p is in @p format.
 *
 * @param name name for the trace when the format does not embed one
 *        (Din); Binary/Compressed carry their own and ignore it.
 * @throws via fatal() on malformed input.
 */
Trace readTrace(std::istream &is, TraceFormat format, std::string name);

/** How parseDinLine() classified one din line. */
enum class DinLineStatus : std::uint8_t
{
    Record,     ///< a reference, in DinLine::ref
    Skip,       ///< empty line or '#' comment
    Malformed,  ///< no `<label> <hex-addr>` pair at the start
    BadAddress, ///< the address token is not one whole hex number
    ZeroSize,   ///< the size field reads as zero
    BadLabel,   ///< a label other than 0, 1 or 2
};

/** One parsed din line. */
struct DinLine
{
    DinLineStatus status = DinLineStatus::Skip;
    MemoryRef ref{};       ///< the reference, for Record
    int label = 0;         ///< the label as read, for BadLabel
    std::string_view addr; ///< the address token (a view into the line)
};

/**
 * Parse one din line, without its '\n'.  The accepted language and
 * the decoded references are those of `istream >> int >> string`,
 * `stoull(addr, 16)` over the whole token and `>> uint32` on the
 * line: leading "C"-locale whitespace ('\r' included), a signed
 * decimal label, a signed address with an optional 0x/0X prefix, an
 * optional signed decimal size (absent = 4, non-numeric = 0, too
 * large = 4294967295, '-' negates modulo 2^32), and anything after
 * the size ignored.  A line is a comment only when its first byte is
 * '#'.
 *
 * Never fatal()s: the caller adds the file and line to a rejection.
 */
DinLine parseDinLine(std::string_view line);

/** Write @p trace to @p path in @p format. */
void saveTrace(const Trace &trace, const std::string &path,
               TraceFormat format);

/**
 * Stream @p source to @p path in @p format without materializing it.
 * Binary and Compressed headers carry a reference count, so the
 * source must have a known length (fatal otherwise).
 */
void saveTrace(TraceSource &source, const std::string &path,
               TraceFormat format);

/**
 * Open @p path as a streaming TraceSource in O(batch) memory:
 *
 *  - Binary: a zero-copy mmap reader (falls back to buffered stream
 *    reads when the file cannot be mapped), O(1) skip();
 *  - Din / Compressed: incremental decoders over a file stream.
 *
 * knownLength() is exact for Binary/Compressed (header count) and for
 * Din files carrying the writer's `# refs: N` comment; otherwise
 * unknown.  All returned sources support reset().
 */
std::unique_ptr<TraceSource> openTraceSource(const std::string &path);

/** openTraceSource() with the format forced instead of inferred. */
std::unique_ptr<TraceSource> openTraceSource(const std::string &path,
                                             TraceFormat format);

} // namespace cachelab

#endif // CACHELAB_TRACE_IO_HH

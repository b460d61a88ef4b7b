/**
 * @file
 * Cache configuration validation and description.
 */

#include "cache/config.hh"

#include "util/bits.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace cachelab
{

std::string
toString(WritePolicy policy)
{
    switch (policy) {
      case WritePolicy::CopyBack:
        return "copy-back";
      case WritePolicy::WriteThrough:
        return "write-through";
    }
    return "?";
}

std::string
toString(WriteMissPolicy policy)
{
    switch (policy) {
      case WriteMissPolicy::FetchOnWrite:
        return "fetch-on-write";
      case WriteMissPolicy::NoAllocate:
        return "no-allocate";
    }
    return "?";
}

std::string
toString(FetchPolicy policy)
{
    switch (policy) {
      case FetchPolicy::Demand:
        return "demand";
      case FetchPolicy::PrefetchAlways:
        return "prefetch-always";
    }
    return "?";
}

std::uint64_t
CacheConfig::effectiveAssociativity() const
{
    return associativity == 0 ? lineCount() : associativity;
}

std::uint64_t
CacheConfig::setCount() const
{
    return lineCount() / effectiveAssociativity();
}

namespace
{

/** "WHAT VALUE RULE LIMIT", appended rather than chained with
 *  operator+ (see describe()). */
std::string
violation(std::string_view what, std::uint64_t value, std::string_view rule,
          const std::string &limit = {})
{
    std::string out(what);
    out += ' ';
    out += std::to_string(value);
    out += rule;
    out += limit;
    return out;
}

} // namespace

std::optional<std::string>
CacheConfig::check() const
{
    if (!isPowerOfTwo(sizeBytes))
        return violation("cache size", sizeBytes, " is not a power of two");
    if (!isPowerOfTwo(lineBytes))
        return violation("line size", lineBytes, " is not a power of two");
    if (lineBytes > sizeBytes)
        return violation("line size", lineBytes, " exceeds cache size ",
                         std::to_string(sizeBytes));
    const std::uint64_t assoc = effectiveAssociativity();
    if (!isPowerOfTwo(assoc))
        return violation("associativity", assoc, " is not a power of two");
    if (assoc > lineCount())
        return violation("associativity", assoc, " exceeds line count ",
                         std::to_string(lineCount()));
    if (auto error = checkReplacementPolicy(replacement))
        return error;
    // Write-through with allocation (fetch-on-write) is a legal
    // combination; nothing else about the policies is rejected.
    return checkAdmissionPolicy(admission);
}

void
CacheConfig::validate() const
{
    if (auto error = check())
        fatal(*error);
}

std::string
CacheConfig::describe() const
{
    // Appended into one reserved string: GCC 12's -Wrestrict misfires
    // on a long inlined chain of std::string operator+ at -O3.
    std::string out;
    out.reserve(64);
    out += formatSize(sizeBytes);
    out += '/';
    out += formatSize(lineBytes);
    out += "B/";
    if (associativity == 0) {
        out += "full";
    } else {
        out += std::to_string(associativity);
        out += "-way";
    }
    out += '/';
    out += replacement.display();
    if (!admission.empty()) {
        out += '+';
        out += admission.toString();
    }
    out += '/';
    out += toString(writePolicy);
    out += '/';
    out += toString(fetchPolicy);
    return out;
}

} // namespace cachelab

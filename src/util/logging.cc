/**
 * @file
 * Implementation of the logging sink.
 */

#include "util/logging.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>

namespace cachelab
{

namespace
{

std::atomic<bool> gLoggingEnabled{true};

/**
 * Initial level from CACHELAB_LOG.  An unknown value falls back to
 * Info rather than fatal()ing: the logging layer must never kill a
 * run over a cosmetic knob.
 */
LogLevel
levelFromEnvironment()
{
    const char *env = std::getenv("CACHELAB_LOG");
    if (env == nullptr)
        return LogLevel::Info;
    const std::string_view v(env);
    if (v == "silent" || v == "quiet" || v == "none")
        return LogLevel::Silent;
    if (v == "warn" || v == "warning")
        return LogLevel::Warn;
    return LogLevel::Info;
}

std::atomic<LogLevel> gLogLevel{levelFromEnvironment()};

} // namespace

void
setLoggingEnabled(bool enabled)
{
    gLoggingEnabled.store(enabled, std::memory_order_relaxed);
}

bool
loggingEnabled()
{
    return gLoggingEnabled.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    gLogLevel.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return gLogLevel.load(std::memory_order_relaxed);
}

namespace detail
{

void
emitLine(const std::string &line)
{
    // One mutex around the whole line: concurrent sweep workers each
    // get an intact line instead of interleaved fragments.  The lock
    // is per message, not per <<, so the hot path never sees it.
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    std::cerr << line << '\n';
}

} // namespace detail

} // namespace cachelab

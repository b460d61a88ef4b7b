/**
 * @file
 * Chrome trace-event export (the catapult / about://tracing JSON
 * format, also readable by Perfetto's legacy importer).
 *
 * The recorder collects timestamped events — sweep-task begin/end per
 * worker slot, sampling-interval replay, cache purges — and writes
 * them as a `{"traceEvents": [...]}` document.  Load the file in
 * chrome://tracing (or ui.perfetto.dev) to see parallel-sweep load
 * imbalance and sampler warm-up cost as horizontal bars, one lane per
 * ThreadPool worker slot.
 *
 * Lanes: tid 0 is "main" (any thread outside a pool batch); tid k+1
 * is pool worker slot k, so a sweep on an 8-wide pool renders as
 * lanes slot-0 .. slot-7.
 *
 * Cost model: recording is off by default; the enabled() check is one
 * relaxed atomic load, and instrumentation sites are per-task /
 * per-interval / per-purge, never per memory reference.  When enabled,
 * each event appends to a mutex-guarded vector (events are coarse, so
 * contention is negligible next to the work they bracket).
 */

#ifndef CACHELAB_OBS_TRACE_EVENT_HH
#define CACHELAB_OBS_TRACE_EVENT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cachelab::obs
{

/** Extra "args" key/value pairs shown in the trace viewer's detail pane. */
using TraceArg = std::pair<std::string, std::string>;

class TraceRecorder
{
  public:
    /** Process-wide recorder used by the instrumentation sites. */
    static TraceRecorder &global();

    /** Start/stop recording; enabling resets the time origin. */
    void setEnabled(bool enabled);

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** @return monotonic nanoseconds since recording was enabled. */
    std::uint64_t nowNs() const;

    /** Record one duration ("X") event on the current thread's lane. */
    void complete(std::string_view name, std::string_view category,
                  std::uint64_t begin_ns, std::uint64_t duration_ns,
                  std::vector<TraceArg> args = {});

    /** Record one instant ("i") event on the current thread's lane. */
    void instant(std::string_view name, std::string_view category,
                 std::vector<TraceArg> args = {});

    /** Drop all recorded events (keeps the enabled flag). */
    void clear();

    std::size_t eventCount() const;

    /**
     * Write the catapult JSON document: thread-name metadata for every
     * lane that recorded, then every event, ts/dur in microseconds.
     */
    void write(std::ostream &os) const;

  private:
    struct Event
    {
        std::string name;
        std::string category;
        char phase;            ///< 'X' complete | 'i' instant
        std::uint64_t beginNs;
        std::uint64_t durationNs;
        int tid;
        std::vector<TraceArg> args;
    };

    /** @return this thread's lane (see file comment). */
    static int lane();

    void record(Event event);

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mutex_;
    std::vector<Event> events_;
};

/**
 * RAII complete-event: records [construction, destruction) on the
 * global recorder if it is enabled at construction time.
 */
class TraceSpan
{
  public:
    TraceSpan(std::string_view name, std::string_view category,
              std::vector<TraceArg> args = {});
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    std::string_view name_;
    std::string_view category_;
    std::vector<TraceArg> args_;
    std::uint64_t beginNs_ = 0;
    bool active_;
};

} // namespace cachelab::obs

#endif // CACHELAB_OBS_TRACE_EVENT_HH

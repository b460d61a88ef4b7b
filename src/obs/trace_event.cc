/**
 * @file
 * Implementation of the Chrome trace-event recorder.
 */

#include "obs/trace_event.hh"

#include <algorithm>
#include <set>

#include "util/json_writer.hh"
#include "util/thread_pool.hh"

namespace cachelab::obs
{

TraceRecorder &
TraceRecorder::global()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::setEnabled(bool enabled)
{
    if (enabled && !enabled_.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(mutex_);
        origin_ = std::chrono::steady_clock::now();
    }
    enabled_.store(enabled, std::memory_order_relaxed);
}

std::uint64_t
TraceRecorder::nowNs() const
{
    const auto elapsed = std::chrono::steady_clock::now() - origin_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
}

int
TraceRecorder::lane()
{
    return ThreadPool::currentSlot() + 1; // -1 (not a pool task) -> 0
}

void
TraceRecorder::record(Event event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
TraceRecorder::complete(std::string_view name, std::string_view category,
                        std::uint64_t begin_ns, std::uint64_t duration_ns,
                        std::vector<TraceArg> args)
{
    if (!enabled())
        return;
    record({std::string(name), std::string(category), 'X', begin_ns,
            duration_ns, lane(), std::move(args)});
}

void
TraceRecorder::instant(std::string_view name, std::string_view category,
                       std::vector<TraceArg> args)
{
    if (!enabled())
        return;
    record({std::string(name), std::string(category), 'i', nowNs(), 0,
            lane(), std::move(args)});
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

std::size_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void
TraceRecorder::write(std::ostream &os) const
{
    std::vector<Event> events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events = events_;
    }
    // Stable presentation: catapult doesn't require time order, but a
    // sorted file diffs and debugs better.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.beginNs < b.beginNs;
                     });

    std::set<int> lanes;
    for (const Event &e : events)
        lanes.insert(e.tid);

    JsonWriter w(os, JsonWriter::Compact);
    w.beginObject();
    w.member("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();
    for (const int tid : lanes) {
        w.beginObject();
        w.member("name", "thread_name");
        w.member("ph", "M");
        w.member("pid", 1);
        w.member("tid", tid);
        w.key("args").beginObject();
        w.member("name", tid == 0 ? std::string("main")
                                  : "slot-" + std::to_string(tid - 1));
        w.endObject();
        w.endObject();
    }
    for (const Event &e : events) {
        w.beginObject();
        w.member("name", e.name);
        w.member("cat", e.category);
        w.member("ph", std::string(1, e.phase));
        w.member("ts", static_cast<double>(e.beginNs) / 1e3);
        if (e.phase == 'X')
            w.member("dur", static_cast<double>(e.durationNs) / 1e3);
        if (e.phase == 'i')
            w.member("s", "t"); // instant scope: thread
        w.member("pid", 1);
        w.member("tid", e.tid);
        if (!e.args.empty()) {
            w.key("args").beginObject();
            for (const TraceArg &arg : e.args)
                w.member(arg.first, arg.second);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

TraceSpan::TraceSpan(std::string_view name, std::string_view category,
                     std::vector<TraceArg> args)
    : name_(name), category_(category), args_(std::move(args)),
      active_(TraceRecorder::global().enabled())
{
    if (active_)
        beginNs_ = TraceRecorder::global().nowNs();
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    TraceRecorder &recorder = TraceRecorder::global();
    const std::uint64_t end = recorder.nowNs();
    recorder.complete(name_, category_, beginNs_,
                      end > beginNs_ ? end - beginNs_ : 0,
                      std::move(args_));
}

} // namespace cachelab::obs

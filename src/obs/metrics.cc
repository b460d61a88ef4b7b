/**
 * @file
 * Implementation of the metrics registry.
 */

#include "obs/metrics.hh"

#include <algorithm>

#include "util/json_writer.hh"
#include "util/thread_pool.hh"

namespace cachelab::obs
{

std::uint64_t
MetricsSnapshot::counterValue(std::string_view name) const
{
    for (const auto &[key, value] : counters)
        if (key == name)
            return value;
    return 0;
}

void
MetricsSnapshot::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, value] : counters)
        w.member(name, value);
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &[name, value] : gauges)
        w.member(name, value);
    w.endObject();
    w.key("histograms").beginObject();
    for (const HistogramSnapshot &h : histograms) {
        w.key(h.name).beginObject();
        w.member("total", h.histogram.total());
        w.member("mean", h.histogram.mean());
        w.key("log2_buckets").beginArray();
        for (std::size_t k = 0; k < h.histogram.bucketCount(); ++k)
            w.value(h.histogram.bucket(k));
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

std::string
Registry::key(std::string_view name, const std::vector<Label> &labels)
{
    std::string out(name);
    if (labels.empty())
        return out;
    std::vector<Label> sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    out += '{';
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i)
            out += ',';
        out += sorted[i].first;
        out += '=';
        out += sorted[i].second;
    }
    out += '}';
    return out;
}

Counter &
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[std::string(name)];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[std::string(name)];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(std::string_view name, const std::vector<Label> &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[key(name, labels)];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto &[name, counter] : counters_)
        snap.counters.emplace_back(name, counter->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto &[name, gauge] : gauges_)
        snap.gauges.emplace_back(name, gauge->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto &[name, histogram] : histograms_)
        snap.histograms.push_back({name, histogram->snapshot()});
    return snap;
}

void
publishThreadPool(Registry &registry, const ThreadPool &pool)
{
    const ThreadPool::Utilization u = pool.utilization();
    registry.gauge("pool.jobs").set(pool.jobCount());
    registry.gauge("pool.batches").set(static_cast<double>(u.batches));
    registry.gauge("pool.queue_high_water")
        .set(static_cast<double>(u.queueHighWater));
    registry.gauge("pool.tasks_total")
        .set(static_cast<double>(u.totalTasks()));
    registry.gauge("pool.busy_ns_total")
        .set(static_cast<double>(u.totalBusyNs()));
    for (std::size_t i = 0; i < u.slots.size(); ++i) {
        const std::vector<Label> labels{{"slot", std::to_string(i)}};
        registry.gauge(Registry::key("pool.tasks", labels))
            .set(static_cast<double>(u.slots[i].tasks));
        registry.gauge(Registry::key("pool.busy_ns", labels))
            .set(static_cast<double>(u.slots[i].busyNs));
    }
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

void
Registry::resetForTesting()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_)
        counter->reset();
    for (const auto &[name, gauge] : gauges_)
        gauge->set(0.0);
    for (const auto &[name, histogram] : histograms_)
        histogram->reset();
}

} // namespace cachelab::obs

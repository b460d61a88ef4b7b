#include "kit.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench
{

using namespace cachelab;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

int
SpanRecorder::open(const std::string &name, unsigned jobs)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.jobs = jobs;
    span.run = run_;
    std::lock_guard lock(mutex_);
    span.parent = open_.empty() ? -1 : open_.back();
    span.cpu = cpuNow();
    span.start = wallNow();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
SpanRecorder::close(int id, std::uint64_t refs)
{
    if (id < 0)
        return;
    const double end = wallNow();
    const double cpu = cpuNow();
    std::lock_guard lock(mutex_);
    Span &span = spans_[static_cast<std::size_t>(id)];
    span.end = end;
    span.cpu = cpu - span.cpu;
    span.refs = refs;
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span " + span.name + " closed out of order");
    open_.pop_back();
}

void
SpanRecorder::leaf(const std::string &name, double start, double end,
                   std::uint64_t refs)
{
    Span span;
    span.name = name;
    span.start = start;
    span.end = end;
    span.refs = refs;
    span.run = run_;
    std::lock_guard lock(mutex_);
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(span));
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::lock_guard lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, cur_lo = 0, cur_hi = -1;
        for (const auto &[lo, hi] : iv) {
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[i] = (spans_[i].end - spans_[i].start) - covered;
    }
    return self;
}

void
SpanRecorder::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    const std::vector<double> self = selfTimes();
    std::lock_guard lock(mutex_);
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"run\":" << s.run << ",\"parent\":" << s.parent
           << ",\"start_s\":" << (s.start - t0)
           << ",\"end_s\":" << (s.end - t0) << ",\"self_s\":" << self[i]
           << ",\"cpu_s\":" << s.cpu << ",\"refs\":" << s.refs
           << ",\"jobs\":" << s.jobs << "}\n";
    }
}

std::size_t
TimingSource::nextBatch(std::span<MemoryRef> out)
{
    if (!rec_.enabled()) {
        const std::size_t got = inner_.nextBatch(out);
        refs_ += got;
        return got;
    }
    const double start = wallNow();
    const std::size_t got = inner_.nextBatch(out);
    rec_.leaf(layer_, start, wallNow(), got);
    refs_ += got;
    return got;
}

std::uint64_t
TimingSource::skip(std::uint64_t n)
{
    if (!rec_.enabled()) {
        const std::uint64_t got = inner_.skip(n);
        refs_ += got;
        return got;
    }
    const double start = wallNow();
    const std::uint64_t got = inner_.skip(n);
    rec_.leaf(layer_, start, wallNow(), got);
    refs_ += got;
    return got;
}

bool
NullSystem::access(const MemoryRef &ref)
{
    ++stats_.accesses[static_cast<std::size_t>(ref.kind)];
    return true;
}

std::uint64_t
digestWord(std::uint64_t hash, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xff;
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::uint64_t
digestStats(std::uint64_t hash, const CacheStats &s)
{
    for (const std::uint64_t v : s.accesses)
        hash = digestWord(hash, v);
    for (const std::uint64_t v : s.misses)
        hash = digestWord(hash, v);
    for (const std::uint64_t v :
         {s.demandFetches, s.prefetchFetches, s.bytesFromMemory,
          s.bytesToMemory, s.replacementPushes, s.dirtyReplacementPushes,
          s.purgePushes, s.dirtyPurgePushes, s.writeThroughs, s.purges})
        hash = digestWord(hash, v);
    return hash;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double hi = values[mid];
    if (values.size() % 2 == 1)
        return hi;
    const double lo =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lo + hi);
}

} // namespace perfbench

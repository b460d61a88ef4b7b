#include "workloads.hh"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "analytic/published.hh"
#include "cache/policy.hh"
#include "ckpt/live_points.hh"
#include "sample/sample_config.hh"
#include "sim/experiments.hh"
#include "sim/sampled.hh"
#include "sim/sweep.hh"
#include "trace/io.hh"
#include "util/random.hh"
#include "workload/kv_model.hh"
#include "workload/profiles.hh"

#include "reference.hh"

namespace perfbench
{

using namespace cachelab;

namespace
{

/** Size axis of the corpus sweep (per-size engine): every other power
 *  of two from 1 to 64 KiB, an even split over the two sweep jobs. */
const std::vector<std::uint64_t> kCorpusSizes = {1024, 4096, 16384, 65536};

/** [Clar83]: split I/D, 2-way, 8-byte lines, 4 and 8 KiB per side. */
const std::vector<std::uint64_t> kClarkSizes = {4096, 8192};

/** Streamed length per stream_curve profile, and its curve axis.  The
 *  axis tops out far above any profile's footprint, so the largest
 *  point's fetch count is the stream's distinct-line count. */
constexpr std::uint64_t kStreamRefs = 2'000'000;
const std::vector<std::uint64_t> &
curveSizes()
{
    static const std::vector<std::uint64_t> sizes =
        powersOfTwo(32, 64ull << 20);
    return sizes;
}

/** KV trace length. */
constexpr std::uint64_t kKvRefs = 1'000'000;

CacheConfig
setAssoc(std::uint32_t assoc, const std::string &policy,
         const std::string &admission = "")
{
    CacheConfig c;
    c.associativity = assoc;
    c.replacement = policySpec(policy);
    if (!admission.empty())
        c.admission = policySpec(admission);
    return c;
}

CacheConfig
clarkConfig()
{
    CacheConfig c;
    c.lineBytes = 8;
    c.associativity = 2;
    return c;
}

/** Fully associative LRU, copy-back, demand fetch, 16 B lines: the
 *  Table 1 shape the single-pass engine serves. */
CacheConfig
curveConfig()
{
    return CacheConfig{};
}

const ProbeConfig &
configNamed(const std::string &name)
{
    for (const ProbeConfig &p : probeConfigs())
        if (p.name == name)
            return p;
    throw std::logic_error("no probe config " + name);
}

RunConfig
fanout()
{
    RunConfig run;
    run.jobs = 0; // the shared pool, sized to kJobs by the driver
    return run;
}

RefGeometry
geometryOf(const CacheConfig &c, std::uint64_t size)
{
    RefGeometry g;
    g.sizeBytes = size;
    g.lineBytes = c.lineBytes;
    g.assoc = c.associativity;
    g.fifo = c.replacement.name == "fifo";
    return g;
}

std::string
pointId(const std::string &a, const std::string &b, std::uint64_t size)
{
    return a + "/" + b + "/" + std::to_string(size);
}

/** Compare a reference re-simulation with the recorded point. */
void
checkPoint(const PassResults &last, const std::string &id,
           const CacheStats &expect, std::vector<std::string> &failures)
{
    const auto it = last.stats().find(id);
    if (it == last.stats().end() ||
        digestStats(kDigestBasis, it->second) !=
            digestStats(kDigestBasis, expect))
        failures.push_back(id);
}

// --- corpus_sweep ----------------------------------------------------------

class CorpusSweep final : public Workload
{
  public:
    explicit CorpusSweep(std::uint64_t seed) : seed_(seed)
    {
        for (const TraceProfile &p : allTraceProfiles()) {
            TraceProfile copy = p;
            copy.params.seed = mixSeed(seed, p.params.seed);
            profiles_.push_back(std::move(copy));
        }
    }

    void
    setup(SpanRecorder &rec) override
    {
        traces_.clear();
        traces_.shrink_to_fit();
        for (const TraceProfile &p : profiles_) {
            ScopedSpan span(rec, "workload.generate");
            traces_.push_back(generateTrace(p));
            span.setRefs(traces_.back().size());
        }
    }

    void
    pass(PassResults &out) override
    {
        SpanRecorder &rec = out.recorder();
        for (std::size_t i = 0; i < profiles_.size(); ++i) {
            Trace &trace = traces_[i];
            const std::string &name = profiles_[i].name;
            for (const char *cfg : {"dm", "a4_lru", "a4_fifo"}) {
                TimingSource src(trace, "trace.memory", rec);
                src.reset();
                std::vector<SweepPoint> pts;
                {
                    ScopedSpan span(rec, "sim.sweep", out.jobs());
                    pts = sweepUnified(src, kCorpusSizes, configNamed(cfg).base,
                                       fanout(), SweepEngine::PerSize);
                    span.setRefs(src.refs());
                }
                out.addRefs(src.refs());
                for (const SweepPoint &pt : pts)
                    out.exact(pointId(name, cfg, pt.cacheBytes), pt.stats,
                              trace.size());
            }
            if (profiles_[i].group != TraceGroup::VAX)
                continue;
            TimingSource src(trace, "trace.memory", rec);
            src.reset();
            RunConfig run = fanout();
            run.purgeInterval = kPurgeInterval;
            std::vector<SplitSweepPoint> pts;
            {
                ScopedSpan span(rec, "sim.sweep", out.jobs());
                pts = sweepSplit(src, kClarkSizes, clarkConfig(), run,
                                 SweepEngine::PerSize);
                span.setRefs(src.refs());
            }
            out.addRefs(src.refs());
            const std::uint64_t ifetch = trace.countKind(AccessKind::IFetch);
            for (const SplitSweepPoint &pt : pts) {
                const std::string id = pointId(name, "clark", pt.cacheBytes);
                out.exact(id + "/icache", pt.icache, ifetch);
                out.exact(id + "/dcache", pt.dcache, trace.size() - ifetch);
            }
        }
    }

    Trace
    probeTrace(std::uint64_t refs) override
    {
        // The first profile of each group, equal shares.
        std::vector<const Trace *> picks;
        for (TraceGroup g : allTraceGroups())
            for (std::size_t i = 0; i < profiles_.size(); ++i)
                if (profiles_[i].group == g) {
                    picks.push_back(&traces_[i]);
                    break;
                }
        std::vector<MemoryRef> out;
        const std::size_t share = refs / picks.size();
        for (const Trace *t : picks) {
            const auto r = t->refs().first(std::min(share, t->refs().size()));
            out.insert(out.end(), r.begin(), r.end());
        }
        return Trace("corpus-probe", std::move(out));
    }

    std::size_t
    verify(const PassResults &last,
           std::vector<std::string> &failures) override
    {
        Rng rng(mixSeed(seed_, 0x7665726966ULL));
        std::size_t checked = 0;
        for (const char *cfg : {"dm", "a4_lru", "a4_fifo"}) {
            for (int k = 0; k < 4; ++k) {
                const std::size_t i = rng.uniformInt(profiles_.size());
                const std::uint64_t size =
                    kCorpusSizes[rng.uniformInt(kCorpusSizes.size())];
                traces_[i].reset();
                const CacheStats want = referenceRun(
                    traces_[i], geometryOf(configNamed(cfg).base, size), false, 0);
                checkPoint(last, pointId(profiles_[i].name, cfg, size), want,
                           failures);
                ++checked;
            }
        }
        const std::vector<const TraceProfile *> vax =
            profilesInGroup(TraceGroup::VAX);
        for (int k = 0; k < 2; ++k) {
            const std::string &name = vax[rng.uniformInt(vax.size())]->name;
            for (std::size_t i = 0; i < profiles_.size(); ++i) {
                if (profiles_[i].name != name)
                    continue;
                for (const std::uint64_t size : kClarkSizes) {
                    traces_[i].reset();
                    const CacheStats want =
                        referenceRun(traces_[i], geometryOf(clarkConfig(), size),
                                     true, kPurgeInterval);
                    const std::string id = pointId(name, "clark", size);
                    const auto ic = last.stats().find(id + "/icache");
                    const auto dc = last.stats().find(id + "/dcache");
                    if (ic == last.stats().end() ||
                        dc == last.stats().end() ||
                        digestStats(kDigestBasis, ic->second + dc->second) !=
                            digestStats(kDigestBasis, want))
                        failures.push_back(id);
                    ++checked;
                }
            }
        }
        return checked;
    }

    void
    report(const PassResults &last) override
    {
        // Mean over the VAX profiles of each miss ratio, against
        // [Clar83]'s six published figures.
        double err = 0;
        for (const auto &[size, d_paper, i_paper, r_paper] :
             {std::tuple{8192ull, kClark83DataMissRatio,
                         kClark83InstrMissRatio,
                         kClark83OverallReadMissRatio},
              std::tuple{4096ull, kClark83HalvedDataMissRatio,
                         kClark83HalvedInstrMissRatio,
                         kClark83HalvedOverallMissRatio}}) {
            double d = 0, i = 0, r = 0;
            int n = 0;
            for (const TraceProfile &p : profiles_) {
                if (p.group != TraceGroup::VAX)
                    continue;
                const std::string id = pointId(p.name, "clark", size);
                const CacheStats &ic = last.stats().at(id + "/icache");
                const CacheStats &dc = last.stats().at(id + "/dcache");
                const auto f = static_cast<std::size_t>(AccessKind::IFetch);
                const auto rd = static_cast<std::size_t>(AccessKind::Read);
                i += ic.missRatio(AccessKind::IFetch);
                d += dc.dataMissRatio();
                r += static_cast<double>(ic.misses[f] + dc.misses[rd]) /
                     static_cast<double>(ic.accesses[f] + dc.accesses[rd]);
                ++n;
            }
            err += std::abs(d / n - d_paper) + std::abs(i / n - i_paper) +
                   std::abs(r / n - r_paper);
        }
        std::printf("clark83_err %.6f (mean |simulated - published| over "
                    "the six [Clar83] miss ratios)\n",
                    err / 6);
    }

  private:
    std::uint64_t seed_;
    std::vector<TraceProfile> profiles_;
    std::vector<Trace> traces_;
};

// --- stream_curve ----------------------------------------------------------

class StreamCurve final : public Workload
{
  public:
    explicit StreamCurve(std::uint64_t seed)
    {
        for (const char *name : {"MVS1", "LISP1", "VAXIMA1"}) {
            TraceProfile copy = *findTraceProfile(name);
            copy.params.seed = mixSeed(seed, copy.params.seed);
            profiles_.push_back(std::move(copy));
        }
    }

    void
    setup(SpanRecorder &rec) override
    {
        // Open each stream and pull its first tenth through the
        // generator, so set-up times generator start-up, not just three
        // allocations; pass() rewinds every stream.
        sources_.clear();
        for (const TraceProfile &p : profiles_) {
            ScopedSpan span(rec, "workload.open_stream");
            sources_.push_back(streamTraceExactly(p, kStreamRefs));
            TimingSource src(*sources_.back(), "workload.generate", rec);
            span.setRefs(src.skip(kStreamRefs / 10));
        }
    }

    void
    pass(PassResults &out) override
    {
        SpanRecorder &rec = out.recorder();
        RunConfig serial;
        serial.jobs = 1;
        for (std::size_t i = 0; i < profiles_.size(); ++i) {
            sources_[i]->reset();
            TimingSource src(*sources_[i], "workload.generate", rec);
            std::vector<SweepPoint> pts;
            {
                ScopedSpan span(rec, "sim.sweep", 1);
                pts = sweepUnified(src, curveSizes(), curveConfig(), serial,
                                   SweepEngine::SinglePass);
                span.setRefs(src.refs());
            }
            out.addRefs(src.refs());
            for (const SweepPoint &pt : pts)
                out.exact(pointId(profiles_[i].name, "fa_lru", pt.cacheBytes),
                          pt.stats, kStreamRefs);
        }
    }

    Trace
    probeTrace(std::uint64_t refs) override
    {
        std::vector<MemoryRef> out;
        for (const TraceProfile &p : profiles_) {
            const Trace t =
                streamTraceExactly(p, refs / profiles_.size())->materialize();
            out.insert(out.end(), t.begin(), t.end());
        }
        return Trace("stream-probe", std::move(out));
    }

    std::size_t
    verify(const PassResults &last,
           std::vector<std::string> &failures) override
    {
        // The reference scans every way, so only the small end of the
        // curve (up to 32 lines) is re-simulated.
        std::size_t checked = 0;
        for (const TraceProfile &p : profiles_) {
            Trace trace = streamTraceExactly(p, kStreamRefs)->materialize();
            for (std::uint64_t size = 32; size <= 512; size *= 2) {
                trace.reset();
                const CacheStats want = referenceRun(
                    trace, geometryOf(curveConfig(), size), false, 0);
                checkPoint(last, pointId(p.name, "fa_lru", size), want,
                           failures);
                ++checked;
            }
        }
        return checked;
    }

  private:
    std::vector<TraceProfile> profiles_;
    std::vector<std::unique_ptr<TraceSource>> sources_;
};

// --- kv_campaign -----------------------------------------------------------

class KvCampaign final : public Workload
{
  public:
    KvCampaign(std::uint64_t seed, const std::string &work_dir)
        : din_(work_dir + "/kv.din"), clt2_(work_dir + "/kv.ctr"),
          store_(work_dir + "/kv-store")
    {
        params_.refCount = kKvRefs;
        params_.keyCount = 32768;
        params_.objectBytes = 64;
        params_.refBytes = 8;
        params_.zipfTheta = 0.9;
        params_.readRatio = 0.8;
        params_.scanFraction = 0.04;
        params_.meanScanObjects = 8;
        params_.driftRefs = 4096;
        params_.seed = mixSeed(seed, 0x6b76ULL);
    }

    void
    setup(SpanRecorder &rec) override
    {
        Trace trace;
        {
            ScopedSpan span(rec, "workload.generate");
            trace = generateKvWorkload(params_, "kv");
            span.setRefs(trace.size());
        }
        for (const auto &[path, format] :
             {std::pair{din_, TraceFormat::Din},
              std::pair{clt2_, TraceFormat::Compressed}}) {
            trace.reset();
            TimingSource src(trace, "trace.memory", rec);
            ScopedSpan span(rec, "trace.encode");
            saveTrace(src, path, format);
            span.setRefs(src.refs());
        }
    }

    void
    pass(PassResults &out) override
    {
        SpanRecorder &rec = out.recorder();
        sweep(out, din_, TraceFormat::Din, "trace.decode_din", "din",
              "a8_lru");
        for (const char *cfg : {"arc", "2q", "tinylfu"})
            sweep(out, clt2_, TraceFormat::Compressed, "trace.decode_clt2",
                  "clt2", cfg);

        std::filesystem::remove_all(store_);
        ckpt::LivePointWriteSummary summary;
        {
            auto file = openTraceSource(clt2_, TraceFormat::Compressed);
            TimingSource src(*file, "trace.decode_clt2", rec);
            ScopedSpan span(rec, "ckpt.write");
            summary = ckpt::writeLivePoints(src, store_, storeSpec());
            span.setRefs(src.refs());
            out.addRefs(src.refs());
        }
        std::uint64_t h = kDigestBasis;
        for (const std::uint64_t v : {summary.keyHash, summary.contentHash,
                                      summary.traceRefs, summary.intervals,
                                      summary.groups})
            h = digestWord(h, v);
        out.digestOnly("ckpt/store", h, summary.traceRefs == kKvRefs);

        std::optional<ckpt::LivePointStore> store;
        {
            ScopedSpan span(rec, "ckpt.load");
            store.emplace(ckpt::LivePointStore::load(store_));
        }
        auto file = openTraceSource(clt2_, TraceFormat::Compressed);
        TimingSource src(*file, "trace.decode_clt2", rec);
        std::vector<SampledSweepPoint> pts;
        {
            ScopedSpan span(rec, "sim.sweep", out.jobs());
            pts = sweepUnifiedSampled(src, kvSizes(), kvBaseConfig(),
                                      kvSampleConfig(), fanout(), *store);
            span.setRefs(src.refs());
        }
        out.addRefs(src.refs());
        for (const SampledSweepPoint &pt : pts) {
            const SampledRunResult &r = pt.result;
            out.digestOnly(pointId("sampled", "a8_lru", pt.cacheBytes),
                           digestStats(digestStats(kDigestBasis, r.measured),
                                       r.estimated),
                           r.traceRefs == kKvRefs &&
                               r.measured.totalAccesses() == r.measuredRefs);
        }
    }

    Trace
    probeTrace(std::uint64_t refs) override
    {
        KvWorkloadParams p = params_;
        p.refCount = refs;
        return generateKvWorkload(p, "kv-probe");
    }

    std::size_t
    verify(const PassResults &last,
           std::vector<std::string> &failures) override
    {
        Trace trace = generateKvWorkload(params_, "kv");
        for (const std::uint64_t size : kvSizes()) {
            trace.reset();
            const CacheStats want =
                referenceRun(trace, geometryOf(kvBaseConfig(), size), false, 0);
            checkPoint(last, pointId("din", "a8_lru", size), want, failures);
        }
        return kvSizes().size();
    }

  private:
    ckpt::LivePointWriteSpec
    storeSpec() const
    {
        ckpt::LivePointWriteSpec spec;
        spec.traceName = "kv";
        spec.sample = kvSampleConfig();
        spec.base = kvBaseConfig();
        spec.sizes = kvSizes();
        spec.jobs = 0;
        spec.createdBy = "perfbench";
        return spec;
    }

    void
    sweep(PassResults &out, const std::string &path, TraceFormat format,
          const char *layer, const char *tag, const char *cfg)
    {
        auto file = openTraceSource(path, format);
        TimingSource src(*file, layer, out.recorder());
        std::vector<SweepPoint> pts;
        {
            ScopedSpan span(out.recorder(), "sim.sweep", out.jobs());
            pts = sweepUnified(src, kvSizes(), configNamed(cfg).base, fanout(),
                               SweepEngine::PerSize);
            span.setRefs(src.refs());
        }
        out.addRefs(src.refs());
        for (const SweepPoint &pt : pts)
            out.exact(pointId(tag, cfg, pt.cacheBytes), pt.stats, kKvRefs);
    }

    KvWorkloadParams params_;
    std::string din_;
    std::string clt2_;
    std::string store_;
};

} // namespace

void
PassResults::maybePerturb(CacheStats &stats)
{
    if (perturb_ && digests_.empty())
        ++stats.demandFetches;
}

void
PassResults::exact(const std::string &id, CacheStats stats,
                   std::uint64_t expect_refs)
{
    maybePerturb(stats);
    if (stats.totalAccesses() != expect_refs ||
        stats.totalMisses() > stats.totalAccesses())
        insane_.push_back(id);
    digests_.emplace_back(id, digestStats(kDigestBasis, stats));
    stats_.emplace(id, stats);
}

void
PassResults::digestOnly(const std::string &id, std::uint64_t digest,
                        bool sane)
{
    if (perturb_ && digests_.empty())
        digest = digestWord(digest, 1);
    if (!sane)
        insane_.push_back(id);
    digests_.emplace_back(id, digest);
}

CacheStats
PassResults::total() const
{
    CacheStats sum;
    for (const auto &[id, s] : stats_)
        sum += s;
    return sum;
}

const std::vector<ProbeConfig> &
probeConfigs()
{
    static const std::vector<ProbeConfig> configs = [] {
        CacheConfig clark = clarkConfig();
        return std::vector<ProbeConfig>{
            {"dm", setAssoc(1, "lru"), kCorpusSizes, false, 0},
            {"a4_lru", setAssoc(4, "lru"), kCorpusSizes, false, 0},
            {"a4_fifo", setAssoc(4, "fifo"), kCorpusSizes, false, 0},
            {"split_purge", clark, kClarkSizes, true, kPurgeInterval},
            {"a8_lru", setAssoc(8, "lru"), kvSizes(), false, 0},
            {"arc", setAssoc(8, "arc"), kvSizes(), false, 0},
            {"2q", setAssoc(8, "2q"), kvSizes(), false, 0},
            {"tinylfu", setAssoc(8, "lru", "tinylfu"), kvSizes(), false, 0},
        };
    }();
    return configs;
}

const std::vector<std::uint64_t> &
kvSizes()
{
    static const std::vector<std::uint64_t> sizes = powersOfTwo(4096, 262144);
    return sizes;
}

CacheConfig
kvBaseConfig()
{
    return setAssoc(8, "lru");
}

SampleConfig
kvSampleConfig()
{
    SampleConfig s;
    s.unitRefs = 10000;
    s.fraction = 0.05;
    s.warming = WarmingPolicy::Checkpoint;
    return s;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &work_dir)
{
    if (name == "corpus_sweep")
        return std::make_unique<CorpusSweep>(seed);
    if (name == "stream_curve")
        return std::make_unique<StreamCurve>(seed);
    if (name == "kv_campaign")
        return std::make_unique<KvCampaign>(seed, work_dir);
    return nullptr;
}

} // namespace perfbench

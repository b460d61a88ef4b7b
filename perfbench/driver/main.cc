/**
 * @file
 * cachelab benchmark driver: one workload per process.
 *
 *   cachelab_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                      --work-dir DIR [--digests FILE]
 *                      [--write-digests FILE] [--spans FILE] [--perturb]
 *
 * --trace 0 measures the end-to-end metrics with tracing off: rounds
 * of {kSetupsPerPass set-ups, one whole pass} for S seconds; the
 * passes' medians and the fastest set-up are reported.  Interleaving
 * spreads the set-ups over the whole run, so some fall outside the
 * host's slow spells, which only ever add time.  --trace 1 is the
 * traced run: one set-up, then rounds of {untraced pass, traced pass,
 * layer probes} for S seconds, per-layer metrics reported.
 *
 * Every pass's points are digested and compared with the pinned
 * digests (when the seed has any) or with the first pass, and a seeded
 * selection is re-simulated by the reference model.  --perturb adds
 * one count to the first point of the first pass, which the gate must
 * report as exactly one failed point.
 *
 * The last line of stdout is the JSON result.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "cache/organization.hh"
#include "ckpt/live_points.hh"
#include "sim/run.hh"
#include "sim/sampled.hh"
#include "sim/sweep.hh"
#include "trace/io.hh"

#include "kit.hh"
#include "workloads.hh"

using namespace cachelab;
using namespace perfbench;

namespace
{

/** Set-ups before each pass of an end-to-end run. */
constexpr int kSetupsPerPass = 2;

/** References in the per-layer probe slice. */
constexpr std::uint64_t kProbeRefs = 600'000;

/** Span run ids: 0 = set-up, 1.. = traced passes, kProbeRun.. = probes. */
constexpr int kProbeRun = 1000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir;
    std::string digests;
    std::string writeDigests;
    std::string spans;
    bool perturb = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "cachelab_perfbench: " << why
              << "\nusage: cachelab_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--digests FILE] "
                 "[--write-digests FILE] [--spans FILE] [--perturb]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--perturb") {
            o.perturb = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--work-dir")
                o.workDir = v;
            else if (a == "--digests")
                o.digests = v;
            else if (a == "--write-digests")
                o.writeDigests = v;
            else if (a == "--spans")
                o.spans = v;
            else
                usage("unknown option " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workload.empty() || o.workDir.empty() || !(o.seconds > 0))
        usage("--workload, --work-dir and a positive --seconds are required");
    return o;
}

/** Pinned digests of @p workload at @p seed ("workload seed id hex"). */
std::map<std::string, std::uint64_t>
loadPinned(const std::string &path, const std::string &workload,
           std::uint64_t seed)
{
    std::map<std::string, std::uint64_t> pinned;
    if (path.empty())
        return pinned;
    std::ifstream is(path);
    if (!is)
        usage("cannot read digests file " + path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, id, hex;
        std::uint64_t s = 0;
        if (!(ls >> w >> s >> id >> hex))
            usage("malformed digests line: " + line);
        if (w == workload && s == seed)
            pinned[id] = std::stoull(hex, nullptr, 16);
    }
    return pinned;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The result gate: every point of every pass against its expectation. */
class Gate
{
  public:
    explicit Gate(std::map<std::string, std::uint64_t> pinned)
        : pinned_(std::move(pinned))
    {}

    void
    check(const PassResults &res, int pass)
    {
        std::set<std::string> seen;
        for (const auto &[id, digest] : res.digests()) {
            ++attempted_;
            seen.insert(id);
            std::uint64_t want = 0;
            if (!pinned_.empty()) {
                const auto it = pinned_.find(id);
                if (it == pinned_.end()) {
                    fail(pass, id, "no pinned digest");
                    continue;
                }
                want = it->second;
            } else {
                want = first_.emplace(id, digest).first->second;
            }
            if (digest != want)
                fail(pass, id, "digest " + hex(digest) + " != " + hex(want));
        }
        for (const std::string &id : res.insane())
            fail(pass, id, "inconsistent counters");
        for (const auto &[id, d] : pinned_)
            if (!seen.count(id)) {
                ++attempted_;
                fail(pass, id, "pinned point missing");
            }
    }

    void
    fail(int pass, const std::string &id, const std::string &why)
    {
        if (failed_.insert({pass, id}).second)
            std::printf("FAIL pass %d point %s: %s\n", pass, id.c_str(),
                        why.c_str());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_.size(); }
    bool pinned() const { return !pinned_.empty(); }

  private:
    std::map<std::string, std::uint64_t> pinned_;
    std::map<std::string, std::uint64_t> first_;
    std::uint64_t attempted_ = 0;
    std::set<std::pair<int, std::string>> failed_;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note; ///< human-readable context (sample size, refs)
};

struct PassTiming
{
    double wall;
    double cpu;
    std::uint64_t refs;
};

PassTiming
timedPass(Workload &wl, PassResults &res)
{
    const Stopwatch sw;
    wl.pass(res);
    return {sw.wall(), sw.cpu(), res.refs()};
}

/** Facts the probe round learns besides timings. */
struct ProbeFacts
{
    double bytesPerRef = 0;
    std::uint64_t distinctLines = 0;
    std::uint64_t storeBytes = 0;
    double measuredFraction = 0;
};

/**
 * One round of per-layer probes over @p probe: each layer's public
 * entry point called serially on the same references, inside a span.
 */
ProbeFacts
probeRound(Trace &probe, SpanRecorder &rec, const std::string &dir)
{
    ProbeFacts facts;
    RunConfig serial;
    serial.jobs = 1;

    // The drive loop alone costs a few ns/ref; five runs give it about
    // as many timed references as one cache configuration's size axis.
    for (int r = 0; r < 5; ++r) {
        NullSystem null;
        probe.reset();
        TimingSource src(probe, "trace.memory", rec);
        ScopedSpan span(rec, "sim.drive");
        runTrace(src, null, serial);
        span.setRefs(src.refs());
    }

    for (const ProbeConfig &pc : probeConfigs()) {
        RunConfig run = serial;
        run.purgeInterval = pc.purgeInterval;
        for (const std::uint64_t size : pc.sizes) {
            CacheConfig c = pc.base;
            c.sizeBytes = size;
            std::unique_ptr<CacheSystem> sys;
            if (pc.split)
                sys = std::make_unique<SplitCache>(c, c);
            else
                sys = std::make_unique<UnifiedCache>(c);
            probe.reset();
            TimingSource src(probe, "trace.memory", rec);
            ScopedSpan span(rec, "cache.access_" + pc.name);
            runTrace(src, *sys, run);
            span.setRefs(src.refs());
        }
    }

    const std::string din = dir + "/probe.din";
    const std::string clt2 = dir + "/probe.ctr";
    for (const auto &[path, format, layer] :
         {std::tuple{din, TraceFormat::Din, "trace.decode_din"},
          std::tuple{clt2, TraceFormat::Compressed, "trace.decode_clt2"}}) {
        probe.reset();
        {
            TimingSource src(probe, "trace.memory", rec);
            ScopedSpan span(rec, "trace.encode");
            saveTrace(src, path, format);
            span.setRefs(src.refs());
        }
        auto file = openTraceSource(path, format);
        TimingSource src(*file, layer, rec);
        ScopedSpan span(rec, "probe.decode");
        span.setRefs(src.forEachBatch([](std::span<const MemoryRef>) {}));
    }
    facts.bytesPerRef = static_cast<double>(std::filesystem::file_size(clt2)) /
                        static_cast<double>(probe.size());

    {
        probe.reset();
        TimingSource src(probe, "trace.memory", rec);
        ScopedSpan span(rec, "cache.stack");
        const auto pts = sweepUnified(
            src, powersOfTwo(32, 64ull << 20), CacheConfig{}, serial,
            SweepEngine::SinglePass);
        span.setRefs(src.refs());
        facts.distinctLines = pts.back().stats.demandFetches;
    }

    const std::string store = dir + "/probe-store";
    std::filesystem::remove_all(store);
    ckpt::LivePointWriteSpec spec;
    spec.traceName = probe.name();
    spec.sample = kvSampleConfig();
    spec.base = kvBaseConfig();
    spec.sizes = kvSizes();
    spec.jobs = 1;
    spec.createdBy = "perfbench";
    {
        auto file = openTraceSource(clt2, TraceFormat::Compressed);
        TimingSource src(*file, "trace.decode_clt2", rec);
        ScopedSpan span(rec, "ckpt.write");
        facts.storeBytes = ckpt::writeLivePoints(src, store, spec).bytesWritten;
        span.setRefs(src.refs());
    }
    std::optional<ckpt::LivePointStore> loaded;
    {
        ScopedSpan span(rec, "ckpt.load");
        loaded.emplace(ckpt::LivePointStore::load(store));
    }
    {
        auto file = openTraceSource(clt2, TraceFormat::Compressed);
        TimingSource src(*file, "trace.decode_clt2", rec);
        ScopedSpan span(rec, "ckpt.fanout");
        const auto pts = sweepUnifiedSampled(src, kvSizes(), kvBaseConfig(),
                                             kvSampleConfig(), serial,
                                             *loaded);
        span.setRefs(src.refs());
        facts.measuredFraction = pts.front().result.measuredFraction();
    }
    return facts;
}

/** Aggregates over recorded spans. */
class SpanStats
{
  public:
    explicit SpanStats(const SpanRecorder &rec)
        : spans_(rec.spans()), self_(rec.selfTimes())
    {}

    /** Σ self seconds and Σ refs of spans named @p name. */
    std::pair<double, std::uint64_t>
    self(const std::string &name, bool probes) const
    {
        double t = 0;
        std::uint64_t refs = 0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name && inScope(spans_[i], probes)) {
                t += self_[i];
                refs += spans_[i].refs;
            }
        return {t, refs};
    }

    /** Median wall seconds of one span named @p name (probe rounds). */
    double
    medianWall(const std::string &name) const
    {
        std::vector<double> v;
        for (const Span &s : spans_)
            if (s.name == name && s.run >= kProbeRun)
                v.push_back(s.end - s.start);
        return perfbench::median(v);
    }

    const std::vector<Span> &spans() const { return spans_; }
    double selfOf(std::size_t i) const { return self_[i]; }

  private:
    static bool
    inScope(const Span &s, bool probes)
    {
        return probes ? s.run >= kProbeRun : s.run < kProbeRun;
    }

    const std::vector<Span> &spans_;
    std::vector<double> self_;
};

std::string
refsNote(std::uint64_t refs)
{
    return "over " + std::to_string(refs) + " refs";
}

void
printResult(const std::vector<Metric> &metrics, bool correct,
            std::uint64_t attempted, std::uint64_t failed)
{
    std::printf("\n%-34s %18s  %s\n", "metric", "value", "unit");
    for (const Metric &m : metrics)
        std::printf("%-34s %18.6g  %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

/**
 * The per-layer metrics of a traced run, from its spans, the last
 * probe round's @p facts and the last pass's points.  Also prints the
 * traced passes' self time by span name.
 */
std::vector<Metric>
perLayerMetrics(const SpanRecorder &rec, const ProbeFacts &facts,
                const PassResults &last,
                const std::vector<PassTiming> &untraced,
                const std::vector<PassTiming> &traced)
{
    std::vector<Metric> out;
    const SpanStats st(rec);
    const auto nsPerRef = [&](const std::string &name, bool probes) {
        const auto [t, refs] = st.self(name, probes);
        return std::pair{refs ? 1e9 * t / static_cast<double>(refs) : 0.0,
                         refs};
    };
    const auto add = [&](const std::string &name,
                         std::pair<double, std::uint64_t> v) {
        out.push_back({name, v.first, "ns", refsNote(v.second)});
    };

    // The workload's generator, wherever the workload runs it:
    // set-up for corpus_sweep and kv_campaign, inside the pass (as
    // source batches) for stream_curve.
    add("workload.generate.ns_per_ref",
        nsPerRef("workload.generate", false));
    add("trace.decode_din.ns_per_ref", nsPerRef("trace.decode_din", true));
    add("trace.decode_clt2.ns_per_ref",
        nsPerRef("trace.decode_clt2", true));
    add("trace.encode.ns_per_ref", nsPerRef("trace.encode", true));
    out.push_back({"trace.bytes_per_ref", facts.bytesPerRef, "B",
                   "CLT2 file bytes / refs"});

    const auto drive = nsPerRef("sim.drive", true);
    for (const ProbeConfig &pc : probeConfigs()) {
        auto v = nsPerRef("cache.access_" + pc.name, true);
        v.first -= drive.first;
        add("cache.access_" + pc.name + ".ns_per_ref", v);
    }
    add("sim.drive.ns_per_ref", drive);

    const CacheStats total = last.total();
    const double acc = static_cast<double>(total.totalAccesses());
    out.push_back({"cache.accesses", acc, "count",
                   "all exact points of one pass"});
    out.push_back({"cache.misses",
                   static_cast<double>(total.totalMisses()), "count",
                   "all exact points of one pass"});
    out.push_back({"cache.hit_ratio",
                   acc > 0 ? 1.0 - total.totalMisses() / acc : 0.0,
                   "ratio", "all exact points of one pass"});
    out.push_back({"cache.dirty_pushes",
                   static_cast<double>(total.dirtyPushes()), "count",
                   "all exact points of one pass"});

    add("cache.stack.ns_per_ref", nsPerRef("cache.stack", true));
    out.push_back({"cache.stack.distinct_lines",
                   static_cast<double>(facts.distinctLines), "count",
                   "16 B lines in the probe slice"});

    double busy = 0, wall = 0, capacity = 0;
    for (const Span &s : st.spans())
        if (s.name == "sim.sweep" && s.run < kProbeRun) {
            busy += s.cpu;
            wall += s.end - s.start;
            capacity += s.jobs * (s.end - s.start);
        }
    const double n_traced = static_cast<double>(traced.size());
    out.push_back({"sim.sweep.busy_s", busy / n_traced, "s",
                   "CPU inside sweep calls, per traced pass"});
    out.push_back({"sim.sweep.wall_s", wall / n_traced, "s",
                   "wall inside sweep calls, per traced pass"});
    out.push_back({"sim.sweep.efficiency",
                   capacity > 0 ? busy / capacity : 0.0, "ratio",
                   "busy / (jobs x wall)"});

    add("sample.sweep.ns_per_ref", nsPerRef("ckpt.fanout", true));
    out.push_back({"sample.measured_fraction", facts.measuredFraction,
                   "ratio", "measured refs / trace refs"});
    out.push_back({"ckpt.write_s", st.medianWall("ckpt.write"), "s",
                   "median per probe round"});
    out.push_back({"ckpt.load_s", st.medianWall("ckpt.load"), "s",
                   "median per probe round"});
    out.push_back({"ckpt.fanout_s", st.medianWall("ckpt.fanout"), "s",
                   "median per probe round"});
    out.push_back({"ckpt.store_bytes",
                   static_cast<double>(facts.storeBytes), "B",
                   "live-point store of the probe slice"});

    std::vector<double> uw, tw;
    for (const PassTiming &t : untraced)
        uw.push_back(t.wall);
    for (const PassTiming &t : traced)
        tw.push_back(t.wall);
    const double uwall = perfbench::median(uw);
    const double twall = perfbench::median(tw);
    out.push_back({"tracing.overhead", twall / uwall - 1.0, "ratio",
                   "traced / untraced pass wall - 1, " +
                       std::to_string(traced.size()) + " pairs"});
    std::printf("untraced refs_per_s %.6g, traced refs_per_s %.6g\n",
                static_cast<double>(untraced.front().refs) / uwall,
                static_cast<double>(traced.front().refs) / twall);

    // Self-time shares of the traced passes, by span name.
    std::map<std::string, double> share;
    double pass_wall = 0;
    for (std::size_t i = 0; i < st.spans().size(); ++i) {
        const Span &s = st.spans()[i];
        if (s.run < 1 || s.run >= kProbeRun)
            continue;
        share[s.name] += st.selfOf(i);
        if (s.name == "pass")
            pass_wall += s.end - s.start;
    }
    std::printf("\ntraced-pass self time by span (%zu passes):\n",
                traced.size());
    for (const auto &[name, t] : share)
        std::printf("  %-24s %8.3f s  %5.1f %%\n", name.c_str(), t,
                    100.0 * t / pass_wall);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs = std::min(kJobs, hw);
    setenv("CACHELAB_JOBS", std::to_string(jobs).c_str(), 1);

    std::filesystem::create_directories(opt.workDir);
    std::unique_ptr<Workload> wl =
        makeWorkload(opt.workload, opt.seed, opt.workDir);
    if (!wl)
        usage("unknown workload " + opt.workload);
    Gate gate(loadPinned(opt.digests, opt.workload, opt.seed));
    std::printf("workload %s  seed %llu  jobs %u  seconds %g  trace %d  "
                "digests %s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), jobs, opt.seconds,
                opt.trace ? 1 : 0,
                gate.pinned() ? "pinned" : "first-pass (seed not pinned)");

    SpanRecorder off(false);
    SpanRecorder on(opt.trace);
    std::vector<Metric> metrics;
    std::vector<PassTiming> untraced, traced;
    std::optional<PassResults> last;
    int pass_no = 0;

    const auto runPass = [&](SpanRecorder &rec) {
        PassResults res(rec, jobs, opt.perturb && pass_no == 0);
        PassTiming t{};
        {
            ScopedSpan span(rec, "pass");
            t = timedPass(*wl, res);
            span.setRefs(t.refs);
        }
        gate.check(res, pass_no);
        if (pass_no == 0 && !opt.writeDigests.empty()) {
            std::ofstream os(opt.writeDigests);
            for (const auto &[id, d] : res.digests())
                os << opt.workload << ' ' << opt.seed << ' ' << id << ' '
                   << hex(d) << '\n';
        }
        std::printf("pass %d: %.4f s wall, %.4f s cpu, %llu refs%s\n",
                    pass_no, t.wall, t.cpu,
                    static_cast<unsigned long long>(t.refs),
                    rec.enabled() ? " (traced)" : "");
        ++pass_no;
        last.emplace(std::move(res));
        return t;
    };

    if (!opt.trace) {
        std::vector<double> setups;
        const Stopwatch budget;
        do {
            for (int r = 0; r < kSetupsPerPass; ++r) {
                const Stopwatch sw;
                wl->setup(off);
                const double wall = sw.wall(), cpu = sw.cpu();
                setups.push_back(wall);
                std::printf("setup %zu: %.4f s wall, %.4f s cpu\n",
                            setups.size() - 1, wall, cpu);
            }
            untraced.push_back(runPass(off));
        } while (budget.wall() < opt.seconds);
        const double rss = peakRssMib();

        std::vector<double> rate, cpu;
        for (const PassTiming &t : untraced) {
            rate.push_back(static_cast<double>(t.refs) / t.wall);
            cpu.push_back(t.cpu);
        }
        const std::string n = "median of " + std::to_string(untraced.size()) +
                              " passes of " +
                              std::to_string(untraced.front().refs) + " refs";
        metrics = {
            {"refs_per_s", perfbench::median(rate), "1/s", n},
            {"cpu_s", perfbench::median(cpu), "s", n},
            {"setup_s", *std::min_element(setups.begin(), setups.end()),
             "s", "fastest of " + std::to_string(setups.size()) + " set-ups"},
            {"peak_rss_mib", rss, "MiB", "whole process, before verify"},
        };
    } else {
        on.setRun(0);
        wl->setup(on);
        Trace probe = wl->probeTrace(kProbeRefs);
        ProbeFacts facts;
        const Stopwatch budget;
        int round = 0;
        do {
            untraced.push_back(runPass(off));
            on.setRun(1 + round);
            traced.push_back(runPass(on));
            on.setRun(kProbeRun + round);
            facts = probeRound(probe, on, opt.workDir);
            ++round;
        } while (budget.wall() < opt.seconds);

        metrics = perLayerMetrics(on, facts, *last, untraced, traced);
        if (!opt.spans.empty())
            on.write(opt.spans);
    }

    std::vector<std::string> failures;
    const std::size_t checked = wl->verify(*last, failures);
    for (const std::string &id : failures)
        gate.fail(pass_no - 1, id, "reference model disagrees");
    std::printf("reference model re-simulated %zu points of the last pass\n",
                checked);
    wl->report(*last);

    printResult(metrics, gate.failed() == 0, gate.attempted(), gate.failed());
    std::filesystem::remove_all(opt.workDir);
    return 0;
}

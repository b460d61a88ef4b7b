/**
 * @file
 * Implementation of the synthetic program-behavior model.
 */

#include "workload/program_model.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace cachelab
{

namespace
{

/** Fixed virtual-memory layout for generated programs.  The data and
 *  stack bases carry line-aligned but otherwise arbitrary offsets so
 *  the three regions do not all alias to cache set 0 the way fully
 *  aligned segment bases would. */
constexpr Addr kCodeBase = 0x0001'0000;
constexpr Addr kDataBase = 0x0040'15c0;
constexpr Addr kStackBase = 0x07f0'3a70;

/** Loop starts are placed on these boundaries within the code region. */
constexpr std::uint64_t kCodeBlockBytes = 64;

/** Maximum call-stack nesting depth. */
constexpr std::size_t kMaxCallDepth = 16;

/** Recency-pool capacities (sites retained for temporal reuse). */
constexpr std::size_t kLoopPoolCap = 192;
constexpr std::size_t kRecordPoolCap = 256;
constexpr std::size_t kArrayPoolCap = 48;

/**
 * Scatter a Zipf-ranked placement index across the region.  The
 * placement samplers favor low indices; without scattering, hot sites
 * would cluster at the bottom of each region and alias into the same
 * cache sets, exaggerating conflict misses in set-associative
 * configurations.  A fixed odd multiplier (Knuth's 2^32 golden ratio)
 * permutes indices while keeping the mapping deterministic.
 */
std::uint64_t
scatterIndex(std::uint64_t index, std::uint64_t count)
{
    return (index * 2654435761ULL) % count;
}

} // namespace

void
WorkloadParams::validate() const
{
    if (refCount == 0)
        fatal("workload refCount must be positive");
    if (codeBytes < 2 * kCodeBlockBytes)
        fatal("code region too small: ", codeBytes);
    if (dataBytes < 256)
        fatal("data region too small: ", dataBytes);
    auto checkFrac = [](double v, const char *what) {
        if (v < 0.0 || v > 1.0)
            fatal(what, " must lie in [0,1], got ", v);
    };
    checkFrac(readShareOfData, "readShareOfData");
    checkFrac(callFraction, "callFraction");
    checkFrac(seqScanFraction, "seqScanFraction");
    checkFrac(stackFraction, "stackFraction");
    checkFrac(newSiteProb, "newSiteProb");
    if (writeSpread <= 0.0 || writeSpread > 1.0)
        fatal("writeSpread must lie in (0,1], got ", writeSpread);
    if (codeNewSiteProb >= 0.0)
        checkFrac(codeNewSiteProb, "codeNewSiteProb");
    if (stackFraction + seqScanFraction > 1.0)
        fatal("stackFraction + seqScanFraction exceed 1");
    if (ifetchFraction >= 0.0)
        checkFrac(ifetchFraction, "ifetchFraction");
    if (branchFraction >= 0.0)
        checkFrac(branchFraction, "branchFraction");
    if (meanLoopIterations < 1.0)
        fatal("meanLoopIterations must be >= 1");
    if (!isPowerOfTwo(recordBytes) || recordBytes < 16)
        fatal("recordBytes must be a power of two >= 16");
    if (recordBytes > dataBytes)
        fatal("recordBytes exceeds the data region");
}

double
WorkloadParams::resolvedIfetchFraction() const
{
    return ifetchFraction >= 0.0 ? ifetchFraction
                                 : archProfile(machine).ifetchFraction;
}

double
WorkloadParams::resolvedBranchFraction() const
{
    return branchFraction >= 0.0 ? branchFraction
                                 : archProfile(machine).branchFraction;
}

double
WorkloadParams::resolvedCodeNewSiteProb() const
{
    return codeNewSiteProb >= 0.0 ? codeNewSiteProb : newSiteProb;
}

ProgramModel::ProgramModel(const WorkloadParams &params)
    : params_(params),
      arch_(archProfile(params.machine)),
      interface_(arch_.interface),
      rng_(params.seed),
      dataTarget_(1.0 - params.resolvedIfetchFraction()),
      writeShare_(1.0 - params.readShareOfData),
      branchTarget_(std::max(params.resolvedBranchFraction(), 0.005)),
      codeNewSiteProb_(params.resolvedCodeNewSiteProb()),
      // Keep bodies longer than the analyzer's 8-byte branch window
      // plus the fetch granule: a loop whose back edge jumps fewer
      // than 8 bytes is invisible to the branch heuristic, which would
      // let the controller chase unreachable targets.
      minBodyBytes_(std::max<std::uint64_t>(
          2 * arch_.minInstrBytes, arch_.interface.instrGranuleBytes + 2)),
      instrStep_(arch_.minInstrBytes >= 2 ? 2 : 1),
      stackDepth_(std::clamp<Addr>(params.dataBytes / 8, 256, 8192)),
      recordSlots_(params.recordBytes / arch_.wordBytes),
      instrExtraBytes_(
          std::max(arch_.meanInstrBytes - arch_.minInstrBytes, 0.0)),
      loopIterations_(params.meanLoopIterations),
      arrayBytes_(params.meanArrayBytes),
      recordAccesses_(params.meanRecordAccesses),
      codeBase_(kCodeBase),
      codeBlocks_(std::max<std::uint64_t>(params.codeBytes / kCodeBlockBytes,
                                          2)),
      codePlacement_(codeBlocks_, params.codeTheta),
      loopPool_(kLoopPoolCap, params.codeReuseTheta),
      // Initial bytes-per-taken-branch estimate: one branch per
      // (1 / branchFraction) ifetch references, each covering roughly
      // one interface granule.  The online controller refines this.
      bodyBytes_(std::clamp(
          static_cast<double>(arch_.interface.instrGranuleBytes) /
              branchTarget_,
          6.0, 1024.0)),
      dataBase_(kDataBase),
      dataLines_(std::max<std::uint64_t>(params.dataBytes / 16, 4)),
      dataPlacement_(dataLines_, params.dataTheta),
      recordPool_(kRecordPoolCap, params.dataReuseTheta),
      arrayPool_(kArrayPoolCap, params.dataReuseTheta),
      stackBase_(kStackBase),
      stackPtr_(kStackBase)
{
    params_.validate();
    nextLoop();
}

std::uint64_t
ProgramModel::sampleBodyBytes()
{
    return std::clamp<std::uint64_t>(bodyBytes_(rng_), minBodyBytes_, 1024);
}

void
ProgramModel::activateLoop(const LoopSite &site)
{
    loop_.start = site.start;
    loop_.bodyBytes = site.bodyBytes;
    loop_.itersLeft =
        std::clamp<std::uint64_t>(loopIterations_(rng_), 0, 100000);
    loop_.pc = site.start;
    interface_.reset();
}

void
ProgramModel::nextLoop()
{
    LoopSite *site = loopPool_.sample(rng_, codeNewSiteProb_);
    if (site == nullptr) {
        LoopSite fresh;
        const std::uint64_t block =
            scatterIndex(codePlacement_(rng_), codeBlocks_);
        fresh.start = codeBase_ + block * kCodeBlockBytes;
        fresh.bodyBytes = sampleBodyBytes();
        const Addr code_end = codeBase_ + params_.codeBytes;
        if (fresh.start + fresh.bodyBytes > code_end)
            fresh.start = code_end - fresh.bodyBytes;
        site = &loopPool_.insert(fresh);
    } else if (rng_.bernoulli(0.5)) {
        // Re-derive the body length on half the revisits so the branch
        // controller's adjustments propagate into reused sites.
        const std::uint64_t body = sampleBodyBytes();
        const Addr code_end = codeBase_ + params_.codeBytes;
        if (site->start + body > code_end)
            site->start = code_end - body;
        site->bodyBytes = body;
    }
    activateLoop(*site);
}

std::uint32_t
ProgramModel::sampleInstrLength()
{
    auto len = static_cast<std::uint32_t>(arch_.minInstrBytes +
                                          instrExtraBytes_(rng_));
    len = std::min(len, arch_.maxInstrBytes);
    // Round down to the instruction-length granularity of the encoding
    // (1 or 2 bytes, so a mask rounds exactly as a division would).
    len = std::max<std::uint32_t>(len & ~(instrStep_ - 1), instrStep_);
    return len;
}

void
ProgramModel::adaptBodyLength()
{
    // Windowed proportional controller: every window, compare the
    // branch fraction seen *in that window* to the target and nudge
    // the mean body length.  Shorter bodies mean more taken branches.
    constexpr std::uint64_t kWindow = 4096;
    if (windowIfetchRefs_ < kWindow)
        return;
    const double measured = static_cast<double>(windowBranches_) /
        static_cast<double>(windowIfetchRefs_);
    windowIfetchRefs_ = 0;
    windowBranches_ = 0;
    const double factor = std::clamp(measured / branchTarget_, 0.70, 1.40);
    bodyBytes_.setMean(std::clamp(bodyBytes_.mean() * factor, 6.0, 1024.0));
}

void
ProgramModel::stepInstruction()
{
    if (loop_.pc >= loop_.start + loop_.bodyBytes) {
        // Reached the end of the loop body.
        if (loop_.itersLeft > 0) {
            --loop_.itersLeft;
            if (callStack_.size() < kMaxCallDepth &&
                rng_.bernoulli(params_.callFraction)) {
                // Nest: call out of the loop, return later.
                callStack_.push_back(loop_);
                nextLoop();
            } else {
                loop_.pc = loop_.start; // back edge
                interface_.reset();
            }
        } else if (!callStack_.empty()) {
            loop_ = callStack_.back(); // return to the caller's loop top
            callStack_.pop_back();
            loop_.pc = loop_.start;
            interface_.reset();
        } else {
            nextLoop();
        }
    }

    const std::uint32_t len = sampleInstrLength();
    interface_.fetchInstruction(loop_.pc, len, [this](const MemoryRef &ref) {
        // Count the ref and any analyzer-visible taken branch.
        if (haveLastIfetch_ &&
            (ref.addr < lastIfetch_ || ref.addr > lastIfetch_ + 8)) {
            ++windowBranches_;
        }
        lastIfetch_ = ref.addr;
        haveLastIfetch_ = true;
        ++ifetchRefs_;
        ++windowIfetchRefs_;
        emit(ref);
    });
    loop_.pc += len;
    adaptBodyLength();
}

void
ProgramModel::stepData()
{
    // Greedy write-share control: fallen behind the target -> write.
    const bool write = static_cast<double>(writeRefs_) <
        writeShare_ * static_cast<double>(dataRefs_);
    const AccessKind kind = write ? AccessKind::Write : AccessKind::Read;

    const std::uint32_t word = arch_.wordBytes;
    double u = rng_.uniformReal();
    // Stores concentrate: redirect a write headed for the record or
    // array engines onto the stack with probability (1 - writeSpread).
    if (kind == AccessKind::Write && u >= params_.stackFraction &&
        rng_.bernoulli(1.0 - params_.writeSpread)) {
        u = 0.0;
    }
    Addr addr = 0;

    if (u < params_.stackFraction) {
        // Stack engine: random walk near the stack pointer.
        if (rng_.bernoulli(0.5)) {
            if (stackPtr_ + word < stackBase_ + stackDepth_)
                stackPtr_ += word;
        } else if (stackPtr_ > stackBase_) {
            stackPtr_ -= word;
        }
        addr = stackPtr_;
    } else if (u < params_.stackFraction + params_.seqScanFraction) {
        // Sequential scans over a pool of arrays.  Re-scanning a
        // recently used array is the common case (temporal reuse);
        // fresh arrays model streaming over new data.
        if (streamPos_ >= streamEnd_) {
            ArraySite *site = arrayPool_.sample(rng_, params_.newSiteProb);
            if (site == nullptr) {
                ArraySite fresh;
                const std::uint64_t max_len =
                    std::min<std::uint64_t>(16384, params_.dataBytes);
                fresh.base = dataBase_ +
                    scatterIndex(dataPlacement_(rng_), dataLines_) * 16;
                fresh.lenBytes =
                    std::clamp<std::uint64_t>(arrayBytes_(rng_), 64, max_len);
                if (fresh.base + fresh.lenBytes >
                    dataBase_ + params_.dataBytes) {
                    fresh.base = dataBase_ + params_.dataBytes -
                        fresh.lenBytes;
                }
                site = &arrayPool_.insert(fresh);
            }
            streamPos_ = site->base;
            streamEnd_ = site->base + site->lenBytes;
        }
        addr = streamPos_;
        streamPos_ += word;
    } else {
        // Record engine: dwell on one small record, then move to
        // another — usually a recently used one.
        if (recordLeft_ == 0) {
            RecordSite *site = recordPool_.sample(rng_, params_.newSiteProb);
            if (site == nullptr) {
                RecordSite fresh;
                const Addr line =
                    scatterIndex(dataPlacement_(rng_), dataLines_) * 16;
                fresh.base = dataBase_ + alignDown(line, params_.recordBytes);
                if (fresh.base + params_.recordBytes >
                    dataBase_ + params_.dataBytes) {
                    fresh.base = dataBase_ + params_.dataBytes -
                        params_.recordBytes;
                }
                site = &recordPool_.insert(fresh);
            }
            curRecord_ = site->base;
            recordLeft_ = recordAccesses_(rng_) + 1;
        }
        addr = curRecord_ + rng_.uniformInt(recordSlots_) * word;
        --recordLeft_;
    }

    interface_.dataAccess(addr, word, kind, [&](const MemoryRef &ref) {
        ++dataRefs_;
        if (kind == AccessKind::Write)
            ++writeRefs_;
        emit(ref);
    });
}

void
ProgramModel::stepMacro()
{
    stepInstruction();
    // Issue data accesses until the running mix meets the target, or
    // until the workload's last reference has been made.
    while (ifetchRefs_ + dataRefs_ < params_.refCount) {
        const auto total = static_cast<double>(ifetchRefs_ + dataRefs_);
        if (static_cast<double>(dataRefs_) >= dataTarget_ * total)
            break;
        stepData();
    }
}

std::size_t
ProgramModel::fill(std::span<MemoryRef> out)
{
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(
        out.size(), params_.refCount - delivered_));
    // The last macro step's overshoot comes first, then whole macro
    // steps written in place; the one that crosses the end of the
    // buffer leaves its remainder in overshoot_.
    std::size_t n = std::min(want, overshoot_.size() - overshootPos_);
    std::copy_n(overshoot_.begin() + static_cast<std::ptrdiff_t>(overshootPos_),
                n, out.begin());
    overshootPos_ += n;
    if (n < want) {
        overshoot_.clear();
        overshootPos_ = 0;
        out_ = out.data() + n;
        outEnd_ = out.data() + want;
        while (out_ != outEnd_)
            stepMacro();
        out_ = outEnd_ = nullptr; // the span is the caller's again
        n = want;
    }
    delivered_ += n;
    return n;
}

Trace
ProgramModel::generate(std::string name)
{
    std::vector<MemoryRef> refs(
        static_cast<std::size_t>(params_.refCount - delivered_));
    fill(refs);
    return Trace(std::move(name), std::move(refs));
}

Trace
generateWorkload(const WorkloadParams &params, std::string name)
{
    ProgramModel model(params);
    return model.generate(std::move(name));
}

WorkloadSource::WorkloadSource(const WorkloadParams &params,
                               std::string name)
    : params_(params), name_(std::move(name)), model_(params_)
{}

} // namespace cachelab

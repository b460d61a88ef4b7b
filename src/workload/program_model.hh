/**
 * @file
 * Synthetic program-behavior model.
 *
 * The original 49 traces (SLAC, Amdahl, Zilog, Signetics, Bell Labs,
 * UC Berkeley) are not available, so this model generates address
 * traces whose *measurable characteristics* — the quantities the paper
 * tabulates in Table 2 and discusses in section 3 — are controlled:
 *
 *  - reference mix (ifetch / read / write fractions): closed-loop
 *    controlled to the target during generation;
 *  - taken-branch fraction of instruction-fetch references: the
 *    loop-body length adapts until the measured fraction matches;
 *  - code and data footprints (#Ilines / #Dlines / A-space): bounded
 *    by the configured region sizes;
 *  - temporal locality: loops, data records and scan arrays are
 *    revisited through RecencyPools (workload/recency.hh), so the LRU
 *    stack-distance distribution — and therefore the miss-ratio-vs-
 *    cache-size curve — is directly shaped by the reuse exponents.
 *
 * The model is a structured random walk, not a replay:
 *
 *  - CODE: execution proceeds through loops.  A loop has a start
 *    address, a body length and an iteration count; instructions are
 *    fetched sequentially through the body, then a taken branch either
 *    re-enters the body or selects the next loop site — usually a
 *    recently executed one (recency pool), occasionally a brand-new
 *    location (program phase growth) — possibly via a nested call
 *    with a return stack.
 *
 *  - DATA: each instruction may issue a data access, drawn from three
 *    sub-engines: a stack (accesses near a wandering stack pointer),
 *    sequential scans over a pool of arrays (what makes data
 *    prefetching work, section 3.5.1; re-scanning a recent array is
 *    common), and record accesses over a pool of small records
 *    (pointer-chasing/globals).
 *
 * All physical reference widths come from the machine's memory
 * interface model (section 1.1's "design architecture").
 */

#ifndef CACHELAB_WORKLOAD_PROGRAM_MODEL_HH
#define CACHELAB_WORKLOAD_PROGRAM_MODEL_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "arch/interface_model.hh"
#include "arch/profile.hh"
#include "trace/source.hh"
#include "trace/trace.hh"
#include "util/random.hh"
#include "workload/recency.hh"

namespace cachelab
{

/** Everything that parameterizes one synthetic workload. */
struct WorkloadParams
{
    Machine machine = Machine::VAX;

    /** Number of memory references to generate. */
    std::uint64_t refCount = 250000;

    /** Target fraction of references that are instruction fetches.
     *  Negative means "use the architecture profile default". */
    double ifetchFraction = -1.0;

    /** Reads as a share of data references (paper rule: ~2/3). */
    double readShareOfData = 2.0 / 3.0;

    /** Target taken-branch fraction of ifetch references.
     *  Negative means "use the architecture profile default". */
    double branchFraction = -1.0;

    /** Code region size in bytes (bounds #Ilines). */
    std::uint64_t codeBytes = 16384;

    /** Data region size in bytes (bounds #Dlines). */
    std::uint64_t dataBytes = 24576;

    /** Zipf exponent for *placement* of new code sites in the region. */
    double codeTheta = 0.45;

    /** Zipf exponent for *placement* of new data sites in the region. */
    double dataTheta = 0.45;

    /** Zipf exponent over loop-site recency ranks (temporal reuse). */
    double codeReuseTheta = 1.0;

    /** Zipf exponent over data-site recency ranks (temporal reuse). */
    double dataReuseTheta = 0.9;

    /** Probability a data-site sample starts a brand-new site. */
    double newSiteProb = 0.03;

    /**
     * Probability a loop transition goes to a brand-new (or cold) code
     * site instead of a pooled one.  Negative = use newSiteProb.
     * Separating the two lets the instruction- and data-side miss
     * ratios be balanced independently (paper Figures 3 vs 4).
     */
    double codeNewSiteProb = -1.0;

    /** Mean loop iteration count (geometric). */
    double meanLoopIterations = 10.0;

    /** Probability a finished loop iteration nests into a call. */
    double callFraction = 0.15;

    /** Share of data accesses served by sequential array scans. */
    double seqScanFraction = 0.25;

    /** Share of data accesses served by the stack engine. */
    double stackFraction = 0.20;

    /** Mean scan-array length in bytes (geometric). */
    double meanArrayBytes = 768.0;

    /** Record size in bytes for the record engine. */
    std::uint32_t recordBytes = 64;

    /** Mean consecutive accesses to one record before moving on. */
    double meanRecordAccesses = 12.0;

    /**
     * How widely stores spread over the data space, in (0, 1].  With
     * probability (1 - writeSpread) a store destined for the record or
     * array engines is redirected to the stack, concentrating dirty
     * lines.  This is the knob behind Table 3's wide range of
     * dirty-push fractions (0.22 - 0.80).
     */
    double writeSpread = 0.5;

    /** PRNG seed; distinct per named trace profile. */
    std::uint64_t seed = 1;

    /** fatal() if the parameters are inconsistent. */
    void validate() const;

    /** @return ifetchFraction resolved against the machine default. */
    double resolvedIfetchFraction() const;

    /** @return branchFraction resolved against the machine default. */
    double resolvedBranchFraction() const;

    /** @return codeNewSiteProb resolved against newSiteProb. */
    double resolvedCodeNewSiteProb() const;
};

/**
 * Generator for one synthetic workload.  Every reference is written
 * straight into the caller's buffer by fill(); generate() and
 * WorkloadSource are both that one routine.
 */
class ProgramModel
{
  public:
    explicit ProgramModel(const WorkloadParams &params);

    /**
     * Generate the references not yet delivered (all params.refCount
     * of them on a fresh model) as a trace named @p name.
     */
    Trace generate(std::string name);

    /**
     * Write the next references of the workload into @p out, stopping
     * at out.size() or at params.refCount references delivered in
     * total.  @return the number written (0 once the workload is
     * exhausted).
     *
     * The model advances in macro steps: fetch one instruction, then
     * issue data accesses until the running mix meets the ifetch
     * target or params.refCount references have been made.  A step
     * that does not fit in @p out keeps its overshoot (a few
     * references) for the next call, so the sequence does not depend
     * on how the caller sizes its buffers.
     */
    std::size_t fill(std::span<MemoryRef> out);

  private:
    /** A loop location in the code region. */
    struct LoopSite
    {
        Addr start = 0;
        std::uint64_t bodyBytes = 0;
    };

    /** The loop currently executing. */
    struct LoopFrame
    {
        Addr start = 0;
        std::uint64_t bodyBytes = 0;
        std::uint64_t itersLeft = 0;
        Addr pc = 0;
    };

    /** A record location in the data region. */
    struct RecordSite
    {
        Addr base = 0;
    };

    /** A scan array in the data region. */
    struct ArraySite
    {
        Addr base = 0;
        std::uint64_t lenBytes = 0;
    };

    /** Fetch one instruction, then issue the data accesses it owes. */
    void stepMacro();

    /** Switch to the next loop (recency pool or brand-new site). */
    void nextLoop();

    /** Enter @p site with fresh iteration count. */
    void activateLoop(const LoopSite &site);

    /** Fetch one instruction, advancing the loop state. */
    void stepInstruction();

    /** Issue one data access. */
    void stepData();

    /** Write @p ref to the caller's buffer, or keep it as overshoot. */
    void
    emit(const MemoryRef &ref)
    {
        if (out_ != outEnd_)
            *out_++ = ref;
        else
            overshoot_.push_back(ref);
    }

    void adaptBodyLength();
    std::uint64_t sampleBodyBytes();
    std::uint32_t sampleInstrLength();

    WorkloadParams params_;
    const ArchProfile &arch_;
    InterfaceModel interface_;
    Rng rng_;

    // Per-workload constants, resolved once.
    double dataTarget_;     ///< data share of all references
    double writeShare_;     ///< write share of data references
    double branchTarget_;   ///< taken-branch share of ifetch references
    double codeNewSiteProb_;
    std::uint64_t minBodyBytes_;
    std::uint32_t instrStep_; ///< instruction-length granularity
    Addr stackDepth_;
    std::uint64_t recordSlots_; ///< words per record
    GeometricSampler instrExtraBytes_; ///< length beyond the minimum
    GeometricSampler loopIterations_;
    GeometricSampler arrayBytes_;
    GeometricSampler recordAccesses_;

    // Code state.
    Addr codeBase_;
    std::uint64_t codeBlocks_; ///< 64-byte placement granules
    ZipfSampler codePlacement_;
    RecencyPool<LoopSite> loopPool_;
    LoopFrame loop_;
    std::vector<LoopFrame> callStack_;
    /** Body lengths; the mean adapts online toward the branch target. */
    GeometricSampler bodyBytes_;

    // Data state.
    Addr dataBase_;
    std::uint64_t dataLines_;
    ZipfSampler dataPlacement_;
    RecencyPool<RecordSite> recordPool_;
    RecencyPool<ArraySite> arrayPool_;
    Addr curRecord_ = 0;
    std::uint64_t recordLeft_ = 0;
    Addr streamPos_ = 0;
    Addr streamEnd_ = 0;
    Addr stackBase_;
    Addr stackPtr_;

    // Measured-so-far counters driving the feedback loops.  Branches
    // are counted exactly as the trace analyzer counts them (next
    // ifetch address below the previous one or more than 8 bytes
    // ahead), so the controller converges on the analyzer's number.
    std::uint64_t ifetchRefs_ = 0;
    std::uint64_t dataRefs_ = 0;
    std::uint64_t writeRefs_ = 0;
    Addr lastIfetch_ = 0;
    bool haveLastIfetch_ = false;
    std::uint64_t windowIfetchRefs_ = 0; ///< controller window
    std::uint64_t windowBranches_ = 0;

    // Output: the caller's free space during fill(), and the refs of
    // the last macro step that did not fit.
    MemoryRef *out_ = nullptr;
    MemoryRef *outEnd_ = nullptr;
    std::vector<MemoryRef> overshoot_;
    std::size_t overshootPos_ = 0;
    std::uint64_t delivered_ = 0; ///< refs written by fill()
};

/** Convenience: construct a model and generate in one call. */
Trace generateWorkload(const WorkloadParams &params, std::string name);

/**
 * Streaming adapter over ProgramModel: delivers the exact reference
 * sequence of generateWorkload(params, name), written straight into
 * the consumer's batch, so a 10^9-reference workload streams in
 * O(batch).
 *
 * reset() rebuilds the model from the (seeded) params, restarting the
 * deterministic random stream from the beginning.
 */
class WorkloadSource : public TraceSource
{
  public:
    WorkloadSource(const WorkloadParams &params, std::string name);

    const std::string &name() const override { return name_; }
    std::size_t
    nextBatch(std::span<MemoryRef> out) override
    {
        return model_->fill(out);
    }
    void reset() override { model_.emplace(params_); }
    std::uint64_t knownLength() const override { return params_.refCount; }

  private:
    WorkloadParams params_;
    std::string name_;
    std::optional<ProgramModel> model_;
};

} // namespace cachelab

#endif // CACHELAB_WORKLOAD_PROGRAM_MODEL_HH

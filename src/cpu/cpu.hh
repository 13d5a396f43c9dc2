/**
 * @file
 * Common base of the two CPU timing models: Mipsy-like in-order
 * (InOrderCpu) and MXS-like out-of-order superscalar
 * (SuperscalarCpu).
 */

#ifndef SOFTWATT_CPU_CPU_HH
#define SOFTWATT_CPU_CPU_HH

#include <cstdint>

#include "mem/hierarchy.hh"
#include "mem/tlb.hh"
#include "sim/counter_sink.hh"
#include "sim/machine_params.hh"

#include "branch_predictor.hh"
#include "kernel_iface.hh"

namespace softwatt
{

/**
 * A CPU timing model driven one cycle at a time by the System loop.
 *
 * Checkpointable, with a drained-pipeline precondition: the system
 * squashes in-flight work back to the kernel before saving, so only
 * persistent model state (totals, predictor tables, sequence
 * counters) crosses the checkpoint.
 */
class Cpu : public Checkpointable
{
  public:
    Cpu(const MachineParams &params, CacheHierarchy &hierarchy,
        Tlb &tlb, CounterSink &sink, KernelIface &kernel);
    virtual ~Cpu() = default;

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    /**
     * Advance one cycle of detailed execution.
     * @return False once the kernel has reported end-of-workload and
     *         the pipeline has drained.
     */
    virtual bool cycle() = 0;

    /**
     * Discard all in-flight work without replay. Used before idle
     * fast-forward, where the discarded instructions are idle-loop
     * busy-waiting whose effect is accounted analytically.
     */
    virtual void squashAll() = 0;

    /** True when no instruction is in flight. */
    virtual bool pipelineEmpty() const = 0;

    /**
     * How many of the coming cycles are quiet: cycles in which
     * cycle() would only charge one stall cycle to work already in
     * flight, without fetching, retiring or calling the kernel. The
     * default, 0, never lets the caller skip ahead.
     */
    virtual Cycles quietCycles() const { return 0; }

    /**
     * Charge @p n quiet cycles at once, exactly as n calls of cycle()
     * would. The caller guarantees n <= quietCycles() and that
     * nothing else changes machine state in between (no event fires).
     */
    virtual void skipQuietCycles(Cycles n) { (void)n; }

    /**
     * Discard all in-flight work, returning the squashed
     * instructions in program order so the caller can requeue them.
     */
    virtual std::vector<MicroOp> squashAllCollect() = 0;

    std::uint64_t cyclesRun() const { return totalCycles; }
    std::uint64_t committedInsts() const { return totalCommitted; }

    /** Committed instructions per cycle over the whole run. */
    double
    ipc() const
    {
        return totalCycles ? double(totalCommitted) / double(totalCycles)
                           : 0;
    }

    BranchPredictor &predictor() { return bpred; }

  protected:
    /** Totals + predictor serialization shared by both models. */
    void saveBaseState(ChunkWriter &out) const;
    void loadBaseState(ChunkReader &in);

    MachineParams params;
    CacheHierarchy &hierarchy;
    Tlb &tlb;
    CounterSink &sink;
    KernelIface &kernel;
    BranchPredictor bpred;

    std::uint64_t totalCycles = 0;
    std::uint64_t totalCommitted = 0;

    /**
     * TLB lookup for a data access; charges TlbRef (and TlbMiss).
     * @return True on a hit or for kernel-mapped accesses.
     */
    bool dataTlbLookup(const MicroOp &op);
};

} // namespace softwatt

#endif // SOFTWATT_CPU_CPU_HH

/**
 * @file
 * Mipsy-equivalent CPU: single-issue, in-order, blocking caches
 * (MIPS R4000-like). Used for the memory-system characterization
 * (Figure 3) and as the fast first pass, as in the paper.
 */

#ifndef SOFTWATT_CPU_INORDER_CPU_HH
#define SOFTWATT_CPU_INORDER_CPU_HH

#include "cpu.hh"

namespace softwatt
{

/**
 * Single-issue in-order pipeline with blocking caches.
 *
 * One instruction occupies the machine at a time; every cache miss
 * stalls, branch mispredictions cost a fixed redirect penalty. The
 * model still performs TLB lookups, raises traps and delivers
 * interrupts through the same KernelIface protocol as the
 * superscalar model.
 */
class InOrderCpu : public Cpu
{
  public:
    InOrderCpu(const MachineParams &params, CacheHierarchy &hierarchy,
               Tlb &tlb, CounterSink &sink, KernelIface &kernel);

    bool cycle() override;
    void squashAll() override;
    bool pipelineEmpty() const override;
    std::vector<MicroOp> squashAllCollect() override;

    /** Every cycle of the instruction in flight but the retiring one. */
    Cycles quietCycles() const override;
    void skipQuietCycles(Cycles n) override;

    // Checkpointable (requires a drained pipeline).
    void saveState(ChunkWriter &out) const override;
    void loadState(ChunkReader &in) override;

  private:
    /** Cycles the current instruction still needs before finishing. */
    std::uint64_t busyCycles = 0;  // ckpt:derived: zero once drained

    /** Instruction being executed (valid while busyCycles > 0). */
    MicroOp current;               // ckpt:derived: empty once drained
    bool hasCurrent = false;       // ckpt:derived: false once drained

    bool sourceEnded = false;

    /** Fixed mispredict redirect penalty for the short pipeline. */
    static constexpr int mispredictPenalty = 2;

    /** Finish the current instruction: commit-side bookkeeping. */
    void retireCurrent();

    /** Start executing a newly fetched instruction. */
    void startInst(const MicroOp &op);

    /** Attribute the cycles of the instruction in flight. */
    void setBusyCycleMode();
};

} // namespace softwatt

#endif // SOFTWATT_CPU_INORDER_CPU_HH

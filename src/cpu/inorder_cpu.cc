#include "inorder_cpu.hh"

#include "sim/check.hh"

namespace softwatt
{

InOrderCpu::InOrderCpu(const MachineParams &params,
                       CacheHierarchy &hierarchy, Tlb &tlb,
                       CounterSink &sink, KernelIface &kernel)
    : Cpu(params, hierarchy, tlb, sink, kernel)
{
}

bool
InOrderCpu::pipelineEmpty() const
{
    return !hasCurrent;
}

void
InOrderCpu::squashAll()
{
    hasCurrent = false;
    busyCycles = 0;
}

std::vector<MicroOp>
InOrderCpu::squashAllCollect()
{
    std::vector<MicroOp> replay;
    if (hasCurrent)
        replay.push_back(current);
    squashAll();
    return replay;
}

void
InOrderCpu::saveState(ChunkWriter &out) const
{
    SW_CHECK(pipelineEmpty(),
             "InOrderCpu::saveState: pipeline not drained");
    saveBaseState(out);
    out.b(sourceEnded);
}

void
InOrderCpu::loadState(ChunkReader &in)
{
    SW_CHECK(pipelineEmpty(),
             "InOrderCpu::loadState: pipeline not drained");
    loadBaseState(in);
    sourceEnded = in.b();
}

void
InOrderCpu::startInst(const MicroOp &op)
{
    current = op;
    hasCurrent = true;

    // Fetch: one I-cache access per instruction.
    MemAccessOutcome fetch =
        hierarchy.ifetch(op.pc, op.mode, op.frameTag);
    sink.add(op.mode, CounterId::FetchedInsts, 1, op.frameTag);
    std::uint64_t cycles = std::uint64_t(fetch.latency);

    switch (op.cls) {
      case InstClass::Load:
      case InstClass::Store: {
        if (!dataTlbLookup(op)) {
            // Trap: replay just this instruction after the handler.
            hasCurrent = false;
            busyCycles = 0;
            kernel.dataTlbMiss(op.memAddr, op.asid, {op});
            return;
        }
        MemAccessOutcome data = hierarchy.dataAccess(
            op.memAddr, op.cls == InstClass::Store, op.mode,
            op.frameTag);
        cycles += std::uint64_t(data.latency);
        sink.add(op.mode, op.cls == InstClass::Load
                              ? CounterId::LoadInsts
                              : CounterId::StoreInsts,
                 1, op.frameTag);
        break;
      }
      case InstClass::Branch: {
        if (!bpred.predictAndTrain(op))
            cycles += mispredictPenalty;
        break;
      }
      case InstClass::IntAlu:
        sink.add(op.mode, CounterId::IntAluOp, 1, op.frameTag);
        break;
      case InstClass::FpAlu:
        sink.add(op.mode, CounterId::FpAluOp, 1, op.frameTag);
        cycles += 2;  // longer FP latency, not overlapped in-order
        break;
      case InstClass::Syscall:
      case InstClass::Nop:
        break;
    }

    // Register file traffic.
    int reads = (op.srcA != noReg) + (op.srcB != noReg);
    if (reads)
        sink.add(op.mode, CounterId::RegFileRead, reads, op.frameTag);
    if (op.dst != noReg) {
        sink.add(op.mode, CounterId::RegFileWrite, 1, op.frameTag);
        sink.add(op.mode, CounterId::ResultBusOp, 1, op.frameTag);
    }

    busyCycles = cycles > 0 ? cycles : 1;
}

void
InOrderCpu::retireCurrent()
{
    sink.add(current.mode, CounterId::CommittedInsts, 1,
             current.frameTag);
    sink.add(current.mode, CounterId::CommitCycles, 1,
             current.frameTag);
    ++totalCommitted;
    hasCurrent = false;
    if (current.cls == InstClass::Syscall)
        kernel.syscall(current);
    kernel.onCommit(current);
    kernel.onPipelineEmpty();
}

void
InOrderCpu::setBusyCycleMode()
{
    std::uint32_t ptag = kernel.privilegedTag();
    if (ptag != 0 && current.mode != ExecMode::Idle) {
        sink.setCycleMode(current.mode == ExecMode::KernelSync
                              ? ExecMode::KernelSync
                              : ExecMode::KernelInst,
                          ptag);
    } else {
        sink.setCycleMode(current.mode, current.frameTag);
    }
}

Cycles
InOrderCpu::quietCycles() const
{
    return hasCurrent ? busyCycles - 1 : 0;
}

void
InOrderCpu::skipQuietCycles(Cycles n)
{
    SW_ASSERT(n <= quietCycles(),
              "InOrderCpu::skipQuietCycles past the retiring cycle");
    totalCycles += n;
    busyCycles -= n;
    setBusyCycleMode();
    sink.addCycles(n);
}

bool
InOrderCpu::cycle()
{
    ++totalCycles;

    if (hasCurrent) {
        setBusyCycleMode();
        sink.addCycle();
        if (--busyCycles == 0)
            retireCurrent();
        return true;
    }

    // Between instructions: deliver any pending interrupt first.
    if (kernel.interruptPending())
        kernel.takeInterrupt({});

    MicroOp op;
    FetchOutcome outcome = kernel.fetchNext(op);
    switch (outcome) {
      case FetchOutcome::Op:
        startInst(op);
        // The fetch cycle itself counts against the new instruction
        // (or whatever stream the trap handler switched us to).
        sink.setCycleMode(op.mode, op.frameTag);
        sink.addCycle();
        if (hasCurrent && --busyCycles == 0)
            retireCurrent();
        return true;
      case FetchOutcome::Stall:
        sink.setCycleMode(kernel.currentStreamMode(), 0);
        sink.addCycle();
        return true;
      case FetchOutcome::End:
        sourceEnded = true;
        sink.setCycleMode(kernel.currentStreamMode(), 0);
        sink.addCycle();
        return false;
    }
    return true;
}

} // namespace softwatt

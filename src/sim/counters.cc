#include "counters.hh"

#include "sim/checkpoint.hh"

#include "logging.hh"

namespace softwatt
{

const char *
counterName(CounterId id)
{
    switch (id) {
      case CounterId::Cycles: return "cycles";
      case CounterId::CommitCycles: return "commit_cycles";
      case CounterId::FetchedInsts: return "fetched_insts";
      case CounterId::CommittedInsts: return "committed_insts";
      case CounterId::IL1Ref: return "il1_ref";
      case CounterId::IL1Miss: return "il1_miss";
      case CounterId::DL1Ref: return "dl1_ref";
      case CounterId::DL1Miss: return "dl1_miss";
      case CounterId::L2IRef: return "l2i_ref";
      case CounterId::L2DRef: return "l2d_ref";
      case CounterId::L2Miss: return "l2_miss";
      case CounterId::MemRef: return "mem_ref";
      case CounterId::TlbRef: return "tlb_ref";
      case CounterId::TlbMiss: return "tlb_miss";
      case CounterId::IntAluOp: return "int_alu_op";
      case CounterId::FpAluOp: return "fp_alu_op";
      case CounterId::RegFileRead: return "regfile_read";
      case CounterId::RegFileWrite: return "regfile_write";
      case CounterId::RenameOp: return "rename_op";
      case CounterId::IssueWindowOp: return "issue_window_op";
      case CounterId::LsqOp: return "lsq_op";
      case CounterId::ResultBusOp: return "result_bus_op";
      case CounterId::BhtRef: return "bht_ref";
      case CounterId::BtbRef: return "btb_ref";
      case CounterId::RasRef: return "ras_ref";
      case CounterId::BranchInsts: return "branch_insts";
      case CounterId::BranchMispred: return "branch_mispred";
      case CounterId::LoadInsts: return "load_insts";
      case CounterId::StoreInsts: return "store_insts";
      case CounterId::DiskFault: return "disk_fault";
      case CounterId::DiskRetry: return "disk_retry";
      case CounterId::DiskGiveUp: return "disk_giveup";
      case CounterId::NumCounters: break;
    }
    panic("counterName: invalid counter id");
}

ExecMode
checkpointExecMode(std::uint64_t raw, const char *what)
{
    if (raw >= std::uint64_t(numExecModes)) {
        throw CheckpointError(msg() << what << ": execution mode "
                                    << raw << " out of range (only "
                                    << numExecModes << " modes)");
    }
    return ExecMode(raw);
}

std::uint64_t
CounterBank::total(CounterId id) const
{
    std::uint64_t sum = 0;
    for (int m = 0; m < numExecModes; ++m)
        sum += values[m][static_cast<int>(id)];
    return sum;
}

void
CounterBank::clear()
{
    for (auto &row : values)
        row.fill(0);
}

void
CounterBank::accumulate(const CounterBank &other)
{
    for (int m = 0; m < numExecModes; ++m)
        for (int c = 0; c < numCounters; ++c)
            values[m][c] += other.values[m][c];
}

void
CounterBank::saveState(ChunkWriter &out) const
{
    out.u32(std::uint32_t(currentMode));
    for (const auto &row : values)
        for (std::uint64_t cell : row)
            out.varint(cell);
}

void
CounterBank::loadState(ChunkReader &in)
{
    currentMode =
        int(checkpointExecMode(in.u32(), "counter bank mode"));
    for (auto &row : values)
        for (std::uint64_t &cell : row)
            cell = in.varint();
}

} // namespace softwatt

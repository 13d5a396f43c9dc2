/**
 * @file
 * Tests for the MXS-like out-of-order superscalar CPU model.
 */

#include <gtest/gtest.h>

#include "cpu/stream_gen.hh"
#include "cpu/superscalar_cpu.hh"
#include "mem/hierarchy.hh"
#include "sim/counter_sink.hh"

#include "stub_kernel.hh"

using namespace softwatt;

namespace
{

struct Fixture
{
    MachineParams machine;
    CounterSink sink;
    CacheHierarchy hierarchy{machine, sink};
    Tlb tlb{64};
    StubKernel kernel{&tlb};
    SuperscalarCpu cpu{machine, hierarchy, tlb, sink, kernel};

    void
    run(int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            cpu.cycle();
    }
};

StreamSpec
parallelSpec()
{
    StreamSpec s;
    s.fracLoad = 0;
    s.fracStore = 0;
    s.fracBranch = 0;
    s.fracFp = 0;
    s.fracNop = 0.5;
    s.depProb = 0.0;
    s.kernelMapped = true;
    s.codeFootprint = 512;  // warms the I-cache quickly
    return s;
}

} // namespace

TEST(SuperscalarCpu, ParallelCodeExceedsScalarIpc)
{
    Fixture f;
    StreamGen gen(parallelSpec(), 1);
    f.kernel.fallback = &gen;
    f.run(10000);
    EXPECT_GT(f.cpu.ipc(), 1.5);
    EXPECT_LE(f.cpu.ipc(), 4.0);
}

TEST(SuperscalarCpu, SerialChainLimitsIpcToOne)
{
    Fixture f;
    StreamSpec s = parallelSpec();
    s.fracNop = 0;
    s.depProb = 1.0;
    s.depWindow = 1;
    StreamGen gen(s, 1);
    f.kernel.fallback = &gen;
    f.run(10000);
    EXPECT_LE(f.cpu.ipc(), 1.1);
    EXPECT_GT(f.cpu.ipc(), 0.6);
}

TEST(SuperscalarCpu, CommitsInProgramOrder)
{
    Fixture f;
    // A slow load followed by fast ALUs: ALUs finish first but must
    // commit after the load.
    f.kernel.push(loadOp(0x100, 0x80000));
    f.kernel.push(aluOp(0x104));
    f.kernel.push(aluOp(0x108));
    f.run(400);
    ASSERT_EQ(f.kernel.committed.size(), 3u);
    EXPECT_EQ(f.kernel.committed[0], 0x100u);
    EXPECT_EQ(f.kernel.committed[1], 0x104u);
    EXPECT_EQ(f.kernel.committed[2], 0x108u);
}

TEST(SuperscalarCpu, IndependentWorkOverlapsLoadMiss)
{
    // With a cold load plus independent ALU work, total time is far
    // less than the sum of both executed serially.
    Fixture serial_f, overlap_f;

    serial_f.kernel.push(loadOp(0x100, 0x80000));
    int serial_cycles = 0;
    while (serial_f.kernel.committed.size() < 1) {
        serial_f.cpu.cycle();
        ++serial_cycles;
    }

    // Warm the ALU code lines so fetch misses don't mask overlap.
    for (int i = 0; i < 40; ++i)
        overlap_f.kernel.push(aluOp(0x200 + 4 * i));
    overlap_f.run(400);
    overlap_f.kernel.committed.clear();
    overlap_f.kernel.push(loadOp(0x100, 0x80000));
    for (int i = 0; i < 40; ++i)
        overlap_f.kernel.push(aluOp(0x200 + 4 * i));
    int overlap_cycles = 0;
    while (overlap_f.kernel.committed.size() < 41 &&
           overlap_cycles < 2000) {  // 1 load + 40 warm ALUs
        overlap_f.cpu.cycle();
        ++overlap_cycles;
    }
    // 40 extra instructions cost at most ~15 extra cycles.
    EXPECT_LT(overlap_cycles, serial_cycles + 20);
}

TEST(SuperscalarCpu, TlbMissIsPreciseException)
{
    Fixture f;
    for (int i = 0; i < 8; ++i)
        f.kernel.push(aluOp(0x100 + 4 * i));
    f.kernel.push(loadOp(0x200, 0x40002000, false));
    for (int i = 0; i < 8; ++i)
        f.kernel.push(aluOp(0x300 + 4 * i));
    f.run(500);
    EXPECT_EQ(f.kernel.tlbMisses, 1);
    // All 17 instructions commit exactly once despite the trap.
    EXPECT_EQ(f.kernel.committed.size(), 17u);
    // Older instructions committed BEFORE the trap was raised.
    EXPECT_EQ(f.kernel.lastMissAddr, 0x40002000u);
}

TEST(SuperscalarCpu, ReplayedOpsFollowHandlerOrder)
{
    Fixture f;
    f.kernel.push(loadOp(0x200, 0x40002000, false));
    f.kernel.push(aluOp(0x204));
    f.run(500);
    ASSERT_EQ(f.kernel.committed.size(), 2u);
    EXPECT_EQ(f.kernel.committed[0], 0x200u);
    EXPECT_EQ(f.kernel.committed[1], 0x204u);
    // The faulting load plus the younger op were handed back.
    EXPECT_GE(f.kernel.lastReplaySize, 1u);
}

TEST(SuperscalarCpu, SyscallSerializesAndNotifies)
{
    Fixture f;
    MicroOp sys;
    sys.cls = InstClass::Syscall;
    sys.pc = 0x150;
    sys.syscallId = 7;
    f.kernel.push(aluOp(0x100));
    f.kernel.push(sys);
    f.kernel.push(aluOp(0x200));
    f.run(300);
    ASSERT_EQ(f.kernel.syscallIds.size(), 1u);
    EXPECT_EQ(f.kernel.syscallIds[0], 7u);
    // The op after the syscall still commits (fetch resumed).
    EXPECT_EQ(f.kernel.committed.size(), 3u);
    EXPECT_EQ(f.kernel.committed[2], 0x200u);
}

TEST(SuperscalarCpu, InterruptSquashesAndReplays)
{
    Fixture f;
    StreamSpec s = parallelSpec();
    StreamGen gen(s, 2);
    f.kernel.fallback = &gen;
    f.run(2000);  // warm up: keep the pipeline full
    std::size_t committed_before = f.kernel.committed.size();
    f.kernel.intPending = true;
    f.run(5);
    EXPECT_EQ(f.kernel.interruptsTaken, 1);
    EXPECT_GT(f.kernel.replayServed, 0u);
    EXPECT_GT(f.kernel.committed.size(), committed_before);
}

TEST(SuperscalarCpu, SquashAllCollectPreservesOrder)
{
    Fixture f;
    // Warm the I-cache lines first so fetch is not stalled.
    f.kernel.push(aluOp(0x100));
    for (int i = 0; i < 5; ++i)
        f.kernel.push(aluOp(0x200 + 4 * i));
    f.run(400);
    f.kernel.committed.clear();
    f.kernel.push(loadOp(0x100, 0x80000));  // slow: keeps in flight
    for (int i = 0; i < 5; ++i)
        f.kernel.push(aluOp(0x200 + 4 * i));
    f.run(10);
    auto replay = f.cpu.squashAllCollect();
    ASSERT_GE(replay.size(), 2u);
    for (std::size_t i = 1; i < replay.size(); ++i)
        EXPECT_LT(replay[i - 1].pc, replay[i].pc);
    EXPECT_TRUE(f.cpu.pipelineEmpty());
}

TEST(SuperscalarCpu, FetchBreaksAtTakenBranch)
{
    Fixture f;
    // All-taken predictable branches: fetch can bring at most one
    // branch per cycle, capping IPC around 1.
    StreamSpec s = parallelSpec();
    s.fracNop = 0;
    s.fracBranch = 1.0;
    s.takenProb = 1.0;
    s.predictability = 1.0;
    StreamGen gen(s, 3);
    f.kernel.fallback = &gen;
    f.run(2000);
    EXPECT_LE(f.cpu.ipc(), 1.2);
}

TEST(SuperscalarCpu, MispredictsStallFetch)
{
    Fixture lo_f, hi_f;
    StreamSpec predictable = parallelSpec();
    predictable.fracNop = 0.3;
    predictable.fracBranch = 0.2;
    predictable.predictability = 1.0;
    StreamSpec random_branches = predictable;
    random_branches.predictability = 0.0;
    random_branches.takenProb = 0.5;

    StreamGen lo(random_branches, 4), hi(predictable, 4);
    lo_f.kernel.fallback = &lo;
    hi_f.kernel.fallback = &hi;
    lo_f.run(4000);
    hi_f.run(4000);
    EXPECT_LT(lo_f.cpu.predictor().accuracy(),
              hi_f.cpu.predictor().accuracy());
    EXPECT_LT(lo_f.cpu.ipc(), hi_f.cpu.ipc());
    EXPECT_GT(lo_f.cpu.mispredictStallCycles(),
              hi_f.cpu.mispredictStallCycles());
}

TEST(SuperscalarCpu, WindowCountersTrackDispatchAndIssue)
{
    Fixture f;
    for (int i = 0; i < 10; ++i)
        f.kernel.push(aluOp(0x100 + 4 * i, 1, 2));
    f.run(100);
    const CounterBank &bank = f.sink.global();
    // Insert + wakeup per instruction.
    EXPECT_EQ(bank.get(ExecMode::User, CounterId::IssueWindowOp),
              20u);
    EXPECT_EQ(bank.get(ExecMode::User, CounterId::RenameOp), 10u);
    EXPECT_EQ(bank.get(ExecMode::User, CounterId::RegFileWrite),
              10u);
}

TEST(SuperscalarCpu, EndsOnlyWhenDrained)
{
    Fixture f;
    f.kernel.endWhenEmpty = true;
    f.kernel.push(loadOp(0x100, 0x80000));
    bool alive = true;
    int cycles = 0;
    while (alive && cycles < 1000) {
        alive = f.cpu.cycle();
        ++cycles;
    }
    EXPECT_FALSE(alive);
    EXPECT_EQ(f.kernel.committed.size(), 1u);
    EXPECT_GE(cycles, f.machine.memoryLatency);
}

namespace
{

MicroOp
fpOp(Addr pc, std::uint8_t src, std::uint8_t dst)
{
    MicroOp op = aluOp(pc, src, dst);
    op.cls = InstClass::FpAlu;
    return op;
}

/** Commit one line's worth of ALU ops so the scripted code hits. */
void
warmCodeLine(Fixture &f, Addr line)
{
    for (int i = 0; i < 16; ++i)
        f.kernel.push(aluOp(line + 4 * i));
    f.run(300);
    f.kernel.committed.clear();
}

/**
 * Run until @p count further instructions commit (at most @p limit
 * cycles) and return the cycle each committed in, counted from the
 * CPU's cycle @p since.
 */
std::vector<int>
commitCycles(Fixture &f, std::size_t count, std::uint64_t since,
             int limit = 1000)
{
    std::vector<int> cycles;
    std::size_t start = f.kernel.committed.size();
    for (int c = 0; c < limit && cycles.size() < count; ++c) {
        f.cpu.cycle();
        while (start + cycles.size() < f.kernel.committed.size())
            cycles.push_back(int(f.cpu.cyclesRun() - since));
    }
    return cycles;
}

} // namespace

TEST(SuperscalarCpu, BothSourcesOnOneProducerWakeOnce)
{
    Fixture f;
    warmCodeLine(f, 0x100);
    f.kernel.push(loadOp(0x100, 0x90000));  // cold miss, writes r1
    MicroOp both = aluOp(0x104, 1, 2);
    both.srcB = 1;                          // depA == depB
    f.kernel.push(both);
    f.kernel.push(aluOp(0x108, 2, 3));
    f.kernel.push(aluOp(0x10c));
    std::vector<int> cycles = commitCycles(f, 4, f.cpu.cyclesRun());
    EXPECT_EQ(cycles, (std::vector<int>{75, 76, 77, 77}));
}

TEST(SuperscalarCpu, WritebackWakesSameCycleIssue)
{
    // Each op of a dependent chain issues in the cycle its producer
    // is written back: one-cycle ALU links commit on consecutive
    // cycles, three-cycle FP links three apart. The FP links name
    // their producer as the second source.
    Fixture f;
    warmCodeLine(f, 0x100);
    for (int i = 0; i < 4; ++i)
        f.kernel.push(aluOp(0x100 + 4 * i, 10 + i, 11 + i));
    for (int i = 4; i < 8; ++i) {
        MicroOp link = fpOp(0x100 + 4 * i, noReg, 11 + i);
        link.srcB = std::uint8_t(10 + i);
        f.kernel.push(link);
    }
    std::vector<int> cycles = commitCycles(f, 8, f.cpu.cyclesRun());
    EXPECT_EQ(cycles, (std::vector<int>{5, 6, 7, 8, 11, 14, 17, 20}));
}

TEST(SuperscalarCpu, SquashDropsConsumersOfSurvivingProducer)
{
    // The load commits; an interrupt in the next cycle squashes its
    // two consumers (one issued, one completed) and the two ops
    // waiting further down the FP chain. The replayed ops must
    // neither wait on the retired load nor be woken by stale state of
    // their squashed copies.
    Fixture f;
    warmCodeLine(f, 0x100);
    f.kernel.push(loadOp(0x100, 0x90000));
    f.kernel.push(fpOp(0x104, 1, 2));
    f.kernel.push(fpOp(0x108, 2, 3));
    f.kernel.push(fpOp(0x10c, 3, 4));
    f.kernel.push(aluOp(0x110, 1, 5));
    std::uint64_t since = f.cpu.cyclesRun();
    std::vector<int> cycles = commitCycles(f, 1, since);
    f.kernel.intPending = true;
    std::vector<int> rest = commitCycles(f, 4, since);
    cycles.insert(cycles.end(), rest.begin(), rest.end());
    EXPECT_EQ(f.kernel.interruptsTaken, 1);
    EXPECT_EQ(f.kernel.lastReplaySize, 4u);
    EXPECT_EQ(cycles, (std::vector<int>{75, 82, 85, 88, 88}));
}

/**
 * @file
 * Tests for the Mipsy-like in-order CPU model.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "cpu/inorder_cpu.hh"
#include "cpu/stream_gen.hh"
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
    InOrderCpu cpu{machine, hierarchy, tlb, sink, kernel};

    void
    run(int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            cpu.cycle();
    }
};

} // namespace

TEST(InOrderCpu, ExecutesScriptedOpsInOrder)
{
    Fixture f;
    f.kernel.push(aluOp(0x100));
    f.kernel.push(aluOp(0x104));
    f.kernel.push(aluOp(0x108));
    f.run(400);
    ASSERT_EQ(f.kernel.committed.size(), 3u);
    EXPECT_EQ(f.kernel.committed[0], 0x100u);
    EXPECT_EQ(f.kernel.committed[2], 0x108u);
    EXPECT_EQ(f.cpu.committedInsts(), 3u);
}

TEST(InOrderCpu, IpcAtMostOne)
{
    Fixture f;
    StreamSpec spec;
    spec.fracLoad = 0;
    spec.fracStore = 0;
    spec.fracBranch = 0;
    spec.fracFp = 0;
    spec.fracNop = 0;
    spec.kernelMapped = true;
    spec.codeFootprint = 512;  // warms the I-cache quickly
    StreamGen gen(spec, 1);
    f.kernel.fallback = &gen;
    f.run(4000);
    EXPECT_LE(f.cpu.ipc(), 1.0);
    EXPECT_GT(f.cpu.ipc(), 0.4);
}

TEST(InOrderCpu, CacheMissesStall)
{
    Fixture f;
    // Two loads to distinct cold lines: each walks to memory.
    f.kernel.push(loadOp(0x100, 0x10000));
    f.kernel.push(loadOp(0x104, 0x20000));
    int cycles = 0;
    while (f.kernel.committed.size() < 2 && cycles < 1000) {
        f.cpu.cycle();
        ++cycles;
    }
    // At least two memory walks' worth of stall cycles.
    EXPECT_GE(cycles, 2 * f.machine.memoryLatency);
}

TEST(InOrderCpu, TlbMissTrapsAndReplays)
{
    Fixture f;
    f.kernel.push(loadOp(0x100, 0x40001000, false));
    f.run(300);
    EXPECT_EQ(f.kernel.tlbMisses, 1);
    EXPECT_EQ(f.kernel.lastMissAddr, 0x40001000u);
    EXPECT_EQ(f.kernel.lastReplaySize, 1u);
    // The replayed load eventually commits exactly once.
    ASSERT_EQ(f.kernel.committed.size(), 1u);
    EXPECT_EQ(f.kernel.committed[0], 0x100u);
}

TEST(InOrderCpu, SecondAccessToSamePageHits)
{
    Fixture f;
    f.kernel.push(loadOp(0x100, 0x40001000, false));
    f.kernel.push(loadOp(0x104, 0x40001008, false));
    f.run(500);
    EXPECT_EQ(f.kernel.tlbMisses, 1);
    EXPECT_EQ(f.kernel.committed.size(), 2u);
}

TEST(InOrderCpu, SyscallNotifiesKernelAtCommit)
{
    Fixture f;
    MicroOp sys;
    sys.cls = InstClass::Syscall;
    sys.pc = 0x200;
    sys.syscallId = 42;
    f.kernel.push(aluOp(0x100));
    f.kernel.push(sys);
    f.run(400);
    ASSERT_EQ(f.kernel.syscallIds.size(), 1u);
    EXPECT_EQ(f.kernel.syscallIds[0], 42u);
}

TEST(InOrderCpu, InterruptTakenBetweenInstructions)
{
    Fixture f;
    for (int i = 0; i < 10; ++i)
        f.kernel.push(aluOp(0x100 + 4 * i));
    f.cpu.cycle();
    f.kernel.intPending = true;
    f.run(100);
    EXPECT_EQ(f.kernel.interruptsTaken, 1);
}

TEST(InOrderCpu, CountersChargedToOpMode)
{
    Fixture f;
    MicroOp op = aluOp(0x100, 2, 3);
    op.mode = ExecMode::KernelSync;
    f.kernel.push(op);
    f.run(200);
    EXPECT_EQ(f.sink.global().get(ExecMode::KernelSync,
                                  CounterId::IntAluOp),
              1u);
    EXPECT_EQ(f.sink.global().get(ExecMode::KernelSync,
                                  CounterId::CommittedInsts),
              1u);
}

TEST(InOrderCpu, StopsOnEndWhenDrained)
{
    Fixture f;
    f.kernel.endWhenEmpty = true;
    f.kernel.push(aluOp(0x100));
    bool alive = true;
    for (int i = 0; i < 100 && alive; ++i)
        alive = f.cpu.cycle();
    EXPECT_FALSE(alive);
    EXPECT_TRUE(f.cpu.pipelineEmpty());
    EXPECT_EQ(f.cpu.committedInsts(), 1u);
}

TEST(InOrderCpu, SquashAllCollectReturnsInFlight)
{
    Fixture f;
    f.kernel.push(loadOp(0x100, 0x90000));  // long memory stall
    f.cpu.cycle();
    ASSERT_FALSE(f.cpu.pipelineEmpty());
    auto replay = f.cpu.squashAllCollect();
    ASSERT_EQ(replay.size(), 1u);
    EXPECT_EQ(replay[0].pc, 0x100u);
    EXPECT_TRUE(f.cpu.pipelineEmpty());
}

TEST(InOrderCpu, NoIssueWindowActivity)
{
    // Mipsy has no rename/issue-window/LSQ: their counters stay 0,
    // which is what makes its datapath power small (Fig. 3).
    Fixture f;
    f.kernel.push(aluOp(0x100, 1, 2));
    f.kernel.push(loadOp(0x104, 0x5000));
    f.run(300);
    EXPECT_EQ(f.sink.global().total(CounterId::IssueWindowOp), 0u);
    EXPECT_EQ(f.sink.global().total(CounterId::RenameOp), 0u);
    EXPECT_EQ(f.sink.global().total(CounterId::LsqOp), 0u);
}

TEST(InOrderCpu, SkippingQuietCyclesMatchesSteppingThem)
{
    // One machine steps every cycle; its twin charges quiet stall
    // cycles in bulk, in uneven pieces. Over the same number of cycles
    // both must commit the same instructions and leave identical
    // counters, cycle attribution and cache state.
    StreamSpec spec;
    spec.dataFootprint = 4 * 1024 * 1024;
    spec.hotFootprint = 256 * 1024;
    spec.coldAccessProb = 0.05;
    spec.mode = ExecMode::KernelInst;
    StreamGen stepped_gen(spec, 3), skipping_gen(spec, 3);
    Fixture stepped, skipping;
    stepped.kernel.fallback = &stepped_gen;
    skipping.kernel.fallback = &skipping_gen;

    const Cycles total = 20'000;
    stepped.run(int(total));
    Cycles skipped = 0;
    while (skipping.cpu.cyclesRun() < total) {
        Cycles quiet = skipping.cpu.quietCycles();
        Cycles left = total - skipping.cpu.cyclesRun();
        if (quiet == 0) {
            skipping.cpu.cycle();
            continue;
        }
        Cycles n = std::min({quiet, (quiet + 1) / 2, left});
        skipping.cpu.skipQuietCycles(n);
        skipped += n;
    }
    EXPECT_GT(skipped, total / 4);

    EXPECT_EQ(skipping.cpu.committedInsts(), stepped.cpu.committedInsts());
    EXPECT_EQ(skipping.cpu.quietCycles(), stepped.cpu.quietCycles());
    EXPECT_EQ(skipping.kernel.committed, stepped.kernel.committed);
    ChunkWriter stepped_state, skipping_state;
    stepped.sink.saveState(stepped_state);
    skipping.sink.saveState(skipping_state);
    stepped.hierarchy.saveState(stepped_state);
    skipping.hierarchy.saveState(skipping_state);
    EXPECT_EQ(skipping_state.bytes(), stepped_state.bytes());
}

TEST(InOrderCpu, QuietCyclesLeaveTheRetiringCycle)
{
    Fixture f;
    EXPECT_EQ(f.cpu.quietCycles(), 0u);  // nothing in flight
    f.kernel.push(loadOp(0x100, 0x90000));  // long memory stall
    f.cpu.cycle();
    Cycles quiet = f.cpu.quietCycles();
    ASSERT_GT(quiet, 0u);
    f.cpu.skipQuietCycles(quiet);
    EXPECT_EQ(f.cpu.quietCycles(), 0u);
    EXPECT_EQ(f.cpu.committedInsts(), 0u);
    f.cpu.cycle();  // the retiring cycle
    EXPECT_EQ(f.cpu.committedInsts(), 1u);
    EXPECT_EQ(f.cpu.cyclesRun(), quiet + 2);
}

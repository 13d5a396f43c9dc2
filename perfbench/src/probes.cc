#include "probes.hh"

#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <vector>

#include "core/idle_profile.hh"
#include "cpu/inorder_cpu.hh"
#include "cpu/kernel_iface.hh"
#include "cpu/stream_gen.hh"
#include "cpu/superscalar_cpu.hh"
#include "disk/disk.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"
#include "os/file_system.hh"
#include "os/service_streams.hh"
#include "sim/counter_sink.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/workload.hh"

#include "report.hh"

using namespace softwatt;

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Work sizes, per benchmark of the workload. */
constexpr std::uint64_t kCpuCycles = 150'000;
constexpr std::uint64_t kReplayOps = 400'000;
constexpr int kStreamBuilds = 400;
constexpr int kDiskRequests = 4'000;
constexpr int kIdleProfiles = 3;

/** Results folded in here so the optimizer keeps the probed work. */
volatile std::uint64_t probeSink = 0;

/**
 * Stub kernel feeding a benchmark's main-phase mix to a bare CPU:
 * zero-cost TLB refills with replay, no syscalls or interrupts (the
 * BM_SuperscalarCycle set-up, with real mixes).
 */
class MixKernel : public KernelIface
{
  public:
    MixKernel(const StreamSpec &spec, std::uint64_t seed, Tlb &tlb)
        : gen(spec, seed), tlb(tlb)
    {}

    FetchOutcome
    fetchNext(MicroOp &op) override
    {
        if (!replay.empty()) {
            op = replay.front();
            replay.pop_front();
            return FetchOutcome::Op;
        }
        return gen.next(op);
    }

    void
    dataTlbMiss(Addr vaddr, std::uint32_t asid,
                std::vector<MicroOp> ops) override
    {
        tlb.insert(asid, vaddr);
        for (auto it = ops.rbegin(); it != ops.rend(); ++it)
            replay.push_front(*it);
    }

    void syscall(const MicroOp &) override {}
    void onCommit(const MicroOp &) override {}
    bool interruptPending() const override { return false; }
    void takeInterrupt(std::vector<MicroOp> ops) override
    {
        for (auto it = ops.rbegin(); it != ops.rend(); ++it)
            replay.push_front(*it);
    }
    void onPipelineEmpty() override {}
    ExecMode currentStreamMode() const override
    {
        return ExecMode::User;
    }
    std::uint32_t privilegedTag() const override { return 0; }

  private:
    StreamGen gen;
    Tlb &tlb;
    std::deque<MicroOp> replay;
};

WorkloadSpec
scaledSpec(const RunSpec &rs)
{
    WorkloadSpec ws = benchmarkSpec(rs.bench);
    return rs.scale != 1.0 ? scaleWorkload(ws, rs.scale) : ws;
}

double
cpuNsPerCycle(const ExperimentSpec &spec, CpuModel model)
{
    double seconds = 0;
    std::uint64_t cycles = 0;
    for (const RunSpec &rs : spec.runs) {
        const MachineParams &machine = rs.config.machine;
        WorkloadSpec ws = benchmarkSpec(rs.bench);
        CounterSink sink;
        CacheHierarchy hierarchy(machine, sink);
        Tlb tlb(machine.tlbEntries, machine.pageBytes);
        MixKernel kernel(ws.mainSpec, ws.seed, tlb);
        std::unique_ptr<Cpu> cpu;
        if (model == CpuModel::Superscalar) {
            cpu = std::make_unique<SuperscalarCpu>(machine, hierarchy,
                                                   tlb, sink, kernel);
        } else {
            cpu = std::make_unique<InOrderCpu>(machine, hierarchy, tlb,
                                               sink, kernel);
        }
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t c = 0; c < kCpuCycles; ++c)
            cpu->cycle();
        seconds += secondsSince(t0);
        cycles += kCpuCycles;
        probeSink = probeSink + cpu->committedInsts();
    }
    return seconds / double(cycles) * 1e9;
}

/** The main-phase data/instruction stream of one benchmark. */
std::vector<MicroOp>
replayStream(const RunSpec &rs)
{
    WorkloadSpec ws = benchmarkSpec(rs.bench);
    StreamGen gen(ws.mainSpec, ws.seed);
    std::vector<MicroOp> ops(kReplayOps);
    for (MicroOp &op : ops)
        gen.next(op);
    return ops;
}

} // namespace

LayerProbes
runLayerProbes(const ExperimentSpec &spec, SpanRecorder &rec)
{
    LayerProbes p;
    if (spec.runs.empty())
        return p;
    const RunSpec &first = spec.runs.front();
    const MachineParams &machine = first.config.machine;
    const bool mxs = first.config.cpuModel == CpuModel::Superscalar;

    {
        ScopedSpan span(rec, "probe.cpu.mxs");
        p.cpuMxsNsPerCycle = cpuNsPerCycle(spec, CpuModel::Superscalar);
    }
    {
        ScopedSpan span(rec, "probe.cpu.mipsy");
        p.cpuMipsyNsPerCycle = cpuNsPerCycle(spec, CpuModel::InOrder);
    }

    double tlbS = 0, cacheS = 0;
    std::uint64_t lookups = 0, accesses = 0;
    for (const RunSpec &rs : spec.runs) {
        std::vector<MicroOp> ops = replayStream(rs);
        {
            ScopedSpan span(rec, "probe.mem.tlb");
            Tlb tlb(machine.tlbEntries, machine.pageBytes);
            std::uint64_t misses = 0;
            Clock::time_point t0 = Clock::now();
            for (const MicroOp &op : ops) {
                if (!op.isMemOp())
                    continue;
                ++lookups;
                if (!tlb.lookup(op.asid, op.memAddr)) {
                    tlb.insert(op.asid, op.memAddr);
                    ++misses;
                }
            }
            tlbS += secondsSince(t0);
            probeSink = probeSink + misses;
        }
        {
            ScopedSpan span(rec, "probe.mem.cache");
            CounterSink sink;
            CacheHierarchy hierarchy(machine, sink);
            int latency = 0;
            Clock::time_point t0 = Clock::now();
            for (const MicroOp &op : ops) {
                latency += hierarchy.ifetch(op.pc, op.mode).latency;
                ++accesses;
                if (op.isMemOp()) {
                    latency += hierarchy
                                   .dataAccess(op.memAddr,
                                               op.cls == InstClass::Store,
                                               op.mode)
                                   .latency;
                    ++accesses;
                }
            }
            cacheS += secondsSince(t0);
            probeSink = probeSink + std::uint64_t(latency);
        }
    }
    p.tlbNsPerLookup = tlbS / double(lookups) * 1e9;
    p.cacheNsPerAccess = cacheS / double(accesses) * 1e9;

    {
        ScopedSpan span(rec, "probe.os.stream_build");
        ServiceTuning tuning;
        std::uint64_t builds = 0;
        MicroOp op;
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kStreamBuilds; ++i) {
            for (ServiceKind kind : allServices) {
                if (kind == ServiceKind::Read ||
                    kind == ServiceKind::Write)
                    continue;  // IoService, not a fixed stream
                auto stream = makeFixedService(kind, tuning,
                                               std::uint64_t(i) + 1);
                stream->next(op);
                probeSink = probeSink + op.pc;
                ++builds;
            }
        }
        p.streamBuildNs = secondsSince(t0) / double(builds) * 1e9;
    }

    {
        ScopedSpan span(rec, "probe.workload.drain");
        double seconds = 0;
        std::uint64_t ops = 0;
        for (const RunSpec &rs : spec.runs) {
            FileSystem fs;
            Workload wl(scaledSpec(rs));
            wl.registerFiles(fs);
            MicroOp op;
            Clock::time_point t0 = Clock::now();
            while (wl.next(op) != FetchOutcome::End)
                ++ops;
            seconds += secondsSince(t0);
        }
        p.workloadNsPerOp = seconds / double(ops) * 1e9;
    }

    {
        ScopedSpan span(rec, "probe.core.idle_profile");
        std::vector<double> ms;
        for (int i = 0; i < kIdleProfiles; ++i) {
            Clock::time_point t0 = Clock::now();
            IdleProfile idle = measureIdleProfile(machine, mxs);
            ms.push_back(secondsSince(t0) * 1e3);
            probeSink = probeSink + std::uint64_t(idle.perCycle[0] * 1e6);
        }
        p.idleProfileMs = median(ms);
    }

    {
        ScopedSpan span(rec, "probe.disk.requests");
        EventQueue queue;
        Disk disk(queue, machine.freqMhz * 1e6, first.config.diskConfig,
                  first.config.timeScale,
                  first.config.kernelParams.seed ^ 0xd15c);
        Random rng(first.config.kernelParams.seed);
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kDiskRequests; ++i) {
            bool done = false;
            disk.submit(rng.below(1 << 20), 4,
                        [&done](DiskIoStatus) { done = true; });
            while (!done)
                queue.advanceTo(queue.nextEventTick());
        }
        p.diskNsPerRequest =
            secondsSince(t0) / double(kDiskRequests) * 1e9;
    }
    return p;
}

void
FinishedProbes::probe(const RunSpec &spec, System &sys,
                      SpanRecorder &rec)
{
    {
        ScopedSpan span(rec, "probe.power.replay");
        Clock::time_point t0 = Clock::now();
        PowerTrace trace = sys.powerCalculator().process(sys.log());
        powerS += secondsSince(t0);
        windows += sys.log().size();
        probeSink = probeSink + trace.windows.size();
    }
    if (!sys.checkpointSafeNow())
        return;
    const std::string path = dir + "/probe.ckpt";
    {
        ScopedSpan span(rec, "probe.sim.ckpt_save");
        Clock::time_point t0 = Clock::now();
        sys.writeCheckpointNow(path);
        saveS += secondsSince(t0);
        ++saves;
        bytes += std::filesystem::file_size(path);
    }
    {
        System fresh(spec.config);
        fresh.attachWorkload(std::make_unique<Workload>(scaledSpec(spec)));
        ScopedSpan span(rec, "probe.sim.ckpt_restore");
        Clock::time_point t0 = Clock::now();
        if (fresh.restoreCheckpoint(path)) {
            restoreS += secondsSince(t0);
            ++restores;
        }
    }
    std::filesystem::remove(path);
}

} // namespace perfbench

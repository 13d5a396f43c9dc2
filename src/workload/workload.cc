#include "workload.hh"

#include "os/service_streams.hh"
#include "os/syscalls.hh"
#include "sim/check.hh"
#include "sim/logging.hh"

namespace softwatt
{

namespace
{

/** Common shape of JIT-compiled user code. */
StreamSpec
userBase()
{
    StreamSpec s;
    s.mode = ExecMode::User;
    s.kernelMapped = false;
    s.asid = 1;
    s.fracLoad = 0.24;
    s.fracStore = 0.10;
    s.fracBranch = 0.12;
    s.fracFp = 0.02;
    s.fracNop = 0.10;
    s.codeBase = 0x10000000;
    s.codeFootprint = 24 * 1024;
    s.dataBase = 0x40000000;
    s.dataFootprint = 32 * 1024 * 1024;
    s.hotFootprint = 24 * 1024;
    s.coldAccessProb = 0.05;
    s.spatialLocality = 0.85;
    s.depProb = 0.30;
    s.depWindow = 4;
    s.predictability = 0.88;
    s.takenProb = 0.6;
    s.callFraction = 0.06;
    return s;
}

} // namespace

const char *
benchmarkName(Benchmark b)
{
    switch (b) {
      case Benchmark::Compress: return "compress";
      case Benchmark::Jess: return "jess";
      case Benchmark::Db: return "db";
      case Benchmark::Javac: return "javac";
      case Benchmark::Mtrt: return "mtrt";
      case Benchmark::Jack: return "jack";
    }
    panic("benchmarkName: invalid benchmark");
}

Benchmark
benchmarkByName(const std::string &name)
{
    for (Benchmark b : allBenchmarks) {
        if (name == benchmarkName(b))
            return b;
    }
    std::string known;
    for (Benchmark b : allBenchmarks) {
        if (!known.empty())
            known += ", ";
        known += benchmarkName(b);
    }
    fatal(msg() << "unknown benchmark '" << name << "' (expected "
                << known << ")");
}

WorkloadSpec
benchmarkSpec(Benchmark b)
{
    WorkloadSpec w;
    w.name = benchmarkName(b);
    w.mainSpec = userBase();

    switch (b) {
      case Benchmark::Compress:
        // Long-running stream compressor: sequential data, little
        // OS interaction, two cold sweeps over the input file.
        w.mainInsts = 22'000'000;
        w.mainSpec.fracLoad = 0.26;
        w.mainSpec.fracStore = 0.14;
        w.mainSpec.fracNop = 0.06;
        w.mainSpec.spatialLocality = 0.92;
        w.mainSpec.hotFootprint = 32 * 1024;
        w.mainSpec.coldAccessProb = 0.07;
        w.numClassFiles = 4;
        w.classFileBytes = 384 * 1024;
        w.sys.readsPerMInst = 1.0;
        w.sys.readBytesMin = 8 * 1024;
        w.sys.readBytesMax = 16 * 1024;
        w.sys.writesPerMInst = 0.15;
        w.coldBurstFracs = {0.35, 0.75};
        w.seed = 1001;
        break;
      case Benchmark::Jess:
        // Expert system: rule matching, OS-heavy, short run.
        w.mainInsts = 6'000'000;
        w.mainSpec.coldAccessProb = 0.090;
        w.mainSpec.spatialLocality = 0.75;
        w.numClassFiles = 8;
        w.classFileBytes = 160 * 1024;
        w.sys.readsPerMInst = 12.0;
        w.sys.bsdPerMInst = 15.0;
        w.seed = 1002;
        break;
      case Benchmark::Db:
        // In-memory database: scattered index lookups, du_poll.
        w.mainInsts = 6'000'000;
        w.mainSpec.fracLoad = 0.28;
        w.mainSpec.fracBranch = 0.14;
        w.mainSpec.fracNop = 0.04;
        w.mainSpec.spatialLocality = 0.80;
        w.mainSpec.depProb = 0.25;
        w.mainSpec.coldAccessProb = 0.090;
        w.numClassFiles = 6;
        w.classFileBytes = 160 * 1024;
        w.sys.readsPerMInst = 5.0;
        w.sys.writesPerMInst = 0.6;
        w.sys.duPollPerMInst = 3.4;
        w.seed = 1003;
        break;
      case Benchmark::Javac:
        // Compiler: big code footprint, allocation heavy.
        w.mainInsts = 13'000'000;
        w.mainSpec.fracBranch = 0.15;
        w.mainSpec.fracNop = 0.07;
        w.mainSpec.coldAccessProb = 0.100;
        w.numClassFiles = 10;
        w.classFileBytes = 128 * 1024;
        w.gcPeriodInsts = 1'000'000;
        w.sys.readsPerMInst = 2.4;
        w.sys.xstatPerMInst = 0.05;
        w.coldBurstFracs = {0.40, 0.80};
        w.seed = 1004;
        break;
      case Benchmark::Mtrt:
        // Multithreaded raytracer: FP heavy, two long quiet gaps
        // (both wider than the 4 s spin-down threshold).
        w.mainInsts = 22'000'000;
        w.mainSpec.fracFp = 0.14;
        w.mainSpec.fracLoad = 0.26;
        w.mainSpec.fracNop = 0.02;
        w.mainSpec.coldAccessProb = 0.056;
        w.numClassFiles = 6;
        w.classFileBytes = 128 * 1024;
        w.sys.readsPerMInst = 1.4;
        w.coldBurstFracs = {0.50, 0.995};
        w.seed = 1005;
        break;
      case Benchmark::Jack:
        // Parser generator: very OS-heavy, frequent small I/O.
        w.mainInsts = 24'000'000;
        w.mainSpec.codeFootprint = 28 * 1024;
        w.mainSpec.fracBranch = 0.14;
        w.mainSpec.fracNop = 0.08;
        w.mainSpec.coldAccessProb = 0.096;
        w.numClassFiles = 8;
        w.classFileBytes = 160 * 1024;
        w.sys.readsPerMInst = 8.3;
        w.sys.bsdPerMInst = 14.3;
        w.sys.writesPerMInst = 0.2;
        w.coldBurstFracs = {0.30, 0.90};
        w.seed = 1006;
        break;
    }
    return w;
}

WorkloadSpec
scaleWorkload(WorkloadSpec spec, double factor)
{
    auto scale = [factor](std::uint64_t v) {
        std::uint64_t s = std::uint64_t(double(v) * factor);
        return s > 0 ? s : 1;
    };
    spec.mainInsts = scale(spec.mainInsts);
    spec.loadComputeOps = scale(spec.loadComputeOps);
    spec.jitComputeOps = scale(spec.jitComputeOps);
    spec.gcPeriodInsts = scale(spec.gcPeriodInsts);
    spec.gcBurstInsts = scale(spec.gcBurstInsts);
    spec.classFileBytes = scale(spec.classFileBytes);
    if (spec.classFileBytes < 4096)
        spec.classFileBytes = 4096;
    return spec;
}

void
checkWorkloadScale(double factor)
{
    if (!(factor > 0.0) || factor > 1e6) {
        fatal(msg() << "config: scale must be in (0, 1e6] (got "
                    << factor << ")");
    }
}

Workload::Workload(const WorkloadSpec &spec)
    : wlSpec(spec), rng(spec.seed)
{
}

void
Workload::registerFiles(FileSystem &fs)
{
    for (int i = 0; i < wlSpec.numClassFiles; ++i)
        fileIds.push_back(fs.createFile(wlSpec.classFileBytes));
    coldFileId = fs.createFile(wlSpec.dataFileBytes);
    filesRegistered = true;
}

std::vector<AddrRange>
Workload::premapRanges() const
{
    // The steady-state heap (hot set and the cold sweep region) is
    // pre-mapped; TLB misses on it are pure utlb refills. The GC
    // allocation frontier is left unmapped.
    return {AddrRange{wlSpec.mainSpec.dataBase,
                      wlSpec.mainSpec.dataFootprint}};
}

MicroOp
Workload::makeSyscall(std::uint16_t id, std::uint64_t arg) const
{
    MicroOp op;
    op.pc = wlSpec.mainSpec.codeBase + 0x40;
    op.cls = InstClass::Syscall;
    op.mode = ExecMode::User;
    op.asid = wlSpec.mainSpec.asid;
    op.syscallId = id;
    op.syscallArg = arg;
    return op;
}

StreamSpec
Workload::gcSpec() const
{
    StreamSpec s = wlSpec.mainSpec;
    // Pointer chasing across the heap: poor locality, cold pages.
    s.fracLoad = 0.36;
    s.fracStore = 0.14;
    s.fracBranch = 0.14;
    s.fracFp = 0;
    s.spatialLocality = 0.30;
    s.coldAccessProb = wlSpec.mainSpec.coldAccessProb * 1.5;
    if (s.coldAccessProb > 0.3)
        s.coldAccessProb = 0.3;
    s.depProb = 0.55;
    s.depWindow = 2;
    return s;
}

void
Workload::queueMainSyscalls(std::uint64_t chunk_insts)
{
    const SyscallProfile &sys = wlSpec.sys;
    double m_insts = double(chunk_insts) / 1e6;

    auto count = [&](double per_m_inst) {
        double expected = per_m_inst * m_insts;
        std::uint64_t n = std::uint64_t(expected);
        if (rng.chance(expected - double(n)))
            ++n;
        return n;
    };

    auto pick_file = [&]() -> std::uint32_t {
        return fileIds[rng.below(fileIds.size())];
    };

    for (std::uint64_t i = 0; i < count(sys.readsPerMInst); ++i) {
        std::uint32_t bytes = std::uint32_t(
            rng.range(sys.readBytesMin, sys.readBytesMax));
        std::uint64_t offset = rng.below(wlSpec.classFileBytes);
        pendingSyscalls.push_back(
            makeSyscall(std::uint16_t(SyscallId::Read),
                        encodeIoArg(pick_file(), offset, bytes)));
    }
    for (std::uint64_t i = 0; i < count(sys.writesPerMInst); ++i) {
        std::uint64_t offset = rng.below(wlSpec.classFileBytes);
        pendingSyscalls.push_back(
            makeSyscall(std::uint16_t(SyscallId::Write),
                        encodeIoArg(pick_file(), offset,
                                    sys.writeBytes)));
    }
    for (std::uint64_t i = 0; i < count(sys.xstatPerMInst); ++i) {
        pendingSyscalls.push_back(
            makeSyscall(std::uint16_t(SyscallId::Xstat), 0));
    }
    for (std::uint64_t i = 0; i < count(sys.bsdPerMInst); ++i) {
        pendingSyscalls.push_back(
            makeSyscall(std::uint16_t(SyscallId::Bsd), 0));
    }
    for (std::uint64_t i = 0; i < count(sys.duPollPerMInst); ++i) {
        pendingSyscalls.push_back(
            makeSyscall(std::uint16_t(SyscallId::DuPoll), 0));
    }
    for (std::uint64_t i = 0; i < count(sys.openPerMInst); ++i) {
        pendingSyscalls.push_back(
            makeSyscall(std::uint16_t(SyscallId::Open),
                        encodeIoArg(pick_file(), 0, 0)));
    }
    if (sys.powerPollPerMInst > 0) {
        // Guarded so a zero rate draws no RNG: pre-existing
        // benchmark streams stay bit-identical.
        for (std::uint64_t i = 0;
             i < count(sys.powerPollPerMInst); ++i) {
            pendingSyscalls.push_back(makeSyscall(
                std::uint16_t(SyscallId::PowerRead), 0));
        }
    }
}

bool
Workload::advance(MicroOp &op)
{
    if (!filesRegistered)
        fatal("workload files were never registered");

    switch (phase) {
      case Phase::Load: {
        if (loadFileIndex >= int(fileIds.size())) {
            phase = Phase::Jit;
            return advance(op);
        }
        if (!loadOpened) {
            loadOpened = true;
            op = makeSyscall(
                std::uint16_t(SyscallId::Open),
                encodeIoArg(fileIds[loadFileIndex], 0, 0));
            return true;
        }
        if (loadOffset < wlSpec.classFileBytes) {
            std::uint32_t chunk = wlSpec.loadReadChunk;
            op = makeSyscall(
                std::uint16_t(SyscallId::Read),
                encodeIoArg(fileIds[loadFileIndex], loadOffset,
                            chunk));
            loadOffset += chunk;
            return true;
        }
        // File loaded: run linker/verifier compute, then next file.
        ++loadFileIndex;
        loadOffset = 0;
        loadOpened = false;
        StreamSpec load_spec = wlSpec.mainSpec;
        load_spec.coldAccessProb = 0;  // touches the warm heap only
        segment = std::make_unique<BoundedStream>(
            load_spec, wlSpec.seed + 100 + loadFileIndex,
            wlSpec.loadComputeOps);
        return false;
      }
      case Phase::Jit: {
        if (jitDone >= wlSpec.jitFlushes) {
            phase = Phase::Main;
            return advance(op);
        }
        if (jitDone > 0 && (jitDone % 2) == 1) {
            // The JIT emitted fresh code: flush the I-cache.
            ++jitDone;
            op = makeSyscall(std::uint16_t(SyscallId::CacheFlush), 0);
            return true;
        }
        ++jitDone;
        StreamSpec jit_spec = wlSpec.mainSpec;
        jit_spec.coldAccessProb = 0;
        jit_spec.fracStore = 0.18;  // emitting code
        segment = std::make_unique<BoundedStream>(
            jit_spec, wlSpec.seed + 200 + jitDone,
            wlSpec.jitComputeOps);
        return false;
      }
      case Phase::Main: {
        if (mainEmitted >= wlSpec.mainInsts) {
            phase = Phase::Done;
            return false;
        }
        if (sinceGc >= wlSpec.gcPeriodInsts) {
            sinceGc = 0;
            // GC: sweep the heap, then touch fresh allocation pages.
            auto seq = std::make_unique<SequenceStream>();
            seq->append(std::make_unique<BoundedStream>(
                gcSpec(), wlSpec.seed + 300 + int(mainEmitted / 1000),
                wlSpec.gcBurstInsts));
            StreamSpec alloc = wlSpec.mainSpec;
            alloc.dataBase = gcFreshBase;
            alloc.dataFootprint = 16 * 1024;
            alloc.hotFootprint = 16 * 1024;
            alloc.coldAccessProb = 0;
            alloc.fracStore = 0.30;
            alloc.spatialLocality = 0.95;
            gcFreshBase += 16 * 1024;
            seq->append(std::make_unique<BoundedStream>(
                alloc, wlSpec.seed + 301 + int(mainEmitted / 1000),
                wlSpec.gcBurstInsts / 8));
            segment = std::move(seq);
            mainEmitted += wlSpec.gcBurstInsts;
            return false;
        }

        // Cold I/O bursts at the configured points of the run.
        double frac = double(mainEmitted) / double(wlSpec.mainInsts);
        if (nextColdBurst < wlSpec.coldBurstFracs.size() &&
            frac >= wlSpec.coldBurstFracs[nextColdBurst]) {
            ++nextColdBurst;
            // Stream a fresh, never-cached region of the data file.
            std::uint32_t burst_bytes = 128 * 1024;
            std::uint32_t chunk = 8 * 1024;
            for (std::uint32_t off = 0; off < burst_bytes;
                 off += chunk) {
                pendingSyscalls.push_back(makeSyscall(
                    std::uint16_t(SyscallId::Read),
                    encodeIoArg(coldFileId, coldOffset + off,
                                chunk)));
            }
            coldOffset += burst_bytes;
        }

        std::uint64_t chunk = 200'000;
        std::uint64_t remaining = wlSpec.mainInsts - mainEmitted;
        if (chunk > remaining)
            chunk = remaining;
        std::uint64_t to_gc = wlSpec.gcPeriodInsts - sinceGc;
        if (chunk > to_gc)
            chunk = to_gc;
        segment = std::make_unique<BoundedStream>(
            wlSpec.mainSpec, wlSpec.seed + 400 + int(mainEmitted),
            chunk);
        mainEmitted += chunk;
        sinceGc += chunk;
        queueMainSyscalls(chunk);
        return false;
      }
      case Phase::Done:
        return false;
    }
    return false;
}

namespace
{

// Segment type tags in a workload chunk.
constexpr std::uint8_t segmentNone = 0;
constexpr std::uint8_t segmentBounded = 1;
constexpr std::uint8_t segmentSequence = 2;

/** A BoundedStream shell for loadState to fill. */
std::unique_ptr<BoundedStream>
emptyBoundedStream()
{
    return std::make_unique<BoundedStream>(StreamSpec{}, 0, 0);
}

} // namespace

void
Workload::saveState(ChunkWriter &out) const
{
    out.u64(rng.rawState());
    out.u8(std::uint8_t(phase));
    out.u64(numEmitted);
    out.u32(std::uint32_t(loadFileIndex));
    out.u64(loadOffset);
    out.b(loadOpened);
    out.u32(std::uint32_t(jitDone));
    out.u64(mainEmitted);
    out.u64(sinceGc);
    out.u64(gcFreshBase);
    out.u64(nextColdBurst);
    out.u64(coldOffset);
    out.u64(pendingSyscalls.size());
    for (const MicroOp &op : pendingSyscalls)
        saveMicroOp(out, op);

    if (!segment) {
        out.u8(segmentNone);
        return;
    }
    if (auto *bounded =
            dynamic_cast<const BoundedStream *>(segment.get())) {
        out.u8(segmentBounded);
        bounded->saveState(out);
        return;
    }
    auto *seq = dynamic_cast<const SequenceStream *>(segment.get());
    SW_CHECK(seq != nullptr,
             "workload segment is neither bounded nor a sequence");
    out.u8(segmentSequence);
    out.u64(seq->partCount());
    out.u64(seq->partIndex());
    for (std::size_t i = 0; i < seq->partCount(); ++i) {
        auto *part =
            dynamic_cast<const BoundedStream *>(&seq->part(i));
        SW_CHECK(part != nullptr,
                 "workload sequence part is not a bounded stream");
        part->saveState(out);
    }
}

void
Workload::loadState(ChunkReader &in)
{
    SW_CHECK(filesRegistered,
             "Workload::loadState before registerFiles()");
    rng.setRawState(in.u64());
    phase = Phase(in.u8());
    numEmitted = in.u64();
    loadFileIndex = int(in.u32());
    loadOffset = in.u64();
    loadOpened = in.b();
    jitDone = int(in.u32());
    mainEmitted = in.u64();
    sinceGc = in.u64();
    gcFreshBase = in.u64();
    nextColdBurst = std::size_t(in.u64());
    coldOffset = in.u64();
    pendingSyscalls.clear();
    std::uint64_t pending_count = in.u64();
    for (std::uint64_t i = 0; i < pending_count; ++i)
        pendingSyscalls.push_back(loadMicroOp(in));

    std::uint8_t tag = in.u8();
    if (tag == segmentNone) {
        segment.reset();
    } else if (tag == segmentBounded) {
        auto bounded = emptyBoundedStream();
        bounded->loadState(in);
        segment = std::move(bounded);
    } else if (tag == segmentSequence) {
        auto seq = std::make_unique<SequenceStream>();
        std::uint64_t part_count = in.u64();
        std::uint64_t part_index = in.u64();
        for (std::uint64_t i = 0; i < part_count; ++i) {
            auto part = emptyBoundedStream();
            part->loadState(in);
            seq->append(std::move(part));
        }
        seq->setPartIndex(std::size_t(part_index));
        segment = std::move(seq);
    } else {
        throw CheckpointError(
            msg() << "workload chunk has unknown segment tag "
                  << int(tag));
    }
}

FetchOutcome
Workload::next(MicroOp &op)
{
    while (true) {
        if (!pendingSyscalls.empty()) {
            op = pendingSyscalls.front();
            pendingSyscalls.pop_front();
            ++numEmitted;
            return FetchOutcome::Op;
        }
        if (segment) {
            FetchOutcome outcome = segment->next(op);
            if (outcome == FetchOutcome::Op) {
                ++numEmitted;
                return FetchOutcome::Op;
            }
            segment.reset();
            continue;
        }
        if (phase == Phase::Done)
            return FetchOutcome::End;
        if (advance(op)) {
            ++numEmitted;
            return FetchOutcome::Op;
        }
        if (phase == Phase::Done)
            return FetchOutcome::End;
    }
}

} // namespace softwatt

/**
 * @file
 * Synthetic SPEC JVM98 workload equivalents.
 *
 * Each benchmark is an instruction stream with the phase structure of
 * a JIT-mode JVM run: class loading from disk (open/read syscalls,
 * cold buffer cache), JIT warm-up (compute bursts punctuated by
 * cacheflush), then the benchmark's main computation with periodic
 * garbage-collection bursts (pointer-chasing over fresh pages, the
 * source of demand_zero and TLB-refill activity) and the benchmark's
 * characteristic syscall profile.
 *
 * The per-benchmark parameters are calibrated so the *measured*
 * behaviour (kernel cycle share, cache references per cycle, service
 * mix) lands in the ranges of the paper's Tables 2-4.
 */

#ifndef SOFTWATT_WORKLOAD_WORKLOAD_HH
#define SOFTWATT_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "cpu/inst.hh"
#include "cpu/stream_gen.hh"
#include "os/file_system.hh"

namespace softwatt
{

/** Syscall issue rates during the main compute phase. */
struct SyscallProfile
{
    double readsPerMInst = 2.0;
    std::uint32_t readBytesMin = 6144;
    std::uint32_t readBytesMax = 10240;
    double writesPerMInst = 0.3;
    std::uint32_t writeBytes = 8192;
    double xstatPerMInst = 0.05;
    double bsdPerMInst = 0.0;
    double duPollPerMInst = 0.0;
    double openPerMInst = 0.02;

    /**
     * PowerRead syscalls per million instructions: the workload
     * polling the kernel's power meter. Off by default; when 0 the
     * rate draws no RNG, so existing benchmark streams are
     * bit-identical to before the knob existed.
     */
    double powerPollPerMInst = 0.0;
};

/** Complete description of one synthetic benchmark. */
struct WorkloadSpec
{
    std::string name;

    /** Main-phase user instructions. */
    std::uint64_t mainInsts = 10'000'000;

    /** Main-phase stream shape (user mode). */
    StreamSpec mainSpec;

    // Class loading.
    int numClassFiles = 8;
    std::uint64_t classFileBytes = 192 * 1024;
    std::uint64_t loadComputeOps = 40'000;
    std::uint32_t loadReadChunk = 8 * 1024;

    // JIT warm-up.
    int jitFlushes = 12;
    std::uint64_t jitComputeOps = 60'000;

    // Garbage collection.
    std::uint64_t gcPeriodInsts = 1'500'000;
    std::uint64_t gcBurstInsts = 120'000;

    SyscallProfile sys;
    std::uint64_t seed = 42;

    /**
     * Points of the main phase (as fractions of mainInsts) where the
     * benchmark streams a never-cached region of its data file from
     * disk — the inter-access gap structure that drives the
     * spin-down results of Figure 9.
     */
    std::vector<double> coldBurstFracs;

    /** Size of the benchmark's on-disk data file. */
    std::uint64_t dataFileBytes = 8 * 1024 * 1024;
};

/** A virtual address range the OS pre-maps for a process. */
struct AddrRange
{
    Addr base = 0;
    std::uint64_t bytes = 0;
};

/**
 * A runnable benchmark: the InstSource fed to the kernel as the user
 * program.
 */
class Workload : public InstSource, public Checkpointable
{
  public:
    explicit Workload(const WorkloadSpec &spec);

    /**
     * Create the benchmark's class files in the filesystem. Must be
     * called once before the stream is executed.
     */
    void registerFiles(FileSystem &fs);

    FetchOutcome next(MicroOp &op) override;

    const WorkloadSpec &spec() const { return wlSpec; }

    /** User instructions emitted so far (all phases). */
    std::uint64_t emitted() const { return numEmitted; }

    bool done() const { return phase == Phase::Done; }

    /**
     * Heap ranges the OS pre-maps at exec time (the steady-state
     * heap); GC allocation pages are intentionally excluded so they
     * first-touch through vfault/demand_zero.
     */
    std::vector<AddrRange> premapRanges() const;

    // Checkpointable. File ids are not serialized: they are assigned
    // deterministically by registerFiles(), which must have run (on
    // the same spec) before loadState(). The current stream segment
    // is saved with a type tag — the workload only ever runs
    // BoundedStreams, alone or inside a SequenceStream.
    void saveState(ChunkWriter &out) const override;
    void loadState(ChunkReader &in) override;

  private:
    enum class Phase
    {
        Load,
        Jit,
        Main,
        Done,
    };

    WorkloadSpec wlSpec;
    Random rng;
    std::vector<std::uint32_t> fileIds;
    bool filesRegistered = false;

    Phase phase = Phase::Load;
    std::unique_ptr<InstSource> segment;
    std::uint64_t numEmitted = 0;

    // Load-phase cursor.
    int loadFileIndex = 0;
    std::uint64_t loadOffset = 0;
    bool loadOpened = false;

    // JIT cursor.
    int jitDone = 0;

    // Main cursor.
    std::uint64_t mainEmitted = 0;
    std::uint64_t sinceGc = 0;

    // GC allocation frontier (fresh, unmapped pages).
    Addr gcFreshBase = 0x48000000;

    // Cold-burst cursor.
    std::size_t nextColdBurst = 0;
    std::uint32_t coldFileId = 0;
    std::uint64_t coldOffset = 0;

    // Pending syscalls to emit before more compute (FIFO).
    std::deque<MicroOp> pendingSyscalls;

    /** Build a user-mode syscall MicroOp. */
    MicroOp makeSyscall(std::uint16_t id, std::uint64_t arg) const;

    /** Queue the syscalls that follow a completed compute chunk. */
    void queueMainSyscalls(std::uint64_t chunk_insts);

    /** Advance the phase machine; builds the next segment/syscall. */
    bool advance(MicroOp &op);

    StreamSpec gcSpec() const;
};

/** The six benchmarks of the paper's characterization. */
enum class Benchmark
{
    Compress,
    Jess,
    Db,
    Javac,
    Mtrt,
    Jack,
};

/** All benchmarks in the paper's reporting order. */
constexpr Benchmark allBenchmarks[6] = {
    Benchmark::Compress, Benchmark::Jess, Benchmark::Db,
    Benchmark::Javac, Benchmark::Mtrt, Benchmark::Jack,
};

/** Name as it appears in the paper's tables. */
const char *benchmarkName(Benchmark b);

/**
 * Benchmark with the given table name ("jess", "db", ...); fatal()
 * on an unknown name, listing the valid ones.
 */
Benchmark benchmarkByName(const std::string &name);

/** Calibrated spec for one benchmark. */
WorkloadSpec benchmarkSpec(Benchmark b);

/**
 * Scale a spec's instruction counts by @p factor (used by tests and
 * quick examples to run shortened benchmarks).
 */
WorkloadSpec scaleWorkload(WorkloadSpec spec, double factor);

/**
 * fatal() unless @p factor lies in (0, 1e6]. scaleWorkload converts
 * each scaled count to an integer, which is undefined for NaN,
 * negative and overly large products, so every entry point taking a
 * scale= from outside checks it here first.
 */
void checkWorkloadScale(double factor);

} // namespace softwatt

#endif // SOFTWATT_WORKLOAD_WORKLOAD_HH

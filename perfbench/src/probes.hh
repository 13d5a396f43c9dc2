/**
 * @file
 * Per-layer probes of the traced run. Each times calls into one
 * layer's public functions from the benchmark's own code, fed with
 * the workload's own inputs (its benchmarks' instruction mixes, its
 * machine and disk configuration, its finished machines).
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <string>

#include "core/runner.hh"

#include "trace.hh"

namespace perfbench
{

/** Host cost per operation of the layers probed in isolation. */
struct LayerProbes
{
    double cpuMxsNsPerCycle = 0;   ///< SuperscalarCpu::cycle()
    double cpuMipsyNsPerCycle = 0; ///< InOrderCpu::cycle()
    double tlbNsPerLookup = 0;
    double cacheNsPerAccess = 0;
    double streamBuildNs = 0;
    double workloadNsPerOp = 0;
    double idleProfileMs = 0;
    double diskNsPerRequest = 0;
};

/**
 * Run every isolated layer probe on the runs of @p spec. Both CPU
 * models are probed on the workload's mixes, whichever one its runs
 * use, so every probe reports a measured time on every workload.
 */
LayerProbes runLayerProbes(const softwatt::ExperimentSpec &spec,
                           SpanRecorder &rec);

/**
 * Probes of a finished machine, called once per run: a replay of the
 * run's own sample log through PowerCalculator::process, a
 * writeCheckpointNow of the finished machine, and a restoreCheckpoint
 * of that image into a fresh machine.
 */
class FinishedProbes
{
  public:
    /** @p scratch_dir holds the probe's checkpoint file. */
    explicit FinishedProbes(std::string scratch_dir)
        : dir(std::move(scratch_dir))
    {}

    void probe(const softwatt::RunSpec &spec, softwatt::System &sys,
               SpanRecorder &rec);

    double powerS = 0;
    std::uint64_t windows = 0;
    double saveS = 0;
    std::uint64_t saves = 0;
    std::uint64_t bytes = 0;
    double restoreS = 0;
    std::uint64_t restores = 0;

  private:
    std::string dir;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH

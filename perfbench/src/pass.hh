/**
 * @file
 * The benchmark's workloads and the pass that runs one of them.
 *
 * A workload is a runner command line ("cpu.model=inorder
 * scale=0.1 ...") turned into an ExperimentSpec of the six SPEC JVM98
 * equivalents at jobs=1, exactly as a bench/ harness would. A pass
 * executes that spec's runs one after another, each on a cold
 * System, with the same public calls runBenchmark() makes, but with
 * host timestamps between them: set-up (System construction,
 * attachWorkload, restoreCheckpoint), System::run, and finishing
 * (breakdowns, renderRunJson, journal). The pass then renders the
 * experiment document through writeExperimentDocument, the funnel
 * runExperiment uses, so the measured documents are byte-identical to
 * the runner's (tests/test_perfbench.cc proves it).
 */

#ifndef PERFBENCH_PASS_HH
#define PERFBENCH_PASS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/runner.hh"

#include "digest.hh"
#include "trace.hh"

namespace perfbench
{

/** One benchmark workload. */
struct WorkloadDef
{
    std::string name;

    /** Runner/machine keys, as a harness command line would take. */
    std::vector<std::string> assignments;

    /**
     * After each run, restore a fresh machine from that run's newest
     * autosave and finish the run again; the resumed document must
     * be byte-identical to the uninterrupted one.
     */
    bool resume = false;
};

/** The three workloads, in documentation order. */
const std::vector<WorkloadDef> &workloads();

/** Workload called @p name, or null. */
const WorkloadDef *findWorkload(const std::string &name);

/**
 * Kernel seed the benchmark seed 0 maps to: the simulator's stock
 * seed, so seed 0 reproduces the default machine exactly. Benchmark
 * seed n runs with seed=kStockKernelSeed+n.
 */
constexpr std::uint64_t kStockKernelSeed = 777;

/**
 * The runner spec of one pass of @p wl under benchmark seed @p seed.
 * @p json_path is the document path (autosaves and the journal live
 * next to it); "" for workloads that persist nothing.
 */
softwatt::ExperimentSpec makeSpec(const WorkloadDef &wl,
                                  std::uint64_t seed,
                                  const std::string &json_path);

/** Exact per-pass counts read from public getters after each run. */
using Counts = std::map<std::string, std::uint64_t>;

/** Names of the count metrics, in report order. */
const std::vector<std::string> &countNames();

/** Outcome of one run (uninterrupted or resumed) of a pass. */
struct RunCheck
{
    std::string label;     ///< "<bench>" or "<bench>/resumed".
    std::string error;     ///< "" when the run completed cleanly.
    RunDigest digest;      ///< Of renderRunJson + sample-log CSV.
};

/** Host timings, counts and checks of one pass. */
struct PassResult
{
    double wallS = 0;   ///< Every timed segment of every run + report.
    double setupS = 0;  ///< Set-up of every run, restores included.
    double runS = 0;    ///< System::run of the uninterrupted runs.
    double resumeRunS = 0; ///< System::run of the resumed runs.
    double reportS = 0; ///< writeExperimentDocument (+ its file).
    double finishS = 0; ///< breakdowns + renderRunJson + journal.
    std::uint64_t committedInsts = 0;
    std::uint64_t simCycles = 0;
    Counts counts;
    std::vector<RunCheck> runs;
    std::string document;
};

/**
 * Called after each uninterrupted run, outside every timed segment,
 * with the finished machine (traced runs probe it).
 */
using FinishedHook =
    std::function<void(const softwatt::RunSpec &, softwatt::System &)>;

/**
 * Execute one pass of @p spec. Files the runs write (autosaves,
 * journal, document) go under the directory of spec.jsonPath.
 * Failures are recorded per run, never thrown.
 */
PassResult runPass(const softwatt::ExperimentSpec &spec,
                   bool resume, SpanRecorder &rec,
                   const FinishedHook &hook = nullptr);

/**
 * The checks of a measurement, across its passes. A run fails when it
 * did not complete cleanly, when its digest differs from the pinned
 * one (pinned seeds only), or when it, or the pass's count metrics,
 * did not repeat the first pass exactly. A failure is recorded and
 * named, never thrown.
 */
class Verdict
{
  public:
    Verdict(const PinTable &pins, std::string workload,
            std::uint64_t seed);

    /** True when (workload, seed) is pinned, so digests are checked. */
    bool pinsChecked() const { return usePins; }

    void check(const PassResult &pass);

    std::uint64_t attempted() const { return numAttempted; }
    std::uint64_t failed() const { return failures_.size(); }

    /** "<run>: <reason>" for every failed run, in order. */
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    const PinTable &pins;
    std::string workload;
    std::uint64_t seed;
    bool usePins;
    std::uint64_t numAttempted = 0;
    std::vector<std::string> failures_;
    std::vector<RunCheck> firstRuns;
    Counts firstCounts;
};

/** Autosave path the runner derives for a run of @p spec. */
std::string autosavePathFor(const softwatt::ExperimentSpec &spec,
                            const softwatt::RunSpec &run);

} // namespace perfbench

#endif // PERFBENCH_PASS_HH

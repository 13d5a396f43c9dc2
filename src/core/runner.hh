/**
 * @file
 * The experiment-runner subsystem: a declarative ExperimentSpec
 * (benchmarks x configuration variants x scale) scheduled on a
 * fixed-size thread pool, with results aggregated in spec order and
 * emitted as human-readable reports and/or a structured JSON
 * document.
 *
 * Every harness in bench/ and examples/ builds a spec, calls
 * runExperiment(), and renders its report from the ExperimentResult;
 * none of them loops over runBenchmark() itself. Each run owns its
 * System, EventQueue, and RNG streams, so scheduling order cannot
 * affect results: jobs=N output is bit-identical to the serial
 * jobs=1 reference path.
 */

#ifndef SOFTWATT_CORE_RUNNER_HH
#define SOFTWATT_CORE_RUNNER_HH

#include <array>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "os/service.hh"
#include "sim/host_io.hh"
#include "sim/logging.hh"

#include "experiment.hh"

namespace softwatt
{

/** One scheduled benchmark run of an experiment. */
struct RunSpec
{
    Benchmark bench = Benchmark::Jess;

    /** Variant label distinguishing configurations ("" if single). */
    std::string variant;

    SystemConfig config;
    double scale = 1.0;

    /**
     * TEST HOOK: when non-empty, the worker throws this message as a
     * SimError instead of running, exercising the exception firewall
     * without corrupting a real model.
     */
    std::string injectFailure;

    /**
     * Checkpoint plumbing, filled in by runExperiment() from the
     * spec-level settings: autosave cadence (simulated seconds, 0
     * off), the per-run autosave destination derived from the JSON
     * path, and an optional checkpoint to restore before running.
     */
    double checkpointEveryS = 0.0;
    std::string checkpointPath;
    std::string restorePath;

    /**
     * Durability level for this run's checkpoint autosaves (filled
     * in from the spec-level setting). Excluded from the spec
     * fingerprint: it changes how bytes reach the disk, never what
     * the simulation computes.
     */
    Durability durability = Durability::Buffered;
};

/** Declarative description of a whole experiment. */
struct ExperimentSpec
{
    /** Experiment name ("paper", "fault-sweep", ...). */
    std::string title;

    std::vector<RunSpec> runs;

    /** Worker threads; <= 0 means hardware concurrency. */
    int jobs = 0;

    /** Path of the structured JSON document; "" = don't write. */
    std::string jsonPath;

    /**
     * Per-run budget in simulated seconds applied to every run that
     * does not set its own config.deadlineSeconds; 0 = none. Expiry
     * is RunOutcome::DeadlineExceeded, not a sweep abort.
     */
    double deadlineS = 0.0;

    /**
     * Grace budget in simulated seconds for in-flight runs after a
     * Drain cancellation (first SIGINT/SIGTERM); 0 = let them
     * finish. Applied like deadlineS.
     */
    double graceS = 0.0;

    /**
     * Replay `<jsonPath>.journal.jsonl`: runs whose (bench, variant,
     * config-fingerprint) key matches a journaled entry are spliced
     * from the journal instead of re-executed, so a killed sweep
     * restarts where it died and still emits a final document
     * byte-identical to an uninterrupted run.
     */
    bool resume = false;

    /**
     * Rerun each Failed spec once, serially, with the runtime
     * invariant sweeps forced on and verbose logging, to capture a
     * diagnostic failure bundle.
     */
    bool diagnose = false;

    /**
     * Autosave a machine checkpoint every this many simulated
     * seconds; 0 disables. Requires jsonPath: each run autosaves to
     * "<jsonPath>.<bench>[-variant].ckpt" (atomic rename, previous
     * generation kept as "....ckpt.1"). Bit-identity holds between
     * runs with the same cadence — see System::setCheckpointPolicy.
     */
    double checkpointEveryS = 0.0;

    /**
     * Restore machine state from this checkpoint before running.
     * Only meaningful for single-run specs (the checkpoint encodes
     * one machine); mutually exclusive with resume (the journal
     * replays whole runs, the checkpoint resumes inside one).
     */
    std::string restorePath;

    /**
     * Durability contract for everything the runner persists (the
     * resume journal, checkpoint autosaves, the JSON document).
     * Buffered (default) survives SIGKILL; Full adds fsync barriers
     * so acknowledged data also survives a power cut. See DESIGN.md
     * §4k for the exact failure matrix.
     */
    Durability durability = Durability::Buffered;

    /**
     * Deterministic host-I/O fault schedule (io_fault_* keys),
     * installed for the duration of runExperiment(). Testing and
     * crash-consistency tooling only; all-zero injects nothing.
     */
    IoFaultPolicy ioFaults;

    /**
     * Optional external cancel token (tests). When null the runner
     * uses an internal token; either way it is bridged to
     * SIGINT/SIGTERM for the duration of runExperiment().
     */
    CancelToken *cancel = nullptr;

    /**
     * Append one run and return it for further tweaking. fatal() on a
     * scale outside (0, 1e6] (checkWorkloadScale), so a harness fails
     * before it simulates anything.
     */
    RunSpec &add(Benchmark bench, const SystemConfig &config,
                 double scale = 1.0, const std::string &variant = "");

    /** Append all six benchmarks under one configuration. */
    void addSuite(const SystemConfig &config, double scale = 1.0,
                  const std::string &variant = "");

    /**
     * Spec primed from parsed command-line arguments: reads the
     * runner's own keys (jobs=N, out=path, deadline_s=T, grace_s=T,
     * resume=0/1, diagnose=0/1, checkpoint_every_s=T, restore=path,
     * durability=buffered|full, and the io_fault_* fault-injection
     * keys) so SystemConfig's unused-key check does not flag them. Values
     * are range-checked here, the out= path is probed for
     * writability (open + unlink of a scratch file), and a restore=
     * file must already be readable, so a doomed sweep fails in
     * milliseconds instead of after hours of simulation.
     */
    static ExperimentSpec fromArgs(const std::string &title,
                                   const Config &args);
};

/** All results of an experiment, ordered as the spec's runs. */
class ExperimentResult
{
  public:
    const std::string &title() const { return expTitle; }

    /** Worker threads the experiment actually used. */
    int jobs() const { return workerCount; }

    std::size_t size() const { return results.size(); }
    const BenchmarkRun &at(std::size_t i) const;
    const RunSpec &specAt(std::size_t i) const;

    /** The run for (bench, variant); fatal() if absent. */
    const BenchmarkRun &run(Benchmark bench,
                            const std::string &variant = "") const;

    /**
     * The run for (bench, variant), or null if absent. Report paths
     * that can see gaps (failed or skipped runs) use this instead of
     * run() so one missing run degrades the report, not the process.
     */
    const BenchmarkRun *find(Benchmark bench,
                             const std::string &variant = "") const;

    /** Runs carrying @p variant, in spec order. */
    std::vector<const BenchmarkRun *>
    variantRuns(const std::string &variant = "") const;

    /** Benchmark names of a variant's runs, in spec order. */
    std::vector<std::string>
    names(const std::string &variant = "") const;

    /** Managed-disk breakdowns of a variant's runs. */
    std::vector<PowerBreakdown>
    breakdowns(const std::string &variant = "") const;

    /** Conventional-disk breakdowns of a variant's runs. */
    std::vector<PowerBreakdown>
    conventionalBreakdowns(const std::string &variant = "") const;

    /** Counter totals of a variant's runs. */
    std::vector<CounterBank>
    counterTotals(const std::string &variant = "") const;

    /** Service accounting pooled over a variant's runs. */
    std::array<ServiceStats, numServices>
    pooledServiceStats(const std::string &variant = "") const;

    /** Core clock of the first run (all runs share the machine). */
    double freqHz() const;

    /** True when the experiment was cut short by SIGINT/SIGTERM. */
    bool interrupted() const { return wasInterrupted; }

    /**
     * True when any storage facility degraded during the sweep: the
     * journal fell back to non-durable mode, a run continued
     * checkpoint-less after a failed autosave, or the final document
     * could not be written. The results themselves are complete —
     * degradation is about durability, not correctness.
     */
    bool storageDegraded() const { return degradedStorage; }

    /** Runs that died inside the exception firewall. */
    std::size_t failedRuns() const;

    /**
     * Process exit status reflecting the sweep: 0 when every run
     * executed (recorded deadline/watchdog/io outcomes included),
     * 1 when any run Failed inside the firewall, 130 (128+SIGINT)
     * when the experiment was interrupted.
     */
    int exitCode() const;

    /**
     * Emit the structured JSON document: per run, the outcome,
     * cycle/instruction totals, both power breakdowns, the per-mode
     * counter matrix, service accounting, and disk activity. Output
     * is deterministic and independent of the jobs= setting.
     */
    void writeJson(std::ostream &out) const;

  private:
    friend ExperimentResult runExperiment(const ExperimentSpec &spec);

    std::string expTitle;
    int workerCount = 1;
    bool wasInterrupted = false;
    bool degradedStorage = false;
    std::vector<RunSpec> specs;
    std::vector<BenchmarkRun> results;
};

/**
 * Execute every run of @p spec.
 *
 * jobs=1 executes serially on the calling thread (the reference
 * path); jobs>1 schedules runs on a thread pool. Results land in
 * spec order either way. If the spec names a jsonPath, the document
 * is written before returning.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec);

/**
 * RAII error-handler swap: installs @p handler and restores the
 * previous one on destruction, even on exception paths. The runner
 * scopes the exception firewall with it; the serve daemon installs
 * throwingErrorHandler once for its whole lifetime.
 */
class ScopedErrorHandler
{
  public:
    explicit ScopedErrorHandler(ErrorHandler handler)
        : previous(setErrorHandler(std::move(handler)))
    {}

    ~ScopedErrorHandler() { setErrorHandler(std::move(previous)); }

    ScopedErrorHandler(const ScopedErrorHandler &) = delete;
    ScopedErrorHandler &
    operator=(const ScopedErrorHandler &) = delete;

  private:
    ErrorHandler previous;
};

/**
 * Execute one spec entry behind the exception firewall: a throw
 * (SimError from fatal()/panic(), or anything std::exception-derived
 * from the model) becomes a Failed run record instead of taking the
 * process down. Requires a throwing error handler to be installed
 * (runExperiment scopes one; the serve daemon installs its own).
 * This is the per-run building block runExperiment() schedules; the
 * serve daemon drives it directly because it cannot nest
 * runExperiment's SignalGuard per job.
 */
BenchmarkRun runSpecProtected(const std::string &title,
                              const RunSpec &spec,
                              const CancelToken &token,
                              bool forceInvariants = false);

/**
 * Render one run's pretty JSON object as standalone text. The same
 * text is spliced into the final document (via JsonWriter::rawValue)
 * and stored in the resume journal, so a restored run is
 * byte-identical to a live one by construction.
 */
std::string renderRunJson(const BenchmarkRun &run);

/**
 * Emit a complete softwatt-experiment-v2 document from pre-rendered
 * run objects. ExperimentResult::writeJson and the serve daemon both
 * funnel through here, so a document assembled from journaled or
 * served runs is byte-identical to one written by runExperiment().
 */
void writeExperimentDocument(std::ostream &out,
                             const std::string &title,
                             bool interrupted,
                             const std::vector<std::string> &runJsons);

} // namespace softwatt

#endif // SOFTWATT_CORE_RUNNER_HH

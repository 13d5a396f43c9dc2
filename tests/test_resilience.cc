/**
 * @file
 * Tests for resilient experiment execution: the per-run exception
 * firewall, simulated-time deadlines, cooperative cancellation and
 * shutdown drain, and crash-resume through the run journal —
 * including a real SIGKILLed child process whose sweep is resumed
 * and must reproduce the uninterrupted document byte-for-byte.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/journal.hh"
#include "core/runner.hh"
#include "sim/cancel.hh"
#include "sim/signals.hh"
#include "sim/logging.hh"

using namespace softwatt;

namespace
{

/** Read a whole file; "" when absent. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
jsonOf(const ExperimentResult &result)
{
    std::ostringstream out;
    result.writeJson(out);
    return out.str();
}

/** Per-test scratch path (ctest runs tests concurrently in one dir). */
std::string
scratch(const std::string &name)
{
    return "resilience_" + name;
}

void
removeOutputs(const std::string &path)
{
    std::remove(path.c_str());
    std::remove(journalPathFor(path).c_str());
}

ExperimentSpec
threeRunSpec(const std::string &title, int jobs)
{
    ExperimentSpec spec;
    spec.title = title;
    spec.jobs = jobs;
    SystemConfig config;
    spec.add(Benchmark::Jess, config, 0.05);
    spec.add(Benchmark::Compress, config, 0.05);
    spec.add(Benchmark::Db, config, 0.05);
    return spec;
}

class QuietLog
{
  public:
    QuietLog() : saved(logLevel()) { setLogLevel(LogLevel::Quiet); }
    ~QuietLog() { setLogLevel(saved); }

  private:
    LogLevel saved;
};

} // namespace

TEST(RunnerResilience, InjectedThrowIsFirewalledToAFailedRun)
{
    QuietLog quiet;
    ExperimentSpec spec = threeRunSpec("firewall", 1);
    spec.runs[1].injectFailure = "deliberately poisoned run";

    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.size(), 3u);

    // The poisoned run is recorded, not fatal to the sweep.
    const BenchmarkRun &failed = result.at(1);
    EXPECT_EQ(failed.result.outcome, RunOutcome::Failed);
    EXPECT_FALSE(failed.hasData());
    EXPECT_EQ(failed.attempts, 1);
    EXPECT_NE(failed.error.find("deliberately poisoned run"),
              std::string::npos);

    // Its neighbours completed normally.
    EXPECT_EQ(result.at(0).result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.at(2).result.outcome, RunOutcome::Completed);
    EXPECT_TRUE(result.at(0).hasData());

    EXPECT_EQ(result.failedRuns(), 1u);
    EXPECT_EQ(result.exitCode(), 1);
    EXPECT_FALSE(result.interrupted());

    // The document records the failure alongside the good runs.
    std::string doc = jsonOf(result);
    EXPECT_NE(doc.find("\"outcome\": \"failed\""),
              std::string::npos);
    EXPECT_NE(doc.find("deliberately poisoned run"),
              std::string::npos);
    EXPECT_NE(doc.find("\"outcome\": \"completed\""),
              std::string::npos);
}

TEST(RunnerResilience, FirewalledSweepIsDeterministicAcrossJobs)
{
    QuietLog quiet;
    ExperimentSpec serial = threeRunSpec("firewall-det", 1);
    serial.runs[1].injectFailure = "boom";
    ExperimentSpec parallel = threeRunSpec("firewall-det", 4);
    parallel.runs[1].injectFailure = "boom";

    std::string a = jsonOf(runExperiment(serial));
    std::string b = jsonOf(runExperiment(parallel));
    EXPECT_EQ(a, b);
}

TEST(RunnerResilience, DiagnosticRerunRecordsSecondAttempt)
{
    QuietLog quiet;
    ExperimentSpec spec;
    spec.title = "diagnose";
    spec.jobs = 1;
    spec.diagnose = true;
    spec.add(Benchmark::Jess, SystemConfig{}, 0.05);
    spec.runs[0].injectFailure = "persistent failure";

    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result.at(0).result.outcome, RunOutcome::Failed);
    EXPECT_EQ(result.at(0).attempts, 2);
    EXPECT_NE(jsonOf(result).find("\"attempts\": 2"),
              std::string::npos);
}

TEST(RunnerResilience, DeadlineExpiryIsARecordedOutcome)
{
    QuietLog quiet;
    ExperimentSpec spec;
    spec.title = "deadline";
    spec.jobs = 1;
    SystemConfig config;
    // A budget of 1 ms simulated time trips long before the 0.05
    // scale jess run completes.
    config.deadlineSeconds = 1e-3;
    spec.add(Benchmark::Jess, config, 0.05);
    spec.add(Benchmark::Compress, SystemConfig{}, 0.05);

    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.size(), 2u);

    const BenchmarkRun &expired = result.at(0);
    EXPECT_EQ(expired.result.outcome, RunOutcome::DeadlineExceeded);
    EXPECT_TRUE(expired.hasData());  // partial stats survive
    EXPECT_FALSE(expired.result.diagnostics.empty());

    // The deadline is simulated time, so expiry is deterministic.
    ExperimentResult again = runExperiment(spec);
    EXPECT_EQ(expired.result.cycles, again.at(0).result.cycles);

    // An expired budget is a recorded outcome, not a sweep failure.
    EXPECT_EQ(result.at(1).result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.exitCode(), 0);
}

TEST(RunnerResilience, SpecDeadlineOnlyFillsUnsetRunBudgets)
{
    QuietLog quiet;
    ExperimentSpec spec;
    spec.title = "deadline-spread";
    spec.jobs = 1;
    spec.deadlineS = 1e-3;
    SystemConfig own;
    own.deadlineSeconds = 1e18;  // effectively unbounded
    spec.add(Benchmark::Jess, own, 0.02, "own");
    spec.add(Benchmark::Jess, SystemConfig{}, 0.02, "spec");

    ExperimentResult result = runExperiment(spec);
    EXPECT_EQ(result.run(Benchmark::Jess, "own").result.outcome,
              RunOutcome::Completed);
    EXPECT_EQ(result.run(Benchmark::Jess, "spec").result.outcome,
              RunOutcome::DeadlineExceeded);
}

TEST(RunnerResilience, DrainRequestSkipsPendingRunsAndFlagsDoc)
{
    QuietLog quiet;
    CancelToken token;
    token.request(CancelToken::Drain);

    ExperimentSpec spec = threeRunSpec("drain", 1);
    spec.cancel = &token;

    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(result.at(i).result.outcome,
                  RunOutcome::Cancelled);
        EXPECT_FALSE(result.at(i).hasData());
    }
    EXPECT_TRUE(result.interrupted());
    EXPECT_EQ(result.exitCode(), 130);
    EXPECT_NE(jsonOf(result).find("\"interrupted\": true"),
              std::string::npos);
}

TEST(RunnerResilience, HardCancelStopsInFlightRunAtWindowBoundary)
{
    QuietLog quiet;
    CancelToken token;
    token.request(CancelToken::Hard);

    // Drive System::run directly: a pre-set Hard token stops the run
    // at its first closed sample window, with consistent partials.
    RunOptions options;
    options.cancel = &token;
    BenchmarkRun run =
        runBenchmark(Benchmark::Jess, SystemConfig{}, 0.05, options);
    EXPECT_EQ(run.result.outcome, RunOutcome::Cancelled);
    ASSERT_TRUE(run.hasData());
    EXPECT_GT(run.system->now(), 0u);
}

TEST(RunnerResilience, SignalGuardInstallsAndRestoresHandlers)
{
    CancelToken token;
    EXPECT_FALSE(SignalGuard::active());
    {
        SignalGuard guard(token);
        EXPECT_TRUE(SignalGuard::active());
        // A real SIGINT to ourselves escalates the token one step.
        ASSERT_EQ(raise(SIGINT), 0);
        EXPECT_EQ(token.level(), CancelToken::Drain);
        ASSERT_EQ(raise(SIGTERM), 0);
        EXPECT_EQ(token.level(), CancelToken::Hard);
        EXPECT_EQ(SignalGuard::deliveredSignals(), 2);
    }
    EXPECT_FALSE(SignalGuard::active());
}

TEST(RunnerResilience, SighupDrainsLikeSigterm)
{
    // A closed terminal or dropped ssh session (SIGHUP) must get the
    // same graceful-drain treatment as SIGTERM: in-flight work is
    // journaled and autosaved instead of dying mid-write.
    struct sigaction before = {};
    ASSERT_EQ(sigaction(SIGHUP, nullptr, &before), 0);

    CancelToken token;
    {
        SignalGuard guard(token);
        ASSERT_EQ(raise(SIGHUP), 0);
        EXPECT_EQ(token.level(), CancelToken::Drain);
        ASSERT_EQ(raise(SIGHUP), 0);
        EXPECT_EQ(token.level(), CancelToken::Hard);
        EXPECT_EQ(SignalGuard::deliveredSignals(), 2);
    }
    EXPECT_FALSE(SignalGuard::active());

    // Disposition is restored on guard destruction; a stray SIGHUP
    // handler leaking past the experiment would break every harness
    // run under nohup.
    struct sigaction after = {};
    ASSERT_EQ(sigaction(SIGHUP, nullptr, &after), 0);
    EXPECT_EQ(before.sa_handler, after.sa_handler);
}

namespace
{

/** One edit of a run spec, named by its own source text. */
struct SpecEdit
{
    const char *what;
    void (*apply)(RunSpec &);
};

} // namespace

#define SPEC_EDIT(edit) \
    SpecEdit { #edit, [](RunSpec &s) { s.edit; } }

TEST(RunnerResilience, SpecFingerprintTracksConfigChanges)
{
    // Every field a run's results depend on: both the journal key
    // (specFingerprint) and the checkpoint key must move.
    const SpecEdit machineFields[] = {
        SPEC_EDIT(bench = Benchmark::Db),
        SPEC_EDIT(scale = 0.06),
        SPEC_EDIT(config.machine.instWindowSize += 1),
        SPEC_EDIT(config.machine.intRegs += 1),
        SPEC_EDIT(config.machine.fpRegs += 1),
        SPEC_EDIT(config.machine.lsqSize += 1),
        SPEC_EDIT(config.machine.fetchWidth += 1),
        SPEC_EDIT(config.machine.decodeWidth += 1),
        SPEC_EDIT(config.machine.issueWidth += 1),
        SPEC_EDIT(config.machine.commitWidth += 1),
        SPEC_EDIT(config.machine.intAlus += 1),
        SPEC_EDIT(config.machine.fpAlus += 1),
        SPEC_EDIT(config.machine.bhtEntries *= 2),
        SPEC_EDIT(config.machine.btbEntries *= 2),
        SPEC_EDIT(config.machine.rasEntries += 1),
        SPEC_EDIT(config.machine.memorySizeBytes *= 2),
        SPEC_EDIT(config.machine.icache.sizeBytes *= 2),
        SPEC_EDIT(config.machine.icache.lineBytes *= 2),
        SPEC_EDIT(config.machine.icache.ways *= 2),
        SPEC_EDIT(config.machine.icache.hitLatency += 1),
        SPEC_EDIT(config.machine.dcache.sizeBytes *= 2),
        SPEC_EDIT(config.machine.dcache.lineBytes *= 2),
        SPEC_EDIT(config.machine.dcache.ways *= 2),
        SPEC_EDIT(config.machine.dcache.hitLatency += 1),
        SPEC_EDIT(config.machine.l2cache.sizeBytes *= 2),
        SPEC_EDIT(config.machine.l2cache.lineBytes *= 2),
        SPEC_EDIT(config.machine.l2cache.ways *= 2),
        SPEC_EDIT(config.machine.l2cache.hitLatency += 1),
        SPEC_EDIT(config.machine.tlbEntries *= 2),
        SPEC_EDIT(config.machine.memoryLatency += 1),
        SPEC_EDIT(config.machine.pageBytes *= 2),
        SPEC_EDIT(config.machine.featureSizeUm = 0.25),
        SPEC_EDIT(config.machine.vdd = 2.5),
        SPEC_EDIT(config.machine.freqMhz = 300.0),
        SPEC_EDIT(config.diskConfig.kind = DiskConfigKind::IdleOnly),
        SPEC_EDIT(config.diskConfig.spindownThresholdSeconds = 1.0),
        SPEC_EDIT(config.diskConfig.fault.enabled = true),
        SPEC_EDIT(config.diskConfig.fault.transientErrorRate = 0.1),
        SPEC_EDIT(config.diskConfig.fault.seekErrorRate = 0.1),
        SPEC_EDIT(config.diskConfig.fault.spinupFailureRate = 0.1),
        SPEC_EDIT(config.diskConfig.fault.windowStartSeconds = 1.0),
        SPEC_EDIT(config.diskConfig.fault.windowEndSeconds = 9.0),
        SPEC_EDIT(config.diskConfig.fault.seed += 1),
        SPEC_EDIT(config.kernelParams.tlbSlowPathProb = 0.02),
        SPEC_EDIT(config.kernelParams.vfaultProb = 0.5),
        SPEC_EDIT(config.kernelParams.clockTickSeconds = 0.01),
        SPEC_EDIT(config.kernelParams.fileCacheBlocks *= 2),
        SPEC_EDIT(config.kernelParams.haltOnIdle = true),
        SPEC_EDIT(config.kernelParams.seed += 1),
        SPEC_EDIT(config.kernelParams.tuning.utlbLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.tlbMissLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.vfaultLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.demandZeroLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.cacheflushLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.openLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.openSyncLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.xstatLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.duPollLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.bsdLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.clockLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.clockSyncLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.ioSyncLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.ioSetupLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.ioFinishLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.errorRecoveryLength += 1),
        SPEC_EDIT(
            config.kernelParams.tuning.errorRecoverySyncLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.powerReadLength += 1),
        SPEC_EDIT(config.kernelParams.tuning.openMetadataMissProb = 0.1),
        SPEC_EDIT(config.kernelParams.diskRetry.maxAttempts += 1),
        SPEC_EDIT(config.kernelParams.diskRetry.backoffSeconds = 0.05),
        SPEC_EDIT(config.kernelParams.diskRetry.backoffMultiplier = 3),
        SPEC_EDIT(config.timeScale = 50.0),
        SPEC_EDIT(config.sampleWindow = 2'000),
        SPEC_EDIT(config.useCalibratedPower = false),
        SPEC_EDIT(config.idleFastForwardAfter += 1),
        SPEC_EDIT(config.maxCycles += 1),
        SPEC_EDIT(config.clockInterrupts = false),
        SPEC_EDIT(config.powerBudgetW = 5.0),
        SPEC_EDIT(config.dvfsEnabled = true),
        SPEC_EDIT(config.adaptiveSpindown = true),
    };
    // Run identity the checkpoint leaves out on purpose: a warm start
    // may switch CPU models, restore ignores run management, and the
    // variant is only a label.
    const SpecEdit identityFields[] = {
        SPEC_EDIT(variant = "x"),
        SPEC_EDIT(config.cpuModel = CpuModel::InOrder),
        SPEC_EDIT(config.deadlineSeconds = 1.0),
        SPEC_EDIT(config.shutdownGraceSeconds = 1.0),
    };
    // How a run is stored, not what it computes.
    const SpecEdit neither[] = {
        SPEC_EDIT(durability = Durability::Full),
        SPEC_EDIT(checkpointEveryS = 0.001),
        SPEC_EDIT(checkpointPath = "x.ckpt"),
        SPEC_EDIT(restorePath = "y.ckpt"),
    };

    // A spin-down disk and a power budget, so every edited config
    // is one the machine accepts.
    RunSpec base;
    base.bench = Benchmark::Jess;
    base.scale = 0.05;
    base.config.diskConfig = DiskConfig::spindown(2.0);
    base.config.powerBudgetW = 6.0;
    auto machinePrint = [](const RunSpec &s) {
        return machineCheckpointFingerprint(s.bench, s.config,
                                            s.scale);
    };
    auto check = [&](const SpecEdit &edit, bool movesSpec,
                     bool movesMachine) {
        RunSpec edited = base;
        edit.apply(edited);
        EXPECT_EQ(specFingerprint(edited) != specFingerprint(base),
                  movesSpec)
            << edit.what;
        EXPECT_EQ(machinePrint(edited) != machinePrint(base),
                  movesMachine)
            << edit.what;
    };
    for (const SpecEdit &edit : machineFields)
        check(edit, true, true);
    for (const SpecEdit &edit : identityFields)
        check(edit, true, false);
    for (const SpecEdit &edit : neither)
        check(edit, false, false);

    // Computed without building a machine, the checkpoint key still
    // equals what a built one writes into its checkpoint headers.
    RunSpec slow = base;
    slow.config.timeScale = 50.0;
    System sys(slow.config);
    sys.attachWorkload(std::make_unique<Workload>(
        scaledBenchmarkSpec(slow.bench, slow.scale)));
    EXPECT_EQ(sys.checkpointFingerprint(), machinePrint(slow));
}

#undef SPEC_EDIT

TEST(RunnerResilience, JournalWrittenAndResumeSplicesBitIdentical)
{
    QuietLog quiet;
    const std::string out = scratch("resume.json");
    removeOutputs(out);

    ExperimentSpec spec = threeRunSpec("resume", 1);
    spec.jsonPath = out;

    // Uninterrupted reference run.
    ExperimentResult reference = runExperiment(spec);
    std::string reference_doc = slurp(out);
    ASSERT_FALSE(reference_doc.empty());

    // The journal holds one entry per completed run.
    std::vector<JournalEntry> entries =
        RunJournal::load(journalPathFor(out));
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].experiment, "resume");
    EXPECT_EQ(entries[0].outcome, "completed");

    // Simulate a crash after two runs: keep only two journal lines.
    {
        std::string journal = slurp(journalPathFor(out));
        std::size_t first = journal.find('\n');
        std::size_t second = journal.find('\n', first + 1);
        ASSERT_NE(second, std::string::npos);
        std::ofstream torn(journalPathFor(out), std::ios::trunc);
        torn << journal.substr(0, second + 1);
    }
    std::remove(out.c_str());

    // Resume: two runs restore from the journal, one re-executes.
    ExperimentSpec resumed_spec = threeRunSpec("resume", 1);
    resumed_spec.jsonPath = out;
    resumed_spec.resume = true;
    ExperimentResult resumed = runExperiment(resumed_spec);

    EXPECT_TRUE(resumed.at(0).restored());
    EXPECT_TRUE(resumed.at(1).restored());
    EXPECT_FALSE(resumed.at(2).restored());
    EXPECT_TRUE(resumed.at(2).hasData());
    EXPECT_EQ(resumed.exitCode(), 0);

    // The resumed document is byte-identical to the reference.
    EXPECT_EQ(slurp(out), reference_doc);

    removeOutputs(out);
}

TEST(RunnerResilience, ResumeIgnoresEntriesWithChangedConfig)
{
    QuietLog quiet;
    const std::string out = scratch("stale.json");
    removeOutputs(out);

    auto sweep = [&out](const SystemConfig &config, double scale,
                        bool resume) {
        ExperimentSpec spec;
        spec.title = "stale";
        spec.jobs = 1;
        spec.jsonPath = out;
        spec.resume = resume;
        spec.add(Benchmark::Jess, config, scale);
        return runExperiment(spec);
    };
    SystemConfig dvfs;
    dvfs.dvfsEnabled = true;
    dvfs.powerBudgetW = 6.0;
    sweep(dvfs, 0.05, false);
    EXPECT_TRUE(sweep(dvfs, 0.05, true).at(0).restored());

    // Same benchmark, different scale, or only the power budget
    // edited: the journal entry no longer matches and the run must
    // re-execute.
    SystemConfig tighter = dvfs;
    tighter.powerBudgetW = 5.0;
    for (const ExperimentResult &result :
         {sweep(dvfs, 0.06, true), sweep(tighter, 0.05, true)}) {
        EXPECT_FALSE(result.at(0).restored());
        EXPECT_TRUE(result.at(0).hasData());
    }

    removeOutputs(out);
}

TEST(RunnerResilience, TornJournalLineIsSkippedOnLoad)
{
    QuietLog quiet;
    const std::string out = scratch("torn.json");
    removeOutputs(out);

    ExperimentSpec spec;
    spec.title = "torn";
    spec.jobs = 1;
    spec.jsonPath = out;
    spec.add(Benchmark::Jess, SystemConfig{}, 0.05);
    runExperiment(spec);

    // Tear the journal mid-line, as a crash during a write would.
    {
        std::string journal = slurp(journalPathFor(out));
        std::ofstream torn(journalPathFor(out), std::ios::trunc);
        torn << journal.substr(0, journal.size() / 2);
    }
    std::vector<JournalEntry> entries =
        RunJournal::load(journalPathFor(out));
    EXPECT_TRUE(entries.empty());

    // A resume over the torn journal simply re-executes the run.
    ExperimentSpec resumed = spec;
    resumed.resume = true;
    ExperimentResult result = runExperiment(resumed);
    EXPECT_FALSE(result.at(0).restored());
    EXPECT_TRUE(result.at(0).hasData());

    removeOutputs(out);
}

TEST(RunnerResilience, FailedRunsAreJournaledAndRestoredAsFailed)
{
    QuietLog quiet;
    const std::string out = scratch("failjournal.json");
    removeOutputs(out);

    ExperimentSpec spec;
    spec.title = "failjournal";
    spec.jobs = 1;
    spec.jsonPath = out;
    spec.add(Benchmark::Jess, SystemConfig{}, 0.05);
    spec.runs[0].injectFailure = "always fails";
    std::string first_doc = jsonOf(runExperiment(spec));

    // Resume restores the failure (exit code included) rather than
    // pointlessly re-running a spec that is known to fail... the
    // journal records its outcome.
    ExperimentSpec resumed = spec;
    resumed.resume = true;
    ExperimentResult result = runExperiment(resumed);
    EXPECT_TRUE(result.at(0).restored());
    EXPECT_EQ(result.at(0).result.outcome, RunOutcome::Failed);
    EXPECT_EQ(result.exitCode(), 1);
    EXPECT_EQ(jsonOf(result), first_doc);

    removeOutputs(out);
}

TEST(RunnerResilience, SigkilledChildSweepResumesBitIdentical)
{
    QuietLog quiet;
    const std::string out = scratch("child.json");
    const std::string ref_out = scratch("child_ref.json");
    removeOutputs(out);
    removeOutputs(ref_out);

    auto makeSpec = [](const std::string &path) {
        ExperimentSpec spec;
        spec.title = "child";
        spec.jobs = 1;
        spec.jsonPath = path;
        SystemConfig config;
        for (Benchmark b : allBenchmarks)
            spec.add(b, config, 0.05);
        return spec;
    };

    // Uninterrupted reference document.
    runExperiment(makeSpec(ref_out));
    std::string reference_doc = slurp(ref_out);
    ASSERT_FALSE(reference_doc.empty());

    // Child starts the same sweep; the parent SIGKILLs it once the
    // journal shows at least one completed run.
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        runExperiment(makeSpec(out));
        _exit(0);
    }

    const std::string journal_path = journalPathFor(out);
    bool killed = false;
    for (int i = 0; i < 30000; ++i) {
        std::string journal = slurp(journal_path);
        if (!journal.empty() &&
            journal.find('\n') != std::string::npos) {
            kill(child, SIGKILL);
            killed = true;
            break;
        }
        int status = 0;
        if (waitpid(child, &status, WNOHANG) == child) {
            child = -1;  // finished before we could kill it
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (child > 0) {
        if (!killed)
            kill(child, SIGKILL);
        int status = 0;
        waitpid(child, &status, 0);
    }

    // Resume in this process and demand byte-identity.
    ExperimentSpec resumed = makeSpec(out);
    resumed.resume = true;
    ExperimentResult result = runExperiment(resumed);
    EXPECT_EQ(result.exitCode(), 0);
    EXPECT_EQ(slurp(out), reference_doc);

    removeOutputs(out);
    removeOutputs(ref_out);
}

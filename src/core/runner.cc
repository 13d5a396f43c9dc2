#include "runner.hh"

#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <utility>

#include "sim/cancel.hh"
#include "sim/logging.hh"
#include "sim/signals.hh"
#include "sim/thread_pool.hh"

#include "journal.hh"
#include "json_writer.hh"

namespace softwatt
{

namespace
{

/**
 * Fail fast on an unwritable out= destination. The probe opens in
 * append mode — never truncating, because an existing file may be a
 * resumable journal — and removes the file again only if it did not
 * exist beforehand.
 */
void
probeWritable(const std::string &path)
{
    bool existed = static_cast<bool>(std::ifstream(path));
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
        fatal(msg() << "config: cannot open '" << path
                    << "' for writing");
    }
    probe.close();
    if (!existed)
        std::remove(path.c_str());
}

double
nonNegativeSeconds(const Config &args, const std::string &key)
{
    double value = args.getDouble(key, 0.0);
    if (!(value >= 0.0) || value > 1e18) {
        fatal(msg() << "config: " << key
                    << " must be a finite number of simulated "
                    << "seconds >= 0 (got " << value << ")");
    }
    return value;
}

bool
boolFlag(const Config &args, const std::string &key)
{
    std::int64_t value = args.getInt(key, 0);
    if (value != 0 && value != 1) {
        fatal(msg() << "config: " << key << " must be 0 or 1 (got "
                    << value << ")");
    }
    return value == 1;
}

double
faultRate(const Config &args, const std::string &key)
{
    double value = args.getDouble(key, 0.0);
    if (!(value >= 0.0) || value > 1.0) {
        fatal(msg() << "config: " << key
                    << " must be a probability in [0, 1] (got "
                    << value << ")");
    }
    return value;
}

std::uint64_t
faultCount(const Config &args, const std::string &key)
{
    std::int64_t value = args.getInt(key, 0);
    if (value < 0) {
        fatal(msg() << "config: " << key << " must be >= 0 (got "
                    << value << "); 0 disables it");
    }
    return std::uint64_t(value);
}

} // namespace

RunSpec &
ExperimentSpec::add(Benchmark bench, const SystemConfig &config,
                    double scale, const std::string &variant)
{
    checkWorkloadScale(scale);
    RunSpec spec;
    spec.bench = bench;
    spec.variant = variant;
    spec.config = config;
    spec.scale = scale;
    runs.push_back(std::move(spec));
    return runs.back();
}

void
ExperimentSpec::addSuite(const SystemConfig &config, double scale,
                         const std::string &variant)
{
    for (Benchmark b : allBenchmarks)
        add(b, config, scale, variant);
}

ExperimentSpec
ExperimentSpec::fromArgs(const std::string &title, const Config &args)
{
    ExperimentSpec spec;
    spec.title = title;
    spec.jobs = args.getNarrowInt("jobs", 0);
    if (spec.jobs < 0)
        fatal(msg() << "config: jobs must be >= 0 (got " << spec.jobs
                    << "); 0 selects hardware concurrency");
    spec.jsonPath = args.getString("out", "");
    spec.deadlineS = nonNegativeSeconds(args, "deadline_s");
    spec.graceS = nonNegativeSeconds(args, "grace_s");
    spec.resume = boolFlag(args, "resume");
    spec.diagnose = boolFlag(args, "diagnose");
    spec.checkpointEveryS =
        nonNegativeSeconds(args, "checkpoint_every_s");
    spec.restorePath = args.getString("restore", "");

    std::string durable = args.getString("durability", "buffered");
    bool knownDurability = false;
    spec.durability = durabilityFromName(durable, knownDurability);
    if (!knownDurability) {
        fatal(msg() << "config: durability must be 'buffered' or "
                    << "'full' (got '" << durable << "')");
    }

    IoFaultPolicy &faults = spec.ioFaults;
    faults.seed = faultCount(args, "io_fault_seed");
    if (faults.seed == 0)
        faults.seed = 1;
    faults.errorRate = faultRate(args, "io_fault_rate");
    faults.enospcRate = faultRate(args, "io_fault_enospc_rate");
    faults.shortWriteRate =
        faultRate(args, "io_fault_short_write_rate");
    faults.tornRenameRate =
        faultRate(args, "io_fault_torn_rename_rate");
    faults.crashAtOp = faultCount(args, "io_fault_crash_at_op");
    faults.enospcAfterBytes =
        faultCount(args, "io_fault_enospc_after_bytes");
    faults.enabled = faults.errorRate > 0 || faults.enospcRate > 0 ||
                     faults.shortWriteRate > 0 ||
                     faults.tornRenameRate > 0 ||
                     faults.crashAtOp > 0 ||
                     faults.enospcAfterBytes > 0;
    if (spec.resume && spec.jsonPath.empty()) {
        fatal("config: resume=1 requires out= (the resume journal "
              "lives next to the JSON document)");
    }
    if (spec.checkpointEveryS > 0 && spec.jsonPath.empty()) {
        fatal("config: checkpoint_every_s= requires out= (autosave "
              "checkpoints live next to the JSON document)");
    }
    if (!spec.restorePath.empty()) {
        if (spec.resume) {
            fatal("config: restore= cannot be combined with "
                  "resume=1 (the journal replays whole runs, the "
                  "checkpoint resumes inside one)");
        }
        if (!std::ifstream(spec.restorePath)) {
            fatal(msg() << "config: restore= file '"
                        << spec.restorePath
                        << "' does not exist or is not readable");
        }
    }
    if (!spec.jsonPath.empty()) {
        probeWritable(spec.jsonPath);
        probeWritable(journalPathFor(spec.jsonPath));
    }
    return spec;
}

const BenchmarkRun &
ExperimentResult::at(std::size_t i) const
{
    if (i >= results.size())
        panic("ExperimentResult: run index out of range");
    return results[i];
}

const RunSpec &
ExperimentResult::specAt(std::size_t i) const
{
    if (i >= specs.size())
        panic("ExperimentResult: spec index out of range");
    return specs[i];
}

const BenchmarkRun &
ExperimentResult::run(Benchmark bench,
                      const std::string &variant) const
{
    if (const BenchmarkRun *r = find(bench, variant))
        return *r;
    fatal(msg() << "experiment '" << expTitle << "' has no run for "
                << benchmarkName(bench) << " variant '" << variant
                << "'");
}

const BenchmarkRun *
ExperimentResult::find(Benchmark bench,
                       const std::string &variant) const
{
    for (const BenchmarkRun &r : results) {
        if (r.bench == bench && r.variant == variant)
            return &r;
    }
    return nullptr;
}

std::vector<const BenchmarkRun *>
ExperimentResult::variantRuns(const std::string &variant) const
{
    std::vector<const BenchmarkRun *> matching;
    for (const BenchmarkRun &r : results) {
        if (r.variant == variant)
            matching.push_back(&r);
    }
    return matching;
}

std::vector<std::string>
ExperimentResult::names(const std::string &variant) const
{
    std::vector<std::string> names;
    for (const BenchmarkRun *r : variantRuns(variant))
        names.push_back(r->name);
    return names;
}

std::vector<PowerBreakdown>
ExperimentResult::breakdowns(const std::string &variant) const
{
    std::vector<PowerBreakdown> breakdowns;
    for (const BenchmarkRun *r : variantRuns(variant))
        breakdowns.push_back(r->breakdown);
    return breakdowns;
}

std::vector<PowerBreakdown>
ExperimentResult::conventionalBreakdowns(
    const std::string &variant) const
{
    std::vector<PowerBreakdown> breakdowns;
    for (const BenchmarkRun *r : variantRuns(variant))
        breakdowns.push_back(r->conventional);
    return breakdowns;
}

std::vector<CounterBank>
ExperimentResult::counterTotals(const std::string &variant) const
{
    // Dataless runs (failed/skipped/restored) contribute an all-zero
    // bank so the vector stays aligned with names(); renderers show
    // those rows as gaps.
    std::vector<CounterBank> totals;
    for (const BenchmarkRun *r : variantRuns(variant))
        totals.push_back(r->hasData() ? r->system->totals()
                                      : CounterBank{});
    return totals;
}

std::array<ServiceStats, numServices>
ExperimentResult::pooledServiceStats(const std::string &variant) const
{
    std::array<ServiceStats, numServices> pooled{};
    for (const BenchmarkRun *r : variantRuns(variant)) {
        if (!r->hasData())
            continue;  // nothing survived to pool
        for (ServiceKind kind : allServices) {
            pooled[int(kind)].merge(
                r->system->kernel().serviceStats(kind));
        }
    }
    return pooled;
}

double
ExperimentResult::freqHz() const
{
    for (const BenchmarkRun &r : results) {
        if (r.hasData())
            return r.system->powerModel().technology().freqHz();
    }
    return 200e6;
}

std::size_t
ExperimentResult::failedRuns() const
{
    std::size_t count = 0;
    for (const BenchmarkRun &r : results) {
        if (r.result.outcome == RunOutcome::Failed)
            ++count;
    }
    return count;
}

int
ExperimentResult::exitCode() const
{
    if (wasInterrupted)
        return 130;  // 128 + SIGINT, the conventional interrupt code
    return failedRuns() > 0 ? 1 : 0;
}

namespace
{

void
writeBreakdownJson(JsonWriter &json, const PowerBreakdown &b)
{
    json.beginObject();
    json.member("freq_hz", b.freqHz);
    json.member("total_cycles", std::uint64_t(b.totalCycles()));
    json.member("seconds", b.seconds());
    json.member("disk_energy_j", b.diskEnergyJ);
    json.member("cpu_mem_energy_j", b.cpuMemEnergyJ());
    json.member("system_avg_power_w", b.systemAvgPowerW());
    json.key("modes");
    json.beginObject();
    for (ExecMode mode : allExecModes) {
        json.key(execModeName(mode));
        json.beginObject();
        json.member("cycles",
                    std::uint64_t(b.cycles[int(mode)]));
        json.member("energy_j", b.modeEnergyJ(mode));
        json.key("component_energy_j");
        json.beginObject();
        for (Component c : allComponents) {
            if (c == Component::Disk)
                continue;  // not mode-attributed
            json.member(componentName(c),
                        b.energyJ[int(mode)][int(c)]);
        }
        json.endObject();
        json.endObject();
    }
    json.endObject();
    json.endObject();
}

void
writeCountersJson(JsonWriter &json, const CounterBank &totals)
{
    json.beginObject();
    for (ExecMode mode : allExecModes) {
        json.key(execModeName(mode));
        json.beginObject();
        for (int i = 0; i < numCounters; ++i) {
            CounterId id = CounterId(i);
            json.member(counterName(id), totals.get(mode, id));
        }
        json.endObject();
    }
    json.endObject();
}

void
writeServicesJson(JsonWriter &json, const System &sys)
{
    json.beginObject();
    for (ServiceKind kind : allServices) {
        const ServiceStats &s = sys.kernel().serviceStats(kind);
        json.key(serviceName(kind));
        json.beginObject();
        json.member("invocations", s.invocations);
        json.member("cycles", s.cycles);
        json.member("energy_j", s.energyJ);
        json.member("mean_energy_j", s.meanEnergyJ());
        json.member("stdev_energy_j", s.stdevEnergyJ());
        json.member("cod_pct", s.coeffOfDeviationPct());
        json.endObject();
    }
    json.endObject();
}

void
writeRunJson(JsonWriter &json, const BenchmarkRun &run)
{
    json.beginObject();
    json.member("bench", run.name);
    json.member("variant", run.variant);
    json.member("scale", run.scale);
    json.member("outcome", runOutcomeName(run.result.outcome));
    json.member("attempts", run.attempts);
    if (!run.hasData()) {
        // Failed/skipped run: nothing survived past the firewall, so
        // the record carries only identity, outcome, and the error.
        json.member("wall_ms", 0.0);
        json.member("error", run.error.empty()
                                 ? run.result.diagnostics
                                 : run.error);
        json.endObject();
        return;
    }
    const System &sys = *run.system;
    // Simulated machine time, not host time: deterministic across
    // hosts and jobs= settings.
    json.member("wall_ms", run.breakdown.seconds() * 1e3);
    json.member("error", run.result.ok() ? std::string()
                                         : run.result.diagnostics);
    json.member("cycles", std::uint64_t(sys.now()));
    json.member("detailed_cycles",
                std::uint64_t(sys.detailedCycles()));
    json.member("fast_forwarded_cycles",
                std::uint64_t(sys.fastForwardedCycles()));
    json.member("committed_insts", sys.cpu().committedInsts());
    json.member("ipc", sys.cpu().ipc());
    json.member("sample_windows", std::uint64_t(sys.log().size()));

    json.key("breakdown");
    writeBreakdownJson(json, run.breakdown);
    json.key("conventional_breakdown");
    writeBreakdownJson(json, run.conventional);
    json.key("counters");
    writeCountersJson(json, sys.totals());
    json.key("services");
    writeServicesJson(json, sys);

    json.key("disk");
    json.beginObject();
    json.member("energy_j", sys.diskEnergyJ());
    json.member("conventional_energy_j",
                sys.diskEnergyConventionalJ());
    json.member("spin_ups", sys.disk().spinUps());
    json.member("spin_downs", sys.disk().spinDowns());
    json.member("faults", sys.kernel().diskFaults());
    json.member("retries", sys.kernel().diskRetries());
    json.member("give_ups", sys.kernel().diskGiveUps());
    if (const AdaptiveSpindownPolicy *sp = sys.spindownPolicy()) {
        json.member("adaptive_threshold_s", sp->thresholdSeconds());
        json.member("threshold_adjustments", sp->adjustments());
    }
    json.endObject();

    if (const DvfsGovernor *gov = sys.dvfsGovernor()) {
        json.key("dvfs");
        json.beginObject();
        json.member("budget_w", gov->budgetW());
        json.member("level", std::uint64_t(gov->level()));
        json.member("deepest_level",
                    std::uint64_t(gov->deepestLevel()));
        json.member("steps_down", gov->stepsDown());
        json.member("steps_up", gov->stepsUp());
        json.member("throttled_cycles",
                    std::uint64_t(sys.throttledCycles()));
        json.endObject();
    }

    json.endObject();
}

std::string
runLabel(const RunSpec &spec)
{
    std::string label = benchmarkName(spec.bench);
    if (!spec.variant.empty())
        label += "/" + spec.variant;
    return label;
}

/** runLabel made filename-safe for the autosave path suffix. */
std::string
checkpointLabel(const RunSpec &spec)
{
    std::string label = runLabel(spec);
    for (char &c : label) {
        if (c == '/' || c == '\\' || c == ' ')
            c = '-';
    }
    return label;
}

/** A run that died inside the firewall: identity + error only. */
BenchmarkRun
failedRun(const std::string &title, const RunSpec &spec,
          const std::string &what)
{
    warn(msg() << "[" << title << "] " << runLabel(spec)
               << " failed inside the run firewall: " << what);
    BenchmarkRun run;
    run.bench = spec.bench;
    run.name = benchmarkName(spec.bench);
    run.variant = spec.variant;
    run.scale = spec.scale;
    run.result.outcome = RunOutcome::Failed;
    run.result.diagnostics = what;
    run.error = what;
    return run;
}

/** A run skipped because shutdown drained the queue first. */
BenchmarkRun
skippedRun(const RunSpec &spec)
{
    BenchmarkRun run;
    run.bench = spec.bench;
    run.name = benchmarkName(spec.bench);
    run.variant = spec.variant;
    run.scale = spec.scale;
    run.result.outcome = RunOutcome::Cancelled;
    run.result.diagnostics = "cancelled before start (shutdown drain)";
    run.error = run.result.diagnostics;
    return run;
}

/** A run replayed from the resume journal: only its JSON survives. */
BenchmarkRun
restoredRun(const std::string &title, const RunSpec &spec,
            const JournalEntry &entry)
{
    BenchmarkRun run;
    run.bench = spec.bench;
    run.name = benchmarkName(spec.bench);
    run.variant = spec.variant;
    run.scale = spec.scale;
    run.attempts = entry.attempts;
    run.restoredJson = entry.runJson;
    RunOutcome outcome = RunOutcome::Completed;
    if (runOutcomeFromName(entry.outcome, outcome)) {
        run.result.outcome = outcome;
    } else {
        warn(msg() << "journal entry for " << runLabel(spec)
                   << " has unknown outcome '" << entry.outcome
                   << "'; treating it as completed");
    }
    if (!run.result.ok())
        run.result.diagnostics = "(restored from journal)";
    if (run.result.outcome == RunOutcome::Failed)
        run.error = run.result.diagnostics;
    status(msg() << "[" << title << "] " << runLabel(spec)
                 << " restored from journal (" << entry.outcome
                 << ")");
    return run;
}

/**
 * One-shot diagnostic rerun of a Failed spec: invariant sweeps
 * forced on, verbose logging, serial. The rerun replaces the failed
 * record (attempts=2); if it fails again the two errors are joined.
 */
void
diagnoseRun(const std::string &title, const RunSpec &spec,
            const CancelToken &token, BenchmarkRun &into)
{
    status(msg() << "[" << title << "] diagnostic rerun of "
                 << runLabel(spec)
                 << " (invariant sweeps forced on)");
    LogLevel saved = logLevel();
    setLogLevel(LogLevel::Verbose);
    BenchmarkRun retry = runSpecProtected(title, spec, token,
                                          /*forceInvariants=*/true);
    setLogLevel(saved);
    retry.attempts = 2;
    if (retry.result.outcome == RunOutcome::Failed &&
        retry.error != into.error) {
        retry.error =
            into.error + "; diagnostic rerun: " + retry.error;
        retry.result.diagnostics = retry.error;
    }
    into = std::move(retry);
}

} // namespace

BenchmarkRun
runSpecProtected(const std::string &title, const RunSpec &spec,
                 const CancelToken &token, bool forceInvariants)
{
    RunOptions options;
    options.cancel = &token;
    options.forceInvariants = forceInvariants;
    options.checkpointEverySeconds = spec.checkpointEveryS;
    options.checkpointPath = spec.checkpointPath;
    options.restorePath = spec.restorePath;
    options.durability = spec.durability;
    try {
        if (!spec.injectFailure.empty())
            throw SimError(ErrorKind::Fatal, spec.injectFailure);
        BenchmarkRun run =
            runBenchmark(spec.bench, spec.config, spec.scale,
                         options);
        run.variant = spec.variant;
        status(msg() << "[" << title << "] " << runLabel(spec)
                     << " done: " << run.system->now()
                     << " cycles");
        return run;
    } catch (const SimError &e) {
        return failedRun(title, spec, e.what());
    } catch (const std::exception &e) {
        return failedRun(title, spec, e.what());
    }
}

std::string
renderRunJson(const BenchmarkRun &run)
{
    std::ostringstream text;
    {
        JsonWriter json(text);
        writeRunJson(json, run);
    }
    return text.str();
}

void
writeExperimentDocument(std::ostream &out, const std::string &title,
                        bool interrupted,
                        const std::vector<std::string> &runJsons)
{
    JsonWriter json(out);
    json.beginObject();
    json.member("schema", "softwatt-experiment-v2");
    json.member("experiment", title);
    json.member("interrupted", interrupted);
    json.key("runs");
    json.beginArray();
    for (const std::string &text : runJsons)
        json.rawValue(text);
    json.endArray();
    json.endObject();
    out << '\n';
}

void
ExperimentResult::writeJson(std::ostream &out) const
{
    // Restored runs splice their journaled text; live runs are
    // rendered through the exact same path the journal used.
    std::vector<std::string> runJsons;
    runJsons.reserve(results.size());
    for (const BenchmarkRun &run : results) {
        runJsons.push_back(run.restored() ? run.restoredJson
                                          : renderRunJson(run));
    }
    writeExperimentDocument(out, expTitle, wasInterrupted, runJsons);
}

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    ExperimentResult result;
    result.expTitle = spec.title;

    // io_fault_* schedule, scoped to this experiment: journal
    // appends, checkpoint autosaves and the final document write all
    // feel it; it is removed again even on exception paths.
    ScopedIoFaults faultScope(spec.ioFaults);

    // Fold the spec-level deadline/grace budgets into each run's
    // config up front, so the executed run, its fingerprint, and the
    // journal all see the same effective configuration.
    std::vector<RunSpec> runs = spec.runs;
    for (RunSpec &rs : runs) {
        rs.durability = spec.durability;
        if (spec.deadlineS > 0.0 && rs.config.deadlineSeconds <= 0.0)
            rs.config.deadlineSeconds = spec.deadlineS;
        if (spec.graceS > 0.0 &&
            rs.config.shutdownGraceSeconds <= 0.0)
            rs.config.shutdownGraceSeconds = spec.graceS;
        if (spec.checkpointEveryS > 0.0 && !spec.jsonPath.empty() &&
            rs.checkpointEveryS <= 0.0) {
            rs.checkpointEveryS = spec.checkpointEveryS;
            rs.checkpointPath =
                spec.jsonPath + "." + checkpointLabel(rs) + ".ckpt";
        }
    }
    if (!spec.restorePath.empty()) {
        // A checkpoint encodes exactly one machine; restoring it
        // into several runs of a sweep is never what anyone means.
        if (runs.size() != 1) {
            fatal(msg() << "restore= needs a single-run spec, but '"
                        << spec.title << "' schedules "
                        << runs.size() << " runs");
        }
        runs.front().restorePath = spec.restorePath;
    }
    result.specs = runs;

    unsigned jobs = spec.jobs <= 0 ? ThreadPool::defaultThreads()
                                   : unsigned(spec.jobs);
    if (jobs > runs.size())
        jobs = unsigned(runs.size());
    if (jobs == 0)
        jobs = 1;
    result.workerCount = int(jobs);

    // Cancellation plumbing: SIGINT/SIGTERM escalate the token
    // (Live -> Drain -> Hard) for the experiment's duration.
    CancelToken localToken;
    CancelToken &token = spec.cancel ? *spec.cancel : localToken;
    SignalGuard signalGuard(token);

    std::vector<std::string> prints;
    prints.reserve(runs.size());
    for (const RunSpec &rs : runs)
        prints.push_back(specFingerprint(rs));

    const std::string journalPath =
        spec.jsonPath.empty() ? std::string()
                              : journalPathFor(spec.jsonPath);

    std::vector<JournalEntry> journaled;
    if (spec.resume) {
        if (journalPath.empty()) {
            fatal("resume=1 requires out= (the resume journal lives "
                  "next to the JSON document)");
        }
        journaled = RunJournal::load(journalPath);
    }
    auto findJournaled =
        [&](std::size_t i) -> const JournalEntry * {
        const std::string key = journalKey(spec.title, prints[i]);
        for (const JournalEntry &e : journaled) {
            if (journalKey(e.experiment, e.config) == key &&
                !e.runJson.empty())
                return &e;
        }
        return nullptr;
    };

    RunJournal journal;
    if (!journalPath.empty() &&
        !journal.open(journalPath, /*truncate=*/!spec.resume,
                      spec.durability)) {
        fatal(msg() << "cannot open journal '" << journalPath
                    << "' for writing");
    }

    // A finished run is journaled immediately, EXCEPT Cancelled runs
    // (they must re-execute on resume) and Failed runs (their final
    // attempts count is only known after the optional diagnostic
    // rerun below).
    auto journalIfDurable = [&](std::size_t i,
                                const BenchmarkRun &run) {
        if (!journal.isOpen() || run.restored())
            return;
        RunOutcome outcome = run.result.outcome;
        if (outcome == RunOutcome::Cancelled ||
            outcome == RunOutcome::Failed)
            return;
        journal.append(makeJournalEntry(spec.title, runs[i],
                                        prints[i], run));
    };

    auto executeOne = [&](std::size_t i) -> BenchmarkRun {
        if (token.level() >= CancelToken::Drain)
            return skippedRun(runs[i]);
        return runSpecProtected(spec.title, runs[i], token);
    };

    const std::size_t n = runs.size();
    result.results.resize(n);

    {
    // Exception firewall: while runs execute, fatal()/panic() raise
    // SimError instead of exiting, so one poisoned run cannot take
    // the sweep down; runProtected() catches per run. Scoped to the
    // execution phase only — a fatal() while writing the final
    // document below keeps its normal terminate behaviour.
    ScopedErrorHandler firewall(throwingErrorHandler);

    if (jobs == 1) {
        // Reference path: strictly serial, on the calling thread.
        for (std::size_t i = 0; i < n; ++i) {
            if (const JournalEntry *e = findJournaled(i)) {
                result.results[i] =
                    restoredRun(spec.title, runs[i], *e);
                continue;
            }
            result.results[i] = executeOne(i);
            journalIfDurable(i, result.results[i]);
        }
    } else {
        ThreadPool pool(jobs);
        std::vector<std::pair<std::size_t,
                              std::future<BenchmarkRun>>> futures;
        futures.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (const JournalEntry *e = findJournaled(i)) {
                result.results[i] =
                    restoredRun(spec.title, runs[i], *e);
                continue;
            }
            futures.emplace_back(i, pool.submit([&executeOne, i] {
                return executeOne(i);
            }));
        }
        // Collect in submission (= spec) order; completion order is
        // irrelevant because runs share no mutable state. On
        // cancellation, queued-unstarted jobs are discarded; their
        // broken futures read back as skipped runs.
        bool drained = false;
        for (auto &[i, f] : futures) {
            try {
                result.results[i] = f.get();
            } catch (const std::future_error &) {
                result.results[i] = skippedRun(runs[i]);
            }
            journalIfDurable(i, result.results[i]);
            if (!drained && token.cancelled()) {
                pool.cancelPending();
                drained = true;
            }
        }
    }

    // Post-pass over Failed runs: optional diagnostic rerun, then
    // journal their final state.
    for (std::size_t i = 0; i < n; ++i) {
        BenchmarkRun &run = result.results[i];
        if (run.restored() ||
            run.result.outcome != RunOutcome::Failed)
            continue;
        if (spec.diagnose && !token.cancelled())
            diagnoseRun(spec.title, runs[i], token, run);
        if (journal.isOpen()) {
            journal.append(makeJournalEntry(spec.title, runs[i],
                                            prints[i], run));
        }
    }
    }  // firewall scope

    result.wasInterrupted = token.cancelled();
    if (result.wasInterrupted) {
        warn(msg() << "[" << spec.title << "] interrupted: "
                   << "in-flight runs drained, pending runs "
                   << "recorded as cancelled");
    }

    result.degradedStorage = journal.degraded();
    for (const BenchmarkRun &run : result.results)
        result.degradedStorage |= run.storageDegraded;

    if (!spec.jsonPath.empty()) {
        std::ostringstream text;
        result.writeJson(text);
        IoStatus written = hostWriteFileAtomic(
            spec.jsonPath, text.str(), spec.durability);
        if (!written) {
            // The computed results still live in the returned
            // ExperimentResult (and possibly the journal); losing
            // the document file is a degradation, not a sweep
            // failure.
            result.degradedStorage = true;
            warn(msg() << "[" << spec.title << "] cannot write "
                       << "results document (storage degraded): "
                       << written.message);
        } else {
            status(msg() << "[" << spec.title
                         << "] results written to "
                         << spec.jsonPath);
        }
    }
    return result;
}

} // namespace softwatt

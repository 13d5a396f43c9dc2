#include "pass.hh"

#include <chrono>
#include <memory>
#include <sstream>

#include "core/journal.hh"
#include "cpu/superscalar_cpu.hh"
#include "sim/config.hh"
#include "sim/host_io.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

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

/** One run of a pass with its host-time split. */
struct TimedRun
{
    BenchmarkRun run;
    std::string json;
    std::string error;
    double setupS = 0;
    double runS = 0;
    double finishS = 0;
};

/**
 * runBenchmark() unrolled with timestamps: the same public calls in
 * the same order, so the rendered run object is the runner's.
 */
TimedRun
timedRun(const ExperimentSpec &spec, const RunSpec &rs,
         const std::string &autosave, const std::string &restore,
         SpanRecorder &rec)
{
    TimedRun t;
    BenchmarkRun &run = t.run;
    run.bench = rs.bench;
    run.name = benchmarkName(rs.bench);
    run.variant = rs.variant;
    run.scale = rs.scale;

    // The runner's exception firewall: fatal()/panic() inside a run
    // becomes a failed run record, not a dead benchmark.
    ScopedErrorHandler firewall(throwingErrorHandler);
    try {
        Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(rec, "core.setup");
            run.system = std::make_unique<System>(rs.config);
            WorkloadSpec ws = benchmarkSpec(rs.bench);
            if (rs.scale != 1.0)
                ws = scaleWorkload(ws, rs.scale);
            run.system->attachWorkload(std::make_unique<Workload>(ws));
            if (spec.checkpointEveryS > 0) {
                run.system->setCheckpointPolicy(spec.checkpointEveryS,
                                                autosave,
                                                spec.durability);
            }
            if (!restore.empty()) {
                ScopedSpan restoring(rec, "sim.restore");
                if (!run.system->restoreCheckpoint(restore))
                    t.error = "no usable checkpoint at " + restore;
            }
        }
        t.setupS = secondsSince(t0);
        run.warmStarted = run.system->restored();
        run.warmStartTick = std::uint64_t(run.system->now());

        Clock::time_point t1 = Clock::now();
        {
            ScopedSpan span(rec, "core.run");
            run.result = run.system->run();
        }
        t.runS = secondsSince(t1);
        run.ticksExecuted =
            std::uint64_t(run.system->now()) - run.warmStartTick;
        run.storageDegraded = run.system->checkpointingDegraded();

        Clock::time_point t2 = Clock::now();
        {
            ScopedSpan span(rec, "core.finish");
            run.breakdown = run.system->breakdown(false);
            run.conventional = run.system->breakdown(true);
            t.json = renderRunJson(run);
        }
        t.finishS = secondsSince(t2);

        if (!run.result.ok()) {
            t.error = std::string("outcome ") +
                      runOutcomeName(run.result.outcome) + ": " +
                      run.result.diagnostics;
        } else if (run.storageDegraded && t.error.empty()) {
            t.error = "checkpoint autosave failed mid-run";
        }
    } catch (const std::exception &e) {
        run.system.reset();
        run.result.outcome = RunOutcome::Failed;
        run.result.diagnostics = e.what();
        run.error = e.what();
        t.error = std::string("failed: ") + e.what();
        t.json = renderRunJson(run);
    }
    return t;
}

void
addCounts(Counts &c, const System &sys)
{
    std::uint64_t committed = sys.cpu().committedInsts();
    c["core.detailed_cycles"] += sys.detailedCycles();
    c["core.ff_cycles"] += sys.fastForwardedCycles();
    c["core.throttled_cycles"] += sys.throttledCycles();
    c["core.sample_windows"] += sys.log().size();
    c["cpu.committed_insts"] += committed;
    c["cpu.mxs_committed_insts"] +=
        dynamic_cast<const SuperscalarCpu *>(&sys.cpu()) ? committed
                                                           : 0;
    c["mem.tlb_refs"] += sys.tlb().refs();
    c["mem.tlb_misses"] += sys.tlb().misses();
    c["mem.l1i_misses"] += sys.hierarchy().icache().misses();
    c["mem.l1d_misses"] += sys.hierarchy().dcache().misses();
    c["mem.l2_misses"] += sys.hierarchy().l2cache().misses();
    std::uint64_t invocations = 0;
    for (ServiceKind kind : allServices)
        invocations += sys.kernel().serviceStats(kind).invocations;
    c["os.service_invocations"] += invocations;
    c["disk.requests"] += sys.disk().requestsServed();
    c["disk.spin_ups"] += sys.disk().spinUps();
    c["sim.events_executed"] += sys.eventQueue().eventsExecuted();
    c["sim.ckpt_count"] += sys.checkpointsTaken();
}

RunDigest
digestOf(const TimedRun &t)
{
    std::ostringstream csv;
    t.run.system->log().writeCsv(csv);
    return digestRun(t.json, csv.str());
}

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"mxs-suite", {"cpu.model=superscalar", "scale=0.05"}, false},
        {"mipsy-suite", {"cpu.model=inorder", "scale=0.1"}, false},
        {"managed-resume",
         {"cpu.model=inorder", "disk.config=spindown",
          "adaptive_spindown=1", "dvfs=1", "power_budget_w=6",
          "sample_window=2000", "checkpoint_every_s=0.001",
          "scale=0.05"},
         true},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &wl : workloads()) {
        if (wl.name == name)
            return &wl;
    }
    return nullptr;
}

ExperimentSpec
makeSpec(const WorkloadDef &wl, std::uint64_t seed,
         const std::string &json_path)
{
    Config args;
    for (const std::string &a : wl.assignments) {
        if (!args.parseAssignment(a))
            fatal("perfbench: bad workload assignment '" + a + "'");
    }
    args.set("jobs", std::int64_t(1));
    args.set("seed", std::int64_t(kStockKernelSeed + seed));
    if (!json_path.empty())
        args.set("out", json_path);
    double scale = args.getDouble("scale", 1.0);
    ExperimentSpec spec = ExperimentSpec::fromArgs(wl.name, args);
    spec.addSuite(SystemConfig::fromConfig(args), scale);
    return spec;
}

const std::vector<std::string> &
countNames()
{
    static const std::vector<std::string> names = {
        "core.detailed_cycles", "core.ff_cycles",
        "core.throttled_cycles", "core.sample_windows",
        "cpu.committed_insts", "cpu.mxs_committed_insts",
        "mem.tlb_refs",        "mem.tlb_misses",
        "mem.l1i_misses",      "mem.l1d_misses",
        "mem.l2_misses",       "os.service_invocations",
        "disk.requests",       "disk.spin_ups",
        "sim.events_executed", "sim.ckpt_count",
    };
    return names;
}

std::string
autosavePathFor(const ExperimentSpec &spec, const RunSpec &run)
{
    if (spec.checkpointEveryS <= 0 || spec.jsonPath.empty())
        return "";
    std::string label = benchmarkName(run.bench);
    if (!run.variant.empty())
        label += "-" + run.variant;
    return spec.jsonPath + "." + label + ".ckpt";
}

PassResult
runPass(const ExperimentSpec &spec, bool resume, SpanRecorder &rec,
        const FinishedHook &hook)
{
    PassResult pass;
    ScopedSpan passSpan(rec, "pass");
    for (const std::string &name : countNames())
        pass.counts[name] = 0;

    RunJournal journal;
    std::string journalError;
    if (!spec.jsonPath.empty()) {
        Clock::time_point t0 = Clock::now();
        if (!journal.open(journalPathFor(spec.jsonPath), true,
                          spec.durability))
            journalError = "cannot open the run journal";
        pass.finishS += secondsSince(t0);
    }

    std::vector<std::string> jsons;
    for (const RunSpec &rs : spec.runs) {
        const std::string label = benchmarkName(rs.bench);
        const std::string autosave = autosavePathFor(spec, rs);
        RunCheck check{label, journalError, {}};
        std::uint64_t autosaves = 0;
        {
            ScopedSpan runSpan(rec, "run." + label);
            TimedRun t = timedRun(spec, rs, autosave, "", rec);
            if (check.error.empty())
                check.error = t.error;
            if (journal.isOpen()) {
                Clock::time_point t0 = Clock::now();
                ScopedSpan span(rec, "core.journal");
                journal.append(makeJournalEntry(
                    spec.title, rs, specFingerprint(rs), t.run));
                t.finishS += secondsSince(t0);
                if (journal.degraded() && check.error.empty())
                    check.error = "journal append failed";
            }
            pass.setupS += t.setupS;
            pass.runS += t.runS;
            pass.finishS += t.finishS;
            jsons.push_back(t.json);
            if (t.run.hasData()) {
                System &sys = *t.run.system;
                {
                    ScopedSpan span(rec, "check");
                    check.digest = digestOf(t);
                    addCounts(pass.counts, sys);
                }
                pass.committedInsts += sys.cpu().committedInsts();
                pass.simCycles += std::uint64_t(sys.now());
                autosaves = sys.checkpointsTaken();
                if (hook) {
                    ScopedSpan span(rec, "probe.finished");
                    hook(rs, sys);
                }
            }
        }
        pass.runs.push_back(check);
        if (!resume)
            continue;

        RunCheck again{label + "/resumed", "", {}};
        ScopedSpan runSpan(rec, "run." + label + ".resumed");
        if (autosaves == 0) {
            again.error = "no autosave to resume from";
        } else {
            TimedRun r =
                timedRun(spec, rs, autosave + ".resume", autosave, rec);
            pass.setupS += r.setupS;
            pass.resumeRunS += r.runS;
            pass.finishS += r.finishS;
            again.error = r.error;
            if (r.run.hasData()) {
                ScopedSpan span(rec, "check");
                again.digest = digestOf(r);
                if (again.error.empty() && again.digest != check.digest) {
                    again.error =
                        "resumed run differs from the uninterrupted "
                        "run: " +
                        describeMismatch(check.digest, again.digest);
                }
            }
        }
        pass.runs.push_back(again);
    }

    Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span(rec, "core.report");
        std::ostringstream doc;
        writeExperimentDocument(doc, spec.title, false, jsons);
        pass.document = doc.str();
        if (!spec.jsonPath.empty()) {
            IoStatus written = hostWriteFileAtomic(
                spec.jsonPath, pass.document, spec.durability);
            if (!written && !pass.runs.empty() &&
                pass.runs.back().error.empty()) {
                pass.runs.back().error =
                    "cannot write the document: " + written.message;
            }
        }
    }
    pass.reportS = secondsSince(t0);
    pass.wallS = pass.setupS + pass.runS + pass.resumeRunS +
                 pass.finishS + pass.reportS;
    return pass;
}

Verdict::Verdict(const PinTable &pins, std::string workload,
                 std::uint64_t seed)
    : pins(pins), workload(std::move(workload)), seed(seed),
      usePins(pins.pinned(this->workload, seed))
{
}

void
Verdict::check(const PassResult &pass)
{
    const bool first = firstRuns.empty();
    if (first) {
        firstRuns = pass.runs;
        firstCounts = pass.counts;
    }
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
        const RunCheck &run = pass.runs[i];
        ++numAttempted;
        std::string error = run.error;
        if (error.empty() && usePins) {
            // A resumed run must match its uninterrupted run's pin.
            const RunDigest *pin = pins.find(
                workload, seed, run.label.substr(0, run.label.find('/')));
            if (!pin)
                error = "no pinned digest";
            else if (*pin != run.digest)
                error = "pinned output changed: " +
                        describeMismatch(*pin, run.digest);
        }
        if (error.empty() && !first) {
            if (i >= firstRuns.size() || firstRuns[i].label != run.label)
                error = "run order differs from the first pass";
            else if (firstRuns[i].digest != run.digest)
                error = "output did not repeat the first pass: " +
                        describeMismatch(firstRuns[i].digest, run.digest);
            else if (i == 0 && pass.counts != firstCounts)
                error = "count metrics did not repeat the first pass";
        }
        if (!error.empty())
            failures_.push_back(run.label + ": " + error);
    }
}

} // namespace perfbench

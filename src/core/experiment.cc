#include "experiment.hh"

#include <cstdio>
#include <cstring>

#include "sim/logging.hh"

namespace softwatt
{

BenchmarkRun
runBenchmark(Benchmark bench, const SystemConfig &config, double scale)
{
    return runBenchmark(bench, config, scale, RunOptions{});
}

BenchmarkRun
runBenchmark(Benchmark bench, const SystemConfig &config, double scale,
             const RunOptions &options)
{
    BenchmarkRun run;
    run.bench = bench;
    run.name = benchmarkName(bench);
    run.scale = scale;
    run.system = std::make_unique<System>(config);
    if (options.cancel)
        run.system->setCancelToken(options.cancel);
    if (options.forceInvariants)
        run.system->invariants().setEnabled(true);

    run.system->attachWorkload(
        std::make_unique<Workload>(scaledBenchmarkSpec(bench, scale)));
    if (options.checkpointEverySeconds > 0) {
        run.system->setCheckpointPolicy(options.checkpointEverySeconds,
                                        options.checkpointPath,
                                        options.durability);
    }
    if (!options.restorePath.empty())
        run.system->restoreCheckpoint(options.restorePath);
    run.warmStarted = run.system->restored();
    run.warmStartTick = std::uint64_t(run.system->now());
    run.result = run.system->run();
    run.ticksExecuted =
        std::uint64_t(run.system->now()) - run.warmStartTick;
    run.storageDegraded = run.system->checkpointingDegraded();
    if (!run.result.ok())
        warn(msg() << run.name << ": run ended early ("
                   << runOutcomeName(run.result.outcome) << "): "
                   << run.result.diagnostics);

    run.breakdown = run.system->breakdown(false);
    run.conventional = run.system->breakdown(true);
    return run;
}

WorkloadSpec
scaledBenchmarkSpec(Benchmark bench, double scale)
{
    WorkloadSpec spec = benchmarkSpec(bench);
    if (scale != 1.0)
        spec = scaleWorkload(spec, scale);
    return spec;
}

std::uint64_t
machineCheckpointFingerprint(Benchmark bench,
                             const SystemConfig &config, double scale)
{
    return configFingerprint(config, scaledBenchmarkSpec(bench, scale));
}

PowerBreakdown
averageBreakdowns(const std::vector<PowerBreakdown> &breakdowns)
{
    PowerBreakdown avg;
    if (breakdowns.empty())
        return avg;
    avg.freqHz = breakdowns.front().freqHz;
    for (const PowerBreakdown &b : breakdowns)
        avg.accumulate(b);
    return avg;
}

std::string
usageText(const char *argv0)
{
    return msg() << "usage: " << argv0
                 << " [key=value ...]\n"
                    "  e.g. scale=0.1 disk.config=spindown "
                    "disk.threshold_s=2 cpu.model=mipsy seed=7\n"
                    "  power keys: power_budget_w=W (power budget "
                    "for the DVFS governor),\n"
                    "              dvfs=1 (closed-loop DVFS "
                    "governor; needs power_budget_w=),\n"
                    "              adaptive_spindown=1 (adaptive "
                    "disk spin-down threshold;\n"
                    "              needs disk.config=spindown)\n"
                    "  runner keys: jobs=N (worker threads, "
                    "default hardware concurrency),\n"
                    "               out=results.json (structured "
                    "results document),\n"
                    "               deadline_s=T (per-run budget in "
                    "simulated seconds, 0 = off),\n"
                    "               resume=1 (replay "
                    "<out>.journal.jsonl, skip finished runs),\n"
                    "               grace_s=T (post-SIGINT budget "
                    "for in-flight runs, 0 = finish),\n"
                    "               diagnose=1 (rerun failed specs "
                    "once with invariant sweeps),\n"
                    "               checkpoint_every_s=T (autosave a "
                    "machine checkpoint every T simulated\n"
                    "               seconds next to <out>; needs "
                    "out=),\n"
                    "               restore=file.ckpt (restore "
                    "machine state before the run;\n"
                    "               single-run specs only, not with "
                    "resume=1),\n"
                    "               durability=buffered|full "
                    "(storage barrier discipline: full adds\n"
                    "               fsync chains so acknowledged "
                    "data survives a power cut)\n"
                    "  fault keys: io_fault_seed=N, io_fault_rate=P "
                    "(EIO), io_fault_enospc_rate=P,\n"
                    "              io_fault_short_write_rate=P, "
                    "io_fault_torn_rename_rate=P,\n"
                    "              io_fault_crash_at_op=N (power "
                    "cut after op N),\n"
                    "              io_fault_enospc_after_bytes=N "
                    "(disk full after N bytes);\n"
                    "              deterministic host-I/O fault "
                    "injection for durability testing";
}

bool
tryParseArgs(int argc, char **argv, Config &out, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            error = usageText(argv[0]);
            return false;
        }
        if (!out.parseAssignment(arg)) {
            error = msg() << "malformed argument '" << arg
                          << "' (expected key=value)";
            return false;
        }
    }
    return true;
}

Config
parseArgs(int argc, char **argv)
{
    Config config;
    std::string error;
    if (!tryParseArgs(argc, argv, config, error))
        fatal(error);
    return config;
}

CliArgs
parseCliArgs(int argc, char **argv)
{
    CliArgs cli;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::printf("%s\n", usageText(argv[0]).c_str());
            cli.shouldExit = true;
            return cli;
        }
    }
    std::string error;
    if (!tryParseArgs(argc, argv, cli.config, error))
        fatal(error);
    return cli;
}

} // namespace softwatt

/**
 * @file
 * perfbench: the same-host benchmark of the SoftWatt simulator.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--pins FILE] [--out-dir DIR]
 *   perfbench --regen-pins --pins FILE [--out-dir DIR]
 *
 * Without tracing it repeats passes of the workload for about S
 * seconds and reports the end-to-end metrics as the median of its
 * passes, in reference seconds (reference.hh).
 * With --trace 1 it alternates traced and untraced passes, runs the
 * per-layer probes, writes the spans as Chrome trace-event JSON and
 * reports the per-layer metrics. The last line of stdout is always
 * the one-line JSON result. See README.md.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "sim/logging.hh"

#include "digest.hh"
#include "pass.hh"
#include "probes.hh"
#include "reference.hh"
#include "report.hh"
#include "trace.hh"

using namespace softwatt;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Fewest passes a measurement makes, whatever --seconds says; a traced
 * one needs two traced and two untraced passes.
 */
constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 4;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool regen = false;
    std::string pins = "perfbench/pins.txt";
    std::string outDir = ".bench_build/perfbench-out";
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--pins FILE] "
                 "[--out-dir DIR]\n"
              << "       perfbench --regen-pins [--pins FILE] "
                 "[--out-dir DIR]\n"
              << "workloads:";
    for (const WorkloadDef &wl : workloads())
        std::cerr << ' ' << wl.name;
    std::cerr << '\n';
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--regen-pins") {
            o.regen = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (flag == "--pins")
                o.pins = value;
            else if (flag == "--out-dir")
                o.outDir = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!o.regen && !findWorkload(o.workload))
        usage("unknown workload '" + o.workload + "'");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/**
 * A fresh per-invocation directory for everything the runs write
 * (autosaves, journal, document, probe checkpoints), removed at exit.
 * Fresh matters: restoreCheckpoint silently falls back to "<path>.1",
 * so a stale generation left by an earlier invocation could be
 * restored.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &parent)
    {
        std::filesystem::create_directories(parent);
        std::string templ = parent + "/run-XXXXXX";
        if (!mkdtemp(templ.data()))
            throw std::runtime_error("cannot create a directory in " +
                                     parent);
        dir = templ;
    }
    ~ScratchDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return dir; }

  private:
    std::string dir;
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

/**
 * Counts that are zero on some workloads by design (no autosave, no
 * DVFS, no spin-down disk, no superscalar CPU): printed and checked for
 * repetition, but not reported, since every metric is nonzero on every
 * workload.
 */
bool
zeroByDesign(const std::string &count)
{
    return count == "core.throttled_cycles" ||
           count == "cpu.mxs_committed_insts" ||
           count == "disk.spin_ups" || count == "sim.ckpt_count";
}

/**
 * Per-pass numbers. wall, setup, mips and simMhz are in reference
 * seconds (host seconds × the pass's reference scale); the others,
 * which feed the per-layer metrics, are host seconds.
 */
struct PassNumbers
{
    std::vector<double> wall, setup, mips, simMhz, hostWall, scale, run,
        runNsPerCycle, report;
};

void
record(PassNumbers &n, const PassResult &pass, double scale)
{
    n.wall.push_back(pass.wallS * scale);
    n.setup.push_back(pass.setupS * scale);
    n.mips.push_back(double(pass.committedInsts) / (pass.runS * scale) /
                     1e6);
    n.simMhz.push_back(double(pass.simCycles) / (pass.runS * scale) /
                       1e6);
    n.hostWall.push_back(pass.wallS);
    n.scale.push_back(scale);
    n.run.push_back(pass.runS);
    std::uint64_t detailed = pass.counts.at("core.detailed_cycles");
    n.runNsPerCycle.push_back(detailed ? pass.runS / double(detailed) *
                                             1e9
                                       : 0.0);
    n.report.push_back(pass.finishS + pass.reportS);
}

std::string
perPass(const std::vector<double> &v)
{
    std::string out = " per pass:";
    char buf[32];
    for (double x : v) {
        std::snprintf(buf, sizeof(buf), " %.4g", x);
        out += buf;
    }
    return out;
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit
                  << '\n';
}

/** Values of traced and untraced passes together. */
std::vector<double>
joined(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> all = a;
    all.insert(all.end(), b.begin(), b.end());
    return all;
}

/** One pass in a fresh sub-directory of @p scratch. */
PassResult
onePass(const WorkloadDef &wl, std::uint64_t seed,
        const std::string &scratch, int index, SpanRecorder &rec,
        const FinishedHook &hook)
{
    std::string dir = scratch + "/pass-" + std::to_string(index);
    std::filesystem::create_directories(dir);
    ExperimentSpec spec =
        makeSpec(wl, seed, wl.resume ? dir + "/" + wl.name + ".json" : "");
    PassResult pass = runPass(spec, wl.resume, rec, hook);
    std::filesystem::remove_all(dir);
    return pass;
}

/** Per-layer metrics of a traced measurement. */
std::vector<Metric>
layerMetrics(const WorkloadDef &wl, const Options &o,
             const std::string &scratch, SpanRecorder &rec,
             const FinishedProbes &finished, const PassNumbers &untraced,
             const PassNumbers &traced, const Counts &counts)
{
    // Self time per span name inside the traced passes, per pass.
    const double passes = double(traced.wall.size());
    std::map<std::string, double> self =
        rec.selfSecondsByName([&](std::size_t i) {
            return rec.spans()[rec.rootOf(i)].name == "pass";
        });
    auto selfOf = [&](const std::string &name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / passes;
    };

    ExperimentSpec spec = makeSpec(wl, o.seed, scratch + "/probe.json");
    LayerProbes layers = runLayerProbes(spec, rec);

    // Autosave happens inside System::run, so the benchmark's code can
    // only measure it as an A/B: the same runs with autosave off.
    double autosaveS = 0;
    if (spec.checkpointEveryS > 0) {
        ScopedSpan span(rec, "probe.sim.autosave_ab");
        ExperimentSpec plain = spec;
        plain.checkpointEveryS = 0;
        plain.jsonPath.clear();
        SpanRecorder quiet(false);
        autosaveS = median(joined(untraced.run, traced.run)) -
                    runPass(plain, false, quiet).runS;
    }

    auto per = [](double total, std::uint64_t n, double unit) {
        return n ? total / double(n) * unit : 0.0;
    };
    const double powerNs =
        per(finished.powerS, finished.windows, 1e9);
    const double powerStreamS =
        powerNs * double(counts.at("core.sample_windows")) / 1e9;
    // The share's parts are host seconds, so is its base.
    const double hostWallS = median(untraced.hostWall);

    std::vector<Metric> m = {
        {"core.ns_per_detailed_cycle",
         median(joined(untraced.runNsPerCycle, traced.runNsPerCycle)),
         "ns"},
        {"cpu.mxs_ns_per_cycle", layers.cpuMxsNsPerCycle, "ns"},
        {"cpu.mipsy_ns_per_cycle", layers.cpuMipsyNsPerCycle, "ns"},
        {"mem.tlb_ns_per_lookup", layers.tlbNsPerLookup, "ns"},
        {"mem.cache_ns_per_access", layers.cacheNsPerAccess, "ns"},
        {"os.stream_build_ns", layers.streamBuildNs, "ns"},
        {"workload.ns_per_op", layers.workloadNsPerOp, "ns"},
        {"power.ns_per_window", powerNs, "ns"},
        {"sim.ckpt_save_ms", per(finished.saveS, finished.saves, 1e3),
         "ms"},
        {"sim.ckpt_bytes", per(double(finished.bytes), finished.saves, 1),
         "bytes"},
        {"sim.ckpt_restore_ms",
         per(finished.restoreS, finished.restores, 1e3), "ms"},
        {"core.idle_profile_ms", layers.idleProfileMs, "ms"},
        {"disk.ns_per_request", layers.diskNsPerRequest, "ns"},
        {"core.report_ms",
         median(joined(untraced.report, traced.report)) * 1e3, "ms"},
    };
    for (const std::string &name : countNames()) {
        if (!zeroByDesign(name))
            m.push_back({name, double(counts.at(name)), "count"});
    }
    // Parts that are zero on some workloads by design are printed, not
    // reported: every metric is nonzero on every workload.
    const double restoreS = selfOf("sim.restore");
    const double wallS = median(untraced.wall);
    const double tracedWallS = median(traced.wall);
    std::cout << "ckpt/power share of host wall_s " << hostWallS
              << " s: autosave A/B " << autosaveS << " s + restore "
              << restoreS << " s + power stream " << powerStreamS
              << " s\n"
              << "trace overhead: traced wall_s " << tracedWallS
              << " s - untraced " << wallS << " s = "
              << tracedWallS - wallS << " reference s ("
              << rec.spans().size() << " spans)\n";
    m.push_back({"share.ckpt_power",
                 (autosaveS + restoreS + powerStreamS) / hostWallS,
                 "ratio"});
    m.push_back({"self.core_setup_s",
                 selfOf("core.setup") + restoreS, "s"});
    m.push_back({"self.core_run_s", selfOf("core.run"), "s"});
    m.push_back({"self.core_finish_s",
                 selfOf("core.finish") + selfOf("core.journal"), "s"});
    m.push_back({"self.core_report_s", selfOf("core.report"), "s"});
    m.push_back({"trace.overhead_ratio", tracedWallS / wallS, "ratio"});
    return m;
}

int
regenerate(const Options &o)
{
    ScratchDir scratch(o.outDir);
    PinTable pins;
    SpanRecorder rec(false);
    int index = 0;
    for (const WorkloadDef &wl : workloads()) {
        PassResult pass =
            onePass(wl, 0, scratch.path(), index++, rec, nullptr);
        for (const RunCheck &run : pass.runs) {
            if (!run.error.empty()) {
                std::cerr << "perfbench: " << wl.name << ' ' << run.label
                          << ": " << run.error << "; pins not written\n";
                return 1;
            }
            if (run.label.find('/') == std::string::npos)
                pins.set(wl.name, 0, run.label, run.digest);
        }
        std::cout << "pinned " << wl.name << '\n';
    }
    if (!pins.save(o.pins)) {
        std::cerr << "perfbench: cannot write " << o.pins << '\n';
        return 1;
    }
    std::cout << "wrote " << pins.size() << " pins to " << o.pins
              << '\n';
    return 0;
}

int
measure(const Options &o)
{
    const WorkloadDef &wl = *findWorkload(o.workload);
    const Provenance prov = buildProvenance();
    PinTable pins;
    std::string pinError;
    if (!pins.load(o.pins, pinError)) {
        std::cerr << "perfbench: " << pinError << '\n';
        return 2;
    }
    ScratchDir scratch(o.outDir);
    Verdict verdict(pins, wl.name, o.seed);

    std::cout << "perfbench " << wl.name << " seed=" << o.seed
              << " (kernel seed=" << kStockKernelSeed + o.seed
              << ") seconds=" << o.seconds
              << " trace=" << (o.trace ? 1 : 0) << '\n'
              << "provenance: " << prov.json() << '\n';
    if (!prov.comparable())
        std::cout << "WARNING: checks/sanitizer build: not comparable "
                     "with a plain build\n";

    // Traced runs spend about 80% of the budget on passes (traced and
    // untraced alternating) and the rest on the layer probes.
    const double passBudget = o.trace ? o.seconds * 0.8 : o.seconds;
    SpanRecorder rec(false);
    FinishedProbes finished(scratch.path());
    // A reference slice before each pass and after each of its runs,
    // all outside the timed segments, samples the host's speed while
    // the pass runs.
    HostReference hostRef;
    auto referenceSlice = [&] {
        ScopedSpan span(rec, "reference");
        hostRef.slice();
    };
    bool tracing = false;
    FinishedHook hook = [&](const RunSpec &rs, System &sys) {
        referenceSlice();
        if (!tracing)
            return;
        ScopedErrorHandler firewall(throwingErrorHandler);
        try {
            finished.probe(rs, sys, rec);
        } catch (const std::exception &e) {
            std::cout << "probe of finished machine failed: "
                      << e.what() << '\n';
        }
    };

    PassNumbers untraced, traced;
    Counts counts;
    std::vector<double> passTimes;
    const Clock::time_point start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };
    const int minPasses = o.trace ? kMinTracedPasses : kMinPasses;
    for (int i = 0;; ++i) {
        if (i >= minPasses &&
            elapsed() + median(passTimes) > passBudget)
            break;
        tracing = o.trace && i % 2 == 0;
        rec.setEnabled(tracing);
        Clock::time_point p0 = Clock::now();
        hostRef.reset();
        referenceSlice();
        PassResult pass =
            onePass(wl, o.seed, scratch.path(), i, rec, hook);
        passTimes.push_back(
            std::chrono::duration<double>(Clock::now() - p0).count());
        verdict.check(pass);
        record(tracing ? traced : untraced, pass, hostRef.scale());
        if (i == 0)
            counts = pass.counts;
    }
    rec.setEnabled(o.trace);
    std::cout << "counts per pass:";
    for (const std::string &name : countNames())
        std::cout << ' ' << name << '=' << counts.at(name);
    std::cout << '\n';

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"wall_s", median(untraced.wall), "s"},
            {"setup_s", median(untraced.setup), "s"},
            {"mips", median(untraced.mips), "MIPS"},
            {"sim_mhz", median(untraced.simMhz), "MHz"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
        std::cout << "wall_s" << perPass(untraced.wall) << '\n'
                  << "setup_s" << perPass(untraced.setup) << '\n'
                  << "mips" << perPass(untraced.mips) << '\n'
                  << "host wall_s" << perPass(untraced.hostWall) << '\n'
                  << "reference scale" << perPass(untraced.scale)
                  << '\n';
    } else {
        metrics = layerMetrics(wl, o, scratch.path(), rec, finished,
                               untraced, traced, counts);
        std::filesystem::create_directories(o.outDir);
        const std::string tracePath =
            o.outDir + "/trace-" + wl.name + ".json";
        std::ofstream out(tracePath);
        rec.writeChromeTrace(
            out, {{"workload", wl.name},
                  {"seed", std::to_string(o.seed)},
                  {"traced_passes", std::to_string(traced.wall.size())},
                  {"untraced_passes",
                   std::to_string(untraced.wall.size())},
                  {"provenance", prov.json()}});
        std::cout << "trace: " << tracePath << " ("
                  << rec.spans().size() << " spans; open it in "
                  << "https://ui.perfetto.dev)\n";
    }

    const std::vector<std::string> &failures = verdict.failures();
    for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
        std::cout << "FAILED " << failures[i] << '\n';
    const bool correct = verdict.failed() == 0;
    std::cout << "failed_frac = "
              << double(verdict.failed()) / double(verdict.attempted())
              << " (" << verdict.failed() << " of " << verdict.attempted()
              << " runs; pins "
              << (verdict.pinsChecked() ? "checked" : "skipped")
              << " for seed " << o.seed << ")\n";
    printMetrics(metrics);
    std::cout << resultLine(correct, verdict.attempted(), verdict.failed(),
                            metrics)
              << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    setLogLevel(LogLevel::Quiet);
    try {
        return o.regen ? regenerate(o) : measure(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}

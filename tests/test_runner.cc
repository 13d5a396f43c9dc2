/**
 * @file
 * Tests for the experiment runner: parallel scheduling must be
 * bit-identical to the serial reference path, the ExperimentResult
 * lookups must address runs by (benchmark, variant), and malformed
 * command lines must be reported through the error-handler path.
 */

#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "sim/logging.hh"

using namespace softwatt;

namespace
{

ExperimentSpec
smallSuite(int jobs)
{
    ExperimentSpec spec;
    spec.title = "determinism";
    spec.jobs = jobs;
    SystemConfig config;
    spec.add(Benchmark::Jess, config, 0.05);
    spec.add(Benchmark::Compress, config, 0.05);
    spec.add(Benchmark::Db, config, 0.05);
    return spec;
}

std::string
csvOf(const BenchmarkRun &run)
{
    std::ostringstream out;
    run.system->log().writeCsv(out);
    return out.str();
}

std::string
jsonOf(const ExperimentResult &result)
{
    std::ostringstream out;
    result.writeJson(out);
    return out.str();
}

void
expectIdenticalBreakdowns(const PowerBreakdown &a,
                          const PowerBreakdown &b)
{
    EXPECT_EQ(a.freqHz, b.freqHz);
    EXPECT_EQ(a.diskEnergyJ, b.diskEnergyJ);
    for (int m = 0; m < numExecModes; ++m) {
        EXPECT_EQ(a.cycles[m], b.cycles[m]) << "mode " << m;
        for (int c = 0; c < numComponents; ++c) {
            EXPECT_EQ(a.energyJ[m][c], b.energyJ[m][c])
                << "mode " << m << " component " << c;
        }
    }
}

} // namespace

TEST(Runner, ParallelMatchesSerialBitForBit)
{
    setLogLevel(LogLevel::Quiet);
    ExperimentResult serial = runExperiment(smallSuite(1));
    ExperimentResult parallel = runExperiment(smallSuite(4));
    setLogLevel(LogLevel::Normal);

    EXPECT_EQ(serial.jobs(), 1);
    EXPECT_GT(parallel.jobs(), 1);
    ASSERT_EQ(serial.size(), 3u);
    ASSERT_EQ(parallel.size(), 3u);

    for (std::size_t i = 0; i < serial.size(); ++i) {
        const BenchmarkRun &a = serial.at(i);
        const BenchmarkRun &b = parallel.at(i);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.result.outcome, b.result.outcome);
        EXPECT_EQ(a.system->now(), b.system->now());
        EXPECT_EQ(a.system->cpu().committedInsts(),
                  b.system->cpu().committedInsts());

        expectIdenticalBreakdowns(a.breakdown, b.breakdown);
        expectIdenticalBreakdowns(a.conventional, b.conventional);

        // Counter totals, every (mode, counter) cell.
        const CounterBank &ca = a.system->totals();
        const CounterBank &cb = b.system->totals();
        for (ExecMode mode : allExecModes) {
            for (int c = 0; c < numCounters; ++c) {
                EXPECT_EQ(ca.get(mode, CounterId(c)),
                          cb.get(mode, CounterId(c)))
                    << a.name << " mode " << execModeName(mode)
                    << " counter " << counterName(CounterId(c));
            }
        }

        // The sampled logs themselves, byte for byte.
        EXPECT_EQ(csvOf(a), csvOf(b)) << a.name;
    }

    // The emitted documents must be byte-identical: the jobs=
    // setting deliberately leaves no trace in the output.
    EXPECT_EQ(jsonOf(serial), jsonOf(parallel));
}

TEST(Runner, JsonDocumentShape)
{
    setLogLevel(LogLevel::Quiet);
    ExperimentSpec spec;
    spec.title = "shape";
    spec.jobs = 1;
    spec.add(Benchmark::Jess, SystemConfig{}, 0.05, "v1");
    ExperimentResult result = runExperiment(spec);
    setLogLevel(LogLevel::Normal);

    std::string doc = jsonOf(result);
    EXPECT_NE(doc.find("\"schema\": \"softwatt-experiment-v2\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"experiment\": \"shape\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"interrupted\": false"),
              std::string::npos);
    EXPECT_NE(doc.find("\"variant\": \"v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"attempts\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"wall_ms\""), std::string::npos);
    EXPECT_NE(doc.find("\"error\": \"\""), std::string::npos);
    EXPECT_NE(doc.find("\"breakdown\""), std::string::npos);
    EXPECT_NE(doc.find("\"conventional_breakdown\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"counters\""), std::string::npos);
    EXPECT_NE(doc.find("\"services\""), std::string::npos);
    EXPECT_NE(doc.find("\"disk\""), std::string::npos);
    EXPECT_EQ(doc.find("\"jobs\""), std::string::npos);
}

TEST(Runner, ResultLookupByBenchmarkAndVariant)
{
    setLogLevel(LogLevel::Quiet);
    ExperimentSpec spec;
    spec.title = "lookup";
    spec.jobs = 2;
    SystemConfig config;
    spec.add(Benchmark::Jess, config, 0.05, "a");
    spec.add(Benchmark::Db, config, 0.05, "a");
    spec.add(Benchmark::Jess, config, 0.05, "b");
    ExperimentResult result = runExperiment(spec);
    setLogLevel(LogLevel::Normal);

    EXPECT_EQ(result.title(), "lookup");
    ASSERT_EQ(result.size(), 3u);
    EXPECT_EQ(result.specAt(2).variant, "b");

    EXPECT_EQ(result.run(Benchmark::Jess, "a").name, "jess");
    EXPECT_EQ(result.run(Benchmark::Db, "a").name, "db");
    EXPECT_EQ(&result.run(Benchmark::Jess, "b"), &result.at(2));

    std::vector<std::string> names_a = result.names("a");
    ASSERT_EQ(names_a.size(), 2u);
    EXPECT_EQ(names_a[0], "jess");
    EXPECT_EQ(names_a[1], "db");
    EXPECT_EQ(result.variantRuns("b").size(), 1u);
    EXPECT_EQ(result.breakdowns("a").size(), 2u);
    EXPECT_EQ(result.counterTotals("b").size(), 1u);
    EXPECT_GT(result.freqHz(), 0.0);

    // Absent (bench, variant) pairs are a fatal() error.
    setErrorHandler(throwingErrorHandler);
    EXPECT_THROW(result.run(Benchmark::Mtrt, "a"), SimError);
    EXPECT_THROW(result.run(Benchmark::Jess, "nope"), SimError);
    setErrorHandler(nullptr);
}

TEST(Runner, SpecFromArgsReadsRunnerKeys)
{
    Config args;
    args.set("jobs", std::int64_t(3));
    args.set("out", std::string("results.json"));
    ExperimentSpec spec = ExperimentSpec::fromArgs("t", args);
    EXPECT_EQ(spec.title, "t");
    EXPECT_EQ(spec.jobs, 3);
    EXPECT_EQ(spec.jsonPath, "results.json");

    Config none;
    ExperimentSpec defaults = ExperimentSpec::fromArgs("t", none);
    EXPECT_EQ(defaults.jobs, 0);
    EXPECT_EQ(defaults.jsonPath, "");
    EXPECT_EQ(defaults.deadlineS, 0.0);
    EXPECT_EQ(defaults.graceS, 0.0);
    EXPECT_FALSE(defaults.resume);
    EXPECT_FALSE(defaults.diagnose);

    Config resilient;
    resilient.set("deadline_s", 2.5);
    resilient.set("grace_s", 0.5);
    resilient.set("resume", std::int64_t(1));
    resilient.set("diagnose", std::int64_t(1));
    resilient.set("out", std::string("r.json"));
    ExperimentSpec r = ExperimentSpec::fromArgs("t", resilient);
    EXPECT_EQ(r.deadlineS, 2.5);
    EXPECT_EQ(r.graceS, 0.5);
    EXPECT_TRUE(r.resume);
    EXPECT_TRUE(r.diagnose);

    setErrorHandler(throwingErrorHandler);
    Config bad;
    bad.set("jobs", std::int64_t(-2));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", bad), SimError);

    Config bad_deadline;
    bad_deadline.set("deadline_s", -1.0);
    EXPECT_THROW(ExperimentSpec::fromArgs("t", bad_deadline),
                 SimError);

    Config bad_flag;
    bad_flag.set("resume", std::int64_t(2));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", bad_flag), SimError);

    // resume=1 without out= has nowhere to find a journal.
    Config no_out;
    no_out.set("resume", std::int64_t(1));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", no_out), SimError);

    // An unwritable out= destination fails at spec time, not after
    // hours of simulation.
    Config bad_out;
    bad_out.set("out",
                std::string("/nonexistent-dir/results.json"));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", bad_out), SimError);
    setErrorHandler(nullptr);
}

TEST(Runner, AddSuiteCoversAllBenchmarks)
{
    ExperimentSpec spec;
    spec.addSuite(SystemConfig{}, 0.5, "v");
    ASSERT_EQ(spec.runs.size(), std::size(allBenchmarks));
    EXPECT_EQ(spec.runs.front().bench, Benchmark::Compress);
    for (const RunSpec &rs : spec.runs) {
        EXPECT_EQ(rs.variant, "v");
        EXPECT_EQ(rs.scale, 0.5);
    }
}

TEST(Runner, AddRejectsOutOfRangeScale)
{
    ExperimentSpec spec;
    ScopedErrorHandler firewall(throwingErrorHandler);
    for (double scale : {0.0, -1.0, 1e7,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(spec.add(Benchmark::Jess, SystemConfig{}, scale),
                     SimError)
            << scale;
    }
    EXPECT_TRUE(spec.runs.empty());
    spec.add(Benchmark::Jess, SystemConfig{}, 1e6);
    EXPECT_EQ(spec.runs.size(), 1u);
}

TEST(ParseArgs, MalformedArgumentsReportThroughErrorHandler)
{
    char prog[] = "prog";
    char bogus[] = "bogus";
    char good[] = "scale=0.5";
    char *argv_bad[] = {prog, good, bogus};

    Config out;
    std::string error;
    EXPECT_FALSE(tryParseArgs(3, argv_bad, out, error));
    EXPECT_NE(error.find("malformed argument 'bogus'"),
              std::string::npos);
    EXPECT_NE(error.find("expected key=value"), std::string::npos);

    setErrorHandler(throwingErrorHandler);
    try {
        parseArgs(3, argv_bad);
        FAIL() << "parseArgs accepted a malformed argument";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Fatal);
        EXPECT_NE(std::string(e.what())
                      .find("malformed argument 'bogus'"),
                  std::string::npos);
    }
    setErrorHandler(nullptr);

    // Well-formed arguments parse, in order.
    char *argv_ok[] = {prog, good};
    Config ok;
    EXPECT_TRUE(tryParseArgs(2, argv_ok, ok, error));
    EXPECT_EQ(ok.getDouble("scale", 0), 0.5);

    // --help lands in the error string for tryParseArgs (the exit-0
    // printing path lives only in parseCliArgs).
    char help[] = "--help";
    char *argv_help[] = {prog, help};
    Config unused;
    EXPECT_FALSE(tryParseArgs(2, argv_help, unused, error));
    EXPECT_NE(error.find("usage:"), std::string::npos);
    EXPECT_NE(error.find("jobs=N"), std::string::npos);
}

TEST(ParseCliArgs, HelpRequestsCleanExitWithoutCallingStdExit)
{
    char prog[] = "prog";
    char help[] = "-h";
    char *argv_help[] = {prog, help};
    CliArgs cli = parseCliArgs(2, argv_help);
    EXPECT_TRUE(cli.shouldExit);
    EXPECT_EQ(cli.exitCode, 0);

    char scale[] = "scale=0.25";
    char *argv_ok[] = {prog, scale};
    cli = parseCliArgs(2, argv_ok);
    EXPECT_FALSE(cli.shouldExit);
    EXPECT_EQ(cli.config.getDouble("scale", 0), 0.25);
}

TEST(ParseCliArgs, MalformedArgumentsGoThroughTheErrorHandler)
{
    char prog[] = "prog";
    char bogus[] = "bogus";
    char *argv_bad[] = {prog, bogus};
    setErrorHandler(throwingErrorHandler);
    EXPECT_THROW(parseCliArgs(2, argv_bad), SimError);
    setErrorHandler(nullptr);
}

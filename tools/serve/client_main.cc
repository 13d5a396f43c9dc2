/**
 * @file
 * softwatt-serve-client: submit one experiment spec to a running
 * softwatt-serve daemon (or cancel one), print the service metadata,
 * and write the returned softwatt-experiment-v2 document.
 *
 * Usage:
 *   softwatt-serve-client socket=/tmp/sw.sock id=job1 \
 *       spec="bench=jess scale=0.1" [client=NAME] [experiment=NAME] \
 *       [op=run|cancel] [wall_ms=T] [retry=N] [retry_ms=T] \
 *       [out=doc.json] [quiet=1]
 *
 * Cold-reference mode (no daemon): cold=1 executes the spec locally
 * with the same autosave cadence the daemon uses (warm_s= must match
 * the daemon's serve_warm_s=) but without retaining or restoring any
 * checkpoint, producing the byte-identical cold document the CI
 * smoke job compares daemon answers against:
 *
 *   softwatt-serve-client cold=1 warm_s=T spec="..." out=ref.json
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "serve/client.hh"
#include "serve/executor.hh"
#include "sim/logging.hh"
#include "sim/signals.hh"
#include "workload/workload.hh"

using namespace softwatt;

namespace
{

/** Write @p document to @p path ("" or "-" = stdout). */
bool
emitDocument(const std::string &path, const std::string &document)
{
    if (document.empty())
        return true;
    if (path.empty() || path == "-") {
        std::cout << document;
        return true;
    }
    std::ofstream out(path);
    if (!out) {
        std::cerr << "softwatt-serve-client: cannot open '" << path
                  << "'\n";
        return false;
    }
    out << document;
    return out.good();
}

/** Run the spec locally as the daemon's cold reference twin. */
int
runCold(const std::string &experiment, const std::string &specText,
        double warmS, const std::string &outPath)
{
    RunSpec spec;
    std::string error;
    if (!serve::parseServeSpec(specText, spec, error)) {
        std::cerr << "softwatt-serve-client: " << error << "\n";
        return 1;
    }

    // Scratch pool (budget 0): the run autosaves at the daemon's
    // cadence — checkpointing perturbs deterministically, so cadence
    // must match for byte-identity — but restores nothing and
    // retains nothing.
    std::string scratchDir =
        (outPath.empty() || outPath == "-" ? std::string("cold")
                                           : outPath) +
        ".scratch";
    std::error_code ec;
    std::filesystem::create_directories(scratchDir, ec);
    if (ec) {
        std::cerr << "softwatt-serve-client: cannot create '"
                  << scratchDir << "': " << ec.message() << "\n";
        return 1;
    }
    serve::CheckpointPool scratch(scratchDir, 0);

    ScopedErrorHandler firewall(throwingErrorHandler);
    CancelToken token;
    SignalGuard guard(token);
    serve::ServeExecOptions policy;
    policy.title = experiment;
    policy.warmEveryS = warmS;
    policy.pool = &scratch;
    serve::ServeExecResult done =
        serve::executeServeSpec(spec, policy, token);
    std::filesystem::remove_all(scratchDir, ec);

    std::ostringstream document;
    writeExperimentDocument(document, experiment,
                            /*interrupted=*/false, {done.runJson});
    if (!emitDocument(outPath, document.str()))
        return 1;
    RunOutcome outcome = done.run.result.outcome;
    std::cerr << "cold: " << benchmarkName(spec.bench) << " ended "
              << runOutcomeName(outcome) << "\n";
    return outcome == RunOutcome::Failed ||
                   outcome == RunOutcome::Cancelled
               ? 1
               : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;

    std::string socketPath = args.getString("socket", "");
    std::string op = args.getString("op", "run");
    std::string id = args.getString("id", "job-1");
    std::string clientName = args.getString("client", "cli");
    std::string experiment = args.getString("experiment", "serve");
    std::string specText = args.getString("spec", "");
    std::int64_t wallMs = args.getInt("wall_ms", 0);
    std::int64_t retries = args.getInt("retry", 0);
    std::int64_t retryMs = args.getInt("retry_ms", 200);
    bool cold = args.getBool("cold", false);
    double warmS = args.getDouble("warm_s", 0.0);
    std::string outPath = args.getString("out", "");
    bool quiet = args.getBool("quiet", false);
    std::vector<std::string> unused = args.unusedKeys();
    if (!unused.empty()) {
        msg report;
        report << "unknown key(s):";
        for (const std::string &key : unused)
            report << " " << key;
        fatal(report);
    }
    if (wallMs < 0 || retries < 0 || retryMs < 0)
        fatal("wall_ms/retry/retry_ms must be >= 0");

    if (cold)
        return runCold(experiment, specText, warmS, outPath);

    if (socketPath.empty())
        fatal("socket= is required (or cold=1 for a local run)");

    serve::ServeRequest request;
    request.op = op;
    request.id = id;
    request.client = clientName;
    request.experiment = experiment;
    request.spec = specText;
    request.wallMs = std::uint64_t(wallMs);

    // Retry both connect failures (a daemon mid-restart) and
    // structured overload rejections, with a fixed delay: the daemon
    // already shed the work, so there is no thundering herd to shape.
    serve::ServeResponse response;
    std::string error;
    for (std::int64_t attempt = 0;; ++attempt) {
        serve::ServeClient client;
        bool delivered = client.connect(socketPath, error) &&
                         client.call(request, response, error);
        if (delivered &&
            !(response.status == serve::statusOverloaded ||
              response.status == serve::statusShuttingDown)) {
            break;
        }
        if (attempt >= retries) {
            if (!delivered) {
                std::cerr << "softwatt-serve-client: " << error
                          << "\n";
                return 1;
            }
            break;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(retryMs));
    }

    if (!quiet) {
        std::cerr << "status=" << response.status
                  << " served_from=" << response.servedFrom
                  << " attempts=" << response.attempts
                  << " warm_start=" << (response.warmStart ? 1 : 0)
                  << " warm_start_tick=" << response.warmStartTick
                  << " ticks_executed=" << response.ticksExecuted;
        if (response.degraded)
            std::cerr << " degraded=1";
        if (!response.error.empty())
            std::cerr << " error=\"" << response.error << "\"";
        std::cerr << "\n";
    }
    if (!emitDocument(outPath, response.document))
        return 1;
    return response.status == serve::statusOk ? 0 : 1;
}

/**
 * @file
 * Stress harness for the softwatt-serve daemon (DESIGN.md §4j).
 *
 * Forks the daemon as a child process and batters it in three
 * phases:
 *
 *  1. Flood: many client threads submit hundreds of concurrent
 *     requests over a handful of distinct specs, with bounded
 *     retries against `overloaded` rejections; a fraction of the
 *     clients disconnect without reading their responses, so the
 *     daemon must survive writing to vanished peers.
 *  2. Crash: with a long run in flight, the daemon is SIGKILL'd —
 *     no drain, no flush beyond the journal's own per-line flush —
 *     and restarted on the same state directory. Every spec answered
 *     in phase 1 must be re-answered from the journal byte-
 *     identically, and the in-flight job's orphaned warm-up
 *     checkpoints must be recovered into the pool.
 *  3. Reference: each distinct spec's served document is compared
 *     byte for byte against a cold in-process run at the same
 *     autosave cadence (retries are disabled service-wide, so every
 *     served document is a first-attempt run).
 *
 * Exit status 0 only when every check passed.
 *
 * Keys: requests= (default 256), clients= (default 16),
 * scale_base= (default 0.02), warm_s= (default 0.0001), seed=,
 * state= (default a fresh directory under the system temp path).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "serve/client.hh"
#include "serve/executor.hh"
#include "serve/server.hh"
#include "sim/logging.hh"
#include "sim/signals.hh"

using namespace softwatt;
namespace fs = std::filesystem;

namespace
{

/** Fork a child that runs the daemon until signalled. */
pid_t
spawnDaemon(const serve::ServeOptions &options)
{
    pid_t pid = fork();
    if (pid != 0)
        return pid;
    // Child: the daemon owns this process. _exit keeps the parent's
    // stdio buffers and atexit hooks from running twice.
    serve::ServeServer server(options);
    std::string error;
    if (!server.start(error)) {
        std::cerr << "daemon: " << error << "\n";
        _exit(1);
    }
    CancelToken stop;
    SignalGuard guard(stop);
    server.serveUntil(stop);
    _exit(0);
}

/** Connect with retries while the daemon binds its socket. */
bool
connectWithRetry(serve::ServeClient &client,
                 const std::string &socket_path)
{
    std::string error;
    for (int attempt = 0; attempt < 100; ++attempt) {
        if (client.connect(socket_path, error))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cerr << "connect: " << error << "\n";
    return false;
}

/** One call with bounded retries against overload/shutdown. */
bool
callWithRetry(const std::string &socket_path,
              const serve::ServeRequest &request,
              serve::ServeResponse &response)
{
    std::string error;
    for (int attempt = 0; attempt < 200; ++attempt) {
        serve::ServeClient client;
        if (!client.connect(socket_path, error)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            continue;
        }
        if (!client.call(request, response, error))
            continue;
        if (response.status != serve::statusOverloaded &&
            response.status != serve::statusShuttingDown)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
}

struct Check
{
    int failures = 0;

    void
    expect(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
};

} // namespace

int
main(int argc, char **argv)
{
    CliArgs cli = parseCliArgs(argc, argv);
    if (cli.shouldExit)
        return cli.exitCode;
    Config &args = cli.config;

    const std::int64_t requests = args.getInt("requests", 256);
    const std::int64_t clientCount = args.getInt("clients", 16);
    const double scaleBase = args.getDouble("scale_base", 0.02);
    const double warmS = args.getDouble("warm_s", 0.0001);
    const std::uint64_t seed =
        std::uint64_t(args.getInt("seed", 1234));
    std::string state = args.getString("state", "");
    if (state.empty())
        state = (fs::temp_directory_path() /
                 ("softwatt-serve-stress-" +
                  std::to_string(getpid())))
                    .string();

    fs::remove_all(state);
    fs::create_directories(state);

    serve::ServeOptions options;
    options.socketPath = state + "/serve.sock";
    options.statePath = state + "/daemon";
    options.jobs = 2;
    options.queueMax = 8;
    options.warmS = warmS;
    options.retries = 0;  // Reference phase expects first attempts.

    // A handful of distinct specs; every request maps onto one of
    // them, so the flood exercises journal hits and warm starts, not
    // just raw execution.
    std::vector<std::string> specs;
    for (int i = 0; i < 4; ++i) {
        std::ostringstream spec;
        spec << "bench=jess scale=" << scaleBase * (1 + i);
        specs.push_back(spec.str());
    }

    Check check;

    // ---------------------------------------------------------
    std::cout << "phase 1: flood (" << requests << " requests, "
              << clientCount << " clients)\n";
    pid_t daemon = spawnDaemon(options);
    check.expect(daemon > 0, "fork daemon");
    {
        serve::ServeClient probe;
        check.expect(connectWithRetry(probe, options.socketPath),
                     "daemon came up");
    }

    std::mutex documentsMutex;
    std::map<std::string, std::string> documents;  // spec -> bytes
    std::atomic<int> answered{0};
    std::atomic<int> dropped{0};
    std::atomic<int> mismatched{0};
    std::atomic<int> failed{0};

    std::vector<std::thread> clients;
    const std::int64_t perClient =
        (requests + clientCount - 1) / clientCount;
    for (std::int64_t c = 0; c < clientCount; ++c) {
        clients.emplace_back([&, c] {
            std::mt19937_64 rng(seed + std::uint64_t(c));
            // One in four clients is rude: it pipelines all its
            // requests and disconnects without reading a byte.
            const bool rude = (c % 4) == 3;
            if (rude) {
                serve::ServeClient client;
                if (!connectWithRetry(client, options.socketPath))
                    return;
                for (std::int64_t i = 0; i < perClient; ++i) {
                    serve::ServeRequest request;
                    request.client = "rude-" + std::to_string(c);
                    request.id = "job-" + std::to_string(i);
                    request.spec =
                        specs[rng() % specs.size()];
                    client.send(request);
                }
                client.disconnect();
                dropped.fetch_add(int(perClient));
                return;
            }
            for (std::int64_t i = 0; i < perClient; ++i) {
                serve::ServeRequest request;
                request.client = "client-" + std::to_string(c);
                request.id = "job-" + std::to_string(i);
                request.spec = specs[rng() % specs.size()];
                serve::ServeResponse response;
                if (!callWithRetry(options.socketPath, request,
                                   response) ||
                    response.status != serve::statusOk) {
                    failed.fetch_add(1);
                    continue;
                }
                answered.fetch_add(1);
                std::lock_guard<std::mutex> lock(documentsMutex);
                auto [it, inserted] = documents.emplace(
                    request.spec, response.document);
                if (!inserted && it->second != response.document)
                    mismatched.fetch_add(1);
            }
        });
    }
    for (std::thread &thread : clients)
        thread.join();

    std::cout << "  answered " << answered.load() << ", dropped "
              << dropped.load() << " (rude clients), failed "
              << failed.load() << "\n";
    check.expect(failed.load() == 0, "every polite request answered");
    check.expect(mismatched.load() == 0,
                 "same spec always yields the same bytes");
    check.expect(documents.size() == specs.size(),
                 "every distinct spec produced a document");

    // ---------------------------------------------------------
    std::cout << "phase 2: SIGKILL mid-flight, restart, replay\n";
    {
        // Park a long job in flight so the kill tears real work.
        serve::ServeClient slow;
        if (connectWithRetry(slow, options.socketPath)) {
            serve::ServeRequest request;
            request.client = "victim";
            request.id = "long-job";
            request.spec = "bench=jess scale=5.0";
            slow.send(request);
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(300));
        kill(daemon, SIGKILL);
        int status = 0;
        waitpid(daemon, &status, 0);
        check.expect(WIFSIGNALED(status) &&
                         WTERMSIG(status) == SIGKILL,
                     "daemon died from SIGKILL");
    }
    // The socket file is stale (the kill skipped cleanup); the
    // restarted daemon rebinds it.
    daemon = spawnDaemon(options);
    check.expect(daemon > 0, "fork restarted daemon");

    int replayed = 0;
    for (const auto &[spec, bytes] : documents) {
        serve::ServeRequest request;
        request.client = "replayer";
        request.id = "replay-" + std::to_string(replayed);
        request.spec = spec;
        serve::ServeResponse response;
        if (!callWithRetry(options.socketPath, request, response)) {
            check.expect(false, "replay call for " + spec);
            continue;
        }
        check.expect(response.status == serve::statusOk,
                     "replay status for " + spec + ": " +
                         response.error);
        check.expect(response.servedFrom == "journal",
                     "replay of " + spec + " came from the journal");
        check.expect(response.document == bytes,
                     "replay of " + spec + " is byte-identical");
        ++replayed;
    }
    std::cout << "  replayed " << replayed << " specs from the "
              << "journal after SIGKILL\n";

    // ---------------------------------------------------------
    std::cout << "phase 3: byte-identity against cold references\n";
    {
        ScopedErrorHandler firewall(throwingErrorHandler);
        std::string scratchDir = state + "/scratch";
        fs::create_directories(scratchDir);
        serve::CheckpointPool scratch(scratchDir, 0);
        serve::ServeExecOptions policy;
        policy.pool = &scratch;
        policy.warmEveryS = warmS;
        CancelToken token;
        for (const auto &[spec, bytes] : documents) {
            RunSpec runSpec;
            std::string error;
            if (!serve::parseServeSpec(spec, runSpec, error)) {
                check.expect(false, "re-parse " + spec);
                continue;
            }
            serve::ServeExecResult cold =
                serve::executeServeSpec(runSpec, policy, token);
            std::ostringstream document;
            writeExperimentDocument(document, "serve", false,
                                    {cold.runJson});
            check.expect(document.str() == bytes,
                         "cold reference matches served bytes for " +
                             spec);
        }
    }

    // ---------------------------------------------------------
    // Graceful drain of the restarted daemon.
    kill(daemon, SIGTERM);
    int status = 0;
    waitpid(daemon, &status, 0);
    check.expect(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "restarted daemon drained cleanly");

    fs::remove_all(state);

    if (check.failures == 0) {
        std::cout << "serve stress: PASS\n";
        return 0;
    }
    std::cout << "serve stress: " << check.failures
              << " check(s) FAILED\n";
    return 1;
}

#include "executor.hh"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/logging.hh"
#include "workload/workload.hh"

namespace softwatt::serve
{

std::uint64_t
retryBackoffMs(std::uint64_t baseMs, int attempt)
{
    // serve_retries allows dozens of attempts; an unclamped shift is
    // undefined behaviour from attempt 65 on and a multi-day sleep
    // long before that. Cap the growth at 2^6 and the delay at a few
    // seconds (never below an explicitly larger base) so a worker
    // thread is never wedged on one job's backoff.
    constexpr std::uint64_t maxShift = 6;
    constexpr std::uint64_t capMs = 5000;
    std::uint64_t shift =
        std::min(std::uint64_t(attempt > 0 ? attempt - 1 : 0),
                 maxShift);
    return std::min(baseMs << shift, std::max(baseMs, capMs));
}

bool
parseServeSpec(const std::string &text, RunSpec &spec,
               std::string &error)
{
    // The daemon installs one process-wide throwing handler for its
    // whole lifetime (serveUntil), and this runs on its session
    // threads: swapping the global handler per call would race the
    // swaps against each other and against worker threads reading
    // the handler inside running jobs. Install one only when the
    // caller has not (the single-threaded client and test paths).
    std::optional<ScopedErrorHandler> firewall;
    if (!errorHandlerInstalled())
        firewall.emplace(throwingErrorHandler);
    try {
        Config cfg;
        std::istringstream words(text);
        std::string word;
        while (words >> word) {
            if (!cfg.parseAssignment(word)) {
                fatal(msg() << "spec: '" << word
                            << "' is not a key=value assignment");
            }
        }
        std::string name = cfg.getString("bench", "jess");
        double scale = cfg.getDouble("scale", 0.2);
        std::string variant = cfg.getString("variant", "");
        double deadlineS = cfg.getDouble("deadline_s", 0.0);
        double graceS = cfg.getDouble("grace_s", 0.0);
        checkWorkloadScale(scale);
        spec.bench = benchmarkByName(name);
        spec.variant = variant;
        spec.scale = scale;
        spec.config = SystemConfig::fromConfig(cfg);
        if (spec.config.deadlineSeconds <= 0.0)
            spec.config.deadlineSeconds = deadlineS;
        if (spec.config.shutdownGraceSeconds <= 0.0)
            spec.config.shutdownGraceSeconds = graceS;
        spec.config.validate();
        std::vector<std::string> unused = cfg.unusedKeys();
        if (!unused.empty()) {
            msg report;
            report << "spec: unknown key(s):";
            for (const std::string &key : unused)
                report << " " << key;
            fatal(report);
        }
        return true;
    } catch (const std::exception &e) {
        error = e.what();
        return false;
    }
}

ServeExecResult
executeServeSpec(RunSpec spec, const ServeExecOptions &options,
                 const CancelToken &token)
{
    ServeExecResult result;

    // Arm the warm-start plumbing: autosave to a private in-flight
    // path (concurrent same-config jobs must never race on one
    // file), and restore from the pool's warm image when one exists.
    bool armed = false;
    std::uint64_t key = 0;
    std::string inflight;
    if (options.pool && options.warmEveryS > 0.0) {
        try {
            key = machineCheckpointFingerprint(spec.bench,
                                               spec.config,
                                               spec.scale);
            inflight = options.pool->inflightPath(key);
            spec.checkpointEveryS = options.warmEveryS;
            spec.checkpointPath = inflight;
            spec.restorePath = options.pool->lookup(key);
            spec.durability = options.durability;
            armed = true;
        } catch (const std::exception &e) {
            // Fingerprinting builds only the scaled workload spec;
            // whatever throws here throws again in the run proper,
            // which reports it. Run cold here.
            warn(msg() << "serve executor: warm-start disabled for "
                       << "this job (" << e.what() << ")");
            spec.checkpointEveryS = 0.0;
            spec.checkpointPath.clear();
            spec.restorePath.clear();
        }
    }

    int attempt = 0;
    int maxAttempts = 1 + (options.retries > 0 ? options.retries : 0);
    for (;;) {
        ++attempt;
        bool last = attempt >= maxAttempts;
        // The final retry mirrors diagnose=1: invariant sweeps on,
        // so the error that survives names the broken contract.
        result.run = runSpecProtected(options.title, spec, token,
                                      /*forceInvariants=*/last &&
                                          attempt > 1);
        if (result.run.result.outcome != RunOutcome::Failed ||
            last || token.cancelled())
            break;
        // A failure after a warm start could be the image's fault;
        // retry cold. Identical cadence keeps the document bytes
        // unchanged either way.
        spec.restorePath.clear();
        std::uint64_t delay =
            retryBackoffMs(options.backoffMs, attempt);
        // Sleep in slices so a cancel (client, wall deadline, or
        // daemon shutdown) is not held hostage by the backoff.
        auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(delay);
        while (!token.cancelled() &&
               std::chrono::steady_clock::now() < until) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        if (token.cancelled())
            break;
    }

    if (armed) {
        // A degraded run stopped autosaving mid-flight; whatever its
        // in-flight image holds predates the failure, so discard it
        // rather than warm future jobs from a doubtful file.
        if (result.run.hasData() &&
            result.run.result.outcome != RunOutcome::Failed &&
            !result.run.storageDegraded)
            options.pool->promote(key, inflight);
        else
            options.pool->discard(inflight);
    }

    result.run.attempts = attempt;
    result.runJson = renderRunJson(result.run);
    return result;
}

} // namespace softwatt::serve

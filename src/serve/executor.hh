/**
 * @file
 * Per-job execution policy of the serve daemon: warm-start from the
 * checkpoint pool, bounded retries with exponential backoff, and the
 * evidence (attempts, warm-start tick, executed ticks) the response
 * envelope reports.
 *
 * The executor is deliberately independent of sockets and threads so
 * tests can drive it directly; the daemon calls it from worker
 * threads with a per-job CancelToken.
 */

#ifndef SOFTWATT_SERVE_EXECUTOR_HH
#define SOFTWATT_SERVE_EXECUTOR_HH

#include <cstdint>
#include <string>

#include "core/runner.hh"

#include "checkpoint_pool.hh"

namespace softwatt::serve
{

/** Service-wide execution policy applied to every job. */
struct ServeExecOptions
{
    /** Experiment title used in run logs. */
    std::string title = "serve";

    /**
     * Extra attempts after the first for a run that Failed inside
     * the exception firewall. The final attempt runs with the
     * invariant sweeps forced on, mirroring diagnose=1, so the last
     * error message pinpoints the broken contract.
     */
    int retries = 0;

    /**
     * Base retry backoff; the delay before retry k is
     * retryBackoffMs(backoffMs, k): exponential but clamped.
     */
    std::uint64_t backoffMs = 0;

    /**
     * Autosave cadence in simulated seconds; 0 disables
     * checkpointing entirely (and with it warm starts). Checkpoints
     * are a deterministic perturbation, so every run of a config —
     * warm, cold, or reference — must use the same cadence for
     * byte-identical documents.
     */
    double warmEveryS = 0.0;

    /** Warm image pool; null disables checkpointing like warmEveryS=0. */
    CheckpointPool *pool = nullptr;

    /** Durability level for in-flight autosaves (see host_io.hh). */
    Durability durability = Durability::Buffered;
};

/**
 * Everything the daemon needs to answer for one executed job. The
 * run carries the response envelope's evidence: attempts consumed,
 * the warm-start fields, and storageDegraded for the degraded flag.
 */
struct ServeExecResult
{
    BenchmarkRun run;

    /** Pre-rendered run object (journal + document splice text). */
    std::string runJson;
};

/**
 * Execute @p spec under the service policy. Never throws: failures
 * come back as a run with RunOutcome::Failed. Requires a throwing
 * error handler to be installed (the daemon installs one for its
 * lifetime; see runSpecProtected).
 */
ServeExecResult executeServeSpec(RunSpec spec,
                                 const ServeExecOptions &options,
                                 const CancelToken &token);

/**
 * Parse a request's "key=value ..." spec text into a RunSpec: the
 * run keys (bench=, scale=, variant=, deadline_s=, grace_s=) plus
 * every machine key SystemConfig::fromConfig accepts; unknown keys
 * are rejected. The daemon and the client's cold-reference mode both
 * use this, so a spec means the same thing on either side of the
 * socket. Never terminates: errors come back through @p error.
 */
bool parseServeSpec(const std::string &text, RunSpec &spec,
                    std::string &error);

/**
 * Backoff before retry @p attempt (1-based index of the attempt that
 * just failed): @p baseMs doubled per attempt, with the growth
 * factor capped at 2^6 and the delay capped at max(baseMs, 5000) ms
 * — defined for every attempt count serve_retries allows.
 */
std::uint64_t retryBackoffMs(std::uint64_t baseMs, int attempt);

} // namespace softwatt::serve

#endif // SOFTWATT_SERVE_EXECUTOR_HH

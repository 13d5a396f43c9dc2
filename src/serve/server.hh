/**
 * @file
 * The softwatt-serve daemon core: a crash-tolerant simulation
 * service accepting experiment specs over a local unix socket
 * (newline-delimited JSON, see protocol.hh) and answering each with
 * a complete softwatt-experiment-v2 document.
 *
 * Threads: the accept loop, serve_jobs workers that pop jobs
 * straight off the admission queue, and one reader per session. The
 * admission queue is the only place a job waits for a worker.
 *
 * Robustness properties (DESIGN.md §4j):
 *  - Bounded admission with client-fair round-robin scheduling and a
 *    structured `overloaded` rejection once serve_queue_max jobs are
 *    waiting for a worker.
 *  - Per-job wall and simulated deadlines, cooperative cancellation;
 *    the accept loop checks wall deadlines on every wake (<= 50 ms).
 *  - Bounded retries with exponential backoff behind the exception
 *    firewall; the final retry forces the invariant sweeps on.
 *  - Graceful drain: the first SIGTERM/SIGINT/SIGHUP (bridged to a
 *    CancelToken by the caller's SignalGuard) stops admissions and
 *    finishes admitted + in-flight work; a second signal cancels
 *    queued jobs and hard-stops in-flight ones at their next sample
 *    window.
 *  - Crash recovery: finished runs are journaled (append-only across
 *    daemon generations), so a SIGKILL'd daemon re-answers finished
 *    jobs byte-identically from the journal; orphaned warm-up
 *    checkpoints are promoted into the pool so in-flight progress
 *    survives too.
 *  - Warm checkpoint pool: jobs resume from pooled post-warm-up
 *    images of matching configurations (see checkpoint_pool.hh).
 */

#ifndef SOFTWATT_SERVE_SERVER_HH
#define SOFTWATT_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.hh"
#include "core/runner.hh"

#include "admission.hh"
#include "checkpoint_pool.hh"
#include "protocol.hh"
#include "session.hh"

namespace softwatt::serve
{

/** Service configuration (see EXPERIMENTS.md for the key reference). */
struct ServeOptions
{
    /** serve_socket=: unix socket path the daemon listens on. */
    std::string socketPath;

    /** serve_state=: directory for the journal and checkpoint pool. */
    std::string statePath;

    /** serve_jobs=: worker threads executing runs. */
    int jobs = 2;

    /** serve_queue_max=: jobs waiting for a worker; 0 = unbounded. */
    std::size_t queueMax = 64;

    /** serve_pool_mb=: warm pool budget; 0 = scratch (cold) mode. */
    double poolMb = 64.0;

    /** serve_warm_s=: autosave cadence in simulated seconds; 0 off. */
    double warmS = 0.0;

    /** serve_retries=: extra attempts for a Failed run. */
    int retries = 1;

    /** serve_backoff_ms=: base retry backoff (doubles per retry). */
    std::uint64_t backoffMs = 100;

    /** serve_wall_timeout_s=: default per-job wall budget; 0 none. */
    double wallTimeoutS = 0.0;

    /**
     * durability=: barrier discipline for the answer journal and
     * the pool's promote chains. Buffered (default) survives
     * SIGKILL; full also survives a power cut (fdatasync per
     * journal append, fsync'd rename chains).
     */
    Durability durability = Durability::Buffered;

    /**
     * Read and range-check every serve_* key; fatal() on nonsense
     * (missing socket/state paths, negative budgets).
     */
    static ServeOptions fromConfig(const Config &args);
};

/**
 * The daemon. Lifecycle: construct, start() (bind + recover state),
 * serveUntil(token) (blocks until the token drains the service).
 * The caller owns signal wiring — the daemon binary bridges
 * SIGINT/SIGTERM/SIGHUP via SignalGuard; tests drive the token
 * directly.
 */
class ServeServer
{
  public:
    explicit ServeServer(ServeOptions options);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Create the state directory, open the journal (append mode —
     * answers accumulate across daemon generations), load journaled
     * answers, recover the checkpoint pool, and bind the socket.
     * @return false with @p error on failure.
     */
    bool start(std::string &error);

    /**
     * Start serve_jobs workers, then accept and serve until @p token
     * reports cancellation and all admitted work has finished (Drain)
     * or been cancelled (Hard). Installs the throwing error handler
     * for its duration.
     */
    void serveUntil(CancelToken &token);

    std::string journalPath() const;
    std::string poolDirectory() const;

    // Service counters (tests and the drain log line).
    std::uint64_t executedJobs() const { return executed.load(); }
    std::uint64_t journalHits() const { return journalHit.load(); }
    std::uint64_t shedJobs() const { return shed.load(); }

    /**
     * Sessions currently tracked, after reaping finished ones —
     * bounded by the live client count, not the accept history.
     */
    std::size_t sessionCount();

  private:
    /** One admitted run request. */
    struct Job
    {
        ServeRequest request;
        RunSpec spec;
        std::string fingerprint;  ///< specFingerprint(spec)
        std::string identity;     ///< journalKey() of the answer
        CancelToken cancel;
        std::shared_ptr<Session> session;
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point deadline;
    };
    using JobPtr = std::shared_ptr<Job>;

    /** A journaled answer, replayable byte-identically. */
    struct Answer
    {
        std::string runJson;
        int attempts = 1;
    };

    void sessionLoop(std::shared_ptr<Session> session);
    void handleRun(const std::shared_ptr<Session> &session,
                   ServeRequest request);
    void handleCancel(const std::shared_ptr<Session> &session,
                      const ServeRequest &request);
    void executeJob(const JobPtr &job);
    void respond(const std::shared_ptr<Session> &session,
                 const ServeResponse &response);

    /** Assemble the one-run experiment document for a response. */
    std::string renderDocument(const std::string &experiment,
                               const std::string &runJson) const;

    static std::string liveKey(const std::string &client,
                               const std::string &id);
    void eraseLive(const JobPtr &job);

    /** Hard-cancel every live job whose wall deadline has passed. */
    void cancelExpiredJobs();

    /** Join and drop every session whose reader thread has exited. */
    void reapSessionsLocked();

    ServeOptions opts;
    int listenFd = -1;
    RunJournal journal;
    CheckpointPool poolStore;
    AdmissionQueue<JobPtr> queue;

    std::mutex answersMutex;
    std::map<std::string, Answer> answers;

    std::mutex liveMutex;
    std::map<std::string, JobPtr> live;

    /**
     * One accepted connection: its session, its reader thread, and
     * the flag the thread raises on exit so the accept loop can join
     * it. A long-lived daemon serves many short-lived clients;
     * finished workers are reaped on every accept, not hoarded until
     * shutdown.
     */
    struct SessionWorker
    {
        std::shared_ptr<Session> session;
        std::shared_ptr<std::atomic<bool>> done;
        std::thread thread;
    };

    std::mutex sessionsMutex;
    std::vector<SessionWorker> sessionWorkers;

    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> journalHit{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> warmStarted{0};
};

} // namespace softwatt::serve

#endif // SOFTWATT_SERVE_SERVER_HH

#include "server.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/system.hh"
#include "sim/logging.hh"

#include "executor.hh"

namespace softwatt::serve
{

namespace
{

constexpr char fieldSep = '\x1f';

/**
 * Outcomes worth journaling: the run executed and its document is the
 * permanent answer for this spec. Cancelled runs are a property of
 * one submission (a resubmit should execute), and Failed runs should
 * be retried by a fresh daemon, not replayed.
 */
bool
durableOutcome(RunOutcome outcome)
{
    return outcome != RunOutcome::Cancelled &&
           outcome != RunOutcome::Failed;
}

} // namespace

ServeOptions
ServeOptions::fromConfig(const Config &args)
{
    ServeOptions options;
    options.socketPath = args.getString("serve_socket", "");
    options.statePath = args.getString("serve_state", "");
    std::int64_t jobs = args.getInt("serve_jobs", 2);
    std::int64_t queueMax = args.getInt("serve_queue_max", 64);
    options.poolMb = args.getDouble("serve_pool_mb", 64.0);
    options.warmS = args.getDouble("serve_warm_s", 0.0);
    std::int64_t retries = args.getInt("serve_retries", 1);
    std::int64_t backoffMs = args.getInt("serve_backoff_ms", 100);
    options.wallTimeoutS = args.getDouble("serve_wall_timeout_s", 0.0);
    std::string durable = args.getString("durability", "buffered");
    bool knownDurability = false;
    options.durability = durabilityFromName(durable, knownDurability);
    if (!knownDurability) {
        fatal(msg() << "config: durability must be 'buffered' or "
                    << "'full' (got '" << durable << "')");
    }

    if (options.socketPath.empty())
        fatal("config: serve_socket= (unix socket path) is required");
    if (options.statePath.empty())
        fatal("config: serve_state= (state directory) is required");
    if (jobs < 1 || jobs > 1024)
        fatal(msg() << "config: serve_jobs must be in [1, 1024] "
                    << "(got " << jobs << ")");
    if (queueMax < 0)
        fatal(msg() << "config: serve_queue_max must be >= 0 "
                    << "(got " << queueMax << ")");
    if (!(options.poolMb >= 0.0) || options.poolMb > 1e9)
        fatal(msg() << "config: serve_pool_mb must be in [0, 1e9] "
                    << "(got " << options.poolMb << ")");
    if (!(options.warmS >= 0.0) || options.warmS > 1e18)
        fatal(msg() << "config: serve_warm_s must be a finite value "
                    << ">= 0 (got " << options.warmS << ")");
    if (retries < 0 || retries > 100)
        fatal(msg() << "config: serve_retries must be in [0, 100] "
                    << "(got " << retries << ")");
    if (backoffMs < 0 || backoffMs > 60000)
        fatal(msg() << "config: serve_backoff_ms must be in "
                    << "[0, 60000] (got " << backoffMs << ")");
    if (!(options.wallTimeoutS >= 0.0) || options.wallTimeoutS > 1e9)
        fatal(msg() << "config: serve_wall_timeout_s must be in "
                    << "[0, 1e9] (got " << options.wallTimeoutS
                    << ")");

    options.jobs = int(jobs);
    options.queueMax = std::size_t(queueMax);
    options.retries = int(retries);
    options.backoffMs = std::uint64_t(backoffMs);
    return options;
}

ServeServer::ServeServer(ServeOptions options)
    : opts(std::move(options)),
      poolStore(opts.statePath + "/pool",
                std::uint64_t(opts.poolMb * 1024.0 * 1024.0),
                opts.durability),
      queue(opts.queueMax)
{
}

ServeServer::~ServeServer()
{
    if (listenFd >= 0) {
        ::close(listenFd);
        ::unlink(opts.socketPath.c_str());
    }
}

std::string
ServeServer::journalPath() const
{
    return opts.statePath + "/serve.journal.jsonl";
}

std::string
ServeServer::poolDirectory() const
{
    return opts.statePath + "/pool";
}

bool
ServeServer::start(std::string &error)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(opts.statePath, ec);
    if (ec) {
        error = msg() << "cannot create state directory '"
                      << opts.statePath << "': " << ec.message();
        return false;
    }
    fs::create_directories(poolDirectory(), ec);
    if (ec) {
        error = msg() << "cannot create pool directory '"
                      << poolDirectory() << "': " << ec.message();
        return false;
    }

    // Answers accumulate across daemon generations: open append and
    // replay what previous generations finished.
    for (const JournalEntry &entry :
         RunJournal::loadLatest(journalPath())) {
        RunOutcome outcome;
        if (!runOutcomeFromName(entry.outcome, outcome) ||
            !durableOutcome(outcome)) {
            continue;
        }
        answers[journalKey(entry.experiment, entry.config)] =
            Answer{entry.runJson, entry.attempts};
    }
    if (!journal.open(journalPath(), /*truncate=*/false,
                      opts.durability)) {
        error = msg() << "cannot open service journal '"
                      << journalPath() << "'";
        return false;
    }
    std::size_t orphans = poolStore.recover();

    sockaddr_un address{};
    if (opts.socketPath.size() >= sizeof(address.sun_path)) {
        error = msg() << "socket path '" << opts.socketPath
                      << "' is too long for AF_UNIX";
        return false;
    }
    ::unlink(opts.socketPath.c_str());
    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0) {
        error = msg() << "socket(): " << std::strerror(errno);
        return false;
    }
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, opts.socketPath.c_str(),
                opts.socketPath.size() + 1);
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&address),
               sizeof(address)) != 0) {
        error = msg() << "bind('" << opts.socketPath
                      << "'): " << std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    if (::listen(listenFd, 128) != 0) {
        error = msg() << "listen(): " << std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        return false;
    }

    status(msg() << "serve: listening on " << opts.socketPath << " ("
                 << answers.size() << " journaled answers, "
                 << poolStore.entries() << " pooled images, "
                 << orphans << " orphans promoted)");
    return true;
}

void
ServeServer::serveUntil(CancelToken &token)
{
    // One throwing error handler for the daemon's lifetime: fatal()
    // and panic() anywhere below surface as SimError, which
    // runSpecProtected converts into Failed run records per job.
    ScopedErrorHandler firewall(throwingErrorHandler);
    // Each worker exits once the queue is closed and empty.
    std::vector<std::thread> workers;
    for (int i = 0; i < opts.jobs; ++i) {
        workers.emplace_back([this] {
            JobPtr job;
            while (queue.pop(job))
                executeJob(job);
        });
    }

    bool draining = false;
    bool hardCancelled = false;
    for (;;) {
        if (!draining && token.cancelled()) {
            draining = true;
            status("serve: draining (no new admissions)");
            if (listenFd >= 0) {
                ::close(listenFd);
                listenFd = -1;
                ::unlink(opts.socketPath.c_str());
            }
            queue.close();
        }
        if (!hardCancelled && token.level() >= CancelToken::Hard) {
            hardCancelled = true;
            status("serve: hard cancel (dropping queued jobs)");
            for (const JobPtr &job : queue.drain()) {
                eraseLive(job);
                ServeResponse failure;
                failure.id = job->request.id;
                failure.status = statusCancelled;
                failure.error = "cancelled by daemon shutdown";
                respond(job->session, failure);
            }
            std::lock_guard<std::mutex> lock(liveMutex);
            for (auto &entry : live)
                entry.second->cancel.request(CancelToken::Hard);
        }
        cancelExpiredJobs();
        if (draining) {
            bool idle;
            {
                std::lock_guard<std::mutex> lock(liveMutex);
                idle = live.empty();
            }
            if (idle && queue.size() == 0)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            continue;
        }

        pollfd waiter{};
        waiter.fd = listenFd;
        waiter.events = POLLIN;
        // The timeout bounds how late a wall deadline is noticed.
        int ready = ::poll(&waiter, 1, 50);
        if (ready <= 0 || !(waiter.revents & POLLIN))
            continue;
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto session = std::make_shared<Session>(fd);
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::lock_guard<std::mutex> lock(sessionsMutex);
        reapSessionsLocked();
        SessionWorker worker;
        worker.session = session;
        worker.done = done;
        worker.thread = std::thread([this, session, done] {
            sessionLoop(session);
            done->store(true);
        });
        sessionWorkers.push_back(std::move(worker));
    }

    // The queue is closed and empty, so each worker exits once its
    // last job has written its response, before any session is torn
    // down.
    for (std::thread &worker : workers)
        worker.join();

    std::vector<SessionWorker> leftover;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex);
        leftover.swap(sessionWorkers);
    }
    for (SessionWorker &worker : leftover)
        worker.session->shutdownBoth();
    for (SessionWorker &worker : leftover)
        worker.thread.join();

    status(msg() << "serve: drained (" << executed.load()
                 << " executed, " << journalHit.load()
                 << " journal hits, " << warmStarted.load()
                 << " warm starts, " << shed.load() << " shed)");
}

void
ServeServer::sessionLoop(std::shared_ptr<Session> session)
{
    std::string line;
    while (session->readLine(line)) {
        if (line.empty())
            continue;
        ServeRequest request;
        std::string parseError;
        if (!parseServeRequest(line, request, parseError)) {
            ServeResponse failure;
            failure.id = request.id;
            failure.status = statusBadRequest;
            failure.error = parseError;
            respond(session, failure);
            continue;
        }
        if (request.op == "cancel")
            handleCancel(session, request);
        else
            handleRun(session, std::move(request));
    }
}

void
ServeServer::handleRun(const std::shared_ptr<Session> &session,
                       ServeRequest request)
{
    ServeResponse response;
    response.id = request.id;

    JobPtr job = std::make_shared<Job>();
    std::string specError;
    if (!parseServeSpec(request.spec, job->spec, specError)) {
        response.status = statusBadRequest;
        response.error = specError;
        respond(session, response);
        return;
    }

    job->fingerprint = specFingerprint(job->spec);
    job->identity = journalKey(request.experiment, job->fingerprint);

    {
        std::lock_guard<std::mutex> lock(answersMutex);
        auto hit = answers.find(job->identity);
        if (hit != answers.end()) {
            journalHit.fetch_add(1);
            response.status = statusOk;
            response.servedFrom = "journal";
            response.attempts = hit->second.attempts;
            response.document = renderDocument(request.experiment,
                                               hit->second.runJson);
            respond(session, response);
            return;
        }
    }

    job->request = std::move(request);
    job->session = session;
    std::uint64_t wallMs =
        job->request.wallMs
            ? job->request.wallMs
            : std::uint64_t(opts.wallTimeoutS * 1000.0);
    if (wallMs > 0) {
        job->hasDeadline = true;
        job->deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wallMs);
    }

    const std::string key =
        liveKey(job->request.client, job->request.id);
    {
        std::lock_guard<std::mutex> lock(liveMutex);
        if (live.count(key)) {
            response.status = statusBadRequest;
            response.error = msg()
                << "job id '" << job->request.id
                << "' is already in flight for this client";
            respond(session, response);
            return;
        }
        live.emplace(key, job);
    }

    switch (queue.push(job->request.client, job)) {
      case AdmissionQueue<JobPtr>::Admit::Admitted:
        return;  // The response comes from executeJob.
      case AdmissionQueue<JobPtr>::Admit::Shed:
        shed.fetch_add(1);
        eraseLive(job);
        response.status = statusOverloaded;
        response.error = msg()
            << "admission queue is full (" << queue.size()
            << " jobs pending); retry later";
        respond(session, response);
        return;
      case AdmissionQueue<JobPtr>::Admit::Closed:
        eraseLive(job);
        response.status = statusShuttingDown;
        response.error = "daemon is draining";
        respond(session, response);
        return;
    }
}

void
ServeServer::handleCancel(const std::shared_ptr<Session> &session,
                          const ServeRequest &request)
{
    ServeResponse response;
    response.id = request.id;
    response.status = statusOk;
    {
        std::lock_guard<std::mutex> lock(liveMutex);
        auto it = live.find(liveKey(request.client, request.id));
        if (it != live.end())
            it->second->cancel.request(CancelToken::Hard);
        else
            response.error = "no in-flight job to cancel";
    }
    respond(session, response);
}

void
ServeServer::executeJob(const JobPtr &job)
{
    ServeResponse response;
    response.id = job->request.id;

    if (job->cancel.cancelled()) {
        // Cancelled (client cancel, wall deadline, or hard shutdown)
        // while still queued: never started, nothing to report.
        response.status = statusCancelled;
        response.error = "cancelled before execution";
    } else {
        ServeExecOptions policy;
        policy.title = job->request.experiment;
        policy.retries = opts.retries;
        policy.backoffMs = opts.backoffMs;
        policy.warmEveryS = opts.warmS;
        policy.pool = &poolStore;
        policy.durability = opts.durability;
        ServeExecResult done =
            executeServeSpec(job->spec, policy, job->cancel);
        executed.fetch_add(1);
        if (done.run.warmStarted)
            warmStarted.fetch_add(1);

        response.servedFrom = "executed";
        response.attempts = done.run.attempts;
        response.warmStart = done.run.warmStarted;
        response.warmStartTick = done.run.warmStartTick;
        response.ticksExecuted = done.run.ticksExecuted;
        // Self-monitoring posture: a response computed fine but
        // whose durability machinery failed mid-flight says so,
        // instead of pretending the answer will survive a restart.
        response.degraded =
            done.run.storageDegraded || journal.degraded();
        RunOutcome outcome = done.run.result.outcome;
        if (outcome == RunOutcome::Failed) {
            response.status = statusFailed;
            response.error = done.run.error;
        } else if (outcome == RunOutcome::Cancelled) {
            response.status = statusCancelled;
            response.error = done.run.result.diagnostics;
        } else {
            response.status = statusOk;
        }
        if (!done.runJson.empty())
            response.document = renderDocument(
                job->request.experiment, done.runJson);

        if (durableOutcome(outcome) && !done.runJson.empty()) {
            JournalEntry entry =
                makeJournalEntry(job->request.experiment, job->spec,
                                 job->fingerprint, done.run);
            std::lock_guard<std::mutex> lock(answersMutex);
            if (answers
                    .emplace(job->identity,
                             Answer{entry.runJson, entry.attempts})
                    .second) {
                journal.append(entry);
            }
        }
        // The append above may itself have degraded the journal;
        // this job's answer is then NOT durable and must say so.
        response.degraded |= journal.degraded();
    }

    eraseLive(job);
    if (!job->session->writeLine(renderServeResponse(response))) {
        warn(msg() << "serve: client '" << job->request.client
                   << "' vanished before job '" << job->request.id
                   << "' was answered"
                   << (response.status == statusOk
                           ? " (result journaled)"
                           : ""));
    }
}

void
ServeServer::respond(const std::shared_ptr<Session> &session,
                     const ServeResponse &response)
{
    session->writeLine(renderServeResponse(response));
}

std::string
ServeServer::renderDocument(const std::string &experiment,
                            const std::string &runJson) const
{
    std::ostringstream out;
    writeExperimentDocument(out, experiment, /*interrupted=*/false,
                            {runJson});
    return out.str();
}

std::string
ServeServer::liveKey(const std::string &client, const std::string &id)
{
    std::string key = client;
    key += fieldSep;
    key += id;
    return key;
}

void
ServeServer::eraseLive(const JobPtr &job)
{
    std::lock_guard<std::mutex> lock(liveMutex);
    live.erase(liveKey(job->request.client, job->request.id));
}

void
ServeServer::cancelExpiredJobs()
{
    auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(liveMutex);
    for (auto &entry : live) {
        const JobPtr &job = entry.second;
        if (job->hasDeadline && now >= job->deadline)
            job->cancel.request(CancelToken::Hard);
    }
}

void
ServeServer::reapSessionsLocked()
{
    for (auto it = sessionWorkers.begin();
         it != sessionWorkers.end();) {
        if (it->done->load()) {
            it->thread.join();
            it = sessionWorkers.erase(it);
        } else {
            ++it;
        }
    }
}

std::size_t
ServeServer::sessionCount()
{
    std::lock_guard<std::mutex> lock(sessionsMutex);
    reapSessionsLocked();
    return sessionWorkers.size();
}

} // namespace softwatt::serve

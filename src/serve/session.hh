/**
 * @file
 * One connected unix-socket peer, wrapped as line-oriented I/O.
 *
 * Robustness contract: a peer that disconnects mid-write must never
 * kill the daemon. SIGPIPE is already ignored while a SignalGuard is
 * active (sim/signals.hh) and every send() passes MSG_NOSIGNAL as a
 * second line of defense, so a dead peer surfaces as a write error
 * that flips the session's broken() flag — a per-session condition
 * the caller logs and moves past.
 */

#ifndef SOFTWATT_SERVE_SESSION_HH
#define SOFTWATT_SERVE_SESSION_HH

#include <atomic>
#include <mutex>
#include <string>

namespace softwatt::serve
{

/** A connected stream socket with buffered line reads and
 *  mutex-serialized line writes. Owns (and closes) the fd. */
class Session
{
  public:
    /** Take ownership of connected socket @p fd. */
    explicit Session(int fd);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Block until one newline-terminated line arrives (the newline
     * is stripped). @return false on EOF or a read error; a partial
     * line at EOF is discarded as torn.
     */
    bool readLine(std::string &line);

    /**
     * Write @p line plus a newline, atomically with respect to other
     * writers (responses for one connection may come from several
     * worker threads). @return false — and broken() thereafter — on
     * any write error, EPIPE from a vanished peer included.
     */
    bool writeLine(const std::string &line);

    /** Has any read or write on this session failed? */
    bool broken() const
    {
        return brokenFlag.load(std::memory_order_acquire);
    }

    /**
     * Shut the socket down both ways, unblocking a reader stuck in
     * readLine() (shutdown path: the daemon closes lingering
     * sessions after drain).
     */
    void shutdownBoth();

  private:
    int sock;
    std::atomic<bool> brokenFlag{false};
    std::string inbox;
    std::mutex writeMutex;
};

} // namespace softwatt::serve

#endif // SOFTWATT_SERVE_SESSION_HH

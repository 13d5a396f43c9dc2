/**
 * @file
 * Bounded, client-fair admission queue for the serve daemon.
 *
 * Admission control is what keeps the daemon honest under overload:
 * instead of buffering without limit (and turning overload into
 * unbounded latency and memory), push() fails fast with Shed once
 * the bound is reached, and the daemon surfaces a structured
 * `overloaded` rejection the client can retry against.
 *
 * Fairness: items are queued per client and pop() rotates across
 * clients round-robin, so one client submitting hundreds of jobs
 * cannot starve a client submitting one.
 */

#ifndef SOFTWATT_SERVE_ADMISSION_HH
#define SOFTWATT_SERVE_ADMISSION_HH

#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace softwatt::serve
{

/**
 * A multi-producer, single-or-multi-consumer queue of T bounded at a
 * fixed total size, drained round-robin across client names.
 */
template <typename T>
class AdmissionQueue
{
  public:
    enum class Admit
    {
        Admitted,  ///< Queued; pop() will deliver it.
        Shed,      ///< Bound reached; caller must reject the work.
        Closed,    ///< Queue closed (shutdown); no new admissions.
    };

    /** @param bound Max queued items across all clients; 0 = no bound. */
    explicit AdmissionQueue(std::size_t bound) : bound(bound) {}

    /** Try to admit @p item under @p client's per-client FIFO. */
    Admit
    push(const std::string &client, T item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (closedFlag)
                return Admit::Closed;
            if (bound != 0 && count >= bound)
                return Admit::Shed;
            std::deque<T> &fifo = perClient[client];
            if (fifo.empty())
                rotation.push_back(client);
            fifo.push_back(std::move(item));
            ++count;
        }
        ready.notify_one();
        return Admit::Admitted;
    }

    /**
     * Block until an item is available or the queue is closed AND
     * empty. Clients take turns: the head client yields one item and
     * rotates to the back of the order.
     * @return false when closed and fully drained.
     */
    bool
    pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock,
                   [this] { return count > 0 || closedFlag; });
        if (count == 0)
            return false;
        out = takeNextLocked();
        return true;
    }

    /** Stop admitting; pop() drains what is already queued. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            closedFlag = true;
        }
        ready.notify_all();
    }

    /**
     * Remove and return every queued item in the same round-robin
     * order pop() would have delivered them (hard shutdown: the
     * caller rejects each as cancelled).
     */
    std::vector<T>
    drain()
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::vector<T> dropped;
        dropped.reserve(count);
        while (count > 0)
            dropped.push_back(takeNextLocked());
        return dropped;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return count;
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return closedFlag;
    }

  private:
    /**
     * Take the head client's oldest item and rotate that client to
     * the back of the order, or forget it once its FIFO is empty.
     * Requires the lock and count > 0.
     */
    T
    takeNextLocked()
    {
        std::string client = rotation.front();
        rotation.pop_front();
        std::deque<T> &fifo = perClient[client];
        T item = std::move(fifo.front());
        fifo.pop_front();
        --count;
        if (!fifo.empty())
            rotation.push_back(client);
        else
            perClient.erase(client);
        return item;
    }

    std::size_t bound;
    std::size_t count = 0;
    bool closedFlag = false;
    std::map<std::string, std::deque<T>> perClient;
    std::deque<std::string> rotation;
    mutable std::mutex mutex;
    std::condition_variable ready;
};

} // namespace softwatt::serve

#endif // SOFTWATT_SERVE_ADMISSION_HH

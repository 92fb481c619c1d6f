/**
 * @file
 * BoundedQueue<T>: a bounded multi-producer multi-consumer FIFO with
 * blocking, non-blocking, and timed operations — the backpressure
 * primitive under the async serving layer. Producers block (or fail
 * fast via tryPush) when the queue is at capacity; consumers block
 * (or time out via popFor) when it is empty. close() transitions the
 * queue to a draining state: further pushes fail with Closed, while
 * pops keep returning the remaining items and then report exhaustion,
 * so a consumer can always finish every request that was accepted.
 *
 * Shutdown semantics (the one place this contract is written down —
 * every serving layer builds on it):
 *
 *  - close() is idempotent and wakes EVERY blocked thread, producers
 *    included: a push() parked on a full queue returns Closed with
 *    the caller's item untouched (nothing was moved from it), so the
 *    caller can still fail the request with an attributed Status.
 *    No thread stays parked across a shutdown.
 *  - Drain, not shed: items accepted before close() remain poppable
 *    afterwards. pop()/popFor() return them in FIFO order and only
 *    then report exhaustion (nullopt). "Accepted" is the commitment
 *    point — the serving front end (serve/front_end.hh) promises
 *    that an accepted request's future resolves, and this queue is
 *    what makes that promise cheap to keep.
 *  - Shedding is the producer's job, before the commitment point:
 *    tryPush() returning Full is the only shed signal; a request
 *    rejected there was never accepted and is not owed a drain.
 *  - ThreadPool::shutdown() composes the same way: it closes its
 *    task queue, drains queued work, then joins (thread_pool.hh has
 *    the pool-side half of this contract).
 */

#ifndef CCSA_BASE_BOUNDED_QUEUE_HH
#define CCSA_BASE_BOUNDED_QUEUE_HH

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace ccsa
{

/** Outcome of a push attempt on a BoundedQueue. */
enum class QueuePush
{
    Ok,
    /** tryPush only: the queue is at capacity right now. */
    Full,
    /** The queue was close()d; no new items are accepted. */
    Closed,
};

/** Bounded MPMC FIFO with blocking push/pop and close-to-drain. */
template <typename T>
class BoundedQueue
{
  public:
    /** @param capacity maximum queued items; clamped to >= 1. */
    explicit BoundedQueue(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    BoundedQueue(const BoundedQueue&) = delete;
    BoundedQueue& operator=(const BoundedQueue&) = delete;

    /**
     * Block until there is room (or the queue closes), then enqueue.
     * On Closed the item is left untouched in the caller's hands.
     */
    QueuePush
    push(T&& item)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notFull_.wait(lock, [this] {
                return closed_ || items_.size() < capacity_;
            });
            if (closed_)
                return QueuePush::Closed;
            items_.push_back(std::move(item));
        }
        notEmpty_.notify_one();
        return QueuePush::Ok;
    }

    /**
     * Enqueue without blocking. On Full or Closed the item is left
     * untouched in the caller's hands (nothing is moved from it).
     */
    QueuePush
    tryPush(T&& item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return QueuePush::Closed;
            if (items_.size() >= capacity_)
                return QueuePush::Full;
            items_.push_back(std::move(item));
        }
        notEmpty_.notify_one();
        return QueuePush::Ok;
    }

    /**
     * Enqueue every item or none, without blocking: the batch is
     * admitted only when the queue has room for all of it. The
     * all-or-nothing contract is what lets a sharded submitter split
     * one request into per-shard pieces without ever stranding half
     * of them in the queue on load-shed. On Ok the items are
     * moved-from; on Full or Closed they are left untouched.
     * An empty batch is Ok and a no-op.
     */
    QueuePush
    tryPushAll(std::vector<T>& items)
    {
        if (items.empty())
            return QueuePush::Ok;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return QueuePush::Closed;
            if (items_.size() + items.size() > capacity_)
                return QueuePush::Full;
            for (T& item : items)
                items_.push_back(std::move(item));
        }
        if (items.size() == 1)
            notEmpty_.notify_one();
        else
            notEmpty_.notify_all();
        return QueuePush::Ok;
    }

    /**
     * tryPushAll across several queues: items[i] goes to *queues[i]
     * (a queue may appear more than once). Every target is locked in
     * address order, so concurrent callers cannot deadlock, and the
     * items are admitted only when EVERY target has room for its
     * share — the all-or-nothing contract for a submitter whose
     * shards each own a queue. Closed wins over Full, as in
     * tryPushAll. On Ok the items are moved-from; otherwise they are
     * left untouched.
     */
    static QueuePush
    tryPushAllAcross(const std::vector<BoundedQueue*>& queues,
                     std::vector<T>& items)
    {
        std::vector<BoundedQueue*> order(queues);
        std::sort(order.begin(), order.end(),
                  std::less<BoundedQueue*>());
        order.erase(std::unique(order.begin(), order.end()),
                    order.end());
        {
            std::vector<std::unique_lock<std::mutex>> locks;
            locks.reserve(order.size());
            for (BoundedQueue* q : order)
                locks.emplace_back(q->mutex_);
            for (BoundedQueue* q : order)
                if (q->closed_)
                    return QueuePush::Closed;
            for (BoundedQueue* q : order) {
                auto share = static_cast<std::size_t>(
                    std::count(queues.begin(), queues.end(), q));
                if (q->items_.size() + share > q->capacity_)
                    return QueuePush::Full;
            }
            for (std::size_t i = 0; i < items.size(); ++i)
                queues[i]->items_.push_back(std::move(items[i]));
        }
        for (BoundedQueue* q : order)
            q->notEmpty_.notify_all();
        return QueuePush::Ok;
    }

    /**
     * Block until an item is available and dequeue it.
     * @return nullopt only when the queue is closed AND drained.
     */
    std::optional<T>
    pop()
    {
        std::optional<T> out;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notEmpty_.wait(lock, [this] {
                return closed_ || !items_.empty();
            });
            if (items_.empty())
                return std::nullopt; // closed and drained
            out.emplace(std::move(items_.front()));
            items_.pop_front();
        }
        notFull_.notify_one();
        return out;
    }

    /**
     * Dequeue without blocking.
     * @return nullopt when nothing is queued right now.
     */
    std::optional<T>
    tryPop()
    {
        std::optional<T> out;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (items_.empty())
                return std::nullopt;
            out.emplace(std::move(items_.front()));
            items_.pop_front();
        }
        notFull_.notify_one();
        return out;
    }

    /**
     * pop() with a deadline: wait at most `timeout` for an item.
     * @return nullopt on timeout or when closed and drained.
     */
    std::optional<T>
    popFor(std::chrono::microseconds timeout)
    {
        std::optional<T> out;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notEmpty_.wait_for(lock, timeout, [this] {
                return closed_ || !items_.empty();
            });
            if (items_.empty())
                return std::nullopt; // timed out, or closed+drained
            out.emplace(std::move(items_.front()));
            items_.pop_front();
        }
        notFull_.notify_one();
        return out;
    }

    /**
     * Stop accepting items and wake every blocked producer/consumer.
     * Already-queued items remain poppable (drain semantics).
     * Idempotent.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    mutable std::mutex mutex_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<T> items_;
    std::size_t capacity_;
    bool closed_ = false;
};

} // namespace ccsa

#endif // CCSA_BASE_BOUNDED_QUEUE_HH

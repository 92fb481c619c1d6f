/**
 * @file
 * ccsa::MetricsSampler — the background scrape thread of the
 * metrics plane. Counters and latency histograms are pushed inline
 * by the serving hot path, but *level* metrics (queue depth, cache
 * residents/bytes per namespace, live model versions, admission
 * bucket fill, SLO burn rate) are snapshots of someone else's
 * state: they have to be pulled. Probes are std::function<void()>
 * closures (ShardedServer::sampleMetrics, ProcessShardedServer's, an
 * AdmissionController::publishMetrics bind, SloTracker
 * publishGauges) that the sampler runs every period; after each
 * sweep it optionally dumps the registry's exposition to a file, so
 * an external scraper — or tools/check_metrics.py in CI — always
 * reads a complete, freshly rotated view.
 *
 * sampleOnce() runs one synchronous sweep without the thread, which
 * is what tests and the serving_daemon demo use for deterministic
 * scrapes.
 */

#ifndef CCSA_SERVE_METRICS_METRICS_SAMPLER_HH
#define CCSA_SERVE_METRICS_METRICS_SAMPLER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/metrics/metrics.hh"

namespace ccsa
{

/** Periodic gauge-probe runner + exposition dumper. */
class MetricsSampler
{
  public:
    struct Options
    {
        /** Sweep period. */
        std::chrono::milliseconds period{1000};
        /** When non-empty, expose() is dumped here (atomically,
         * via rename) after every sweep. */
        std::string expositionPath;

        Options& withPeriod(std::chrono::milliseconds p)
        {
            period = p;
            return *this;
        }
        Options& withExpositionPath(std::string path)
        {
            expositionPath = std::move(path);
            return *this;
        }
    };

    explicit MetricsSampler(MetricsRegistry& registry);
    MetricsSampler(MetricsRegistry& registry, Options opts);

    /** Stops the thread (stop()). */
    ~MetricsSampler();

    MetricsSampler(const MetricsSampler&) = delete;
    MetricsSampler& operator=(const MetricsSampler&) = delete;

    /** Register a probe run on every sweep. Probes added after
     * start() take effect from the next sweep. */
    void addProbe(std::function<void()> probe);

    /** Start the background thread (idempotent). */
    void start();

    /** Stop and join the background thread (idempotent; safe if
     * never started). */
    void stop();

    /** Run one sweep synchronously on the calling thread: every
     * probe, then the exposition dump if configured. */
    void sampleOnce();

    /** Completed sweeps (thread + sampleOnce). */
    std::uint64_t sweeps() const;

  private:
    void loop();

    MetricsRegistry& registry_;
    const Options opts_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::function<void()>> probes_;
    std::thread thread_;
    bool running_ = false;
    bool stopRequested_ = false;
    std::uint64_t sweeps_ = 0;
};

} // namespace ccsa

#endif // CCSA_SERVE_METRICS_METRICS_SAMPLER_HH

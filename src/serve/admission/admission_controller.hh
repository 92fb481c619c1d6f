/**
 * @file
 * ccsa::AdmissionController — per-tenant token-bucket quotas at the
 * serving front door. Every submit endpoint of the serving front
 * end (ShardedServer, ProcessShardedServer) can be gated by one of
 * these: a request costs as many tokens as it carries pairs, each
 * tenant owns an independent
 * bucket (configurable sustained rate and burst), and a dry bucket
 * answers the request immediately with ResourceExhausted instead of
 * letting one noisy tenant fill the shared queue and starve everyone
 * behind it. Tenants without a configured quota are unlimited, and
 * the empty tenant name is the DEFAULT tenant legacy callers land
 * on — so a server with no quotas configured admits exactly what it
 * admitted before this layer existed.
 *
 * The controller also defines the request vocabulary of the
 * admission layer: Priority (interactive vs batch traffic classes,
 * consumed by the deadline-aware coalescer in serve/coalesce.hh) and
 * SubmitOptions (tenant + priority + model name) that the servers'
 * submit overloads accept.
 *
 * Determinism: admission never changes a result, only whether a
 * request is answered at all. Time is injectable (admitAt) so tests
 * drive the bucket with a manual clock instead of sleeping.
 */

#ifndef CCSA_SERVE_ADMISSION_ADMISSION_CONTROLLER_HH
#define CCSA_SERVE_ADMISSION_ADMISSION_CONTROLLER_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.hh"

namespace ccsa
{

class MetricsRegistry;

/** Scheduling class of a submitted request (serve/coalesce.hh):
 * interactive traffic bounds batch-flush latency, batch traffic
 * rides full batches. */
enum class Priority
{
    kInteractive,
    kBatch,
};

/** @return printable name of a Priority. */
inline const char*
priorityName(Priority p)
{
    return p == Priority::kBatch ? "batch" : "interactive";
}

/** Per-submit routing options for the async serving layers: which
 * model answers, which tenant pays, and which scheduling lane the
 * request rides. Default-constructed == the legacy submit paths
 * (default model, default tenant, interactive). */
struct SubmitOptions
{
    /** Registry model name; "" = the default model. */
    std::string model;
    /** Admission-control tenant; "" = the default tenant. */
    std::string tenant;
    /** Scheduling lane (see serve/coalesce.hh Coalescer). */
    Priority priority = Priority::kInteractive;
    /** Submit-side deadline, measured from submit entry; zero means
     * none. A request whose deadline expires while it is still
     * queued is completed with Status::DeadlineExceeded instead of
     * being encoded (counted requestsRejectedDeadline /
     * ccsa_requests_total{outcome="deadline"}); one already handed
     * to an engine runs to completion — the deadline bounds queue
     * wait, not execution. */
    std::chrono::microseconds deadline{0};

    SubmitOptions& withModel(std::string name)
    {
        model = std::move(name);
        return *this;
    }

    SubmitOptions& withTenant(std::string name)
    {
        tenant = std::move(name);
        return *this;
    }

    SubmitOptions& withPriority(Priority p)
    {
        priority = p;
        return *this;
    }

    SubmitOptions& withDeadline(std::chrono::microseconds d)
    {
        deadline = d;
        return *this;
    }
};

/** Per-tenant token-bucket admission gate. */
class AdmissionController
{
  public:
    /** One tenant's refill rate and bucket depth, in PAIRS (a
     * request costs one token per pair it carries, so a tournament
     * pays for its real batch weight, not "one request"). */
    struct Quota
    {
        /** Sustained admission rate, pairs per second. */
        double pairsPerSec = 0.0;
        /** Bucket capacity: the largest instantaneous burst. Also
         * the ceiling on a single request's cost — a request larger
         * than the burst can NEVER be admitted and is rejected even
         * from a full bucket. */
        double burst = 0.0;
    };

    /** Lifetime admission counters for one tenant. */
    struct TenantAdmissionStats
    {
        std::string tenant;
        std::uint64_t admitted = 0;
        std::uint64_t admittedPairs = 0;
        std::uint64_t rejected = 0;
        /** Whether a quota is currently installed. */
        bool limited = false;
        /** Bucket fill as of the last charge (lazy refill: the
         * level is only topped up when the tenant next submits).
         * Meaningful only when limited. */
        double tokens = 0.0;
    };

    AdmissionController() = default;
    AdmissionController(const AdmissionController&) = delete;
    AdmissionController& operator=(const AdmissionController&) =
        delete;

    /**
     * Install (or replace) `tenant`'s quota. The bucket starts (or
     * restarts) full — a tenant gets its burst immediately after a
     * quota change. Non-positive burst is clamped up to 1 so a
     * configured tenant can always make progress one pair at a time;
     * a non-positive rate means the bucket never refills (burst
     * total, then rejection — a hard cap).
     */
    void setQuota(const std::string& tenant, Quota quota);

    /** Remove `tenant`'s quota: it becomes unlimited again (its
     * counters survive). */
    void clearQuota(const std::string& tenant);

    /**
     * Charge `pairs` tokens against `tenant`'s bucket at time `now`.
     * Ok admits; ResourceExhausted means the bucket is dry (or the
     * request exceeds the burst ceiling). Unquoted tenants are
     * always admitted. `now` must be monotone per tenant; the
     * serving layer passes steady_clock::now() (admit()), tests pass
     * a manual clock.
     */
    Status admitAt(const std::string& tenant, std::size_t pairs,
                   std::chrono::steady_clock::time_point now);

    /** admitAt(tenant, pairs, steady_clock::now()). */
    Status admit(const std::string& tenant, std::size_t pairs);

    /** @return true when `tenant` currently has a quota installed. */
    bool hasQuota(const std::string& tenant) const;

    /** Lifetime per-tenant admission counters, sorted by tenant
     * name. Every tenant ever seen by admitAt or setQuota has a
     * row — including unlimited ones, so per-tenant traffic volume
     * is visible even before anyone configures a quota. */
    std::vector<TenantAdmissionStats> stats() const;

    /**
     * Mirror the admission counters into a metrics registry:
     * ccsa_admission_admitted_total / _admitted_pairs_total /
     * _rejected_total{tenant} (monotone, via Counter::increaseTo)
     * and ccsa_admission_bucket_tokens{tenant} gauges for quoted
     * tenants. Wire as a MetricsSampler probe.
     */
    void publishMetrics(MetricsRegistry& registry) const;

  private:
    struct Bucket
    {
        bool limited = false;
        Quota quota;
        double tokens = 0.0;
        std::chrono::steady_clock::time_point lastRefill{};
        std::uint64_t admitted = 0;
        std::uint64_t admittedPairs = 0;
        std::uint64_t rejected = 0;
    };

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Bucket> buckets_;
};

} // namespace ccsa

#endif // CCSA_SERVE_ADMISSION_ADMISSION_CONTROLLER_HH

/**
 * @file
 * ccsa::ProcessShardedServer — crash-isolated sharded serving: the
 * serving front end (serve/front_end.hh) over worker processes.
 * ShardedServer scales execution across N threads, but every shard
 * still shares one address space: a single segfault in any encode
 * path takes the whole service down. This server moves each shard
 * into its own PROCESS (a `ccsa_worker` binary speaking the
 * length-prefixed protocol of serve/ipc/wire.hh over a socketpair),
 * so a worker crash costs one partition for the respawn window, not
 * the service. Submission, admission, split/join, counters, metrics,
 * SLO events and trace chains are the front end's, exactly as for
 * ShardedServer.
 *
 * Transport & routing:
 *  - The model ships once, as a v2 checkpoint the parent writes at
 *    construction; every worker loads it at exec (float32 checkpoint
 *    round-trips are bitwise-exact, so cross-process results stay
 *    bitwise-identical to a local Engine on the same weights).
 *  - Requests route by structural digest (shard = digest.lo %
 *    numShards on each pair's first tree): a request splits into one
 *    slice per shard queue it touches, joined back in request order.
 *    Routing is CORRECTNESS-adjacent, not just an optimisation: each
 *    worker process owns its partition's encoding cache in its own
 *    address space (partition-per-process), so each shard has its
 *    own request queue instead of ShardedServer's one work-stealing
 *    queue, where a request is never split.
 *  - Each shard serves a coalesced batch in two phases: an
 *    ENCODE RPC (idempotent — latents are a pure function of the
 *    trees — so it is retried on a freshly respawned worker, up to
 *    Options::encodeRetryLimit), then a COMPARE RPC that is NEVER
 *    retried: if the worker dies mid-compare the batch fails fast
 *    with an attributed Status instead of risking double execution.
 *
 * Supervision (the robustness layer):
 *  - Every RPC carries a deadline; an overdue reply means the worker
 *    is hung (e.g. the stall fault): it is SIGKILLed, the batch
 *    completes with Status::DeadlineExceeded, and a respawn is
 *    scheduled.
 *  - A supervisor thread heartbeats idle workers (ping/pong, latency
 *    into ccsa_heartbeat_latency_us), reaps spontaneous exits, and
 *    respawns dead workers under capped exponential backoff (first
 *    respawn immediate, then backoffInitial doubling up to
 *    backoffMax).
 *  - A circuit breaker degrades a flapping shard: breakerThreshold
 *    restarts within breakerWindow open the breaker, and while it is
 *    open the shard answers Unavailable IMMEDIATELY (clients fail
 *    fast; the other N-1 shards keep serving their partitions).
 *    After breakerCooldown one half-open respawn is attempted; a
 *    healthy ping closes the breaker.
 *  - Nothing is ever lost: every accepted request resolves with a
 *    value or an attributed error (crash -> Unavailable, hang ->
 *    DeadlineExceeded, open breaker -> Unavailable), and nothing is
 *    ever double-executed (only the idempotent encode phase
 *    retries).
 *
 * Fault injection: Options::faultSpec (serve/ipc/fault_injector.hh,
 * same grammar as the daemon's --fault-inject flag) is exported as
 * CCSA_FAULT to the FIRST spawn of Options::faultShard only —
 * respawned workers never inherit it, so recovery after the injected
 * fault is the clean path the tests and tools/check_crash_recovery.py
 * assert.
 *
 * Metrics plane: ServerMetrics under {server="ipc"} plus
 * ccsa_worker_restarts_total / ccsa_worker_up / ccsa_shard_degraded
 * per shard and the heartbeat latency histogram. Trace chains take
 * their encode and score boundaries at the RPC replies.
 *
 * Single-model by design: the model is a registry of one, published
 * as "model", and multi-model registry serving stays in-process
 * (ShardedServer); this server trades that flexibility for fault
 * isolation. Submit with any model name but "" or "model" fails
 * InvalidArgument.
 */

#ifndef CCSA_SERVE_IPC_PROCESS_SHARDED_SERVER_HH
#define CCSA_SERVE_IPC_PROCESS_SHARDED_SERVER_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "serve/engine.hh"
#include "serve/front_end.hh"
#include "serve/server_stats.hh"

namespace ccsa
{

/** One shard's supervision snapshot. */
struct WorkerHealth
{
    /** Current worker pid (-1 while down). */
    pid_t pid = -1;
    /** Spawn count for this shard; the first spawn is generation 0
     * (the only one that inherits Options::faultSpec). */
    std::uint64_t generation = 0;
    /** Respawns performed (generation - 1 while up, clamped >= 0). */
    std::uint64_t restarts = 0;
    /** True while a live worker is serving the partition. */
    bool up = false;
    /** True while the circuit breaker has the shard degraded. */
    bool degraded = false;
};

/** Fleet + per-shard + supervision snapshot. */
struct ProcessShardedServerStats
{
    /** Whole-server view (mergeServerStats semantics). Engine/cache
     * counters live inside the worker processes, so its engine
     * fields stay zero. */
    ServerStats aggregate;
    /** Per-shard rows (batching volume, latency, own queue). */
    std::vector<ServerStats> shards;
    /** Per-shard supervision state. */
    std::vector<WorkerHealth> health;
};

/** The serving front end over crash-isolated worker processes. */
class ProcessShardedServer : public FrontEnd
{
  public:
    /** The shared front-end options plus the worker-process knobs;
     * supervision knobs are deliberately test-tunable (small
     * deadlines make fault tests fast). */
    struct Options : FrontEndOptionsBuilder<Options>
    {
        /** Encoder threads inside each worker process. */
        int threadsPerWorker = 1;
        /** Encoding-cache capacity per worker process. */
        std::size_t cachePerWorker = 4096;
        /** Storage precision of each worker's encoding cache
         * (passed on the ccsa_worker command line); fp16/int8 fit
         * 2-4x more latents into cachePerWorker's bytes. */
        LatentPrecision latentPrecision = LatentPrecision::kFp32;
        /** ccsa_worker binary; "" = $CCSA_WORKER, else the
         * directory of /proc/self/exe + "/ccsa_worker". */
        std::string workerPath;
        /** Where the model checkpoint temp file is written. */
        std::string checkpointDir = "/tmp";
        /** Deadline on every compare/encode RPC; an overdue reply is
         * a HANG (worker killed, batch answers DeadlineExceeded). */
        std::chrono::milliseconds rpcDeadline{5000};
        /** Deadline on the post-spawn handshake ping (covers model
         * load in the fresh process). */
        std::chrono::milliseconds spawnDeadline{20000};
        /** Supervisor pass period (idle-worker heartbeats + reaping
         * + deferred respawns). */
        std::chrono::milliseconds heartbeatInterval{100};
        /** Deadline on an idle heartbeat's pong. */
        std::chrono::milliseconds heartbeatDeadline{2000};
        /** Backoff after the SECOND consecutive spawn failure (the
         * first respawn is immediate); doubles, capped at
         * backoffMax. */
        std::chrono::milliseconds backoffInitial{10};
        std::chrono::milliseconds backoffMax{1000};
        /** Restarts within breakerWindow that open the breaker. */
        std::size_t breakerThreshold = 3;
        std::chrono::milliseconds breakerWindow{10000};
        /** Open-breaker rejection period before one half-open
         * respawn attempt. */
        std::chrono::milliseconds breakerCooldown{1000};
        /** Bounded retries of the idempotent ENCODE phase on a
         * fresh worker after a crash (compare never retries). */
        std::size_t encodeRetryLimit = 1;
        /** Fault injected into faultShard's generation-0 worker
         * (fault_injector.hh grammar); "" = none. */
        std::string faultSpec;
        std::size_t faultShard = 0;

        /** Two worker processes unless withNumShards says
         * otherwise. */
        Options() { numShards = 2; }

        Options& withThreadsPerWorker(int n)
        {
            threadsPerWorker = n;
            return *this;
        }

        Options& withCachePerWorker(std::size_t n)
        {
            cachePerWorker = n;
            return *this;
        }

        Options& withLatentPrecision(LatentPrecision p)
        {
            latentPrecision = p;
            return *this;
        }

        Options& withWorkerPath(std::string path)
        {
            workerPath = std::move(path);
            return *this;
        }

        Options& withCheckpointDir(std::string dir)
        {
            checkpointDir = std::move(dir);
            return *this;
        }

        Options& withRpcDeadline(std::chrono::milliseconds d)
        {
            rpcDeadline = d;
            return *this;
        }

        Options& withHeartbeatInterval(std::chrono::milliseconds d)
        {
            heartbeatInterval = d;
            return *this;
        }

        Options& withHeartbeatDeadline(std::chrono::milliseconds d)
        {
            heartbeatDeadline = d;
            return *this;
        }

        Options& withBackoff(std::chrono::milliseconds initial,
                             std::chrono::milliseconds max)
        {
            backoffInitial = initial;
            backoffMax = max;
            return *this;
        }

        Options& withBreaker(std::size_t threshold,
                             std::chrono::milliseconds window,
                             std::chrono::milliseconds cooldown)
        {
            breakerThreshold = threshold;
            breakerWindow = window;
            breakerCooldown = cooldown;
            return *this;
        }

        Options& withEncodeRetryLimit(std::size_t n)
        {
            encodeRetryLimit = n;
            return *this;
        }

        Options& withFault(std::string spec, std::size_t shard = 0)
        {
            faultSpec = std::move(spec);
            faultShard = shard;
            return *this;
        }
    };

    /**
     * Serve an existing predictor across numShards worker processes.
     * Writes the model to a temp v2 checkpoint (removed on
     * destruction) that every spawn loads. FatalError when the
     * checkpoint cannot be written.
     */
    ProcessShardedServer(std::shared_ptr<ComparativePredictor> model,
                         Options opts);

    /** Aggregate + per-shard + supervision snapshot. */
    ProcessShardedServerStats stats() const;

    const Options& options() const { return opts_; }

    /** The checkpoint path workers load (tests reuse it to build a
     * bitwise-identical local Engine). */
    const std::string& checkpointPath() const;

  private:
    class Workers;

    ProcessShardedServer(std::unique_ptr<Workers> workers,
                         Options opts);

    Options opts_;
    Workers& workers_;
};

} // namespace ccsa

#endif // CCSA_SERVE_IPC_PROCESS_SHARDED_SERVER_HH

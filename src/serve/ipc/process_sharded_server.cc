#include "serve/ipc/process_sharded_server.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/fd_util.hh"
#include "base/logging.hh"
#include "serve/encoding_cache.hh"
#include "serve/ipc/wire.hh"
#include "serve/ipc/worker.hh"
#include "serve/metrics/metrics.hh"

extern char** environ;

namespace ccsa
{

namespace
{

ProcessShardedServer::Options
normalized(ProcessShardedServer::Options opts)
{
    if (opts.numShards == 0)
        opts.numShards = 1;
    if (opts.threadsPerWorker < 1)
        opts.threadsPerWorker = 1;
    if (opts.cachePerWorker == 0)
        opts.cachePerWorker = 1;
    if (opts.rpcDeadline.count() <= 0)
        opts.rpcDeadline = std::chrono::milliseconds(1);
    if (opts.breakerThreshold == 0)
        opts.breakerThreshold = 1;
    return opts;
}

/** $CCSA_WORKER, else ccsa_worker next to the running binary (the
 * build tree layout), else bare "ccsa_worker" ($PATH). */
std::string
defaultWorkerBinary()
{
    const char* env = std::getenv("CCSA_WORKER");
    if (env != nullptr && env[0] != '\0')
        return env;
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        std::string path(buf);
        std::size_t slash = path.find_last_of('/');
        if (slash != std::string::npos)
            return path.substr(0, slash + 1) + "ccsa_worker";
    }
    return "ccsa_worker";
}

} // namespace

/** The worker-process backend: one supervised ccsa_worker per shard,
 * each owning its partition's cache and its own request queue. */
class ProcessShardedServer::Workers final : public ShardBackend
{
  public:
    Workers(std::shared_ptr<ComparativePredictor> model,
            const Options& opts);
    ~Workers() override;

    /** Spawn every worker eagerly, then start the supervisor. */
    void start() override;
    /** Stop the supervisor, then shut every worker down (kShutdown,
     * then EOF, then SIGKILL for stragglers) and reap. */
    void stop() override;
    /** Serve one coalesced batch in two pipelined phases (encode,
     * then compare by digest) against shard s's worker. */
    Status run(std::size_t s, const ModelBatches& batch,
               BatchAnswer& answer) override;
    /** Per-shard worker_up / degraded gauges. */
    void sampleMetrics() const override;

    WorkerHealth health(std::size_t s) const;
    const std::string& checkpoint() const { return checkpoint_; }

  private:
    /** Outcome of one RPC round-trip. */
    enum class Rpc
    {
        Ok,
        /** No (complete) reply within the deadline: worker hung. */
        Timeout,
        /** Socket closed / torn frame / protocol violation: worker
         * crashed (or is treated as crashed). */
        Closed,
    };

    /** One shard's supervised process. proc-prefixed fields are
     * guarded by rpcMutex (whoever holds it owns the socket AND the
     * supervision state); the atomics mirror them for stats(). */
    struct Shard
    {
        std::mutex rpcMutex;
        FdGuard fd;
        pid_t pid = -1;
        bool up = false;
        std::uint64_t generation = 0;
        std::uint64_t nextFrameId = 1;
        unsigned consecutiveFailures = 0;
        std::chrono::steady_clock::time_point nextSpawnAllowed{};
        bool breakerOpen = false;
        std::chrono::steady_clock::time_point breakerOpenedAt{};
        /** Restart stamps inside the flap window. */
        std::deque<std::chrono::steady_clock::time_point>
            recentRestarts;

        /** EXACT mirror of the worker's resident latents: an LRU
         * evicts nothing until its distinct-insert count exceeds
         * capacity, so while this set stays within cachePerWorker
         * every member is provably resident and run() ships only
         * unknown trees (steady state: a zero-tree encode frame).
         * Cleared on respawn (cold cache); abandoned for the worker's
         * lifetime once the capacity is exceeded (residentOverflow —
         * eviction order is no longer knowable parent-side, so every
         * batch ships all its trees again). rpcMutex guards both. */
        std::unordered_set<AstDigest, AstDigestHash> residentDigests;
        bool residentOverflow = false;

        /** Lock-free mirrors for stats()/gauges. */
        std::atomic<std::uint64_t> restarts{0};
        std::atomic<bool> upFlag{false};
        std::atomic<bool> degradedFlag{false};
        std::atomic<pid_t> pidFlag{-1};
        std::atomic<std::uint64_t> generationFlag{0};

        /** Per-shard registry instruments (null w/o metrics). */
        Counter* restartsMetric = nullptr;
        Gauge* upMetric = nullptr;
        Gauge* degradedMetric = nullptr;
        WindowedHistogram* heartbeatMetric = nullptr;
    };

    /** One ping/pong with per-call deadline; rpcMutex held. */
    Rpc pingLocked(Shard& shard, std::chrono::milliseconds deadline,
                   std::chrono::microseconds* latency = nullptr);
    /** Send a frame and await its reply; rpcMutex held. */
    Rpc rpcLocked(Shard& shard, ipc::MsgType type,
                  const std::vector<std::uint8_t>& payload,
                  std::chrono::milliseconds deadline,
                  ipc::Frame* reply);
    /** Write the pipelined request pair in a single send; rpcMutex
     * held. @return false when the peer is gone. */
    bool sendRequestPairLocked(Shard& shard, ipc::MsgType type1,
                               const std::vector<std::uint8_t>& payload1,
                               std::uint64_t* id1, ipc::MsgType type2,
                               const std::vector<std::uint8_t>& payload2,
                               std::uint64_t* id2);
    /** Await the reply to frame `id`, skipping stale replies from
     * abandoned earlier RPCs; rpcMutex held. */
    Rpc awaitReplyLocked(Shard& shard, std::uint64_t id,
                         std::chrono::milliseconds deadline,
                         ipc::Frame* reply);

    /** Ensure a live worker (respecting backoff gate + breaker
     * half-open policy); rpcMutex held. @return true when up. */
    bool ensureWorkerLocked(std::size_t s);
    /** Mark the worker dead: SIGKILL + reap, count the restart,
     * advance backoff, maybe open the breaker; rpcMutex held. */
    void handleFailureLocked(std::size_t s);
    /** Record a reaped worker as down; rpcMutex held. */
    static void markDownLocked(Shard& shard);
    /** fork/exec one worker and handshake; rpcMutex held. */
    bool spawnLocked(std::size_t s);

    void supervisorLoop();

    Options opts_;
    std::string checkpoint_;
    /** The ccsa_worker binary every spawn execs. */
    std::string workerBinary_;
    std::vector<std::unique_ptr<Shard>> shards_;

    std::mutex supervisorMutex_;
    std::condition_variable supervisorCv_;
    bool supervisorStop_ = false;
    std::thread supervisor_;
};

ProcessShardedServer::Workers::Workers(
    std::shared_ptr<ComparativePredictor> model, const Options& opts)
    : ShardBackend("ProcessShardedServer", "ipc",
                   /*queuePerShard=*/true,
                   std::make_shared<ModelRegistry>()),
      opts_(normalized(opts)),
      workerBinary_(opts_.workerPath.empty() ? defaultWorkerBinary()
                                             : opts_.workerPath)
{
    // A registry of one tags every request (labels, admission-time
    // resolution); the actual scoring model lives in the worker
    // processes, which load it from the checkpoint written below.
    registry->publish("model", model);

    // Ship the model once: a v2 checkpoint every spawn loads.
    // Float32 checkpoints round-trip bitwise, so worker results are
    // bitwise-identical to a local Engine on `model`.
    std::string templ = opts_.checkpointDir + "/ccsa_ipc_XXXXXX";
    std::vector<char> pathBuf(templ.begin(), templ.end());
    pathBuf.push_back('\0');
    int fd = ::mkstemp(pathBuf.data());
    if (fd < 0)
        fatal("ProcessShardedServer: cannot create checkpoint in ",
              opts_.checkpointDir, ": ", std::strerror(errno));
    ::close(fd);
    checkpoint_ = pathBuf.data();
    Status saved = model->save(checkpoint_, "model", 1);
    if (!saved.isOk()) {
        ::unlink(checkpoint_.c_str());
        fatal("ProcessShardedServer: checkpoint write failed: ",
              saved.message());
    }

    for (std::size_t s = 0; s < opts_.numShards; ++s)
        shards_.push_back(std::make_unique<Shard>());
    if (opts_.metrics == nullptr)
        return;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        MetricLabels labels{{"server", "ipc"},
                            {"shard", std::to_string(s)}};
        Shard& shard = *shards_[s];
        shard.restartsMetric = &opts_.metrics->counter(
            "ccsa_worker_restarts_total", labels,
            "Successful worker-process respawns after a crash, "
            "hang, or protocol violation.");
        shard.upMetric = &opts_.metrics->gauge(
            "ccsa_worker_up", labels,
            "1 while a live worker process serves this shard.");
        shard.degradedMetric = &opts_.metrics->gauge(
            "ccsa_shard_degraded", labels,
            "1 while this shard's circuit breaker is open "
            "(requests answered Unavailable without an RPC).");
        shard.heartbeatMetric = &opts_.metrics->windowedHistogram(
            "ccsa_heartbeat_latency_us", labels, opts_.metricsWindow,
            "Supervisor ping/pong round-trip per shard (us).");
    }
}

ProcessShardedServer::Workers::~Workers()
{
    if (!checkpoint_.empty())
        ::unlink(checkpoint_.c_str());
}

void
ProcessShardedServer::Workers::start()
{
    // Spawn eagerly so configuration errors (missing binary, bad
    // checkpoint dir) surface as a down shard NOW instead of on the
    // first request; a failed spawn is not fatal — supervision keeps
    // retrying under backoff.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shards_[s]->rpcMutex);
        ensureWorkerLocked(s);
    }
    supervisor_ = std::thread([this] { supervisorLoop(); });
}

void
ProcessShardedServer::Workers::stop()
{
    {
        std::lock_guard<std::mutex> stop(supervisorMutex_);
        supervisorStop_ = true;
    }
    supervisorCv_.notify_all();
    supervisor_.join();

    for (auto& shard : shards_) {
        std::lock_guard<std::mutex> rpc(shard->rpcMutex);
        if (shard->pid <= 0)
            continue;
        // Orderly first: kShutdown, then EOF (fd close) — either
        // exits a healthy worker. SIGKILL only mops up a wedged one
        // (e.g. mid-stall); workers hold no durable state.
        if (shard->fd.valid()) {
            ipc::writeFrame(shard->fd.get(), ipc::MsgType::kShutdown,
                            0, {});
            shard->fd.reset();
        }
        bool reaped = false;
        for (int i = 0; i < 50 && !reaped; ++i) {
            if (::waitpid(shard->pid, nullptr, WNOHANG) == shard->pid)
                reaped = true;
            else
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        if (!reaped) {
            ::kill(shard->pid, SIGKILL);
            ::waitpid(shard->pid, nullptr, 0);
        }
        markDownLocked(*shard);
    }
}

// ------------------------------------------------------------ serve

Status
ProcessShardedServer::Workers::run(std::size_t s,
                                   const ModelBatches& batch,
                                   BatchAnswer& answer)
{
    Shard& shard = *shards_[s];
    Engine::PhaseTiming timing;
    timing.encodeStart = std::chrono::steady_clock::now();
    // Admission resolves every request to the one fixed version, so
    // a batch is a single group.
    const std::vector<Engine::PairRequest>& pairs =
        batch.groups[0].pairs;
    ipc::TreeBatch trees = ipc::makeTreeBatch(pairs);
    std::string where =
        "ProcessShardedServer: shard " + std::to_string(s);

    std::unique_lock<std::mutex> lock(shard.rpcMutex);
    if (!ensureWorkerLocked(s)) {
        // Dead worker behind its backoff gate, or an open breaker:
        // fail FAST with an attributed status — the other shards
        // keep serving their partitions (graceful N-1 degradation).
        return Status::unavailable(where + " unavailable (worker "
                                           "down or degraded)");
    }

    // The two phases are PIPELINED: both request frames go out
    // back-to-back, then both replies are read — one worker wakeup
    // per batch instead of two. The worker serves frames strictly in
    // order and replies to each before reading the next, so the
    // at-most-once contract survives pipelining: a missing ENCODE
    // reply proves the compare frame was never even read (it died
    // unread in the socket buffer), making the encode leg — and the
    // queued compare behind it — safe to resend on a fresh worker.
    // A missing COMPARE reply after a good encode reply means the
    // worker died mid-compare, and that leg still fails fast.
    //
    // Phase 1 — ENCODE. Idempotent (latents are a pure function of
    // the trees), so a crash here retries on a fresh worker — which
    // doubles as warming the respawned process's cache partition.
    // Phase 2 — COMPARE, by DIGEST: each tree crosses the wire
    // exactly once per batch, in encode. If the worker evicted any
    // referenced latent it refuses before running the head
    // (ResourceExhausted) and the one self-contained resend below is
    // still the FIRST execution.
    std::vector<AstDigest> digests;
    digests.reserve(trees.trees.size());
    for (const Ast* tree : trees.trees)
        digests.push_back(digestAst(*tree));
    std::vector<std::pair<AstDigest, AstDigest>> digestPairs;
    digestPairs.reserve(trees.pairs.size());
    for (const auto& pair : trees.pairs)
        digestPairs.emplace_back(digests[pair.first],
                                 digests[pair.second]);
    std::vector<std::uint8_t> digPayload =
        ipc::encodeCompareDigestsRequest(digestPairs);

    std::size_t attempt = 0;
    std::uint64_t cmpId = 0;
    std::vector<std::size_t> shipped; // indices into trees.trees
    for (;;) {
        // Ship only trees the residency mirror can't vouch for —
        // against a warm worker the encode frame carries ZERO trees
        // and exists to keep the phase cadence (and the fault
        // injector's request arithmetic) identical in every batch.
        shipped.clear();
        std::vector<const Ast*> unknown;
        for (std::size_t i = 0; i < trees.trees.size(); ++i) {
            if (shard.residentOverflow ||
                shard.residentDigests.count(digests[i]) == 0) {
                shipped.push_back(i);
                unknown.push_back(trees.trees[i]);
            }
        }
        std::vector<std::uint8_t> encPayload =
            ipc::encodeEncodeRequest(unknown);

        std::uint64_t encId = 0;
        ipc::Frame reply;
        Rpc rc = Rpc::Closed;
        if (sendRequestPairLocked(shard, ipc::MsgType::kEncode,
                                  encPayload, &encId,
                                  ipc::MsgType::kCompareDigests,
                                  digPayload, &cmpId))
            rc = awaitReplyLocked(shard, encId, opts_.rpcDeadline,
                                  &reply);
        if (rc == Rpc::Ok) {
            Result<std::vector<std::vector<float>>> latents =
                Status::internal("encode reply not decoded");
            Status decoded =
                ipc::decodeEncodeReply(reply.payload, &latents);
            if (decoded.isOk()) {
                // The worker ran and refused (e.g. malformed tree): a
                // real answer, not a fault. The queued digest compare
                // will refuse on the same missing latents; its stale
                // reply is skipped by the next awaitReplyLocked on
                // this shard.
                if (!latents.isOk())
                    return latents.status();
                // The worker inserted every shipped tree before
                // replying — extend the mirror, or abandon it the
                // moment the worker's LRU may have started evicting.
                if (!shard.residentOverflow) {
                    for (std::size_t i : shipped)
                        shard.residentDigests.insert(digests[i]);
                    if (shard.residentDigests.size() >
                        opts_.cachePerWorker) {
                        shard.residentDigests.clear();
                        shard.residentOverflow = true;
                    }
                }
                timing.encodeEnd = std::chrono::steady_clock::now();
                break;
            }
            rc = Rpc::Closed; // corrupt reply == treat as crash
        }
        if (rc == Rpc::Timeout) {
            // Hung worker: kill it, answer DeadlineExceeded. A hang
            // is not retried — the caller's clock already ran.
            handleFailureLocked(s);
            return Status::deadlineExceeded(where +
                                            " encode RPC deadline "
                                            "(worker hung)");
        }
        handleFailureLocked(s);
        if (attempt++ >= opts_.encodeRetryLimit ||
            !ensureWorkerLocked(s))
            return Status::unavailable(where +
                                       " worker crashed during encode");
    }

    // Phase 2 resolution. NEVER retried on a crash: if the worker
    // dies after a good encode reply we cannot know how far the
    // compare got, so the batch fails fast with an attributed
    // status instead of risking a second execution.
    for (bool selfContained = false;; selfContained = true) {
        ipc::Frame reply;
        Rpc rc = selfContained
            ? rpcLocked(shard, ipc::MsgType::kCompare,
                        ipc::encodeCompareRequest(trees),
                        opts_.rpcDeadline, &reply)
            : awaitReplyLocked(shard, cmpId, opts_.rpcDeadline,
                               &reply);
        if (rc == Rpc::Ok) {
            Result<std::vector<double>> result =
                Status::internal("compare reply not decoded");
            Status decoded =
                ipc::decodeCompareReply(reply.payload, &result);
            if (decoded.isOk()) {
                if (!result.isOk()) {
                    if (!selfContained &&
                        result.status().code() ==
                            StatusCode::ResourceExhausted)
                        continue; // evicted latents: resend trees
                    return result.status();
                }
                if (result.value().size() != pairs.size()) {
                    handleFailureLocked(s);
                    return Status::internal(where +
                                            " compare reply count "
                                            "mismatch");
                }
                timing.scoreEnd = std::chrono::steady_clock::now();
                answer.results.assign(1, std::move(result));
                answer.timings.assign(1, timing);
                return Status::ok();
            }
            rc = Rpc::Closed;
        }
        if (rc == Rpc::Timeout) {
            handleFailureLocked(s);
            return Status::deadlineExceeded(where +
                                            " compare RPC deadline "
                                            "(worker hung)");
        }
        handleFailureLocked(s);
        return Status::unavailable(where +
                                   " worker crashed mid-batch "
                                   "(compare is not retried)");
    }
}

// ------------------------------------------------------ rpc plumbing

bool
ProcessShardedServer::Workers::sendRequestPairLocked(
    Shard& shard, ipc::MsgType type1,
    const std::vector<std::uint8_t>& payload1, std::uint64_t* id1,
    ipc::MsgType type2, const std::vector<std::uint8_t>& payload2,
    std::uint64_t* id2)
{
    if (!shard.fd.valid())
        return false;
    *id1 = shard.nextFrameId++;
    *id2 = shard.nextFrameId++;
    // One send for both frames: the worker's blocking read wakes once
    // per batch, and the pair can never be split by a crash of THIS
    // process between the two writes.
    std::vector<std::uint8_t> bytes;
    bytes.reserve(2 * 17 + payload1.size() + payload2.size());
    if (!ipc::appendFrame(bytes, type1, *id1, payload1) ||
        !ipc::appendFrame(bytes, type2, *id2, payload2))
        return false; // oversized payload: same path as a dead peer
    return ipc::writeRaw(shard.fd.get(), bytes);
}

ProcessShardedServer::Workers::Rpc
ProcessShardedServer::Workers::rpcLocked(
    Shard& shard, ipc::MsgType type,
    const std::vector<std::uint8_t>& payload,
    std::chrono::milliseconds deadline, ipc::Frame* reply)
{
    if (!shard.fd.valid())
        return Rpc::Closed;
    std::uint64_t id = shard.nextFrameId++;
    if (!ipc::writeFrame(shard.fd.get(), type, id, payload))
        return Rpc::Closed;
    return awaitReplyLocked(shard, id, deadline, reply);
}

ProcessShardedServer::Workers::Rpc
ProcessShardedServer::Workers::awaitReplyLocked(
    Shard& shard, std::uint64_t id,
    std::chrono::milliseconds deadline, ipc::Frame* reply)
{
    if (!shard.fd.valid())
        return Rpc::Closed;
    auto deadlineAt = std::chrono::steady_clock::now() + deadline;
    for (;;) {
        auto now = std::chrono::steady_clock::now();
        if (now >= deadlineAt)
            return Rpc::Timeout;
        auto remain =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadlineAt - now)
                .count() +
            1;
        struct pollfd pfd;
        pfd.fd = shard.fd.get();
        pfd.events = POLLIN;
        pfd.revents = 0;
        int rv = ::poll(&pfd, 1,
                        static_cast<int>(std::min<long long>(
                            remain, 1000000)));
        if (rv < 0) {
            if (errno == EINTR)
                continue;
            return Rpc::Closed;
        }
        if (rv == 0)
            return Rpc::Timeout;
        // Readable (or HUP — readFrame turns that into Eof/Error).
        ipc::Frame frame;
        ipc::ReadFrame rf = ipc::readFrame(shard.fd.get(), &frame);
        if (rf != ipc::ReadFrame::Ok)
            return Rpc::Closed;
        if (frame.id != id)
            continue; // stale reply from an abandoned earlier RPC
        *reply = std::move(frame);
        return Rpc::Ok;
    }
}

ProcessShardedServer::Workers::Rpc
ProcessShardedServer::Workers::pingLocked(
    Shard& shard, std::chrono::milliseconds deadline,
    std::chrono::microseconds* latency)
{
    auto start = std::chrono::steady_clock::now();
    ipc::Frame reply;
    Rpc rc = rpcLocked(shard, ipc::MsgType::kPing, {}, deadline,
                       &reply);
    if (rc != Rpc::Ok)
        return rc;
    if (reply.type != ipc::MsgType::kPong)
        return Rpc::Closed; // protocol violation
    if (latency != nullptr)
        *latency =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start);
    return Rpc::Ok;
}

// ------------------------------------------------------ supervision

bool
ProcessShardedServer::Workers::ensureWorkerLocked(std::size_t s)
{
    Shard& shard = *shards_[s];
    if (shard.up)
        return true;
    auto now = std::chrono::steady_clock::now();
    if (shard.breakerOpen) {
        // Open breaker rejects instantly until the cooldown lapses;
        // then exactly one half-open spawn attempt is allowed.
        if (now - shard.breakerOpenedAt < opts_.breakerCooldown)
            return false;
    } else if (now < shard.nextSpawnAllowed) {
        return false; // backoff gate: fail fast, do not sleep
    }
    return spawnLocked(s);
}

void
ProcessShardedServer::Workers::handleFailureLocked(std::size_t s)
{
    Shard& shard = *shards_[s];
    if (shard.pid > 0) {
        ::kill(shard.pid, SIGKILL);
        ::waitpid(shard.pid, nullptr, 0);
    }
    shard.fd.reset();
    markDownLocked(shard);

    auto now = std::chrono::steady_clock::now();
    shard.consecutiveFailures++;
    shard.recentRestarts.push_back(now);
    while (!shard.recentRestarts.empty() &&
           now - shard.recentRestarts.front() > opts_.breakerWindow)
        shard.recentRestarts.pop_front();
    if (!shard.breakerOpen &&
        shard.recentRestarts.size() >= opts_.breakerThreshold) {
        shard.breakerOpen = true;
        shard.breakerOpenedAt = now;
        shard.degradedFlag = true;
        if (shard.degradedMetric != nullptr)
            shard.degradedMetric->set(1);
    } else if (shard.breakerOpen) {
        // A failed half-open attempt re-arms the cooldown.
        shard.breakerOpenedAt = now;
    }
    // First respawn is immediate (one crash should cost one batch,
    // not a backoff window); repeats back off exponentially.
    if (shard.consecutiveFailures <= 1) {
        shard.nextSpawnAllowed = now;
    } else {
        unsigned shift =
            std::min(shard.consecutiveFailures - 2, 20u);
        auto backoff = opts_.backoffInitial * (1LL << shift);
        if (backoff > opts_.backoffMax)
            backoff = opts_.backoffMax;
        shard.nextSpawnAllowed = now + backoff;
    }
}

void
ProcessShardedServer::Workers::markDownLocked(Shard& shard)
{
    shard.pid = -1;
    shard.up = false;
    shard.upFlag = false;
    shard.pidFlag = -1;
    if (shard.upMetric != nullptr)
        shard.upMetric->set(0);
}

bool
ProcessShardedServer::Workers::spawnLocked(std::size_t s)
{
    Shard& shard = *shards_[s];
    int fds[2];
    if (!makeSocketPair(fds)) {
        handleFailureLocked(s);
        return false;
    }
    FdGuard parentEnd(fds[0]);
    FdGuard childEnd(fds[1]);

    const std::string& binary = workerBinary_;
    std::string cacheArg = std::to_string(opts_.cachePerWorker);
    std::string threadsArg = std::to_string(opts_.threadsPerWorker);
    std::string precisionArg =
        latentPrecisionName(opts_.latentPrecision);
    std::vector<char*> argv{
        const_cast<char*>(binary.c_str()),
        const_cast<char*>(checkpoint_.c_str()),
        const_cast<char*>(cacheArg.c_str()),
        const_cast<char*>(threadsArg.c_str()),
        const_cast<char*>(precisionArg.c_str()), nullptr};

    // Injected faults go to the FIRST spawn of the fault shard only:
    // recovery after the fault must be the clean path. Build the
    // environment pre-fork (fork + malloc don't mix).
    bool inject = !opts_.faultSpec.empty() &&
        s == opts_.faultShard && shard.generation == 0;
    std::string faultVar = "CCSA_FAULT=" + opts_.faultSpec;
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "CCSA_FAULT=", 11) != 0)
            envp.push_back(*e);
    if (inject)
        envp.push_back(faultVar.data());
    envp.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        handleFailureLocked(s);
        return false;
    }
    if (pid == 0) {
        // Child: hand the socket over as fd 3 and become the worker.
        if (childEnd.get() == ipc::kWorkerFd) {
            // Already there — just clear CLOEXEC (dup2 onto itself
            // would not).
            int flags = ::fcntl(ipc::kWorkerFd, F_GETFD);
            ::fcntl(ipc::kWorkerFd, F_SETFD, flags & ~FD_CLOEXEC);
        } else if (::dup2(childEnd.get(), ipc::kWorkerFd) < 0) {
            ::_exit(127);
        }
        ::execve(binary.c_str(), argv.data(), envp.data());
        ::_exit(127); // exec failed; parent sees the socket close
    }

    shard.generation++;
    shard.generationFlag = shard.generation;
    childEnd.reset();
    shard.fd = std::move(parentEnd);
    shard.pid = pid;
    shard.up = true; // provisional until the handshake lands
    // Fresh process, cold cache: the residency mirror restarts.
    shard.residentDigests.clear();
    shard.residentOverflow = false;

    // Handshake: one ping under the (longer) spawn deadline covers
    // exec + checkpoint load in the fresh process.
    if (pingLocked(shard, opts_.spawnDeadline) != Rpc::Ok) {
        handleFailureLocked(s);
        return false;
    }
    shard.consecutiveFailures = 0;
    if (shard.breakerOpen) {
        // Half-open probe succeeded: close the breaker.
        shard.breakerOpen = false;
        shard.degradedFlag = false;
        if (shard.degradedMetric != nullptr)
            shard.degradedMetric->set(0);
    }
    shard.upFlag = true;
    shard.pidFlag = pid;
    if (shard.upMetric != nullptr)
        shard.upMetric->set(1);
    if (shard.generation > 1) {
        shard.restarts++;
        if (shard.restartsMetric != nullptr)
            shard.restartsMetric->inc();
    }
    return true;
}

void
ProcessShardedServer::Workers::supervisorLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(supervisorMutex_);
            supervisorCv_.wait_for(lock, opts_.heartbeatInterval,
                                   [&] { return supervisorStop_; });
            if (supervisorStop_)
                return;
        }
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            Shard& shard = *shards_[s];
            // try_lock: a dispatcher mid-RPC owns the socket, and
            // its own per-call deadline already covers a hang there
            // — pinging behind its back would interleave frames.
            std::unique_lock<std::mutex> lock(shard.rpcMutex,
                                              std::try_to_lock);
            if (!lock.owns_lock())
                continue;
            if (shard.up) {
                int wstatus = 0;
                if (::waitpid(shard.pid, &wstatus, WNOHANG) ==
                    shard.pid) {
                    // Spontaneous death (crash between batches):
                    // already reaped, so clear the pid before the
                    // bookkeeping path tries to kill/reap again.
                    shard.pid = -1;
                    handleFailureLocked(s);
                } else {
                    std::chrono::microseconds latency{0};
                    if (pingLocked(shard, opts_.heartbeatDeadline,
                                   &latency) == Rpc::Ok) {
                        if (shard.heartbeatMetric != nullptr)
                            shard.heartbeatMetric->add(
                                static_cast<std::size_t>(
                                    latency.count()),
                                std::chrono::steady_clock::now());
                    } else {
                        handleFailureLocked(s);
                    }
                }
            }
            if (!shard.up)
                ensureWorkerLocked(s); // respects backoff + breaker
        }
    }
}

// ----------------------------------------------------------- stats

WorkerHealth
ProcessShardedServer::Workers::health(std::size_t s) const
{
    const Shard& shard = *shards_[s];
    WorkerHealth health;
    health.pid = shard.pidFlag.load();
    health.generation = shard.generationFlag.load();
    health.restarts = shard.restarts.load();
    health.up = shard.upFlag.load();
    health.degraded = shard.degradedFlag.load();
    return health;
}

void
ProcessShardedServer::Workers::sampleMetrics() const
{
    for (const auto& shard : shards_) {
        if (shard->upMetric != nullptr)
            shard->upMetric->set(shard->upFlag.load() ? 1 : 0);
        if (shard->degradedMetric != nullptr)
            shard->degradedMetric->set(
                shard->degradedFlag.load() ? 1 : 0);
    }
}

// ----------------------------------------------------------- server

ProcessShardedServer::ProcessShardedServer(
    std::shared_ptr<ComparativePredictor> model, Options opts)
    : ProcessShardedServer(
          std::make_unique<Workers>(std::move(model), opts), opts)
{
}

ProcessShardedServer::ProcessShardedServer(
    std::unique_ptr<Workers> workers, Options opts)
    : FrontEnd(std::move(workers), opts),
      opts_(opts),
      workers_(static_cast<Workers&>(backend()))
{
}

const std::string&
ProcessShardedServer::checkpointPath() const
{
    return workers_.checkpoint();
}

ProcessShardedServerStats
ProcessShardedServer::stats() const
{
    ProcessShardedServerStats out;
    snapshot(out.aggregate, out.shards);
    out.health.reserve(out.shards.size());
    for (std::size_t s = 0; s < out.shards.size(); ++s)
        out.health.push_back(workers_.health(s));
    return out;
}

} // namespace ccsa

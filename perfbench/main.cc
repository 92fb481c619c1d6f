/**
 * @file
 * ccsa_perfbench — one run of one benchmark workload.
 *
 *   ccsa_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> --worker <ccsa_worker path>
 *                  --out <dir> [--commit <id>] [--source-digest <hex>]
 *
 * Serving workloads (commit_cold, rank_hot, rank_hot_ipc) replay
 * seeded traffic against a sharded server with library-default
 * options except numShards = nproc: an open loop of Poisson arrivals
 * at a fixed rate (latency timed from each request's due time), then
 * a saturation phase that keeps a fixed number of requests
 * outstanding, on each of kSetups freshly set-up servers. retrain
 * fits a fixed-seed model on a fixed-seed judged corpus, deploys the
 * result and serves its held-out checks the same way. The serving
 * workloads end with a short retrain, so every run reports every
 * end-to-end metric.
 *
 * Every answer is checked bit for bit against a synchronous fp32
 * Engine on the same weights, off the clock (a ranking through a
 * 64-bit fingerprint of all its bits). With --trace 1 the run
 * reports per-layer numbers instead: a traced open loop joined with
 * the server's spans into a per-request waterfall, and off-the-clock
 * probes of single layers. The last stdout line is the result JSON.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>
#include <time.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "inputs.hh"
#include "waterfall.hh"

#include "base/logging.hh"
#include "model/batch_encode.hh"
#include "model/trainer.hh"
#include "eval/metrics.hh"
#include "nn/optim.hh"
#include "serve/engine.hh"
#include "serve/ipc/process_sharded_server.hh"
#include "serve/latent_f16_dispatch.hh"
#include "serve/metrics/metrics.hh"
#include "serve/metrics/metrics_sampler.hh"
#include "serve/sharded_server.hh"
#include "serve/trace/trace_recorder.hh"
#include "tensor/matmul_dispatch.hh"

using namespace ccsa;
using namespace perfbench;

namespace
{

// ------------------------------------------------------------ settings

/** Open-loop rates (requests/s), fixed so that a faster or slower
 * build is measured under the same offered load. They sit at a fifth
 * or less of the saturation capacity each workload measured at the
 * commit that defined this benchmark (4-vCPU x86-64 guest, AVX2+FMA,
 * F16C): the open loop flushes small batches on the coalescing
 * deadline, so its knee lies far below the saturation phase's
 * capacity, and at half of that capacity p50 moved by 2x between
 * seeds. commit_cold sits lowest because its cold encodes slow down
 * most when other tenants load the host, and queueing amplifies that. */
constexpr double kCommitRate = 500.0;
constexpr double kRankRate = 4000.0;
constexpr double kHeldOutRate = 4000.0;

/** Saturation phase: requests kept outstanding (and the warm-up's
 * depth), chosen from a sweep of 16..1024 on the same guest.
 * commit_cold stops gaining capacity at 64, while deeper queues only
 * grow the encoder arenas (peak RSS 0.25 GB at 64, 1.3 GB at 1024).
 * The rank workloads share one depth; rank_hot is flat from
 * 128, rank_hot_ipc peaks at 256 and falls beyond it. Single-pair
 * held-out checks cannot fill a 256-pair batch below 1024
 * outstanding, so retrain's batches always wait out the coalescing
 * deadline and its capacity is a deadline-bound stand-in; at 16 that
 * wait sets the pace (the client is about 10% busy) and seeds agree
 * within 1%, while from 64 on runs flip between rates 40% apart and
 * from 256 on the one client thread is the limit (96% busy). */
constexpr std::size_t kCommitOutstanding = 64;
constexpr std::size_t kRankOutstanding = 256;
constexpr std::size_t kHeldOutOutstanding = 16;
/** Parts each set-up's open loop (consecutive requests) and
 * saturation phase (equal times) are cut into. p50_ms is the median
 * over all set-ups' parts of each part's median latency, capacity_rps
 * the median of their answer rates, so a host hiccup that stalls a
 * few parts (or most of one set-up) does not set them. */
constexpr std::size_t kLatencyWindows = 5;
constexpr std::size_t kCapacityWindows = 10;
/** Set-ups per run, each measured: setup_s is their median,
 * peak_rss_mb the first's, p50_ms and capacity_rps pool their parts. */
constexpr int kSetups = 3;
/** Shares of --seconds given to each set-up's serving phases (and to
 * the traced run's). */
constexpr double kOpenShare = 0.15;
constexpr double kSaturationShare = 0.10;
/** retrain first spends ~2.6 s in Trainer::fit. */
constexpr double kRetrainOpenShare = 0.12;
constexpr double kRetrainSaturationShare = 0.08;

constexpr std::size_t kLineages = 64;
constexpr std::size_t kPoolPerFamily = 32;
/** Fixed weight seed of every model this benchmark builds. */
constexpr std::uint64_t kModelSeed = 1;

/** Retrain sizes: the retrain workload, and the short retrain every
 * serving workload ends with. Fixed data, seed and work, so pair_acc
 * is a pure function of the code. */
struct RetrainSize
{
    int submissions;
    std::size_t maxTrainPairs;
};
constexpr RetrainSize kRetrain{128, 1100};
constexpr RetrainSize kCanary{64, 384};
/** pair_acc floors, a margin below the values measured at the commit
 * that defined this benchmark (0.8085 and 0.8167). */
constexpr double kRetrainAccFloor = 0.76;
constexpr double kCanaryAccFloor = 0.76;

/** Warm-up volume (requests) before anything is timed. */
constexpr std::size_t kWarmRequests = 1024;
/** Request indices of warm-up traffic (disjoint from measured). */
constexpr std::uint64_t kWarmBase = 1ull << 40;

// ---------------------------------------------------------------- args

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string worker;
    std::string out = ".";
    std::string commit = "none";
    std::string sourceDigest = "none";
};

std::size_t
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

void
sleepUntil(Clock::time_point t)
{
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  t.time_since_epoch())
                  .count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                           nullptr) == EINTR) {
    }
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

// -------------------------------------------------------------- report

struct Phase
{
    std::string name;
    std::uint64_t sent = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
};

struct Report
{
    std::deque<Phase> phases;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::string> problems;
    /** Operations other than requests (Trainer::fit calls). */
    std::uint64_t otherOps = 0;
    std::uint64_t otherFailed = 0;

    Phase& phase(const std::string& name)
    {
        phases.push_back(Phase{name});
        return phases.back();
    }

    void metric(const std::string& name, double value,
                const std::string& unit)
    {
        if (!std::isfinite(value)) {
            fail("metric " + name + " is not finite");
            value = 0.0;
        }
        metrics.push_back({name, {value, unit}});
    }

    void fail(const std::string& why) { problems.push_back(why); }
};

/** VmHWM of a process, in MB (0 when unreadable). */
double
processPeakRssMb(pid_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/** Restart a process's VmHWM from its current RSS, so the next
 * reading covers only what follows. */
void
resetPeakRss(pid_t pid, Report& report)
{
    std::ofstream refs("/proc/" + std::to_string(pid) + "/clear_refs");
    refs << "5";
    refs.flush();
    if (!refs)
        report.fail("cannot reset the peak RSS of pid " + std::to_string(pid));
}

// ------------------------------------------------------------- servers

std::unique_ptr<ShardedServer>
makeServer(ShardedServer*, std::shared_ptr<ComparativePredictor> model,
           MetricsRegistry& metrics, TraceRecorder* trace, const Args&)
{
    return std::make_unique<ShardedServer>(
        std::move(model), Engine::Options().withMetrics(&metrics),
        ShardedServer::Options()
            .withNumShards(nproc())
            .withMetrics(&metrics)
            .withTrace(trace));
}

std::unique_ptr<ProcessShardedServer>
makeServer(ProcessShardedServer*,
           std::shared_ptr<ComparativePredictor> model,
           MetricsRegistry& metrics, TraceRecorder*, const Args& args)
{
    // The IPC server records no spans; tracing it is client-side only.
    return std::make_unique<ProcessShardedServer>(
        std::move(model), ProcessShardedServer::Options()
                              .withNumShards(nproc())
                              .withMetrics(&metrics)
                              .withWorkerPath(args.worker)
                              .withCheckpointDir(args.out));
}

/** A server with the metrics plane attached as deployed, plus an
 * optional span recorder. Members are destroyed sampler first, then
 * server, then what the server points at. */
template <class Server>
struct World
{
    MetricsRegistry metrics;
    Clock::time_point traceEpoch{};
    std::unique_ptr<TraceRecorder> trace;
    std::shared_ptr<ComparativePredictor> model;
    std::unique_ptr<Server> server;
    std::unique_ptr<MetricsSampler> sampler;

    World(std::shared_ptr<ComparativePredictor> m, bool traced,
          const Args& args)
        : model(std::move(m))
    {
        if (traced) {
            traceEpoch = Clock::now();
            trace = std::make_unique<TraceRecorder>(1u << 21);
        }
        server = makeServer(static_cast<Server*>(nullptr), model,
                            metrics, trace.get(), args);
        sampler = std::make_unique<MetricsSampler>(metrics);
        Server* s = server.get();
        sampler->addProbe([s] { s->sampleMetrics(); });
        sampler->start();
    }

    World(const World&) = delete;
    World& operator=(const World&) = delete;
};

std::shared_ptr<ComparativePredictor>
freshModel()
{
    return std::make_shared<ComparativePredictor>(EncoderConfig(),
                                                  kModelSeed);
}

// ---------------------------------------------------------------- loops

/** Single-producer single-consumer hand-off with close: the load
 * generator's own queue, kept apart from the library's BoundedQueue
 * so a change to the code under test cannot reshape the load. */
template <class T>
class Handoff
{
  public:
    void push(T v)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            items_.push_back(std::move(v));
        }
        cv_.notify_one();
    }

    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        cv_.notify_one();
    }

    /** Move every pushed item to the back of `into`; with `block`,
     * first wait until there is one. @return false once closed and
     * empty. */
    bool drain(std::deque<T>& into, bool block)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (block)
            cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
        bool open = !closed_ || !items_.empty();
        for (T& v : items_)
            into.push_back(std::move(v));
        items_.clear();
        return open;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<T> items_;
    bool closed_ = false;
};

/** What each measured request answered, by request index, as the
 * traffic's fingerprint of the answer's bits; warm-up answers
 * (indices from kWarmBase) are dropped. Deques grow without copying,
 * so this bookkeeping adds a few bytes per request to peak RSS and
 * no jump that depends on how many requests were sent. */
template <class Traffic>
struct Answers
{
    std::deque<std::uint64_t> bits;
    std::deque<char> ok;

    /** Room for request indices below n; call before a collector
     * thread starts, or from the only thread. */
    void reserve(std::uint64_t n)
    {
        if (n <= kWarmBase && bits.size() < n) {
            bits.resize(static_cast<std::size_t>(n));
            ok.resize(static_cast<std::size_t>(n), 0);
        }
    }

    /** @return whether request i answered without an error. */
    bool record(std::uint64_t i, const Result<typename Traffic::Value>& r)
    {
        if (i < kWarmBase) {
            ok[i] = r.isOk();
            if (r.isOk())
                bits[i] = Traffic::fingerprint(r.value());
        }
        return r.isOk();
    }

    bool isOk(std::uint64_t i) const { return i < ok.size() && ok[i]; }
};

template <class Traffic>
struct InFlight
{
    std::uint64_t index = 0;
    typename Traffic::Hold hold;
    std::future<Result<typename Traffic::Value>> answer;
};

/**
 * Open loop: request first + k is due arrivals[k] ns after the phase
 * starts, whatever the server is doing. The generator thread prepares
 * each request ahead of its due time, sleeps until then and submits;
 * a collector thread stamps when each answer is observed.
 */
template <class Server, class Traffic>
std::vector<RequestTimes>
openLoop(Server& server, const Traffic& traffic, Answers<Traffic>& answers,
         std::uint64_t first, const std::vector<std::int64_t>& arrivals,
         TraceRecorder* trace)
{
    std::vector<RequestTimes> times(arrivals.size());
    answers.reserve(first + arrivals.size());
    Handoff<InFlight<Traffic>> handoff;
    // Requests are independent users: each answer is stamped when it
    // is ready, not when every earlier one has been (a FIFO wait would
    // charge one slow answer to everything queued behind it). The
    // collector waits on the oldest answer in short slices and sweeps
    // all pending ones after each wake-up.
    std::thread collector([&] {
        std::deque<InFlight<Traffic>> pending;
        bool open = true;
        while (open || !pending.empty()) {
            if (open)
                open = handoff.drain(pending, pending.empty());
            if (pending.empty())
                continue;
            pending.front().answer.wait_for(std::chrono::microseconds(100));
            for (auto it = pending.begin(); it != pending.end();) {
                if (it->answer.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++it;
                    continue;
                }
                RequestTimes& t = times[it->index - first];
                t.observed = Clock::now();
                t.ok = answers.record(it->index, it->answer.get());
                it = pending.erase(it);
            }
        }
    });
    Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    typename Traffic::Prepared next = traffic.prepare(first);
    for (std::size_t k = 0; k < arrivals.size(); ++k) {
        RequestTimes& t = times[k];
        t.due = t0 + std::chrono::nanoseconds(arrivals[k]);
        sleepUntil(t.due);
        t.start = Clock::now();
        if (trace != nullptr)
            t.chainLo = trace->nextChain();
        InFlight<Traffic> f;
        f.index = first + k;
        f.answer = traffic.submit(server, f.index, std::move(next), f.hold, t);
        t.submitted = Clock::now();
        if (trace != nullptr)
            t.chainHi = trace->nextChain();
        handoff.push(std::move(f));
        if (k + 1 < arrivals.size())
            next = traffic.prepare(first + k + 1);
    }
    handoff.close();
    collector.join();
    return times;
}

struct ClosedLoopResult
{
    /** Requests answered per second in each of kCapacityWindows
     * equal parts of the time window. */
    std::vector<double> perSecond;
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    /** Share of the loop the client thread spent preparing and
     * submitting rather than waiting for an answer: near 1 means the
     * client, not the server, set the pace. */
    double clientBusy = 0.0;
};

/**
 * Closed loop from one thread: keep `outstanding` requests in flight,
 * replacing each answered one, until `seconds` pass or `limit`
 * requests were sent; then drain.
 */
template <class Server, class Traffic>
ClosedLoopResult
closedLoop(Server& server, const Traffic& traffic, Answers<Traffic>& answers,
           std::uint64_t first, std::size_t outstanding, double seconds,
           std::uint64_t limit)
{
    ClosedLoopResult result;
    std::deque<InFlight<Traffic>> inflight;
    std::uint64_t next = first;
    auto submitOne = [&] {
        if (next - first >= limit)
            return;
        answers.reserve(next + 1);
        RequestTimes unused;
        InFlight<Traffic>& f = inflight.emplace_back();
        f.index = next;
        f.answer = traffic.submit(server, next, traffic.prepare(next),
                                  f.hold, unused);
        ++next;
    };
    Clock::time_point start = Clock::now();
    Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<double> perWindow(kCapacityWindows, 0.0);
    double windowUs = usBetween(start, end) / kCapacityWindows;
    double waitedUs = 0.0;
    for (std::size_t k = 0; k < outstanding; ++k)
        submitOne();
    while (!inflight.empty()) {
        InFlight<Traffic> f = std::move(inflight.front());
        inflight.pop_front();
        Clock::time_point w0 = Clock::now();
        f.answer.wait();
        Clock::time_point w1 = Clock::now();
        result.ok += answers.record(f.index, f.answer.get()) ? 1 : 0;
        if (w1 <= end) {
            waitedUs += usBetween(w0, w1);
            std::size_t part = std::min<std::size_t>(
                kCapacityWindows - 1,
                static_cast<std::size_t>(usBetween(start, w1) / windowUs));
            perWindow[part] += 1.0;
            submitOne();
        }
    }
    result.sent = next - first;
    for (double answered : perWindow)
        result.perSecond.push_back(answered / (windowUs / 1e6));
    result.clientBusy = 1.0 - waitedUs / usBetween(start, end);
    return result;
}

/** Count a phase's answers [first, first + count): each error or
 * answer whose fingerprint differs from expected(i), the oracle's, is
 * a failed operation. */
template <class Traffic, class Expected>
void
countAnswers(const Answers<Traffic>& answers, std::uint64_t first,
             std::uint64_t count, Expected expected, Phase& phase,
             Report& report)
{
    std::uint64_t errors = 0, mismatches = 0;
    for (std::uint64_t i = first; i < first + count; ++i) {
        if (!answers.isOk(i))
            ++errors;
        else if (answers.bits[i] != expected(i))
            ++mismatches;
    }
    phase.failed += errors + mismatches;
    phase.succeeded += count - errors - mismatches;
    if (errors != 0)
        report.fail(phase.name + ": " + std::to_string(errors) +
                    " requests answered an error");
    if (mismatches != 0)
        report.fail(phase.name + ": " + std::to_string(mismatches) +
                    " answers differ from the oracle");
}

// ------------------------------------------------------------- traffic

/** The trees of `trees` in request-sized groups. */
std::vector<std::vector<const Ast*>>
requestGroups(const std::vector<const Ast*>& trees)
{
    std::vector<std::vector<const Ast*>> groups;
    for (std::size_t lo = 0; lo < trees.size(); lo += kRankCandidates)
        groups.emplace_back(
            trees.begin() + static_cast<std::ptrdiff_t>(lo),
            trees.begin() + static_cast<std::ptrdiff_t>(
                                std::min(trees.size(), lo + kRankCandidates)));
    return groups;
}

/**
 * Make `trees` resident before the warm-up, in request-sized forests
 * whose placement does not depend on timing, so peak RSS does not
 * either. In process, this thread encodes them into the cache the
 * workers share: a priming batch sent through the server would land
 * on whichever workers took it and grow their encoder arenas by a
 * different amount each run, though serving resident trees never
 * encodes.
 */
void
primeResident(ShardedServer& server, const std::vector<const Ast*>& trees)
{
    Engine& shard = server.shardEngine(0);
    Engine primer(shard.modelVersion(), Engine::Options().withThreads(1),
                  shard.sharedCache());
    for (const std::vector<const Ast*>& group : requestGroups(trees))
        if (!primer.encodeBatch(group).isOk())
            fatal("warm-up: priming resident trees failed");
}

/** Each ccsa_worker keeps its own cache, so each encodes every tree,
 * one forest per group, through pairs whose first tree the server
 * routes to that worker. */
void
primeResident(ProcessShardedServer& server,
              const std::vector<const Ast*>& trees)
{
    std::vector<const Ast*> anchor(server.numShards(), nullptr);
    for (const Ast* a : trees)
        anchor[ShardedEncodingCache::shardOf(digestAst(*a),
                                             anchor.size())] = a;
    for (const std::vector<const Ast*>& group : requestGroups(trees)) {
        std::vector<std::future<Result<std::vector<double>>>> forests;
        for (const Ast* a : anchor) {
            if (a == nullptr)
                continue;
            std::vector<Engine::PairRequest> pairs;
            for (const Ast* b : group)
                pairs.push_back({a, b});
            forests.push_back(server.submitCompareMany(std::move(pairs)));
        }
        for (auto& f : forests)
            if (!f.get().isOk())
                fatal("warm-up: priming resident trees failed");
    }
}

/**
 * CI regression checks: a resident lineage head against a child the
 * server has never seen, arriving as source text the client parses.
 * The oracle parses and encodes every child with synchronous fp32
 * engines after the measured phases, so its cost stays off the clock
 * and scales with the requests actually sent.
 */
struct CommitTraffic
{
    using Prepared = std::string;
    using Value = double;
    struct Hold
    {
        std::unique_ptr<Ast> child;
    };
    static constexpr bool kClientParse = true;
    /** Reserved edits: warm-up requests cycle through
     * [0, kPrimeEdits), the arena forests use [kPrimeEdits,
     * kProbeEdits) and the encode probe [kProbeEdits, kReserved). */
    static constexpr std::uint64_t kProbeEdits = CommitInputs::kReserved / 2;
    static constexpr std::uint64_t kPrimeEdits = kProbeEdits / 2;

    std::shared_ptr<const CommitInputs> in;
    std::shared_ptr<ComparativePredictor> model;

    static CommitTraffic make(std::uint64_t seed,
                              std::shared_ptr<ComparativePredictor> model)
    {
        return CommitTraffic{std::make_shared<const CommitInputs>(
                                 makeCommitInputs(seed, kLineages)),
                             std::move(model)};
    }

    std::size_t lineage(std::uint64_t i) const
    {
        return i >= kWarmBase
            ? in->reservedLineage((i - kWarmBase) % kPrimeEdits)
            : in->lineage(i);
    }

    Prepared prepare(std::uint64_t i) const
    {
        return i >= kWarmBase
            ? in->reservedChild((i - kWarmBase) % kPrimeEdits)
            : in->child(i);
    }

    template <class Server>
    std::future<Result<double>> submit(Server& server, std::uint64_t i,
                                       Prepared source, Hold& hold,
                                       RequestTimes& t) const
    {
        Result<Ast> child = Engine::parseSource(source);
        t.submit = Clock::now();
        if (!child.isOk()) {
            std::promise<Result<double>> failed;
            failed.set_value(child.status());
            return failed.get_future();
        }
        hold.child = std::make_unique<Ast>(std::move(child.value()));
        return server.submitCompare(in->heads[lineage(i)].ast(),
                                    *hold.child);
    }

    static std::uint64_t fingerprint(double v) { return bitsOf(v); }

    /** Make the heads resident, then encode one forest of `depth`
     * never-seen children on every worker: the measured phases keep
     * at most `depth` requests outstanding, one cold child each, so
     * this is the largest forest they make, and the encoder arenas
     * reach their high-water mark here instead of at a moment that
     * varies from run to run. Each request repeats its children up to
     * a full batch, so the worker that takes it flushes at once and
     * is still encoding when the next request reaches an idle one. */
    void prime(ShardedServer& server, std::size_t depth) const
    {
        primeResident(server, residentTrees());
        const Ast& head = in->heads[0].ast();
        std::size_t fill = ShardedServer::Options().maxBatchSize;
        std::deque<Ast> children;
        std::vector<std::vector<Engine::PairRequest>> forests(
            server.numShards());
        std::uint64_t k = kPrimeEdits;
        for (std::vector<Engine::PairRequest>& pairs : forests) {
            std::size_t first = children.size();
            for (std::size_t c = 0; c < depth && k < kProbeEdits; ++c)
                children.push_back(
                    Engine::parseSource(in->reservedChild(k++)).value());
            for (std::size_t c = 0; c < fill && children.size() > first; ++c)
                pairs.push_back(
                    {&head, &children[first + c % (children.size() - first)]});
        }
        std::vector<std::future<Result<std::vector<double>>>> done;
        for (std::vector<Engine::PairRequest>& pairs : forests)
            if (!pairs.empty())
                done.push_back(server.submitCompareMany(std::move(pairs)));
        for (auto& f : done)
            if (!f.get().isOk())
                fatal("commit warm-up: cold forest failed");
    }

    /** @return requests whose child was a tree seen earlier. */
    std::uint64_t check(const Answers<CommitTraffic>& answers,
                        std::uint64_t first, std::uint64_t count,
                        Phase& phase, Report& report) const
    {
        std::vector<double> expected(count, 0.0);
        std::vector<AstDigest> digests(count);
        std::size_t workers = nproc();
        std::vector<std::string> errors(workers);
        std::vector<std::thread> threads;
        for (std::size_t w = 0; w < workers; ++w) {
            threads.emplace_back([&, w] {
                Engine oracle(model, Engine::Options().withThreads(1));
                std::uint64_t lo = count * w / workers;
                std::uint64_t hi = count * (w + 1) / workers;
                // Small forests keep each oracle thread's arena near
                // the size serving needs (answers do not depend on
                // how pairs are batched).
                for (std::uint64_t c = lo; c < hi; c += 8) {
                    std::uint64_t end = std::min(hi, c + 8);
                    std::vector<Ast> children;
                    children.reserve(end - c);
                    std::vector<Engine::PairRequest> pairs;
                    for (std::uint64_t k = c; k < end; ++k) {
                        Result<Ast> ast =
                            Engine::parseSource(in->child(first + k));
                        if (!ast.isOk()) {
                            errors[w] = ast.status().toString();
                            return;
                        }
                        children.push_back(std::move(ast.value()));
                        digests[k] = digestAst(children.back());
                    }
                    for (std::uint64_t k = c; k < end; ++k)
                        pairs.push_back({&in->heads[lineage(first + k)].ast(),
                                         &children[k - c]});
                    Result<std::vector<double>> probs =
                        oracle.compareMany(pairs);
                    if (!probs.isOk()) {
                        errors[w] = probs.status().toString();
                        return;
                    }
                    for (std::uint64_t k = c; k < end; ++k)
                        expected[k] = probs.value()[k - c];
                }
            });
        }
        for (std::thread& t : threads)
            t.join();
        for (const std::string& e : errors)
            if (!e.empty())
                report.fail("commit oracle: " + e);
        countAnswers(answers, first, count,
                     [&](std::uint64_t i) {
                         return bitsOf(expected[i - first]);
                     },
                     phase, report);

        // A child is novel when no head, warm-up or arena edit, or
        // earlier request had its tree.
        std::unordered_set<AstDigest, AstDigestHash> seen;
        for (const EditableProgram& h : in->heads)
            seen.insert(digestAst(h.ast()));
        for (std::uint64_t k = 0; k < kProbeEdits; ++k) {
            Result<Ast> ast = Engine::parseSource(in->reservedChild(k));
            if (ast.isOk())
                seen.insert(digestAst(ast.value()));
        }
        std::uint64_t repeated = 0;
        for (const AstDigest& d : digests)
            repeated += seen.insert(d).second ? 0 : 1;
        if (repeated != 0)
            report.fail(phase.name + ": " + std::to_string(repeated) +
                        " children were not novel");
        return repeated;
    }

    std::vector<const Ast*> residentTrees() const
    {
        std::vector<const Ast*> out;
        for (const EditableProgram& h : in->heads)
            out.push_back(&h.ast());
        return out;
    }

    std::vector<Ast> coldTrees(std::size_t n) const
    {
        std::vector<Ast> out;
        for (std::uint64_t k = kProbeEdits; out.size() < n; ++k)
            out.push_back(Engine::parseSource(in->reservedChild(k)).value());
        return out;
    }

    std::vector<std::string> sources() const { return {}; }
};

/** Algorithm selection: rank same-family candidates of a resident
 * pool. The oracle scores every ordered same-family pair once with a
 * synchronous fp32 Engine; a request's expected ranking aggregates
 * its 56 entries exactly as Engine::rank does. */
struct RankTraffic
{
    using Prepared = std::vector<const Ast*>;
    using Value = std::vector<Engine::RankedCandidate>;
    struct Hold
    {
    };
    static constexpr bool kClientParse = false;

    std::shared_ptr<const RankInputs> in;
    std::shared_ptr<ComparativePredictor> model;
    /** table[f][a * n + b] = P(a slower than b) within family f. */
    std::shared_ptr<const std::vector<std::vector<double>>> table;

    static RankTraffic make(std::uint64_t seed,
                            std::shared_ptr<ComparativePredictor> model)
    {
        auto in = std::make_shared<const RankInputs>(
            makeRankInputs(seed, kPoolPerFamily));
        Engine oracle(model, Engine::Options().withThreads(1));
        auto table = std::make_shared<std::vector<std::vector<double>>>();
        for (const auto& family : in->pool) {
            // Encode in request-sized forests first: one 32-tree
            // forest would grow this thread's arena far beyond what
            // the measured traffic ever needs.
            std::vector<const Ast*> trees;
            for (const Ast& a : family)
                trees.push_back(&a);
            for (const std::vector<const Ast*>& group : requestGroups(trees))
                if (!oracle.encodeBatch(group).isOk())
                    fatal("rank oracle: encode failed");
            std::vector<Engine::PairRequest> pairs;
            for (const Ast& a : family)
                for (const Ast& b : family)
                    pairs.push_back({&a, &b});
            Result<std::vector<double>> probs = oracle.compareMany(pairs);
            if (!probs.isOk())
                fatal("rank oracle: " + probs.status().toString());
            table->push_back(std::move(probs.value()));
        }
        return RankTraffic{in, std::move(model), table};
    }

    Prepared prepare(std::uint64_t i) const
    {
        RankInputs::Request r = in->request(i);
        Prepared out;
        for (std::size_t m : r.members)
            out.push_back(&in->pool[r.family][m]);
        return out;
    }

    template <class Server>
    std::future<Result<Value>> submit(Server& server, std::uint64_t,
                                      Prepared candidates, Hold&,
                                      RequestTimes& t) const
    {
        t.submit = Clock::now();
        return server.submitRank(std::move(candidates));
    }

    static std::uint64_t fingerprint(const Value& ranking)
    {
        std::uint64_t h = ranking.size();
        for (const Engine::RankedCandidate& c : ranking)
            h = mix(mix(mix(h, static_cast<std::uint64_t>(c.index)),
                        static_cast<std::uint64_t>(c.wins)),
                    bitsOf(c.meanProbFaster));
        return h;
    }

    template <class Server>
    void prime(Server& server, std::size_t) const
    {
        primeResident(server, residentTrees());
    }

    std::uint64_t expected(std::uint64_t i) const
    {
        RankInputs::Request r = in->request(i);
        std::size_t n = in->pool[r.family].size();
        std::vector<double> probs;
        for (std::size_t a = 0; a < kRankCandidates; ++a)
            for (std::size_t b = 0; b < kRankCandidates; ++b)
                if (a != b)
                    probs.push_back((*table)[r.family]
                                            [r.members[a] * n + r.members[b]]);
        return fingerprint(
            Engine::aggregateTournament(kRankCandidates, probs));
    }

    std::uint64_t check(const Answers<RankTraffic>& answers,
                        std::uint64_t first, std::uint64_t count,
                        Phase& phase, Report& report) const
    {
        // The table route must agree with Engine::rank itself.
        Engine oracle(model, Engine::Options().withThreads(1));
        for (std::uint64_t i = first; i < first + std::min<std::uint64_t>(count, 16);
             ++i) {
            Result<Value> ranked = oracle.rank(prepare(i));
            if (!ranked.isOk() || fingerprint(ranked.value()) != expected(i))
                report.fail("rank oracle disagrees with Engine::rank");
        }
        countAnswers(answers, first, count,
                     [&](std::uint64_t i) { return expected(i); }, phase,
                     report);
        return count; // every candidate was resident before the run
    }

    std::vector<const Ast*> residentTrees() const
    {
        std::vector<const Ast*> out;
        for (const auto& family : in->pool)
            for (const Ast& a : family)
                out.push_back(&a);
        return out;
    }

    std::vector<Ast> coldTrees(std::size_t n) const
    {
        std::vector<Ast> out;
        for (const Ast* a : residentTrees())
            if (out.size() < n)
                out.push_back(*a);
        return out;
    }

    std::vector<std::string> sources() const
    {
        std::vector<std::string> out;
        for (const auto& family : in->sources)
            out.insert(out.end(), family.begin(), family.end());
        return out;
    }
};

/** Held-out checks answered by a freshly retrained model; the oracle
 * scores every held-out pair once. */
struct HeldOutTraffic
{
    using Prepared = std::size_t;
    using Value = double;
    struct Hold
    {
    };
    static constexpr bool kClientParse = false;

    std::shared_ptr<const RetrainInputs> in;
    std::uint64_t seed = 0;
    std::shared_ptr<const std::vector<double>> expectedProbs;

    static HeldOutTraffic make(std::shared_ptr<const RetrainInputs> in,
                               std::uint64_t seed,
                               std::shared_ptr<ComparativePredictor> model)
    {
        Engine oracle(model, Engine::Options().withThreads(1));
        std::vector<Engine::PairRequest> pairs;
        const auto& subs = in->corpus.submissions();
        for (const CodePair& p : in->heldOut)
            pairs.push_back({&subs[static_cast<std::size_t>(p.first)].ast,
                             &subs[static_cast<std::size_t>(p.second)].ast});
        Result<std::vector<double>> probs = oracle.compareMany(pairs);
        if (!probs.isOk())
            fatal("held-out oracle: " + probs.status().toString());
        return HeldOutTraffic{
            std::move(in), seed,
            std::make_shared<const std::vector<double>>(probs.value())};
    }

    Prepared prepare(std::uint64_t i) const
    {
        return heldOutRequest(seed, i, in->heldOut.size());
    }

    template <class Server>
    std::future<Result<double>> submit(Server& server, std::uint64_t,
                                       Prepared pair, Hold&,
                                       RequestTimes& t) const
    {
        const CodePair& p = in->heldOut[pair];
        const auto& subs = in->corpus.submissions();
        t.submit = Clock::now();
        return server.submitCompare(
            subs[static_cast<std::size_t>(p.first)].ast,
            subs[static_cast<std::size_t>(p.second)].ast);
    }

    static std::uint64_t fingerprint(double v) { return bitsOf(v); }

    void prime(ShardedServer& server, std::size_t) const
    {
        primeResident(server, residentTrees());
    }

    std::uint64_t check(const Answers<HeldOutTraffic>& answers,
                        std::uint64_t first, std::uint64_t count,
                        Phase& phase, Report& report) const
    {
        countAnswers(answers, first, count,
                     [&](std::uint64_t i) {
                         return bitsOf((*expectedProbs)[prepare(i)]);
                     },
                     phase, report);
        return count; // held-out trees are resident after warm-up
    }

    /** Submissions the held-out pairs reference, each once. */
    std::vector<const Submission*> heldOutSubmissions() const
    {
        std::unordered_set<int> ids;
        std::vector<const Submission*> out;
        for (const CodePair& p : in->heldOut)
            for (int id : {p.first, p.second})
                if (ids.insert(id).second)
                    out.push_back(
                        &in->corpus.submissions()[static_cast<std::size_t>(id)]);
        return out;
    }

    std::vector<const Ast*> residentTrees() const
    {
        std::vector<const Ast*> out;
        for (const Submission* s : heldOutSubmissions())
            out.push_back(&s->ast);
        return out;
    }

    std::vector<Ast> coldTrees(std::size_t n) const
    {
        std::vector<Ast> out;
        for (const Ast* a : residentTrees())
            if (out.size() < n)
                out.push_back(*a);
        return out;
    }

    std::vector<std::string> sources() const
    {
        std::vector<std::string> out;
        for (const Submission* s : heldOutSubmissions())
            out.push_back(s->source);
        return out;
    }
};

// ------------------------------------------------------------- retrain

struct RetrainOutcome
{
    double pairsPerS = 0.0;
    double accuracy = 0.0;
    std::shared_ptr<ComparativePredictor> model;
};

/** One epoch of Trainer::fit on a fresh fixed-seed model, then the
 * held-out pairs scored through an Engine. A non-finite loss or an
 * accuracy below `floor` fails the run. */
RetrainOutcome
retrain(const RetrainInputs& in, double floor, Report& report)
{
    RetrainOutcome out;
    out.model = freshModel();
    TrainConfig cfg;
    cfg.epochs = 1;
    Trainer trainer(*out.model, cfg);
    Clock::time_point t0 = Clock::now();
    TrainStats stats = trainer.fit(in.corpus.submissions(), in.train);
    out.pairsPerS = static_cast<double>(in.train.size()) /
        secondsBetween(t0, Clock::now());
    ++report.otherOps;
    if (!std::isfinite(stats.finalLoss())) {
        ++report.otherFailed;
        report.fail("retrain: non-finite training loss");
    }
    Engine engine(out.model, Engine::Options().withThreads(1));
    out.accuracy =
        pairwiseAccuracy(engine, in.corpus.submissions(), in.heldOut);
    if (!(out.accuracy >= floor))
        report.fail("retrain: pair_acc " + std::to_string(out.accuracy) +
                    " below the floor " + std::to_string(floor));
    return out;
}

/** The layers of one Trainer step (encodeDistinct + head + loss;
 * ag::backward; clip + Adam), on the corpus's first batches. */
void
trainProbes(const RetrainInputs& in, Report& report)
{
    auto model = freshModel();
    TrainConfig cfg;
    nn::Adam optim(model->parameters(), cfg.learningRate);
    std::vector<double> forward, backward, step, trees;
    const auto& subs = in.corpus.submissions();
    std::size_t batch = static_cast<std::size_t>(cfg.batchPairs);
    for (std::size_t start = 0;
         start + batch <= in.train.size() && forward.size() < 16;
         start += batch) {
        Clock::time_point t0 = Clock::now();
        auto encoded =
            encodeDistinct(*model, subs, in.train, start, start + batch);
        std::vector<ag::Var> losses;
        for (std::size_t p = start; p < start + batch; ++p) {
            const CodePair& pair = in.train[p];
            ag::Var logit = model->logitFromEncodings(
                encoded.at(pair.first), encoded.at(pair.second));
            losses.push_back(
                ag::bceWithLogits(logit, Tensor(1, 1, pair.label)));
        }
        ag::Var loss = ag::scale(ag::addN(losses),
                                 1.0f / static_cast<float>(losses.size()));
        Clock::time_point t1 = Clock::now();
        optim.zeroGrad();
        ag::backward(loss);
        Clock::time_point t2 = Clock::now();
        optim.clipGradNorm(cfg.gradClip);
        optim.step();
        Clock::time_point t3 = Clock::now();
        forward.push_back(usBetween(t0, t1) / 1000.0);
        backward.push_back(usBetween(t1, t2) / 1000.0);
        step.push_back(usBetween(t2, t3) / 1000.0);
        trees.push_back(static_cast<double>(encoded.size()));
    }
    report.metric("train.forward_ms", quantileOr0(forward, 0.5), "ms");
    report.metric("train.backward_ms", quantileOr0(backward, 0.5), "ms");
    report.metric("train.optim_ms", quantileOr0(step, 0.5), "ms");
    report.metric("train.trees_per_batch", quantileOr0(trees, 0.5), "count");
}

// -------------------------------------------------------------- probes

/** Median over rounds of (time of fn) / items. */
template <class Fn>
double
perItemUs(std::size_t items, Fn fn)
{
    std::vector<double> samples;
    for (int r = 0; r < 21; ++r) {
        Clock::time_point t0 = Clock::now();
        fn();
        samples.push_back(usBetween(t0, Clock::now()) /
                          static_cast<double>(items));
    }
    return quantileOr0(samples, 0.5);
}

/** Off-the-clock probes of parse, digest, cache lookup, cold encode
 * and the score head on the workload's own trees. `cache` is the
 * server's when it lives in this process. */
template <class Traffic>
void
layerProbes(const Traffic& traffic,
            const std::shared_ptr<ComparativePredictor>& model,
            ShardedEncodingCache* cache, std::uint64_t cacheVersion,
            Report& report)
{
    std::vector<std::string> sources = traffic.sources();
    if (!sources.empty()) {
        std::vector<double> us;
        for (const std::string& s : sources) {
            Clock::time_point t0 = Clock::now();
            if (!Engine::parseSource(s).isOk())
                fatal("probe: source does not parse");
            us.push_back(usBetween(t0, Clock::now()));
        }
        report.metric("frontend.parse_us", quantileOr0(us, 0.5), "us");
    }

    std::vector<const Ast*> resident = traffic.residentTrees();
    report.metric("ast.digest_us", perItemUs(resident.size(), [&] {
                      for (const Ast* a : resident)
                          (void)digestAst(*a);
                  }),
                  "us");

    // Cold encodes on a probe engine shaped like one shard (fp32,
    // inline encoder); a throwaway engine first warms this thread's
    // arena on other trees.
    std::vector<Ast> cold = traffic.coldTrees(64);
    {
        Engine throwaway(model, Engine::Options().withThreads(1));
        std::vector<const Ast*> some;
        for (std::size_t k = cold.size() / 2; k < cold.size(); ++k)
            some.push_back(&cold[k]);
        (void)throwaway.encodeBatch(some);
    }
    Engine probe(model, Engine::Options().withThreads(1));
    std::vector<double> encodeUs;
    for (std::size_t k = 0; k < cold.size() / 2; ++k) {
        Clock::time_point t0 = Clock::now();
        if (!probe.encodeBatch({&cold[k]}).isOk())
            fatal("probe: cold encode failed");
        encodeUs.push_back(usBetween(t0, Clock::now()));
    }
    report.metric("encode.us_per_tree", quantileOr0(encodeUs, 0.5), "us");

    // Make every tree resident in request-sized forests: one forest
    // of the whole pool would grow this thread's arena by hundreds of
    // MB that no request ever needs.
    for (const std::vector<const Ast*>& group : requestGroups(resident))
        if (!probe.encodeBatch(group).isOk())
            fatal("probe: encodeBatch failed");
    std::shared_ptr<const ModelVersion> version = probe.modelVersion();
    ShardedEncodingCache& probed = cache != nullptr ? *cache : probe.cache();
    std::uint64_t id = cache != nullptr ? cacheVersion : version->id;
    std::vector<EncodingKey> keys;
    for (const Ast* a : resident)
        keys.push_back(EncodingKey{id, digestAst(*a)});
    Tensor latent;
    report.metric("cache.lookup_us", perItemUs(keys.size(), [&] {
                      for (const EncodingKey& k : keys)
                          if (!probed.lookup(k, &latent))
                              fatal("probe: resident key missed");
                  }),
                  "us");

    std::vector<Engine::PairRequest> pairs;
    for (std::size_t k = 0; k < 256; ++k)
        pairs.push_back({resident[k % resident.size()],
                         resident[(7 * k + 1) % resident.size()]});
    std::vector<double> scoreUs;
    for (int r = 0; r < 21; ++r) {
        Engine::PhaseTiming timing;
        if (!probe.compareMany(*version, pairs, &timing).isOk())
            fatal("probe: compareMany failed");
        scoreUs.push_back(usBetween(timing.encodeEnd, timing.scoreEnd) /
                          static_cast<double>(pairs.size()));
    }
    report.metric("score.us_per_pair", quantileOr0(scoreUs, 0.5), "us");
}

// ----------------------------------------------------------- counters

/** Server counters a phase reports as deltas. */
struct Counters
{
    EncodingCache::Stats cache;
    std::uint64_t trees = 0;
    std::uint64_t batches = 0;
    std::uint64_t pairs = 0;
    std::uint64_t restarts = 0;
    double residentMb = 0.0;
};

Counters
readCounters(ShardedServer& s)
{
    Counters c;
    ShardedServerStats st = s.stats();
    c.cache = s.cache().stats();
    c.trees = st.aggregate.engine.treesEncoded;
    c.batches = st.aggregate.batches;
    c.pairs = st.aggregate.pairsServed;
    std::uint64_t id = s.shardEngine(0).modelVersion()->id;
    c.residentMb =
        static_cast<double>(s.cache().namespaceStats(id).residentBytes) /
        (1024.0 * 1024.0);
    return c;
}

Counters
readCounters(ProcessShardedServer& s)
{
    // Worker caches live in other address spaces; batching and
    // supervision are what is visible from here.
    Counters c;
    ProcessShardedServerStats st = s.stats();
    c.batches = st.aggregate.batches;
    c.pairs = st.aggregate.pairsServed;
    for (const WorkerHealth& h : st.health)
        c.restarts += h.restarts;
    return c;
}

/** This process and the server's worker processes; read worker pids
 * before the workers shut down. */
std::vector<pid_t>
processesOf(ShardedServer&)
{
    return {getpid()};
}

std::vector<pid_t>
processesOf(ProcessShardedServer& s)
{
    std::vector<pid_t> pids{getpid()};
    for (const WorkerHealth& h : s.stats().health)
        if (h.pid > 0)
            pids.push_back(h.pid);
    return pids;
}

// ------------------------------------------------------------- serving

struct ServingPlan
{
    double rate = 0.0;
    double openSeconds = 0.0;
    double saturationSeconds = 0.0;
    /** Requests kept outstanding in the saturation phase and warm-up. */
    std::size_t outstanding = 0;
};

/** Build a server and warm every cache and arena it has, at the
 * saturation phase's depth. */
template <class Server, class Traffic>
std::unique_ptr<World<Server>>
warmWorld(const Traffic& traffic, std::shared_ptr<ComparativePredictor> model,
          bool traced, const ServingPlan& plan, const Args& args,
          Report& report)
{
    auto world =
        std::make_unique<World<Server>>(std::move(model), traced, args);
    traffic.prime(*world->server, plan.outstanding);
    Answers<Traffic> dropped;
    ClosedLoopResult warm =
        closedLoop(*world->server, traffic, dropped, kWarmBase,
                   plan.outstanding, 1e9, kWarmRequests);
    if (warm.ok != kWarmRequests)
        report.fail("warm-up: " + std::to_string(kWarmRequests - warm.ok) +
                    " requests failed");
    return world;
}

std::vector<double>
latenciesMs(const std::vector<RequestTimes>& times)
{
    std::vector<double> ms;
    for (const RequestTimes& t : times)
        if (t.ok)
            ms.push_back(usBetween(t.due, t.observed) / 1000.0);
    return ms;
}

/** End-to-end numbers of one measured set-up. */
struct Served
{
    /** Median latency of each of kLatencyWindows consecutive parts of
     * the open loop. */
    std::vector<double> p50Ms;
    /** Answer rate of each kCapacityWindows part of saturation. */
    std::vector<double> capacityRps;
    /** Peak RSS of the server's processes during the two phases.
     * Set-up peaks and the free memory set-up leaves in this
     * process's heaps are left out, what it leaves in use is not: how
     * much freed memory glibc keeps depends on when its dynamic mmap
     * threshold first rises relative to each worker's first forest,
     * so it moved peak RSS by 30% between runs of identical work. */
    double peakMb = 0.0;
};

/** Open loop then saturation on a warm server; checks every answer. */
template <class Server, class Traffic>
Served
measureServing(Server& server, const Traffic& traffic,
               const ServingPlan& plan, const Args& args, Report& report)
{
    Answers<Traffic> answers;
    Counters before = readCounters(server);
    malloc_trim(0);
    for (pid_t pid : processesOf(server))
        resetPeakRss(pid, report);

    std::vector<std::int64_t> arrivals =
        poissonArrivals(args.seed, plan.rate, plan.openSeconds);
    std::vector<RequestTimes> times =
        openLoop(server, traffic, answers, 0, arrivals, nullptr);
    Served out;
    for (std::size_t w = 0; w < kLatencyWindows; ++w) {
        std::vector<RequestTimes> part(
            times.begin() + static_cast<std::ptrdiff_t>(
                                times.size() * w / kLatencyWindows),
            times.begin() + static_cast<std::ptrdiff_t>(
                                times.size() * (w + 1) / kLatencyWindows));
        out.p50Ms.push_back(quantileOr0(latenciesMs(part), 0.5));
    }

    std::uint64_t satFirst = arrivals.size();
    ClosedLoopResult sat =
        closedLoop(server, traffic, answers, satFirst, plan.outstanding,
                   plan.saturationSeconds, kWarmBase - satFirst);
    out.capacityRps = sat.perSecond;

    Counters after = readCounters(server);
    if (after.restarts != before.restarts)
        report.fail("worker restarts during the measured phases: " +
                    std::to_string(after.restarts - before.restarts));
    // Read before the oracle checks.
    for (pid_t pid : processesOf(server))
        out.peakMb += processPeakRssMb(pid);
    std::printf("measured: p50 %.3f ms; saturation %zu outstanding, %.0f "
                "requests/s, client busy %.0f%%; peak RSS %.1f MB\n",
                quantileOr0(out.p50Ms, 0.5), plan.outstanding,
                quantileOr0(out.capacityRps, 0.5), 100.0 * sat.clientBusy,
                out.peakMb);

    Phase& open = report.phase("open_loop");
    open.sent = arrivals.size();
    traffic.check(answers, 0, arrivals.size(), open, report);
    Phase& saturation = report.phase("saturation");
    saturation.sent = sat.sent;
    traffic.check(answers, satFirst, sat.sent, saturation, report);
    return out;
}

/** The traced per-layer run on one traffic; see the file comment. */
template <class Server, class Traffic>
void
traceServing(const Traffic& traffic,
             std::shared_ptr<ComparativePredictor> model,
             const ServingPlan& plan, const Args& args, Report& report)
{
    std::vector<std::int64_t> arrivals =
        poissonArrivals(args.seed, plan.rate, plan.openSeconds);

    auto untracedP50 = [&](auto* serverTag) {
        using S = std::remove_pointer_t<decltype(serverTag)>;
        auto world = warmWorld<S>(traffic, model, false, plan, args, report);
        Answers<Traffic> answers;
        std::vector<RequestTimes> times =
            openLoop(*world->server, traffic, answers, 0, arrivals, nullptr);
        Phase& phase = report.phase(std::is_same_v<S, Server>
                                        ? "open_loop_untraced"
                                        : "open_loop_in_process");
        phase.sent = arrivals.size();
        traffic.check(answers, 0, arrivals.size(), phase, report);
        std::vector<double> ms = latenciesMs(times);
        if (std::is_same_v<S, Server>)
            report.metric("latency.p99_ms", quantileOr0(ms, 0.99), "ms");
        return quantileOr0(ms, 0.5);
    };
    double baseP50 = untracedP50(static_cast<Server*>(nullptr));
    // The IPC server records no spans yet: its tax is its median
    // latency over the in-process server's on the same traffic.
    double taxUs = 0.0;
    if constexpr (std::is_same_v<Server, ProcessShardedServer>)
        taxUs = 1000.0 *
            (baseP50 - untracedP50(static_cast<ShardedServer*>(nullptr)));

    auto traced = warmWorld<Server>(traffic, model, true, plan, args, report);
    World<Server>& world = *traced;
    Answers<Traffic> answers;
    Counters before = readCounters(*world.server);
    std::vector<RequestTimes> times = openLoop(*world.server, traffic, answers,
                                               0, arrivals, world.trace.get());
    Counters after = readCounters(*world.server);
    Phase& phase = report.phase("open_loop_traced");
    phase.sent = arrivals.size();
    std::uint64_t repeated =
        traffic.check(answers, 0, arrivals.size(), phase, report);

    std::vector<TraceRecorder::Span> spans;
    if (world.trace) {
        spans = world.trace->spans();
        if (world.trace->droppedSpans() != 0)
            report.fail("trace buffer dropped spans");
    }
    Waterfall fall = buildWaterfall(times, spans, world.traceEpoch,
                                    Traffic::kClientParse);
    double tracedP50 = quantileOr0(latenciesMs(times), 0.5);
    std::vector<double> late;
    for (const RequestTimes& t : times)
        late.push_back(usBetween(t.due, t.start) / 1000.0);

    report.metric("loadgen.late_p99_ms", quantileOr0(late, 0.99), "ms");
    report.metric("loadgen.novel_share",
                  arrivals.empty()
                      ? 0.0
                      : 1.0 - static_cast<double>(repeated) /
                              static_cast<double>(arrivals.size()),
                  "ratio");
    if (Traffic::kClientParse)
        report.metric("frontend.parse_us", fall.stageMedian("parse"), "us");
    std::uint64_t hits = after.cache.hits - before.cache.hits;
    std::uint64_t lookups = hits + after.cache.misses - before.cache.misses;
    report.metric("cache.hit_ratio",
                  lookups == 0 ? 0.0
                               : static_cast<double>(hits) /
                          static_cast<double>(lookups),
                  "ratio");
    report.metric("cache.evictions",
                  static_cast<double>(after.cache.evictions -
                                      before.cache.evictions),
                  "count");
    report.metric("cache.resident_mb", after.residentMb, "MB");
    double batches = static_cast<double>(after.batches - before.batches);
    double trees = static_cast<double>(after.trees - before.trees);
    report.metric("encode.trees", trees, "count");
    report.metric("encode.forest_trees", batches > 0 ? trees / batches : 0.0,
                  "count");
    report.metric("server.batch_pairs",
                  batches > 0 ? static_cast<double>(after.pairs - before.pairs) /
                          batches
                              : 0.0,
                  "count");
    report.metric("server.queue_wait_us", fall.stageMedian("queue"), "us");
    report.metric("server.coalesce_wait_us", fall.stageMedian("coalesce"),
                  "us");
    report.metric("server.slices_per_request", fall.slicesPerRequest, "count");
    report.metric("server.fanout_us", fall.stageMedian("fanout"), "us");
    report.metric("ipc.tax_us", taxUs, "us");
    report.metric("ipc.restarts", static_cast<double>(after.restarts),
                  "count");
    report.metric("trace.overhead_pct",
                  baseP50 > 0.0 ? 100.0 * (tracedP50 - baseP50) / baseP50
                                : 0.0,
                  "%");
    report.metric("waterfall.stage_sum_ratio", fall.stageSumRatio(),
                  "ratio");

    // Self-check: stages tile every request, and where the server
    // records spans the stage medians add up to the median latency.
    if (fall.violations != 0)
        report.fail("waterfall: " + std::to_string(fall.violations) +
                    " requests not tiled by their stages (" +
                    fall.firstViolation + ")");
    if (!spans.empty() && std::fabs(fall.stageSumRatio() - 1.0) > 0.10)
        report.fail("waterfall: stage medians sum to " +
                    std::to_string(fall.stageSumRatio()) +
                    " of the median latency");

    std::printf("waterfall of the typical request (us, %zu traced):",
                fall.totals.size());
    for (const std::string& stage : fall.stages)
        std::printf(" %s=%.1f", stage.c_str(), fall.stageMedian(stage));
    std::printf(" | p50 %.1f us traced, %.1f us untraced\n",
                tracedP50 * 1000.0, baseP50 * 1000.0);

    std::string tracePath = args.out + "/" + args.workload + "_seed" +
        std::to_string(args.seed) + ".trace.json";
    if (!writeChromeTrace(tracePath, times, spans, world.traceEpoch))
        report.fail("cannot write " + tracePath);

    ShardedEncodingCache* cache = nullptr;
    std::uint64_t cacheVersion = 0;
    if constexpr (std::is_same_v<Server, ShardedServer>) {
        cache = &world.server->cache();
        cacheVersion = world.server->shardEngine(0).modelVersion()->id;
    }
    layerProbes(traffic, model, cache, cacheVersion, report);
}

/** Each set-up's time, and every set-up's parts of its phases. */
struct Measured
{
    std::vector<double> setups, p50Ms, capacityRps;
    /** The first set-up's, in a fresh process: later ones also hold
     * what earlier set-ups left fragmented in the allocator (+30%). */
    double peakMb = 0.0;
};

/**
 * Set up, warm and measure a fresh server kSetups times, so p50 and
 * capacity are medians over server instances (thread placement, host
 * neighbours) and parts of their phases, not one instance's.
 */
template <class Server, class Make>
Measured
setUpAndMeasure(Make make, const ServingPlan& plan, const Args& args,
                Report& report)
{
    Measured m;
    for (int s = 0; s < kSetups; ++s) {
        Clock::time_point t0 = Clock::now();
        auto [model, traffic] = make();
        auto world =
            warmWorld<Server>(traffic, model, false, plan, args, report);
        m.setups.push_back(secondsBetween(t0, Clock::now()));
        Served one =
            measureServing(*world->server, traffic, plan, args, report);
        m.p50Ms.insert(m.p50Ms.end(), one.p50Ms.begin(), one.p50Ms.end());
        m.capacityRps.insert(m.capacityRps.end(), one.capacityRps.begin(),
                             one.capacityRps.end());
        if (s == 0)
            m.peakMb = one.peakMb;
    }
    report.metric("p50_ms", quantileOr0(m.p50Ms, 0.5), "ms");
    report.metric("capacity_rps", quantileOr0(m.capacityRps, 0.5), "1/s");
    return m;
}

/** commit_cold, rank_hot, rank_hot_ipc. */
template <class Server, class Traffic>
void
runServing(const Args& args, double rate, std::size_t outstanding,
           Report& report)
{
    ServingPlan plan{rate, args.seconds * kOpenShare,
                     args.seconds * kSaturationShare,
                     outstanding};
    RetrainInputs canary =
        makeRetrainInputs(kCanary.submissions, kCanary.maxTrainPairs);
    if (args.trace) {
        auto model = freshModel();
        Traffic traffic = Traffic::make(args.seed, model);
        traceServing<Server>(traffic, model, plan, args, report);
        trainProbes(canary, report);
        report.metric("train.pairs_per_s",
                      retrain(canary, kCanaryAccFloor, report).pairsPerS,
                      "1/s");
        return;
    }

    Measured m = setUpAndMeasure<Server>(
        [&] {
            auto model = freshModel();
            return std::make_pair(model, Traffic::make(args.seed, model));
        },
        plan, args, report);
    report.metric("setup_s", quantileOr0(m.setups, 0.5), "s");
    report.metric("peak_rss_mb", m.peakMb, "MB");

    report.metric("pair_acc",
                  retrain(canary, kCanaryAccFloor, report).accuracy, "ratio");
}

/** retrain: fit, deploy, serve the held-out checks. */
void
runRetrain(const Args& args, Report& report)
{
    std::vector<double> setups;
    std::shared_ptr<const RetrainInputs> in;
    for (int s = 0; s < kSetups; ++s) {
        Clock::time_point t0 = Clock::now();
        in = std::make_shared<const RetrainInputs>(
            makeRetrainInputs(kRetrain.submissions, kRetrain.maxTrainPairs));
        (void)freshModel();
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    if (args.trace)
        trainProbes(*in, report);
    resetPeakRss(getpid(), report);
    RetrainOutcome out = retrain(*in, kRetrainAccFloor, report);
    double trainPeakMb = processPeakRssMb(getpid());
    if (args.trace)
        report.metric("train.pairs_per_s", out.pairsPerS, "1/s");

    ServingPlan plan{kHeldOutRate, args.seconds * kRetrainOpenShare,
                     args.seconds * kRetrainSaturationShare,
                     kHeldOutOutstanding};
    if (args.trace) {
        HeldOutTraffic traffic = HeldOutTraffic::make(in, args.seed, out.model);
        traceServing<ShardedServer>(traffic, out.model, plan, args, report);
        return;
    }
    report.metric("pair_acc", out.accuracy, "ratio");

    // Deploying the retrained model is set-up for its serving phases.
    Measured m = setUpAndMeasure<ShardedServer>(
        [&] {
            return std::make_pair(out.model,
                                  HeldOutTraffic::make(in, args.seed, out.model));
        },
        plan, args, report);
    report.metric("setup_s",
                  quantileOr0(setups, 0.5) + quantileOr0(m.setups, 0.5), "s");
    report.metric("peak_rss_mb", std::max(trainPeakMb, m.peakMb), "MB");
}

// -------------------------------------------------------------- output

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
buildInfo(const Args& args)
{
    std::ostringstream o;
    o << "{\"matmul_kernel\": " << jsonString(kernels::activeKernelName())
      << ", \"f16_kernel\": " << jsonString(kernels::activeF16KernelName())
      << ", \"latent_precision\": "
      << jsonString(latentPrecisionName(Engine::Options().latentPrecision))
      << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
      << ", \"nproc\": " << nproc() << ", \"workload\": "
      << jsonString(args.workload) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << jsonNumber(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"git_commit\": " << jsonString(args.commit)
      << ", \"source_digest\": " << jsonString(args.sourceDigest) << "}";
    return o.str();
}

std::string
resultJson(const Report& report)
{
    std::uint64_t attempted = report.otherOps, failed = report.otherFailed;
    for (const Phase& p : report.phases) {
        attempted += p.sent;
        failed += p.failed;
    }
    std::ostringstream o;
    o << "{\"correct\": " << (report.problems.empty() ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
      << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t k = 0; k < report.metrics.size(); ++k)
        o << (k == 0 ? "" : ", ") << jsonString(report.metrics[k].first)
          << ": {\"value\": " << jsonNumber(report.metrics[k].second.first)
          << ", \"unit\": " << jsonString(report.metrics[k].second.second)
          << "}";
    o << "}}";
    return o.str();
}

std::string
phasesJson(const Report& report)
{
    std::ostringstream o;
    o << "[";
    for (std::size_t k = 0; k < report.phases.size(); ++k) {
        const Phase& p = report.phases[k];
        o << (k == 0 ? "" : ", ") << "{\"phase\": " << jsonString(p.name)
          << ", \"sent\": " << p.sent << ", \"succeeded\": " << p.succeeded
          << ", \"failed\": " << p.failed << "}";
    }
    return o.str() + "]";
}

bool
parseArgs(int argc, char** argv, Args* args)
{
    for (int a = 1; a + 1 < argc; a += 2) {
        std::string key = argv[a];
        std::string value = argv[a + 1];
        if (key == "--workload")
            args->workload = value;
        else if (key == "--seed")
            args->seed = std::stoull(value);
        else if (key == "--seconds")
            args->seconds = std::stod(value);
        else if (key == "--trace")
            args->trace = value == "1";
        else if (key == "--worker")
            args->worker = value;
        else if (key == "--out")
            args->out = value;
        else if (key == "--commit")
            args->commit = value;
        else if (key == "--source-digest")
            args->sourceDigest = value;

        else
            return false;
    }
    return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: ccsa_perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> --worker <path> "
                     "--out <dir> [--commit <id>] [--source-digest <hex>]\n");
        return 2;
    }
    // The open loop sleeps to absolute due times; default timer slack
    // would add ~50 us to every wake-up.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    setVerbose(false);

    Report report;
    const std::string& w = args.workload;
    if (w == "commit_cold")
        runServing<ShardedServer, CommitTraffic>(args, kCommitRate,
                                                 kCommitOutstanding, report);
    else if (w == "rank_hot")
        runServing<ShardedServer, RankTraffic>(args, kRankRate,
                                               kRankOutstanding, report);
    else if (w == "rank_hot_ipc")
        runServing<ProcessShardedServer, RankTraffic>(
            args, kRankRate, kRankOutstanding, report);
    else if (w == "retrain")
        runRetrain(args, report);
    else {
        std::fprintf(stderr, "unknown workload %s\n", w.c_str());
        return 2;
    }

    std::string info = buildInfo(args);
    std::string phases = phasesJson(report);
    std::string result = resultJson(report);
    std::string path = args.out + "/" + w + "_seed" +
        std::to_string(args.seed) + "_trace" + (args.trace ? "1" : "0") +
        ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "{\"build_info\": %s,\n \"phases\": %s,\n"
                        " \"problems\": %zu,\n \"result\": %s}\n",
                     info.c_str(), phases.c_str(), report.problems.size(),
                     result.c_str());
        std::fclose(f);
    }
    for (const std::string& p : report.problems)
        std::printf("problem: %s\n", p.c_str());
    std::printf("build_info %s\n", info.c_str());
    std::printf("phases %s\n", phases.c_str());
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return 0;
}

/**
 * @file
 * The crash-isolation test battery for the multi-process serving
 * layer (serve/ipc). Pinned contracts:
 *
 *  - the wire codec round-trips trees, requests, and replies
 *    bit-exactly, dedups repeated trees, and rejects torn / corrupt
 *    / oversized frames as errors instead of parsing garbage;
 *  - FaultInjector's spec grammar and one-shot trigger semantics,
 *    including EINTR storms being fully absorbed by the fd_util
 *    retry loop (no user-visible effect);
 *  - a worker loop served in-process over a socketpair answers
 *    ping/encode/compare bitwise-identically to a synchronous
 *    Engine;
 *  - ProcessShardedServer parity: results bitwise-equal the sync
 *    Engine at 1/2/4 shards, split/join included;
 *  - robustness: SIGKILLing a worker mid-batch under 6-producer load
 *    loses NOTHING (every future resolves — with the sync Engine's
 *    exact value or an attributed Status), the respawned worker
 *    rejoins and serves its partition, and restart counters tick;
 *  - injected faults: a crash during the idempotent encode phase is
 *    retried invisibly on a fresh worker; a crash (or torn write)
 *    during compare fails fast WITHOUT retry; an unspawnable worker
 *    opens the circuit breaker and degrades only its own shard;
 *  - SubmitOptions deadlines expire queued requests with
 *    DeadlineExceeded and the conservation identity
 *    submitted == completed + failed + deadline holds once drained;
 *  - the shared front end's observability and load shedding hold
 *    across the process boundary: every successful slice leaves one
 *    complete trace chain (encode and score ending at the RPC
 *    replies) plus one SLO event, and a trySubmit split across
 *    per-shard queues is admitted all-or-nothing.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>

#include <csignal>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include <unistd.h>

#include "base/fd_util.hh"
#include "frontend/parser.hh"
#include "model/predictor.hh"
#include "serve/ipc/fault_injector.hh"
#include "serve/ipc/process_sharded_server.hh"
#include "serve/ipc/wire.hh"
#include "serve/ipc/worker.hh"
#include "serve/metrics/metrics.hh"
#include "serve/metrics/slo_tracker.hh"
#include "serve/trace/trace_recorder.hh"

namespace ccsa
{
namespace
{

using namespace std::chrono_literals;

Ast
tinyProgram(int loops)
{
    std::string src = "int main() {\n int n;\n cin >> n;\n";
    for (int i = 0; i < loops; ++i) {
        std::string v = "i" + std::to_string(i);
        src += " for (int " + v + " = 0; " + v + " < n; " + v +
            "++) { int z" + std::to_string(i) + " = " + v + "; }\n";
    }
    src += " return 0;\n}\n";
    return parseAndPrune(src);
}

Engine::Options
tinyOptions()
{
    return Engine::Options()
        .withEmbedDim(8)
        .withHiddenDim(8)
        .withSeed(7)
        .withThreads(1);
}

/** The model every IPC test serves: deterministic from the seed, so
 * a local Engine(tinyOptions()) has bitwise-identical weights. */
std::shared_ptr<ComparativePredictor>
tinyModel()
{
    Engine::Options opts = tinyOptions();
    return std::make_shared<ComparativePredictor>(opts.encoder,
                                                  opts.seed);
}

/** Small deadlines so fault paths resolve in test time, not ops
 * time. */
ProcessShardedServer::Options
ipcOptions(std::size_t shards)
{
    return ProcessShardedServer::Options()
        .withNumShards(shards)
        .withRpcDeadline(2000ms)
        .withHeartbeatInterval(20ms)
        .withHeartbeatDeadline(1000ms)
        .withBackoff(5ms, 100ms);
}

// ------------------------------------------------------- wire codec

TEST(IpcWire, ScalarRoundtripAndBoundsChecks)
{
    ipc::Writer w;
    w.putU8(7);
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putI32(-42);
    w.putF32(1.5f);
    w.putF64(-2.25);
    w.putString("hello");

    ipc::Reader r(w.bytes());
    std::uint8_t u8 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::int32_t i32 = 0;
    float f32 = 0;
    double f64 = 0;
    std::string s;
    EXPECT_TRUE(r.takeU8(&u8).isOk());
    EXPECT_TRUE(r.takeU32(&u32).isOk());
    EXPECT_TRUE(r.takeU64(&u64).isOk());
    EXPECT_TRUE(r.takeI32(&i32).isOk());
    EXPECT_TRUE(r.takeF32(&f32).isOk());
    EXPECT_TRUE(r.takeF64(&f64).isOk());
    EXPECT_TRUE(r.takeString(&s).isOk());
    EXPECT_EQ(u8, 7);
    EXPECT_EQ(u32, 0xDEADBEEFu);
    EXPECT_EQ(u64, 0x0123456789ABCDEFull);
    EXPECT_EQ(i32, -42);
    EXPECT_EQ(f32, 1.5f);
    EXPECT_EQ(f64, -2.25);
    EXPECT_EQ(s, "hello");
    EXPECT_TRUE(r.exhausted());

    // Reading past the end is an error, not UB.
    EXPECT_FALSE(r.takeU32(&u32).isOk());

    // A string whose length word overruns the buffer is rejected.
    ipc::Writer bad;
    bad.putU32(1000); // claims 1000 bytes; none follow
    ipc::Reader rb(bad.bytes());
    EXPECT_FALSE(rb.takeString(&s).isOk());
}

TEST(IpcWire, CompareRequestRoundtripDedupsTrees)
{
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(4);
    // a repeats — the batch must serialize it once.
    std::vector<Engine::PairRequest> pairs{
        {&a, &b}, {&b, &a}, {&a, &a}};
    ipc::TreeBatch batch = ipc::makeTreeBatch(pairs);
    EXPECT_EQ(batch.trees.size(), 2u);
    ASSERT_EQ(batch.pairs.size(), 3u);
    EXPECT_EQ(batch.pairs[0], std::make_pair(0u, 1u));
    EXPECT_EQ(batch.pairs[1], std::make_pair(1u, 0u));
    EXPECT_EQ(batch.pairs[2], std::make_pair(0u, 0u));

    std::vector<std::uint8_t> payload =
        ipc::encodeCompareRequest(batch);
    ipc::CompareRequest decoded;
    ASSERT_TRUE(
        ipc::decodeCompareRequest(payload, &decoded).isOk());
    ASSERT_EQ(decoded.trees.size(), 2u);
    EXPECT_EQ(decoded.pairs, batch.pairs);

    // Round-trip fidelity: the decoded trees re-serialize to the
    // same bytes (kinds + shape are all the model consumes, and all
    // the wire carries).
    ipc::Writer original;
    ipc::putAst(original, a);
    ipc::Writer rebuilt;
    ipc::putAst(rebuilt, decoded.trees[0]);
    EXPECT_EQ(original.bytes(), rebuilt.bytes());
    // ...and digest to the keys the server routes and addresses them
    // by.
    EXPECT_EQ(digestAst(decoded.trees[0]), digestAst(a));
    EXPECT_EQ(digestAst(decoded.trees[1]), digestAst(b));

    // Trailing garbage is rejected (no silent over-read).
    payload.push_back(0);
    EXPECT_FALSE(
        ipc::decodeCompareRequest(payload, &decoded).isOk());
}

TEST(IpcWire, RepliesRoundtripValuesAndStatuses)
{
    Result<std::vector<double>> ok =
        std::vector<double>{0.25, 0.75, 1.0};
    Result<std::vector<double>> decoded =
        Status::internal("unset");
    ASSERT_TRUE(ipc::decodeCompareReply(
                    ipc::encodeCompareReply(ok), &decoded)
                    .isOk());
    ASSERT_TRUE(decoded.isOk());
    EXPECT_EQ(decoded.value(), ok.value());

    Result<std::vector<double>> err =
        Status::resourceExhausted("queue full");
    ASSERT_TRUE(ipc::decodeCompareReply(
                    ipc::encodeCompareReply(err), &decoded)
                    .isOk());
    ASSERT_FALSE(decoded.isOk());
    EXPECT_EQ(decoded.status().code(),
              StatusCode::ResourceExhausted);
    EXPECT_EQ(decoded.status().message(), "queue full");

    Result<std::vector<std::vector<float>>> latents =
        std::vector<std::vector<float>>{{1.0f, 2.0f}, {3.0f, 4.0f}};
    Result<std::vector<std::vector<float>>> latentsOut =
        Status::internal("unset");
    ASSERT_TRUE(ipc::decodeEncodeReply(
                    ipc::encodeEncodeReply(latents), &latentsOut)
                    .isOk());
    ASSERT_TRUE(latentsOut.isOk());
    EXPECT_EQ(latentsOut.value(), latents.value());
}

TEST(IpcWire, FramesRejectCorruption)
{
    int fds[2];
    ASSERT_TRUE(makeSocketPair(fds));
    FdGuard a(fds[0]);
    FdGuard b(fds[1]);

    // A valid frame round-trips.
    ASSERT_TRUE(ipc::writeFrame(a.get(), ipc::MsgType::kPing, 99,
                                {1, 2, 3}));
    ipc::Frame frame;
    ASSERT_EQ(ipc::readFrame(b.get(), &frame), ipc::ReadFrame::Ok);
    EXPECT_EQ(frame.type, ipc::MsgType::kPing);
    EXPECT_EQ(frame.id, 99u);
    EXPECT_EQ(frame.payload, (std::vector<std::uint8_t>{1, 2, 3}));

    // Bad magic is an error immediately.
    std::uint8_t junk[17] = {0};
    ASSERT_EQ(::write(a.get(), junk, sizeof(junk)),
              static_cast<ssize_t>(sizeof(junk)));
    EXPECT_EQ(ipc::readFrame(b.get(), &frame),
              ipc::ReadFrame::Error);

    // An oversized payload length is rejected without allocating.
    int fds2[2];
    ASSERT_TRUE(makeSocketPair(fds2));
    FdGuard c(fds2[0]);
    FdGuard d(fds2[1]);
    std::uint8_t header[17];
    std::uint32_t magic = ipc::kWireMagic;
    std::memcpy(header, &magic, 4);
    header[4] = 5; // kPing
    std::uint64_t id = 1;
    std::memcpy(header + 5, &id, 8);
    std::uint32_t huge = ipc::kMaxPayload + 1;
    std::memcpy(header + 13, &huge, 4);
    ASSERT_EQ(::write(c.get(), header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    EXPECT_EQ(ipc::readFrame(d.get(), &frame),
              ipc::ReadFrame::Error);

    // A zero-length payload is a VALID frame (ping/pong/shutdown all
    // ship empty), not a degenerate one: header-only on the wire,
    // no payload read issued.
    ASSERT_TRUE(ipc::writeFrame(c.get(), ipc::MsgType::kPing, 7, {}));
    ASSERT_EQ(ipc::readFrame(d.get(), &frame), ipc::ReadFrame::Ok);
    EXPECT_EQ(frame.type, ipc::MsgType::kPing);
    EXPECT_EQ(frame.id, 7u);
    EXPECT_TRUE(frame.payload.empty());

    // u32 lengths near the max-frame bound: kMaxPayload + 1 and the
    // all-ones length are both rejected from the header alone — no
    // payload read, no allocation, no wraparound in header + len
    // arithmetic.
    std::uint32_t allOnes = 0xFFFFFFFFu;
    std::memcpy(header + 13, &allOnes, 4);
    ASSERT_EQ(::write(c.get(), header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    EXPECT_EQ(ipc::readFrame(d.get(), &frame),
              ipc::ReadFrame::Error);

    // A frame torn mid-payload (peer died) is an Error, not Eof —
    // and a clean close between frames IS Eof.
    int fds3[2];
    ASSERT_TRUE(makeSocketPair(fds3));
    FdGuard e(fds3[0]);
    FdGuard f(fds3[1]);
    std::uint32_t len = 10;
    std::memcpy(header + 13, &len, 4);
    ASSERT_EQ(::write(e.get(), header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    std::uint8_t half[3] = {1, 2, 3};
    ASSERT_EQ(::write(e.get(), half, sizeof(half)), 3);
    e.reset(); // "crash" mid-frame
    EXPECT_EQ(ipc::readFrame(f.get(), &frame),
              ipc::ReadFrame::Error);

    int fds4[2];
    ASSERT_TRUE(makeSocketPair(fds4));
    FdGuard g(fds4[0]);
    FdGuard h(fds4[1]);
    g.reset();
    EXPECT_EQ(ipc::readFrame(h.get(), &frame), ipc::ReadFrame::Eof);
}

TEST(IpcWire, WritersRefuseOversizedPayloads)
{
    // The writer enforces the same bound the reader does: an
    // oversized payload is refused up front (its u32 length field
    // would otherwise desynchronise the stream for every frame
    // after it). appendFrame must also leave the batch untouched so
    // a paired send cannot ship half a pair.
    std::vector<std::uint8_t> huge(ipc::kMaxPayload + 1, 0);
    std::vector<std::uint8_t> batch;
    EXPECT_FALSE(ipc::appendFrame(batch, ipc::MsgType::kPing, 1, huge));
    EXPECT_TRUE(batch.empty());

    int fds[2];
    ASSERT_TRUE(makeSocketPair(fds));
    FdGuard a(fds[0]);
    FdGuard b(fds[1]);
    EXPECT_FALSE(ipc::writeFrame(a.get(), ipc::MsgType::kPing, 1,
                                 huge));
    // Nothing was sent: the peer sees a clean EOF once we close,
    // not a torn frame.
    a.reset();
    ipc::Frame frame;
    EXPECT_EQ(ipc::readFrame(b.get(), &frame), ipc::ReadFrame::Eof);

    // At exactly the bound the frame is legal (boundary accepted).
    std::vector<std::uint8_t> atLimit(64, 0);
    batch.clear();
    EXPECT_TRUE(
        ipc::appendFrame(batch, ipc::MsgType::kPing, 2, atLimit));
    EXPECT_EQ(batch.size(), 17u + atLimit.size());
}

TEST(IpcWire, DecodersRejectLyingCountsWithoutAllocating)
{
    // Adversarial payloads whose count fields claim far more
    // elements than the payload could hold. Every decoder must fail
    // with a Status BEFORE sizing containers from the count — a
    // 12-byte frame claiming 4 billion rows must not OOM the
    // supervisor.
    const std::uint32_t kLie = 0xFFFFFFFFu;

    {
        ipc::Writer w;
        w.putU32(kLie); // treeCount
        ipc::CompareRequest req;
        EXPECT_FALSE(ipc::decodeCompareRequest(w.take(), &req).isOk());
    }
    {
        ipc::Writer w;
        w.putU32(0);    // no trees
        w.putU32(kLie); // pairCount
        ipc::CompareRequest req;
        EXPECT_FALSE(ipc::decodeCompareRequest(w.take(), &req).isOk());
    }
    {
        ipc::Writer w;
        w.putU32(kLie); // treeCount
        std::vector<Ast> trees;
        EXPECT_FALSE(ipc::decodeEncodeRequest(w.take(), &trees).isOk());
    }
    {
        ipc::Writer w;
        w.putU32(kLie); // digest pairCount
        std::vector<std::pair<AstDigest, AstDigest>> pairs;
        EXPECT_FALSE(
            ipc::decodeCompareDigestsRequest(w.take(), &pairs).isOk());
    }
    {
        ipc::Writer w;
        w.putU8(1);     // ok reply
        w.putU32(kLie); // probability count
        Result<std::vector<double>> reply = Status::internal("unset");
        EXPECT_FALSE(ipc::decodeCompareReply(w.take(), &reply).isOk());
    }
    {
        // rowCount lie with dim == 0: each claimed row costs zero
        // payload bytes, so only the explicit dim check stops
        // rows(rowCount) from allocating 4 billion empty vectors.
        ipc::Writer w;
        w.putU8(1);
        w.putU32(kLie); // rowCount
        w.putU32(0);    // dim
        Result<std::vector<std::vector<float>>> reply =
            Status::internal("unset");
        EXPECT_FALSE(ipc::decodeEncodeReply(w.take(), &reply).isOk());
    }
    {
        ipc::Writer w;
        w.putU8(1);
        w.putU32(1);    // one row...
        w.putU32(kLie); // ...of 4 billion floats
        Result<std::vector<std::vector<float>>> reply =
            Status::internal("unset");
        EXPECT_FALSE(ipc::decodeEncodeReply(w.take(), &reply).isOk());
    }

    // Legitimate empties still decode: zero trees, zero pairs, zero
    // rows — and an empty-payload ping frame has no decoder at all,
    // covered in FramesRejectCorruption.
    {
        ipc::Writer w;
        w.putU32(0);
        w.putU32(0);
        ipc::CompareRequest req;
        EXPECT_TRUE(ipc::decodeCompareRequest(w.take(), &req).isOk());
        EXPECT_TRUE(req.trees.empty());
        EXPECT_TRUE(req.pairs.empty());
    }
    {
        ipc::Writer w;
        w.putU8(1);
        w.putU32(0); // zero rows
        w.putU32(0); // dim 0 is legal ONLY with zero rows
        Result<std::vector<std::vector<float>>> reply =
            Status::internal("unset");
        EXPECT_TRUE(ipc::decodeEncodeReply(w.take(), &reply).isOk());
        ASSERT_TRUE(reply.isOk());
        EXPECT_TRUE(reply.value().empty());
    }

    // Truncation inside a fixed-width field (u32 cut to 2 bytes)
    // fails cleanly too.
    {
        std::vector<std::uint8_t> torn{0x01, 0x02};
        ipc::CompareRequest req;
        EXPECT_FALSE(ipc::decodeCompareRequest(torn, &req).isOk());
        std::vector<Ast> trees;
        EXPECT_FALSE(ipc::decodeEncodeRequest(torn, &trees).isOk());
    }
}

// ---------------------------------------------------- FaultInjector

TEST(FaultInjector, ParseGrammar)
{
    Result<ipc::FaultSpec> none = ipc::parseFaultSpec("");
    ASSERT_TRUE(none.isOk());
    EXPECT_FALSE(none.value().active());

    Result<ipc::FaultSpec> crash = ipc::parseFaultSpec("crash:3");
    ASSERT_TRUE(crash.isOk());
    EXPECT_EQ(crash.value().kind, ipc::FaultKind::Crash);
    EXPECT_EQ(crash.value().trigger, 3u);

    Result<ipc::FaultSpec> stall =
        ipc::parseFaultSpec("stall:2:500");
    ASSERT_TRUE(stall.isOk());
    EXPECT_EQ(stall.value().kind, ipc::FaultKind::Stall);
    EXPECT_EQ(stall.value().trigger, 2u);
    EXPECT_EQ(stall.value().stallMs, 500u);
    EXPECT_EQ(ipc::parseFaultSpec("stall:1").value().stallMs,
              60000u);

    EXPECT_EQ(ipc::parseFaultSpec("torn:1").value().kind,
              ipc::FaultKind::TornWrite);
    EXPECT_EQ(ipc::parseFaultSpec("eintr:8").value().kind,
              ipc::FaultKind::EintrStorm);

    for (const char* bad :
         {"crash", "crash:", "crash:0", "crash:x", "torn:1:5",
          "flood:3", "crash:3:extra"})
        EXPECT_FALSE(ipc::parseFaultSpec(bad).isOk()) << bad;
}

TEST(FaultInjector, FiresOnNthRequestExactlyOnce)
{
    ipc::FaultInjector faults(
        ipc::parseFaultSpec("crash:3").value());
    EXPECT_EQ(faults.onRequest(), ipc::FaultKind::None);
    EXPECT_EQ(faults.onRequest(), ipc::FaultKind::None);
    EXPECT_EQ(faults.onRequest(), ipc::FaultKind::Crash);
    // One-shot: request 4, 5, ... are clean (a respawned worker is
    // never re-armed, and even this one would not re-fire).
    EXPECT_EQ(faults.onRequest(), ipc::FaultKind::None);
    EXPECT_EQ(faults.requestCount(), 4u);
}

TEST(FaultInjector, EintrStormIsAbsorbedByIoRetries)
{
    // Arming an EINTR storm installs the fd_util interrupt hook;
    // every read/write syscall wrapper must retry transparently.
    ipc::FaultInjector faults(
        ipc::parseFaultSpec("eintr:6").value());
    ipc::installGlobalFaultInjector(&faults);

    int fds[2];
    ASSERT_TRUE(makeSocketPair(fds));
    FdGuard a(fds[0]);
    FdGuard b(fds[1]);
    const char msg[] = "interrupt storm";
    ASSERT_EQ(writeFull(a.get(), msg, sizeof(msg)), IoStatus::Ok);
    char buf[sizeof(msg)] = {0};
    ASSERT_EQ(readFull(b.get(), buf, sizeof(buf)), IoStatus::Ok);
    EXPECT_STREQ(buf, msg);

    ipc::installGlobalFaultInjector(nullptr);
    // The storm budget was actually consumed by the I/O above.
    EXPECT_FALSE(faults.consumeInterrupt());
}

// ---------------------------------------- worker loop (in-process)

TEST(WorkerLoop, ServesPingEncodeCompareOverSocketpair)
{
    Engine reference(tinyOptions());
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(5);
    std::vector<Engine::PairRequest> pairs{{&a, &b}, {&b, &a}};
    std::vector<double> expected =
        reference.compareMany(pairs).value();

    int fds[2];
    ASSERT_TRUE(makeSocketPair(fds));
    FdGuard client(fds[0]);
    Engine workerEngine(tinyModel(), tinyOptions());
    ipc::FaultInjector faults;
    int workerRc = -1;
    std::thread worker([&, fd = fds[1]] {
        workerRc = ipc::runWorkerLoop(fd, workerEngine, faults);
        ::close(fd);
    });

    // Ping echoes the id as a pong.
    ASSERT_TRUE(ipc::writeFrame(client.get(), ipc::MsgType::kPing,
                                77, {}));
    ipc::Frame frame;
    ASSERT_EQ(ipc::readFrame(client.get(), &frame),
              ipc::ReadFrame::Ok);
    EXPECT_EQ(frame.type, ipc::MsgType::kPong);
    EXPECT_EQ(frame.id, 77u);

    // Encode returns one latent row per distinct tree.
    ipc::TreeBatch batch = ipc::makeTreeBatch(pairs);
    ASSERT_TRUE(ipc::writeFrame(
        client.get(), ipc::MsgType::kEncode, 78,
        ipc::encodeEncodeRequest(batch.trees)));
    ASSERT_EQ(ipc::readFrame(client.get(), &frame),
              ipc::ReadFrame::Ok);
    ASSERT_EQ(frame.type, ipc::MsgType::kEncodeReply);
    Result<std::vector<std::vector<float>>> latents =
        Status::internal("unset");
    ASSERT_TRUE(
        ipc::decodeEncodeReply(frame.payload, &latents).isOk());
    ASSERT_TRUE(latents.isOk());
    EXPECT_EQ(latents.value().size(), batch.trees.size());

    // Compare matches the synchronous Engine bitwise.
    ASSERT_TRUE(ipc::writeFrame(
        client.get(), ipc::MsgType::kCompare, 79,
        ipc::encodeCompareRequest(batch)));
    ASSERT_EQ(ipc::readFrame(client.get(), &frame),
              ipc::ReadFrame::Ok);
    ASSERT_EQ(frame.type, ipc::MsgType::kCompareReply);
    Result<std::vector<double>> probs = Status::internal("unset");
    ASSERT_TRUE(
        ipc::decodeCompareReply(frame.payload, &probs).isOk());
    ASSERT_TRUE(probs.isOk());
    EXPECT_EQ(probs.value(), expected);

    // kShutdown drains the loop with exit code 0.
    ASSERT_TRUE(ipc::writeFrame(client.get(),
                                ipc::MsgType::kShutdown, 80, {}));
    worker.join();
    EXPECT_EQ(workerRc, 0);
}

TEST(WorkerLoop, StallFaultDelaysTheNthReply)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);
    std::vector<Engine::PairRequest> pairs{{&a, &b}};
    ipc::TreeBatch batch = ipc::makeTreeBatch(pairs);

    int fds[2];
    ASSERT_TRUE(makeSocketPair(fds));
    FdGuard client(fds[0]);
    Engine workerEngine(tinyModel(), tinyOptions());
    ipc::FaultInjector faults(
        ipc::parseFaultSpec("stall:1:80").value());
    std::thread worker([&, fd = fds[1]] {
        ipc::runWorkerLoop(fd, workerEngine, faults);
        ::close(fd);
    });

    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(ipc::writeFrame(
        client.get(), ipc::MsgType::kCompare, 1,
        ipc::encodeCompareRequest(batch)));
    ipc::Frame frame;
    ASSERT_EQ(ipc::readFrame(client.get(), &frame),
              ipc::ReadFrame::Ok);
    auto elapsed = std::chrono::steady_clock::now() - start;
    // This is what the parent's RPC deadline fires on for real
    // hangs; in-process we just pin that the stall happened.
    EXPECT_GE(elapsed, 80ms);

    client.reset(); // EOF ends the loop
    worker.join();
}

// -------------------------------------------- ProcessShardedServer

TEST(ProcessShardedServer, CompareMatchesSynchronousEngineBitwise)
{
    Engine reference(tinyOptions());
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(5);
    double expected = reference.compare(a, b).value();

    for (std::size_t shards : {1u, 2u, 4u}) {
        ProcessShardedServer server(tinyModel(), ipcOptions(shards));
        Result<double> got = server.submitCompare(a, b).get();
        ASSERT_TRUE(got.isOk()) << "shards=" << shards << ": "
                                << got.status().toString();
        EXPECT_EQ(got.value(), expected) << "shards=" << shards;
    }
}

TEST(ProcessShardedServer, SplitJoinAndRankParity)
{
    Engine reference(tinyOptions());
    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    std::vector<const Ast*> candidates;
    for (std::size_t i = 0; i < trees.size(); ++i) {
        candidates.push_back(&trees[i]);
        for (std::size_t j = 0; j < trees.size(); ++j)
            if (i != j)
                pairs.push_back({&trees[i], &trees[j]});
    }
    std::vector<double> expected =
        reference.compareMany(pairs).value();

    ProcessShardedServer server(tinyModel(), ipcOptions(2));
    auto got = server.submitCompareMany(pairs).get();
    ASSERT_TRUE(got.isOk()) << got.status().toString();
    ASSERT_EQ(got.value().size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k)
        EXPECT_EQ(got.value()[k], expected[k]) << "pair " << k;

    // submitRank rides the same split/join machinery.
    auto ranked = server.submitRank(candidates).get();
    ASSERT_TRUE(ranked.isOk());
    std::vector<Engine::RankedCandidate> expectedRank =
        Engine::aggregateTournament(
            candidates.size(),
            reference
                .compareMany(Engine::tournamentPairs(candidates))
                .value());
    ASSERT_EQ(ranked.value().size(), expectedRank.size());
    for (std::size_t k = 0; k < expectedRank.size(); ++k) {
        EXPECT_EQ(ranked.value()[k].index, expectedRank[k].index);
        EXPECT_EQ(ranked.value()[k].meanProbFaster,
                  expectedRank[k].meanProbFaster);
    }
}

TEST(ProcessShardedServer, ServesOneModelNamedModelAndRefusesOthers)
{
    ProcessShardedServer server(tinyModel(), ipcOptions(1));
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(3);
    auto named =
        server.submitCompare(SubmitOptions().withModel("model"), a, b)
            .get();
    ASSERT_TRUE(named.isOk()) << named.status().toString();
    auto unknown =
        server.submitCompare(SubmitOptions().withModel("nope"), a, b)
            .get();
    ASSERT_FALSE(unknown.isOk());
    EXPECT_EQ(unknown.status().code(), StatusCode::InvalidArgument);
    // The caches live in the worker processes, so the backend lists
    // no per-model cache rows.
    EXPECT_TRUE(server.stats().aggregate.models.empty());
}

TEST(ProcessShardedServer, TracedSlicesLeaveCompleteChains)
{
    std::vector<Ast> trees;
    for (int i = 1; i <= 6; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i < trees.size(); ++i)
        for (std::size_t j = 0; j < trees.size(); ++j)
            if (i != j)
                pairs.push_back({&trees[i], &trees[j]});

    TraceRecorder trace;
    MetricsRegistry registry;
    SloTracker slo(registry);
    slo.setObjective("model", "",
                     SloTracker::Objective()
                         .withLatencyThresholdUs(1)); // all bad
    ProcessShardedServer server(
        tinyModel(), ipcOptions(2).withTrace(&trace).withSlo(&slo));
    ASSERT_TRUE(server.submitCompareMany(pairs).get().isOk());
    for (int k = 0; k < 3; ++k)
        ASSERT_TRUE(
            server.submitCompare(trees[0], trees[1]).get().isOk());
    server.shutdown();

    // One chain per served slice: the split request leaves one per
    // shard it touched, each single compare one more.
    ProcessShardedServerStats stats = server.stats();
    std::uint64_t slices = stats.aggregate.latencyUs.count();
    ASSERT_GE(slices, 4u);
    std::vector<TraceRecorder::Span> spans = trace.spans();
    ASSERT_EQ(spans.size(), slices * kTracePhases);
    std::map<std::uint64_t, std::map<TracePhase, TraceRecorder::Span>>
        chains;
    for (const TraceRecorder::Span& s : spans) {
        EXPECT_LT(s.lane, server.numShards());
        EXPECT_TRUE(chains[s.chain].emplace(s.phase, s).second)
            << "duplicate phase in chain " << s.chain;
    }
    ASSERT_EQ(chains.size(), slices);
    const TracePhase order[] = {TracePhase::Admission,
                                TracePhase::Queue, TracePhase::Coalesce,
                                TracePhase::Encode, TracePhase::Score};
    for (const auto& [chain, phases] : chains) {
        ASSERT_EQ(phases.size(), kTracePhases) << "chain " << chain;
        // The five spans tile the slice's life: each starts where
        // the previous one ended.
        for (std::size_t p = 1; p < kTracePhases; ++p) {
            const TraceRecorder::Span& prev = phases.at(order[p - 1]);
            const TraceRecorder::Span& cur = phases.at(order[p]);
            EXPECT_EQ(cur.startUs, prev.startUs + prev.durUs)
                << "chain " << chain << " phase " << p;
        }
    }

    // SLO accounting rides the same per-slice path: a 1 us
    // threshold makes every slice bad.
    EXPECT_EQ(registry
                  .counter("ccsa_slo_bad_total",
                           {{"model", "model"}, {"tenant", ""}})
                  .value(),
              slices);
}

TEST(ProcessShardedServer, TrySubmitIsAllOrNothingAcrossShardQueues)
{
    // Two trees owned by different workers, so a request over both
    // splits into one slice per shard queue.
    std::vector<Ast> pool;
    for (int i = 1; i <= 8; ++i)
        pool.push_back(tinyProgram(i));
    std::size_t shard0 =
        ShardedEncodingCache::shardOf(digestAst(pool[0]), 2);
    int other = -1;
    for (std::size_t i = 1; i < pool.size(); ++i) {
        if (ShardedEncodingCache::shardOf(digestAst(pool[i]), 2) !=
            shard0) {
            other = static_cast<int>(i);
            break;
        }
    }
    ASSERT_GE(other, 0) << "pool unexpectedly hashed to one shard";
    const Ast& mine = pool[0];
    const Ast& theirs = pool[static_cast<std::size_t>(other)];

    ProcessShardedServer server(tinyModel(), ipcOptions(2)
                                                 .withStartPaused(true)
                                                 .withQueueCapacity(1));
    // Fill shard0's one-slot queue.
    auto first = server.trySubmitCompare(mine, theirs);
    ASSERT_TRUE(first.has_value());
    ProcessShardedServerStats filled = server.stats();
    EXPECT_EQ(filled.shards[shard0].queueDepth, 1u);
    EXPECT_EQ(filled.shards[1 - shard0].queueDepth, 0u);

    // The split request fits the other queue but not shard0's: it is
    // shed whole, leaving no slice stranded in the other queue.
    std::vector<Engine::PairRequest> crossShard{{&mine, &theirs},
                                                {&theirs, &mine}};
    EXPECT_FALSE(server.trySubmitCompareMany(crossShard).has_value());
    ProcessShardedServerStats shed = server.stats();
    EXPECT_EQ(shed.aggregate.queueDepth, 1u);
    EXPECT_EQ(shed.shards[1 - shard0].queueDepth, 0u);
    EXPECT_EQ(shed.aggregate.requestsRejectedShed, 1u);

    // A single pair for the other shard still fits its own queue.
    auto second = server.trySubmitCompare(theirs, mine);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(server.stats().aggregate.queueDepth, 2u);

    // Accepted work is answered once draining starts.
    server.shutdown();
    Engine reference(tinyOptions());
    EXPECT_EQ(first->get().value(),
              reference.compare(mine, theirs).value());
    EXPECT_EQ(second->get().value(),
              reference.compare(theirs, mine).value());
    ProcessShardedServerStats done = server.stats();
    EXPECT_EQ(done.aggregate.requestsCompleted, 2u);
    EXPECT_EQ(done.aggregate.requestsRejected, 1u);
}

TEST(ProcessShardedServer, DeadlineExpiresWhileQueued)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);
    ProcessShardedServer server(
        tinyModel(), ipcOptions(1).withStartPaused(true));
    auto expired = server.submitCompare(
        SubmitOptions().withDeadline(1000us), a, b);
    std::this_thread::sleep_for(50ms);
    server.start();
    Result<double> got = expired.get();
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::DeadlineExceeded);

    // A generous deadline still completes normally.
    auto fine = server.submitCompare(
        SubmitOptions().withDeadline(
            std::chrono::duration_cast<std::chrono::microseconds>(
                30s)),
        a, b);
    EXPECT_TRUE(fine.get().isOk());

    server.shutdown();
    ProcessShardedServerStats stats = server.stats();
    EXPECT_EQ(stats.aggregate.requestsSubmitted, 2u);
    EXPECT_EQ(stats.aggregate.requestsRejectedDeadline, 1u);
    EXPECT_EQ(stats.aggregate.requestsCompleted, 1u);
    // Conservation: submitted == completed + failed + deadline.
    EXPECT_EQ(stats.aggregate.requestsSubmitted,
              stats.aggregate.requestsCompleted +
                  stats.aggregate.requestsFailed +
                  stats.aggregate.requestsRejectedDeadline);
}

TEST(ProcessShardedServer, CrashDuringEncodeRetriesOnFreshWorker)
{
    Engine reference(tinyOptions());
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(3);
    double expected = reference.compare(a, b).value();

    // Requests hit the worker as encode+compare per batch: #1/#2 for
    // the first submit, so crash:3 lands on the SECOND submit's
    // encode. Encode is idempotent — the server must respawn, retry,
    // and answer as if nothing happened.
    ProcessShardedServer server(
        tinyModel(), ipcOptions(1).withFault("crash:3"));
    for (int i = 0; i < 3; ++i) {
        Result<double> got = server.submitCompare(a, b).get();
        ASSERT_TRUE(got.isOk())
            << "submit " << i << ": " << got.status().toString();
        EXPECT_EQ(got.value(), expected) << "submit " << i;
    }
    ProcessShardedServerStats stats = server.stats();
    ASSERT_EQ(stats.health.size(), 1u);
    EXPECT_GE(stats.health[0].restarts, 1u);
    EXPECT_TRUE(stats.health[0].up);
    EXPECT_EQ(stats.aggregate.requestsCompleted, 3u);
    EXPECT_EQ(stats.aggregate.requestsFailed, 0u);
}

TEST(ProcessShardedServer, CrashDuringCompareFailsFastNoRetry)
{
    Engine reference(tinyOptions());
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(3);

    MetricsRegistry registry;
    // crash:2 = the first submit's COMPARE phase: never retried, the
    // future must resolve Unavailable (attributed, not lost, not
    // double-executed).
    ProcessShardedServer server(tinyModel(),
                                ipcOptions(1)
                                    .withFault("crash:2")
                                    .withMetrics(&registry));
    Result<double> first = server.submitCompare(a, b).get();
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(first.status().code(), StatusCode::Unavailable);

    // The respawned (fault-free) worker rejoins and serves.
    Result<double> second = server.submitCompare(a, b).get();
    ASSERT_TRUE(second.isOk()) << second.status().toString();
    EXPECT_EQ(second.value(), reference.compare(a, b).value());

    ProcessShardedServerStats stats = server.stats();
    EXPECT_GE(stats.health[0].restarts, 1u);
    EXPECT_EQ(stats.aggregate.requestsFailed, 1u);
    EXPECT_EQ(stats.aggregate.requestsCompleted, 1u);
    EXPECT_EQ(stats.aggregate.requestsSubmitted,
              stats.aggregate.requestsCompleted +
                  stats.aggregate.requestsFailed +
                  stats.aggregate.requestsRejectedDeadline);

    std::string exposition = registry.expose();
    EXPECT_NE(exposition.find("ccsa_worker_restarts_total{server="
                              "\"ipc\",shard=\"0\"}"),
              std::string::npos);
    EXPECT_NE(exposition.find("ccsa_worker_up"), std::string::npos);
    EXPECT_NE(exposition.find("ccsa_shard_degraded"),
              std::string::npos);
}

TEST(ProcessShardedServer, TornWriteIsTreatedAsCrash)
{
    Engine reference(tinyOptions());
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(4);

    // torn:2 = the first submit's compare reply is cut mid-frame and
    // the worker exits. The parent must fail the batch (never parse
    // the torn bytes) and recover on respawn.
    ProcessShardedServer server(
        tinyModel(), ipcOptions(1).withFault("torn:2"));
    Result<double> first = server.submitCompare(a, b).get();
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(first.status().code(), StatusCode::Unavailable);

    Result<double> second = server.submitCompare(a, b).get();
    ASSERT_TRUE(second.isOk()) << second.status().toString();
    EXPECT_EQ(second.value(), reference.compare(a, b).value());
    EXPECT_GE(server.stats().health[0].restarts, 1u);
}

TEST(ProcessShardedServer, StallTripsRpcDeadline)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(3);

    // The injected stall (10 s) far exceeds the 200 ms RPC deadline:
    // the parent must declare the worker hung, kill it, and answer
    // DeadlineExceeded instead of waiting out the stall.
    ProcessShardedServer server(tinyModel(),
                                ipcOptions(1)
                                    .withFault("stall:1:10000")
                                    .withRpcDeadline(200ms));
    auto start = std::chrono::steady_clock::now();
    Result<double> got = server.submitCompare(a, b).get();
    auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_LT(elapsed, 5s);

    // Hang handling = kill + respawn, same as a crash.
    Result<double> after = server.submitCompare(a, b).get();
    EXPECT_TRUE(after.isOk()) << after.status().toString();
    EXPECT_GE(server.stats().health[0].restarts, 1u);
}

TEST(ProcessShardedServer, Kill9MidBatchUnderLoadLosesNothing)
{
    Engine reference(tinyOptions());
    std::vector<Ast> trees;
    for (int i = 1; i <= 6; ++i)
        trees.push_back(tinyProgram(i));

    // Precompute every producer's requests AND expected values
    // before any thread starts (deterministic schedule).
    constexpr int kProducers = 6;
    constexpr int kRequests = 12;
    using PairList = std::vector<Engine::PairRequest>;
    std::vector<std::vector<PairList>> plans(kProducers);
    std::vector<std::vector<std::vector<double>>> expected(
        kProducers);
    for (int p = 0; p < kProducers; ++p) {
        for (int r = 0; r < kRequests; ++r) {
            PairList pairs;
            for (int k = 0; k < 3; ++k) {
                std::size_t i = (p + r + k) % trees.size();
                std::size_t j = (p + r + 2 * k + 1) % trees.size();
                if (i == j)
                    j = (j + 1) % trees.size();
                pairs.push_back({&trees[i], &trees[j]});
            }
            expected[p].push_back(
                reference.compareMany(pairs).value());
            plans[p].push_back(std::move(pairs));
        }
    }

    ProcessShardedServer server(tinyModel(), ipcOptions(2));
    // Grab a live victim pid before the load starts.
    pid_t victim = server.stats().health[0].pid;
    ASSERT_GT(victim, 0);

    std::atomic<int> resolved{0};
    std::atomic<int> valueMismatches{0};
    std::atomic<int> okCount{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int r = 0; r < kRequests; ++r) {
                Result<std::vector<double>> got =
                    server.submitCompareMany(plans[p][r]).get();
                resolved++;
                if (got.isOk()) {
                    okCount++;
                    // Any answered request must carry the sync
                    // Engine's exact values — crash recovery must
                    // never degrade to approximately-right.
                    if (got.value() != expected[p][r])
                        valueMismatches++;
                } else {
                    // Attributed failure, never a hang or a loss.
                    StatusCode code = got.status().code();
                    if (code != StatusCode::Unavailable &&
                        code != StatusCode::DeadlineExceeded)
                        valueMismatches++;
                }
            }
        });
    }
    std::this_thread::sleep_for(30ms); // mid-load
    ASSERT_EQ(::kill(victim, SIGKILL), 0);
    for (std::thread& t : producers)
        t.join();

    // EVERY submitted request resolved.
    EXPECT_EQ(resolved.load(), kProducers * kRequests);
    EXPECT_EQ(valueMismatches.load(), 0);
    // The kill can only fail batches in flight on one shard; the
    // bulk of the run must still have been served.
    EXPECT_GT(okCount.load(), 0);

    // The respawned worker rejoined: a full-parity sweep succeeds.
    std::vector<Engine::PairRequest> sweep;
    for (std::size_t i = 0; i < trees.size(); ++i)
        for (std::size_t j = 0; j < trees.size(); ++j)
            if (i != j)
                sweep.push_back({&trees[i], &trees[j]});
    std::vector<double> sweepExpected =
        reference.compareMany(sweep).value();
    auto after = server.submitCompareMany(sweep).get();
    ASSERT_TRUE(after.isOk()) << after.status().toString();
    EXPECT_EQ(after.value(), sweepExpected);

    server.shutdown();
    ProcessShardedServerStats stats = server.stats();
    std::uint64_t restarts = 0;
    for (const WorkerHealth& h : stats.health)
        restarts += h.restarts;
    EXPECT_GE(restarts, 1u);
    EXPECT_EQ(stats.aggregate.requestsSubmitted,
              stats.aggregate.requestsCompleted +
                  stats.aggregate.requestsFailed +
                  stats.aggregate.requestsRejectedDeadline);
}

TEST(ProcessShardedServer, UnspawnableWorkerOpensBreaker)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);
    ProcessShardedServer server(
        tinyModel(),
        ipcOptions(1)
            .withWorkerPath("/nonexistent/ccsa_worker")
            .withBackoff(1ms, 5ms)
            .withBreaker(2, 10s, 10s)
            .withHeartbeatInterval(5ms));

    // The eager spawn fails, the supervisor's retry fails, and two
    // failures inside the window open the breaker.
    bool degraded = false;
    for (int i = 0; i < 400 && !degraded; ++i) {
        std::this_thread::sleep_for(5ms);
        degraded = server.stats().health[0].degraded;
    }
    EXPECT_TRUE(degraded);
    EXPECT_FALSE(server.stats().health[0].up);

    // An open breaker fails fast with an attributed status; the
    // request is answered, not stranded.
    Result<double> got = server.submitCompare(a, b).get();
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::Unavailable);
}

TEST(ProcessShardedServer, ShutdownDrainsAcceptedRequests)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(3);
    ProcessShardedServer server(
        tinyModel(), ipcOptions(2).withStartPaused(true));
    std::vector<std::future<Result<double>>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(server.submitCompare(a, b));
    // Never started — shutdown must still answer everything it
    // accepted (drain, not shed).
    server.shutdown();
    for (auto& f : futures)
        EXPECT_TRUE(f.get().isOk());
    EXPECT_TRUE(server.isShutdown());
    // And submits after shutdown resolve Unavailable immediately.
    Result<double> late = server.submitCompare(a, b).get();
    ASSERT_FALSE(late.isOk());
    EXPECT_EQ(late.status().code(), StatusCode::Unavailable);
}

} // namespace
} // namespace ccsa

// The fault-tolerant coordinator (src/coord): lease state-machine unit
// tests driven by a fake clock (expiry, backoff, retry caps, straggler
// hedging, duplicate completion), wire-framing round trips, fault-plan
// parsing, a worker against a scripted coordinator (wait replies, wire
// timings, each wire fault at its frame ordinal, no ordinal spent on a
// closed connection, a healed partition, a finished lease's report resent
// on every connection until it is settled), and the end-to-end acceptance
// bar — a coordinator plus in-process worker threads, with one worker
// crashing mid-shard and one stalling past its lease, finishes the audit
// with a report byte-identical to the single-process Fuzzer::audit at
// worker counts {1, 2, 4}
// (docs/ARCHITECTURE.md "Coordinator") — plus the poison-unit quarantine
// path: a permanently failed shard is salvaged, its blamed unit re-run
// in-process under tightened budgets, and the remainder split and re-issued,
// and a short lease whose holder is kept alive by the derived heartbeat.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "common/rng.h"
#include "coord/coordinator.h"
#include "coord/fault.h"
#include "coord/protocol.h"
#include "coord/queue.h"
#include "coord/worker.h"
#include "core/fuzzer.h"
#include "helpers.h"
#include "shard/manifest.h"
#include "shard/merger.h"
#include "shard/records.h"
#include "workloads/npbench.h"

namespace ff {
namespace {

namespace fs = std::filesystem;
using ff::testing::scratch_dir;

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// filename -> bytes of every regular file in `dir`.
std::map<std::string, std::string> dir_contents(const std::string& dir) {
    std::map<std::string, std::string> out;
    if (!fs::exists(dir)) return out;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.is_regular_file())
            out[entry.path().filename().string()] = read_file(entry.path().string());
    return out;
}

shard::JobSpec gemm_job(int trials = 8) {
    shard::JobSpec job;
    job.workload = "gemm";
    job.passes = "table2";
    job.max_trials = trials;
    job.size_max = 5;
    job.max_state_transitions = 2000;
    job.defaults = workloads::npbench_defaults();
    return job;
}

// --- FaultPlan ---------------------------------------------------------------

TEST(FaultPlan, ParsesSpecsAndDescribesThem) {
    coord::FaultPlan none = coord::FaultPlan::parse("");
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(none.describe(), "none");

    coord::FaultPlan plan = coord::FaultPlan::parse("kill-after-units=3,drop-heartbeats");
    EXPECT_EQ(plan.kill_after_units, 3);
    EXPECT_TRUE(plan.drop_heartbeats);
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.describe(), "kill-after-units=3,drop-heartbeats");

    coord::FaultPlan stall = coord::FaultPlan::parse("delay-lease-ms=500");
    EXPECT_DOUBLE_EQ(stall.delay_lease_ms, 500.0);
    EXPECT_EQ(coord::FaultPlan::parse("abandon-after-units=2").abandon_after_units, 2);

    // The poison-unit faults: the worker keeps heartbeating but stops making
    // durable progress (spin) or allocates without bound (hog).
    coord::FaultPlan poison =
        coord::FaultPlan::parse("spin-after-units=2,hog-memory-after-units=5");
    EXPECT_EQ(poison.spin_after_units, 2);
    EXPECT_EQ(poison.hog_memory_after_units, 5);
    EXPECT_FALSE(poison.empty());
    EXPECT_EQ(poison.describe(), "spin-after-units=2,hog-memory-after-units=5");

    // The wire faults, and a disconnect that heals only after a partition.
    coord::FaultPlan wire = coord::FaultPlan::parse(
        "drop-frame-every-n=7,delay-frame-ms=5,duplicate-frame=4,"
        "corrupt-frame-byte=9,disconnect-after-units=3,heal-ms=250");
    EXPECT_EQ(wire.drop_frame_every_n, 7);
    EXPECT_DOUBLE_EQ(wire.delay_frame_ms, 5.0);
    EXPECT_EQ(wire.duplicate_frame_every_n, 4);
    EXPECT_EQ(wire.corrupt_frame_byte, 9);
    EXPECT_EQ(wire.disconnect_after_units, 3);
    EXPECT_DOUBLE_EQ(wire.heal_ms, 250.0);
    EXPECT_TRUE(wire.frame_faults());
    EXPECT_FALSE(wire.empty());
    EXPECT_EQ(wire.describe(),
              "disconnect-after-units=3,heal-ms=250,drop-frame-every-n=7,delay-frame-ms=5,"
              "duplicate-frame=4,corrupt-frame-byte=9");
    EXPECT_FALSE(coord::FaultPlan::parse("disconnect-after-units=3").frame_faults());

    EXPECT_THROW(coord::FaultPlan::parse("explode"), common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("kill-after-units=soon"), common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("drop-heartbeats=yes"), common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("spin-after-units=never"), common::Error);
    // drop-frame-every-n=1 would drop every hello and wedge the handshake.
    EXPECT_THROW(coord::FaultPlan::parse("drop-frame-every-n=1"), common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("delay-frame-ms=soon"), common::Error);
    // Millisecond values stay within a day, so no deadline overflows.
    EXPECT_THROW(coord::FaultPlan::parse("disconnect-after-units=1,heal-ms=1e300"),
                 common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("delay-lease-ms=-5"), common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("delay-frame-ms=nan"), common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("sever-the-cable"), common::Error);
    // A heal needs the disconnect it ends.
    EXPECT_THROW(coord::FaultPlan::parse("heal-ms=250"), common::Error);
}

// --- Frame codec -------------------------------------------------------------

/// Appends a u32 big-endian.
void push_u32(std::string& wire, std::uint32_t v) {
    wire.push_back(static_cast<char>((v >> 24) & 0xff));
    wire.push_back(static_cast<char>((v >> 16) & 0xff));
    wire.push_back(static_cast<char>((v >> 8) & 0xff));
    wire.push_back(static_cast<char>(v & 0xff));
}

/// Hand-rolls one v2 frame (length, version byte, payload CRC32C, payload)
/// — an encoder independent of write_frame, so the tests check the layout
/// and not just round-trip consistency.
std::string raw_frame(const std::string& payload, int version) {
    std::string wire;
    push_u32(wire, static_cast<std::uint32_t>(payload.size()));
    wire.push_back(static_cast<char>(version));
    push_u32(wire, common::crc32c(payload));
    wire += payload;
    return wire;
}

std::string frame_bytes(const common::Json& message) {
    return raw_frame(message.dump(), coord::kProtocolVersion);
}

/// The classified kind a decode is expected to fail with.
void expect_frame_error(const std::string& wire, coord::FrameError::Kind kind) {
    coord::FrameBuffer buf;
    buf.append(wire.data(), wire.size());
    try {
        buf.next();
        FAIL() << "expected a FrameError";
    } catch (const coord::FrameError& e) {
        EXPECT_EQ(static_cast<int>(e.kind()), static_cast<int>(kind)) << e.what();
    }
}

TEST(FrameBuffer, ReassemblesArbitrarySplitsAndGluedFrames) {
    common::Json a = common::Json::object();
    a["type"] = "hello";
    a["worker"] = "w0";
    common::Json b = common::Json::object();
    b["type"] = "lease-request";
    const std::string wire = frame_bytes(a) + frame_bytes(b);

    // Feed one byte at a time: frames must pop out exactly at their ends.
    coord::FrameBuffer buf;
    std::vector<common::Json> got;
    for (char c : wire) {
        buf.append(&c, 1);
        while (auto frame = buf.next()) got.push_back(std::move(*frame));
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].dump(), a.dump());
    EXPECT_EQ(got[1].dump(), b.dump());

    // All at once.
    coord::FrameBuffer glued;
    glued.append(wire.data(), wire.size());
    EXPECT_EQ(glued.next()->dump(), a.dump());
    EXPECT_EQ(glued.next()->dump(), b.dump());
    EXPECT_FALSE(glued.next().has_value());
}

TEST(FrameBuffer, RejectsOversizedFrames) {
    coord::FrameBuffer buf;
    const char huge[4] = {0x7f, 0x00, 0x00, 0x00};  // ~2 GiB length prefix
    buf.append(huge, 4);
    EXPECT_THROW(buf.next(), common::Error);
    expect_frame_error(std::string(huge, 4) + std::string(16, '\0'),
                       coord::FrameError::Kind::Oversized);
}

TEST(FrameBuffer, ClassifiesVersionChecksumAndPayloadFailures) {
    common::Json a = common::Json::object();
    a["type"] = "hello";
    a["worker"] = "w0";

    // A flipped payload bit fails the CRC, whether or not the JSON survives.
    std::string flipped = frame_bytes(a);
    flipped[flipped.size() - 3] ^= 0x20;
    expect_frame_error(flipped, coord::FrameError::Kind::BadChecksum);

    // So does a flipped bit in the CRC field itself.
    std::string bad_crc = frame_bytes(a);
    bad_crc[5] ^= 0x01;
    expect_frame_error(bad_crc, coord::FrameError::Kind::BadChecksum);

    // A peer speaking another version is a clean handshake error...
    expect_frame_error(raw_frame(a.dump(), coord::kProtocolVersion + 1),
                       coord::FrameError::Kind::BadVersion);
    // ...including a v1 peer, whose first payload byte '{' lands exactly
    // where v2 expects the version byte.
    std::string v1;
    push_u32(v1, static_cast<std::uint32_t>(a.dump().size()));
    v1 += a.dump();
    expect_frame_error(v1, coord::FrameError::Kind::BadVersion);

    // Checksum-valid bytes that are not JSON: the frame itself is intact,
    // the payload is the problem.
    expect_frame_error(raw_frame("not json", coord::kProtocolVersion),
                       coord::FrameError::Kind::BadPayload);
}

// The property behind "a hostile or flaky wire can never wedge or crash
// the coordinator": ANY byte-level mutation of a recorded frame stream —
// bit flips, truncations, duplicated slices — decodes to some prefix of
// valid frames followed by (at most) one classified FrameError or a
// need-more-bytes state.  Nothing else can escape the decoder.
TEST(FrameBuffer, PropertyRandomStreamMutationsAlwaysClassify) {
    common::Json a = common::Json::object();
    a["type"] = "hello";
    a["worker"] = "w0";
    a["session"] = "w0/123.0";
    common::Json b = common::Json::object();
    b["type"] = "heartbeat";
    b["shard"] = 3;
    b["units"] = 17;
    common::Json c = common::Json::object();
    c["type"] = "complete";
    c["attempt"] = 1;
    const std::vector<std::string> dumps = {a.dump(), b.dump(), c.dump()};
    const std::string clean = frame_bytes(a) + frame_bytes(b) + frame_bytes(c);

    common::Rng rng(20260809);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string wire = clean;
        switch (rng.uniform_int(0, 2)) {
            case 0: {  // flip one random bit
                const auto at = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
                wire[at] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
                break;
            }
            case 1: {  // truncate at a random point (torn stream)
                wire.resize(static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1)));
                break;
            }
            default: {  // duplicate a random slice in place
                const auto at = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
                const auto len = static_cast<std::size_t>(
                    rng.uniform_int(1, static_cast<std::int64_t>(wire.size() - at)));
                wire.insert(at, wire.substr(at, len));
                break;
            }
        }

        coord::FrameBuffer buf;
        std::size_t pos = 0;
        int decoded = 0;
        bool errored = false;
        try {
            while (pos < wire.size()) {  // feed in random-sized chunks
                const auto chunk = static_cast<std::size_t>(rng.uniform_int(
                    1, std::min<std::int64_t>(9, static_cast<std::int64_t>(wire.size() - pos))));
                buf.append(wire.data() + pos, chunk);
                pos += chunk;
                while (auto frame = buf.next()) {
                    // Whatever survives the CRC is one of the real frames
                    // (possibly a duplicated one), never reassembled garbage.
                    const std::string dump = frame->dump();
                    EXPECT_NE(std::find(dumps.begin(), dumps.end(), dump), dumps.end())
                        << "iter " << iter << " decoded a frame nobody sent: " << dump;
                    ++decoded;
                    ASSERT_LE(decoded, 7) << "iter " << iter << ": runaway decode";
                }
            }
        } catch (const coord::FrameError&) {
            errored = true;  // classified — the receiver drops the connection
        }
        // No other exception type may escape (anything else would fail the
        // test), and the loop above terminates by construction: never UB,
        // never a wedge.
        (void)errored;
    }
}

// --- Endpoint ----------------------------------------------------------------

TEST(Endpoint, ParsesTcpAddressesAndRejectsMalformedOnes) {
    const coord::Endpoint ep = coord::Endpoint::parse_tcp("127.0.0.1:7643");
    EXPECT_TRUE(ep.tcp);
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 7643);
    EXPECT_EQ(ep.describe(), "127.0.0.1:7643");

    EXPECT_EQ(coord::Endpoint::parse_tcp(":7643").host, "");  // all interfaces
    EXPECT_EQ(coord::Endpoint::parse_tcp("audit-box:0").port, 0);

    EXPECT_THROW(coord::Endpoint::parse_tcp("no-port-here"), common::Error);
    EXPECT_THROW(coord::Endpoint::parse_tcp("host:"), common::Error);
    EXPECT_THROW(coord::Endpoint::parse_tcp("host:unreal"), common::Error);
    EXPECT_THROW(coord::Endpoint::parse_tcp("host:70000"), common::Error);

    const coord::Endpoint unix_ep = coord::Endpoint::unix_path("/tmp/x.sock");
    EXPECT_FALSE(unix_ep.tcp);
    EXPECT_EQ(unix_ep.describe(), "/tmp/x.sock");
}

// --- LeaseQueue (fake clock) -------------------------------------------------

coord::TimePoint at_ms(double ms) {
    return coord::TimePoint{} +
           std::chrono::duration_cast<coord::TimePoint::duration>(
               std::chrono::duration<double, std::milli>(ms));
}

/// Two trivial manifests (the queue never looks inside them).
std::vector<shard::ShardManifest> toy_shards(int count, std::int64_t units_each = 4) {
    std::vector<shard::ShardManifest> shards;
    for (int i = 0; i < count; ++i) {
        shard::ShardManifest m;
        m.job = gemm_job(4);
        m.shard_index = i;
        m.shard_count = count;
        m.unit_begin = i * units_each;
        m.unit_end = (i + 1) * units_each;
        m.instance_count = count;
        shards.push_back(m);
    }
    return shards;
}

/// A 1000 ms lease: re-issue after 200, 400, 800, then 1000 ms, hedge at
/// 3000 ms.
coord::LeaseConfig toy_lease() {
    coord::LeaseConfig lease;
    lease.lease_ms = 1000.0;
    lease.max_failures = 3;
    return lease;
}

TEST(LeaseQueue, EveryTimingDerivesFromTheLease) {
    const coord::LeaseConfig lease = toy_lease();
    EXPECT_DOUBLE_EQ(lease.heartbeat_ms(), 250.0);
    EXPECT_DOUBLE_EQ(lease.hedge_age_ms(), 3000.0);
    const double delays[] = {200.0, 400.0, 800.0, 1000.0, 1000.0};
    for (int loss = 1; loss <= 5; ++loss)
        EXPECT_DOUBLE_EQ(lease.reissue_delay_ms(loss), delays[loss - 1]) << loss;
    EXPECT_DOUBLE_EQ(lease.reissue_delay_ms(1 << 20), 1000.0);  // no overflow past the cap
    // A lease shorter than the first delay caps even that one.
    coord::LeaseConfig tiny;
    tiny.lease_ms = 80.0;
    EXPECT_DOUBLE_EQ(tiny.reissue_delay_ms(1), 80.0);
    EXPECT_DOUBLE_EQ(tiny.heartbeat_ms(), 20.0);
}

TEST(LeaseQueue, GrantsShardsInOrderThenRunsDry) {
    coord::LeaseQueue queue(toy_shards(2), toy_lease());
    auto l0 = queue.acquire("a", at_ms(0));
    auto l1 = queue.acquire("b", at_ms(0));
    ASSERT_TRUE(l0 && l1);
    EXPECT_EQ(l0->shard, 0);
    EXPECT_EQ(l0->attempt, 0);
    EXPECT_EQ(l1->shard, 1);
    EXPECT_FALSE(l0->hedge);
    // Nothing grantable until a lease ages into hedge eligibility.
    EXPECT_FALSE(queue.acquire("c", at_ms(0)).has_value());
    EXPECT_EQ(queue.stats().granted, 2);
}

TEST(LeaseQueue, ExpiryRequeuesBehindBackoffAndHeartbeatPrevents) {
    coord::LeaseQueue queue(toy_shards(1), toy_lease());
    ASSERT_TRUE(queue.acquire("a", at_ms(0)));

    // A heartbeat at 900 pushes the deadline to 1900.
    EXPECT_TRUE(queue.heartbeat(0, 0, at_ms(900)));
    EXPECT_TRUE(queue.expire(at_ms(1500)).empty());

    auto lost = queue.expire(at_ms(1901));
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lost[0].shard, 0);
    EXPECT_EQ(lost[0].worker, "a");
    EXPECT_EQ(queue.state(0), coord::ShardState::Pending);
    EXPECT_EQ(queue.stats().expirations, 1);
    EXPECT_EQ(queue.stats().requeues, 1);

    // The re-issue waits out the first backoff delay (200 ms, no jitter).
    EXPECT_FALSE(queue.acquire("b", at_ms(1950)).has_value());
    auto next = queue.next_event_ms(at_ms(1950));
    ASSERT_TRUE(next.has_value());
    EXPECT_NEAR(*next, 151.0, 1.5);
    EXPECT_FALSE(queue.acquire("b", at_ms(2100)).has_value());
    auto retry = queue.acquire("b", at_ms(2102));
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->attempt, 1);

    // Heartbeats from the expired attempt are stale no-ops.
    EXPECT_FALSE(queue.heartbeat(0, 0, at_ms(2105)));
}

TEST(LeaseQueue, RetryCapFailsShardAndLateCompletionRescuesIt) {
    coord::LeaseConfig lease = toy_lease();
    lease.max_failures = 2;
    coord::LeaseQueue queue(toy_shards(1), lease);

    ASSERT_TRUE(queue.acquire("a", at_ms(0)));
    ASSERT_EQ(queue.expire(at_ms(1001)).size(), 1u);
    ASSERT_TRUE(queue.acquire("a", at_ms(1201)));
    ASSERT_EQ(queue.expire(at_ms(2500)).size(), 1u);

    EXPECT_EQ(queue.state(0), coord::ShardState::Failed);
    EXPECT_EQ(queue.stats().shards_failed, 1);
    EXPECT_FALSE(queue.acquire("b", at_ms(3000)).has_value());
    EXPECT_FALSE(queue.all_done());

    // A zombie attempt finishing anyway still rescues the shard.
    EXPECT_TRUE(queue.complete(0, 1));
    EXPECT_EQ(queue.state(0), coord::ShardState::Done);
    EXPECT_EQ(queue.stats().shards_failed, 0);
    EXPECT_TRUE(queue.all_done());
}

TEST(LeaseQueue, WorkerLossRequeuesItsLeasesImmediately) {
    coord::LeaseQueue queue(toy_shards(2), toy_lease());
    ASSERT_TRUE(queue.acquire("a", at_ms(0)));
    ASSERT_TRUE(queue.acquire("b", at_ms(0)));

    auto lost = queue.worker_lost("a", at_ms(100));
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lost[0].shard, 0);
    EXPECT_EQ(queue.state(0), coord::ShardState::Pending);
    EXPECT_EQ(queue.state(1), coord::ShardState::Leased);
    EXPECT_NE(queue.last_error(0).find("terminated"), std::string::npos);
}

TEST(LeaseQueue, ReportedFailureRequeuesWithTheError) {
    coord::LeaseQueue queue(toy_shards(1), toy_lease());
    ASSERT_TRUE(queue.acquire("a", at_ms(0)));
    queue.fail(0, 0, at_ms(50), "interpreter budget exceeded");
    EXPECT_EQ(queue.state(0), coord::ShardState::Pending);
    EXPECT_EQ(queue.stats().worker_failures, 1);
    EXPECT_EQ(queue.last_error(0), "interpreter budget exceeded");
    // Stale failure reports (unknown attempt) are ignored.
    queue.fail(0, 7, at_ms(60), "ghost");
    EXPECT_EQ(queue.stats().worker_failures, 1);
}

TEST(LeaseQueue, HedgesTheStragglerAndFirstCompletionWins) {
    coord::LeaseQueue queue(toy_shards(1), toy_lease());  // straggler after 3000 ms
    ASSERT_TRUE(queue.acquire("slow", at_ms(0)));

    // Keep the straggler's lease alive; no hedge before the threshold.
    EXPECT_TRUE(queue.heartbeat(0, 0, at_ms(2500)));
    EXPECT_FALSE(queue.acquire("idle", at_ms(2999)).has_value());

    auto hedge = queue.acquire("idle", at_ms(3001));
    ASSERT_TRUE(hedge.has_value());
    EXPECT_EQ(hedge->shard, 0);
    EXPECT_EQ(hedge->attempt, 1);
    EXPECT_TRUE(hedge->hedge);
    EXPECT_EQ(queue.stats().hedges, 1);
    // The attempt cap (2) blocks a third concurrent attempt.
    EXPECT_FALSE(queue.acquire("eager", at_ms(9000)).has_value());

    // First completion wins; the loser's is a duplicate to byte-verify.
    EXPECT_TRUE(queue.complete(0, 1));
    EXPECT_FALSE(queue.complete(0, 0));
    EXPECT_EQ(queue.stats().completions, 1);
    EXPECT_EQ(queue.stats().duplicate_completions, 1);
    EXPECT_TRUE(queue.all_done());
    EXPECT_EQ(queue.active_attempts(), 0);
}

TEST(LeaseQueue, RepeatOfTheWinningCompletionIsNoDuplicate) {
    coord::LeaseQueue queue(toy_shards(1), toy_lease());
    ASSERT_TRUE(queue.acquire("slow", at_ms(0)));
    EXPECT_FALSE(queue.winner(0).has_value());
    ASSERT_TRUE(queue.acquire("idle", at_ms(3001)));  // a hedge: attempt 1

    EXPECT_TRUE(queue.complete(0, 1));
    EXPECT_EQ(queue.winner(0), 1);
    // The winner's completion again (a duplicated frame, or a report re-sent
    // after its ack was lost) is neither a first completion nor a duplicate.
    EXPECT_FALSE(queue.complete(0, 1));
    EXPECT_EQ(queue.stats().duplicate_completions, 0);
    // The losing hedge's completion is.
    EXPECT_FALSE(queue.complete(0, 0));
    EXPECT_EQ(queue.stats().duplicate_completions, 1);
    EXPECT_EQ(queue.stats().completions, 1);
    EXPECT_EQ(queue.winner(0), 1);

    // A shard resolved without an attempt (quarantine) has no winner.
    coord::LeaseQueue resolved(toy_shards(1), toy_lease());
    EXPECT_TRUE(resolved.complete(0, -1));
    EXPECT_FALSE(resolved.winner(0).has_value());
    EXPECT_FALSE(resolved.complete(0, 0));
    EXPECT_EQ(resolved.stats().duplicate_completions, 1);
}

TEST(LeaseQueue, AddShardMidRunStartsCleanAndGrantable) {
    coord::LeaseConfig lease = toy_lease();
    lease.max_failures = 1;
    coord::LeaseQueue queue(toy_shards(1), lease);
    ASSERT_TRUE(queue.acquire("a", at_ms(0)));
    ASSERT_EQ(queue.expire(at_ms(1001)).size(), 1u);
    ASSERT_EQ(queue.state(0), coord::ShardState::Failed);

    // The quarantine path resolves the failed shard (complete is accepted in
    // any state) and re-issues its remainder as a fresh shard.
    EXPECT_TRUE(queue.complete(0, 0));
    EXPECT_EQ(queue.stats().shards_failed, 0);
    shard::ShardManifest sub = toy_shards(1)[0];
    sub.unit_begin = 2;
    sub.unit_end = 4;
    const int idx = queue.add_shard(sub);
    EXPECT_EQ(idx, 1);
    EXPECT_EQ(queue.shard_count(), 2);
    EXPECT_FALSE(queue.all_done());
    EXPECT_EQ(queue.state(idx), coord::ShardState::Pending);

    // Immediately grantable: clean failure count, no backoff gate, and the
    // manifest carried through verbatim.
    auto retry = queue.acquire("b", at_ms(1002));
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->shard, idx);
    EXPECT_EQ(retry->attempt, 0);
    EXPECT_EQ(retry->manifest.unit_begin, 2);
    EXPECT_EQ(retry->manifest.unit_end, 4);
    EXPECT_TRUE(queue.complete(idx, 0));
    EXPECT_TRUE(queue.all_done());
}

TEST(LeaseQueue, NextEventTracksDeadlinesAndBackoffGates) {
    coord::LeaseQueue queue(toy_shards(1), toy_lease());
    // Fresh pending shard: nothing scheduled, the caller polls at its pace.
    EXPECT_FALSE(queue.next_event_ms(at_ms(0)).has_value());
    ASSERT_TRUE(queue.acquire("a", at_ms(0)));
    // Next event is the lease deadline (1000), not hedge eligibility (3000).
    auto next = queue.next_event_ms(at_ms(400));
    ASSERT_TRUE(next.has_value());
    EXPECT_NEAR(*next, 600.0, 1.5);
}

// --- Worker against a scripted coordinator -----------------------------------
//
// A coordinator played from a script over a real unix socket puts the worker
// in states the real one reaches only by timing (a long wait, a done pushed
// mid-wait, a socket closed mid-wait) and feeds it out-of-range timings.
// The heartbeat interval a welcome or grant advertises is also the worker's
// patience for any reply, so a script that answers at its own pace
// advertises a long one.

/// A heartbeat interval no scripted reply comes close to.
constexpr double kPatientBeatMs = 60000.0;

common::Json message(const std::string& type) {
    common::Json m = common::Json::object();
    m["type"] = type;
    return m;
}

common::Json wait_reply(double retry_ms) {
    common::Json m = message("wait");
    m["retry_ms"] = retry_ms;
    return m;
}

/// Accepts the worker's next connection, waiting up to 5 s.
coord::FramedConn accept_worker(int listen_fd) {
    pollfd pfd{listen_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) != 1) throw common::Error("the worker did not connect");
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) throw common::Error("accept failed");
    return coord::FramedConn(fd);
}

/// Reads the worker's next frame, which must be of `type`.
common::Json expect_frame(coord::FramedConn& conn, const std::string& type) {
    coord::ReadResult r = conn.read(5000);
    if (r.status != coord::ReadStatus::Ok) {
        throw common::Error("expected a '" + type + "' frame, got none");
    }
    const std::string got = common::json_string(r.message, "type");
    if (got != type) throw common::Error("expected a '" + type + "' frame, got '" + got + "'");
    return r.message;
}

/// Answers the worker's hello with a welcome advertising `heartbeat_ms`;
/// returns the hello.
common::Json welcome_worker(coord::FramedConn& conn, bool resumed = false,
                            double heartbeat_ms = kPatientBeatMs) {
    common::Json hello = expect_frame(conn, "hello");
    common::Json welcome = message("welcome");
    welcome["protocol"] = coord::kProtocolVersion;
    welcome["heartbeat_ms"] = heartbeat_ms;
    welcome["resumed"] = resumed;
    conn.write(welcome);
    return hello;
}

/// Reads the worker's heartbeats until its next other frame, which must be
/// of `type`; returns that frame.
common::Json expect_frame_after_beats(coord::FramedConn& conn, const std::string& type) {
    while (true) {
        coord::ReadResult r = conn.read(30000);
        if (r.status != coord::ReadStatus::Ok) {
            throw common::Error("expected a '" + type + "' frame, got none");
        }
        const std::string got = common::json_string(r.message, "type");
        if (got == type) return r.message;
        if (got != "heartbeat") {
            throw common::Error("expected a '" + type + "' frame, got '" + got + "'");
        }
    }
}

/// Waits up to 5 s for the worker to close its end.
void expect_worker_left(coord::FramedConn& conn) {
    coord::ReadResult r = conn.read(5000);
    if (r.status == coord::ReadStatus::Ok) {
        throw common::Error("the worker sent '" + common::json_string(r.message, "type") +
                            "' instead of leaving");
    }
    if (r.status == coord::ReadStatus::Timeout) throw common::Error("the worker did not leave");
}

/// Answers the worker's report with the ack that ends the audit, then
/// waits for it to leave.
void ack_done(coord::FramedConn& conn) {
    common::Json ack = message("ack");
    ack["done"] = true;
    conn.write(ack);
    expect_worker_left(conn);
}

struct ScriptedRun {
    coord::WorkerStats stats;
    double seconds = 0.0;  ///< Wall time of run_worker.
};

/// Runs one worker, sabotaged by `fault`, against `script`, which plays the
/// coordinator on the listening socket from its own thread and closes it
/// when done, so a worker that outlives the script fails fast on
/// reconnect.  A failed script step or a worker error is a test failure.
ScriptedRun run_scripted(const std::string& name,
                         const std::function<void(int listen_fd)>& script,
                         const coord::FaultPlan& fault = {}) {
    const std::string path = scratch_dir(name) + "/coord.sock";
    const int listen_fd = coord::listen_endpoint(coord::Endpoint::unix_path(path), 4);
    std::thread coordinator([&] {
        try {
            script(listen_fd);
        } catch (const std::exception& e) {
            ADD_FAILURE() << "scripted coordinator: " << e.what();
        }
        ::close(listen_fd);
    });
    coord::WorkerConfig wc;
    wc.socket_path = path;
    wc.worker_id = "w0";
    wc.max_connect_attempts = 3;
    wc.fault = fault;
    ScriptedRun run;
    const auto start = std::chrono::steady_clock::now();
    try {
        run.stats = coord::run_worker(wc);
    } catch (const std::exception& e) {
        ADD_FAILURE() << "worker: " << e.what();
    }
    run.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    coordinator.join();
    return run;
}

TEST(ScriptedCoordinator, PushedDoneEndsALongWaitAtOnce) {
    const ScriptedRun run = run_scripted("wait_done", [](int listen_fd) {
        coord::FramedConn conn = accept_worker(listen_fd);
        welcome_worker(conn);
        expect_frame(conn, "lease-request");
        conn.write(wait_reply(30000.0));
        conn.write(wait_reply(30000.0));  // a duplicated stray reply
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        conn.write(message("done"));
        expect_worker_left(conn);
    });
    // A worker that slept out its retry would take 30 s per wait.
    EXPECT_LT(run.seconds, 5.0);
    EXPECT_EQ(run.stats.reconnects, 0);
    EXPECT_EQ(run.stats.shards_completed, 0);
}

TEST(ScriptedCoordinator, RetryFromTheWireIsClampedToTheReplyTimeout) {
    const ScriptedRun run = run_scripted("wait_clamp", [](int listen_fd) {
        coord::FramedConn conn = accept_worker(listen_fd);
        welcome_worker(conn, /*resumed=*/false, /*heartbeat_ms=*/300.0);
        expect_frame(conn, "lease-request");
        conn.write(wait_reply(-5.0));  // below the range: re-request at once
        expect_frame(conn, "lease-request");
        // Past any integer millisecond count: the worker waits out its
        // reply timeout, the advertised 300 ms interval, not an overflowed
        // deadline.
        const auto sent = std::chrono::steady_clock::now();
        conn.write(wait_reply(1e300));
        expect_frame(conn, "lease-request");
        EXPECT_GE(std::chrono::steady_clock::now() - sent, std::chrono::milliseconds(250));
        conn.write(message("done"));
        expect_worker_left(conn);
    });
    EXPECT_LT(run.seconds, 5.0);
    EXPECT_EQ(run.stats.reconnects, 0);
}

TEST(ScriptedCoordinator, HeartbeatIntervalFromTheWireIsFloored) {
    const shard::JobSpec job = gemm_job(4);
    const shard::ShardManifest manifest =
        shard::plan_shards(job, shard::load_job_program(job), 1, 2).front();
    const std::string records = scratch_dir("beat_floor_records") + "/lease-s0-a0.jsonl";
    int beats = 0;
    double busy_ms = 0.0;
    const ScriptedRun run = run_scripted("beat_floor", [&](int listen_fd) {
        coord::FramedConn conn = accept_worker(listen_fd);
        welcome_worker(conn);
        expect_frame(conn, "lease-request");
        common::Json grant = message("lease");
        grant["shard"] = 0;
        grant["attempt"] = 0;
        grant["manifest"] = manifest.to_json();
        grant["records_path"] = records;
        grant["resume_candidates"] = common::Json::array();
        grant["heartbeat_ms"] = 0.0;  // unfloored, the beat thread never sleeps
        const auto granted = std::chrono::steady_clock::now();
        conn.write(grant);
        // The ack that ends the audit goes out ahead of the completion: the
        // floored interval is also the worker's reply patience, 20 ms.
        common::Json ack = message("ack");
        ack["done"] = true;
        conn.write(ack);
        while (true) {
            coord::ReadResult r = conn.read(30000);
            if (r.status != coord::ReadStatus::Ok) throw common::Error("no completion");
            const std::string type = common::json_string(r.message, "type");
            if (type == "complete") break;
            if (type != "heartbeat") throw common::Error("unexpected '" + type + "' frame");
            ++beats;
        }
        busy_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                            granted)
                      .count();
        expect_worker_left(conn);
    });
    EXPECT_EQ(run.stats.shards_completed, 1);
    // The beat thread beats at once and then at most once per 20 ms; each
    // durable checkpoint (2 units) adds one progress beat.
    const std::int64_t units = manifest.unit_end - manifest.unit_begin;
    EXPECT_LE(beats, busy_ms / 20.0 + 1 + (units + 1) / 2) << busy_ms << " ms";
}

TEST(ScriptedCoordinator, SalvagedTornCopyIsPublishedAndCompletedToTheGoldenBytes) {
    const std::string golden_path = std::string(FF_GOLDEN_DIR) + "/records-gemm-table2.jsonl";
    const std::string golden = read_file(golden_path);
    const shard::ShardManifest manifest = shard::read_record_file(golden_path).manifest;
    // A prior attempt killed mid-write after its second checkpoint: the
    // durable prefix, a record line, and a torn one.
    std::size_t cut = 0;
    for (int k = 0; k < 2; ++k) cut = golden.find("\"type\":\"checkpoint\"", cut + 1);
    ASSERT_NE(cut, std::string::npos);
    cut = golden.find('\n', cut) + 1;
    const std::size_t next_line = golden.find('\n', cut) + 1;
    const std::string torn = golden.substr(0, next_line) + "{\"rec\":{\"kind\":\"pa";
    const std::string dir = scratch_dir("salvage_sealed_records");
    const std::string prior = dir + "/lease-s0-a0.jsonl";
    const std::string records = dir + "/lease-s0-a1.jsonl";
    std::ofstream(prior, std::ios::binary) << torn;

    const ScriptedRun run = run_scripted("salvage_sealed", [&](int listen_fd) {
        coord::FramedConn conn = accept_worker(listen_fd);
        welcome_worker(conn);
        expect_frame(conn, "lease-request");
        common::Json grant = message("lease");
        grant["shard"] = 0;
        grant["attempt"] = 1;
        grant["manifest"] = manifest.to_json();
        grant["records_path"] = records;
        common::Json candidates = common::Json::array();
        candidates.push_back(prior);
        grant["resume_candidates"] = std::move(candidates);
        grant["heartbeat_ms"] = kPatientBeatMs;
        conn.write(grant);
        expect_frame_after_beats(conn, "complete");
        ack_done(conn);
    });
    EXPECT_EQ(run.stats.salvages, 1);
    EXPECT_EQ(run.stats.shards_completed, 1);
    EXPECT_EQ(read_file(records), golden);
    for (const auto& entry : fs::directory_iterator(dir))
        EXPECT_NE(entry.path().extension(), ".tmp") << entry.path() << " left behind";
}

TEST(ScriptedCoordinator, EofMidWaitReconnectsTheSameSession) {
    const ScriptedRun run = run_scripted("wait_eof", [](int listen_fd) {
        std::string session;
        {
            coord::FramedConn conn = accept_worker(listen_fd);
            session = common::json_string(welcome_worker(conn), "session");
            expect_frame(conn, "lease-request");
            conn.write(wait_reply(30000.0));
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }  // closes the socket mid-wait
        coord::FramedConn conn = accept_worker(listen_fd);
        const common::Json hello = welcome_worker(conn, /*resumed=*/true);
        EXPECT_EQ(common::json_string(hello, "session"), session);
        conn.write(message("done"));
        expect_frame(conn, "lease-request");  // sent right after the welcome
        expect_worker_left(conn);
    });
    EXPECT_LT(run.seconds, 5.0);
    EXPECT_EQ(run.stats.reconnects, 1);
}

/// Plays the wire-fault scripts below up to the worker's third frame, its
/// second lease-request: welcomes the hello (frame 1) advertising
/// `heartbeat_ms`, answers the first request (frame 2) with a wait that
/// re-requests at once.
void script_to_third_frame(coord::FramedConn& conn, double heartbeat_ms = kPatientBeatMs) {
    welcome_worker(conn, /*resumed=*/false, heartbeat_ms);
    expect_frame(conn, "lease-request");
    conn.write(wait_reply(0.0));
}

/// Ends a wire-fault script on a fresh connection: the worker's redialed
/// hello, its lease-request, and the done that sends it home.
void script_reconnected_done(int listen_fd) {
    coord::FramedConn conn = accept_worker(listen_fd);
    welcome_worker(conn, /*resumed=*/true);
    expect_frame(conn, "lease-request");
    conn.write(message("done"));
    expect_worker_left(conn);
}

TEST(ScriptedCoordinator, WireFaultsFireAtTheirFrameOrdinals) {
    // Drop: frame 3 never arrives.  The worker waits out its reply timeout
    // (the advertised 300 ms interval), hangs up and redials; the peer sees
    // the hangup, not the request.
    const ScriptedRun drop = run_scripted(
        "wire_drop",
        [](int listen_fd) {
            {
                coord::FramedConn conn = accept_worker(listen_fd);
                script_to_third_frame(conn, 300.0);
                const coord::ReadResult r = conn.read(5000);
                EXPECT_EQ(r.status, coord::ReadStatus::Closed) << "frame 3 arrived";
            }
            script_reconnected_done(listen_fd);
        },
        coord::FaultPlan::parse("drop-frame-every-n=3"));
    EXPECT_EQ(drop.stats.frames_dropped, 1);
    EXPECT_EQ(drop.stats.reconnects, 1);

    // Duplicate: frame 3 arrives twice.  The worker sends nothing more
    // until a reply, so the second request is the same frame.
    const ScriptedRun duplicate = run_scripted(
        "wire_duplicate",
        [](int listen_fd) {
            coord::FramedConn conn = accept_worker(listen_fd);
            script_to_third_frame(conn);
            expect_frame(conn, "lease-request");
            expect_frame(conn, "lease-request");
            conn.write(message("done"));
            expect_worker_left(conn);
        },
        coord::FaultPlan::parse("duplicate-frame=3"));
    EXPECT_EQ(duplicate.stats.frames_duplicated, 1);
    EXPECT_EQ(duplicate.stats.reconnects, 0);

    // Corrupt: frame 3 fails the peer's CRC check.  The peer hangs up as
    // the coordinator does, and the worker redials.
    const ScriptedRun corrupt = run_scripted(
        "wire_corrupt",
        [](int listen_fd) {
            {
                coord::FramedConn conn = accept_worker(listen_fd);
                script_to_third_frame(conn);
                try {
                    conn.read(5000);
                    ADD_FAILURE() << "frame 3 decoded";
                } catch (const coord::FrameError& e) {
                    EXPECT_EQ(e.kind(), coord::FrameError::Kind::BadChecksum) << e.what();
                }
            }
            script_reconnected_done(listen_fd);
        },
        coord::FaultPlan::parse("corrupt-frame-byte=3"));
    EXPECT_EQ(corrupt.stats.frames_corrupted, 1);
    EXPECT_EQ(corrupt.stats.reconnects, 1);
}

/// A grant of the whole gemm_job(4) as one shard, written to `records`.
common::Json whole_job_grant(const std::string& records) {
    const shard::JobSpec job = gemm_job(4);
    common::Json grant = message("lease");
    grant["shard"] = 0;
    grant["attempt"] = 0;
    grant["manifest"] =
        shard::plan_shards(job, shard::load_job_program(job), 1, 2).front().to_json();
    grant["records_path"] = records;
    grant["resume_candidates"] = common::Json::array();
    grant["heartbeat_ms"] = 100.0;
    return grant;
}

TEST(ScriptedCoordinator, HealedDisconnectRedialsAfterHealWithTheSameSession) {
    const std::string records = scratch_dir("heal_records") + "/lease-s0-a0.jsonl";
    constexpr double kHealMs = 500.0;
    double gap_ms = 0.0;
    const ScriptedRun run = run_scripted(
        "heal",
        [&](int listen_fd) {
            std::string session;
            std::chrono::steady_clock::time_point dropped;
            {
                coord::FramedConn conn = accept_worker(listen_fd);
                session = common::json_string(welcome_worker(conn), "session");
                expect_frame(conn, "lease-request");
                conn.write(whole_job_grant(records));
                // Heartbeats until the disconnect fault hangs up.
                while (true) {
                    coord::ReadResult r = conn.read(30000);
                    if (r.status == coord::ReadStatus::Closed) break;
                    if (r.status != coord::ReadStatus::Ok) throw common::Error("no disconnect");
                    const std::string type = common::json_string(r.message, "type");
                    if (type != "heartbeat") throw common::Error("unexpected '" + type + "'");
                }
                dropped = std::chrono::steady_clock::now();
            }
            coord::FramedConn conn = accept_worker(listen_fd);
            const common::Json hello = welcome_worker(conn, /*resumed=*/true);
            gap_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - dropped)
                         .count();
            EXPECT_EQ(common::json_string(hello, "session"), session);
            expect_frame_after_beats(conn, "complete");
            ack_done(conn);
        },
        coord::FaultPlan::parse("disconnect-after-units=1,heal-ms=" +
                                std::to_string(static_cast<int>(kHealMs))));
    // The worker stamps its heal deadline after hanging up, so the hello
    // trails the hangup by heal-ms, less the moment the peer took to
    // notice the hangup (a few ms at most).
    EXPECT_GE(gap_ms, kHealMs - 25.0);
    EXPECT_TRUE(run.stats.disconnected);
    EXPECT_EQ(run.stats.reconnects, 1);
    EXPECT_EQ(run.stats.shards_completed, 1);
}

TEST(ScriptedCoordinator, FrameOfferedToAClosedConnectionTakesNoOrdinal) {
    // Without heartbeats the worker offers no frame between its hangup and
    // the completion it tries on the closed connection.  That attempt takes
    // no ordinal, so frame 3, the corrupted one, is the redialed hello.
    const std::string records = scratch_dir("closed_ordinal_records") + "/lease-s0-a0.jsonl";
    const ScriptedRun run = run_scripted(
        "closed_ordinal",
        [&](int listen_fd) {
            {
                coord::FramedConn conn = accept_worker(listen_fd);
                welcome_worker(conn);
                expect_frame(conn, "lease-request");
                conn.write(whole_job_grant(records));
                const coord::ReadResult r = conn.read(30000);
                EXPECT_EQ(r.status, coord::ReadStatus::Closed) << "a frame before the hangup";
            }
            {
                coord::FramedConn conn = accept_worker(listen_fd);
                try {
                    conn.read(5000);
                    ADD_FAILURE() << "the redialed hello decoded";
                } catch (const coord::FrameError& e) {
                    EXPECT_EQ(e.kind(), coord::FrameError::Kind::BadChecksum) << e.what();
                }
            }
            coord::FramedConn conn = accept_worker(listen_fd);
            welcome_worker(conn, /*resumed=*/true);
            expect_frame(conn, "complete");
            ack_done(conn);
        },
        coord::FaultPlan::parse("drop-heartbeats,disconnect-after-units=1,corrupt-frame-byte=3"));
    EXPECT_TRUE(run.stats.disconnected);
    EXPECT_EQ(run.stats.frames_corrupted, 1);
    EXPECT_EQ(run.stats.shards_completed, 1);
}

TEST(ScriptedCoordinator, CompletionIsResentFirstOnEveryConnectionUntilAcked) {
    // The coordinator hangs up on the worker's first three completions.  The
    // report stays pending across every redial and goes out right after the
    // hello, ahead of any lease request, until the fourth copy is acked.
    const std::string records = scratch_dir("resend_complete_records") + "/lease-s0-a0.jsonl";
    const ScriptedRun run = run_scripted("resend_complete", [&](int listen_fd) {
        {
            coord::FramedConn conn = accept_worker(listen_fd);
            welcome_worker(conn);
            expect_frame(conn, "lease-request");
            conn.write(whole_job_grant(records));
            expect_frame_after_beats(conn, "complete");
        }
        for (int redial = 1; redial <= 3; ++redial) {
            coord::FramedConn conn = accept_worker(listen_fd);
            welcome_worker(conn, /*resumed=*/true);
            expect_frame(conn, "complete");
            if (redial == 3) ack_done(conn);
        }
    });
    EXPECT_EQ(run.stats.reconnects, 3);
    EXPECT_EQ(run.stats.shards_completed, 1);
}

TEST(ScriptedCoordinator, FailureIsResentOnTheRedialedConnection) {
    // A manifest that miscounts the job's instances makes run_shard throw.
    // The coordinator hangs up on the failure report, and the redialed
    // connection must carry it again: a lost report would leave the shard
    // to expire as "lease expired" instead of naming the worker's error.
    const std::string records = scratch_dir("resend_failed_records") + "/lease-s0-a0.jsonl";
    std::string error;
    const ScriptedRun run = run_scripted("resend_failed", [&](int listen_fd) {
        {
            coord::FramedConn conn = accept_worker(listen_fd);
            welcome_worker(conn);
            expect_frame(conn, "lease-request");
            common::Json grant = whole_job_grant(records);
            grant["manifest"]["instance_count"] =
                common::json_int(grant["manifest"], "instance_count") + 1;
            conn.write(grant);
            error = common::json_string(expect_frame_after_beats(conn, "failed"), "error");
        }
        coord::FramedConn conn = accept_worker(listen_fd);
        welcome_worker(conn, /*resumed=*/true);
        EXPECT_EQ(common::json_string(expect_frame(conn, "failed"), "error"), error);
        ack_done(conn);
    });
    EXPECT_NE(error.find("instances but the manifest says"), std::string::npos) << error;
    EXPECT_EQ(run.stats.shards_failed, 1);
    EXPECT_EQ(run.stats.reconnects, 1);
}

// --- End to end: coordinator + in-process workers ----------------------------

/// The single-process reference: canonical report document + artifacts.
std::string reference_doc(const shard::JobSpec& job, const std::string& artifact_dir) {
    core::FuzzConfig config = shard::job_fuzz_config(job);
    config.num_threads = 2;
    config.artifact_dir = artifact_dir;
    if (!artifact_dir.empty()) fs::create_directories(artifact_dir);
    core::Fuzzer fuzzer(config);
    std::vector<core::FuzzReport> reports =
        fuzzer.audit(shard::load_job_program(job), shard::job_passes(job));
    return shard::canonical_report_document(std::move(reports)).dump(2);
}

struct ClusterResult {
    coord::ServeResult serve;
    std::vector<coord::WorkerStats> workers;
    std::vector<std::string> worker_errors;
};

/// Runs serve() in one thread and each worker in its own thread — the
/// in-process stand-in for a process fleet, where a crash is an abandon
/// fault (socket closed without a word, shard half-written) instead of a
/// SIGKILL.  A worker that abandons is replaced by a fault-free clone,
/// mirroring the coordinator's process-mode respawn.
ClusterResult run_cluster(const coord::CoordConfig& config,
                          std::vector<coord::WorkerConfig> workers) {
    ClusterResult result;
    std::mutex mu;
    std::exception_ptr serve_error;
    std::thread coordinator([&] {
        try {
            result.serve = coord::serve(config);
        } catch (...) {
            serve_error = std::current_exception();
        }
    });
    std::vector<std::thread> threads;
    for (coord::WorkerConfig wc : workers) {
        threads.emplace_back([&, wc]() mutable {
            try {
                coord::WorkerStats stats = coord::run_worker(wc);
                bool abandoned = stats.abandoned;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    result.workers.push_back(stats);
                }
                if (abandoned) {
                    wc.fault = coord::FaultPlan{};
                    wc.worker_id += "-respawn";
                    coord::WorkerStats again = coord::run_worker(wc);
                    std::lock_guard<std::mutex> lock(mu);
                    result.workers.push_back(again);
                }
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(mu);
                result.worker_errors.push_back(e.what());
            }
        });
    }
    for (std::thread& t : threads) t.join();
    coordinator.join();
    if (serve_error) std::rethrow_exception(serve_error);
    return result;
}

coord::CoordConfig cluster_config(const std::string& dir, const shard::JobSpec& job) {
    coord::CoordConfig config;
    config.job = job;
    config.shard_count = 4;
    config.checkpoint_interval = 2;
    config.socket_path = dir + "/coord.sock";
    config.records_dir = dir + "/records";
    config.artifact_dir = dir + "/artifacts";
    config.lease.lease_ms = 600.0;  // beats every 150 ms, hedges at 1800 ms
    config.lease.max_failures = 8;
    config.linger_ms = 8000.0;  // wait for stalled duplicates to land
    return config;
}

coord::WorkerConfig cluster_worker(const coord::CoordConfig& config, int index) {
    coord::WorkerConfig wc;
    wc.socket_path = config.socket_path;
    wc.worker_id = "w" + std::to_string(index);
    wc.num_threads = 1;
    return wc;
}

TEST(CoordEndToEnd, SurvivesCrashAndStallAtWorkerCounts124) {
    const shard::JobSpec job = gemm_job(6);
    const std::string ref_dir = scratch_dir("e2e_ref");
    const std::string want_doc = reference_doc(job, ref_dir + "/artifacts");
    const auto want_artifacts = dir_contents(ref_dir + "/artifacts");
    ASSERT_FALSE(want_artifacts.empty()) << "job produced no reproducer artifacts; "
                                            "the artifact byte-comparison would be vacuous";

    for (int worker_count : {1, 2, 4}) {
        SCOPED_TRACE("worker_count=" + std::to_string(worker_count));
        const std::string dir = scratch_dir("e2e_n" + std::to_string(worker_count));
        coord::CoordConfig config = cluster_config(dir, job);

        std::vector<coord::WorkerConfig> workers;
        for (int i = 0; i < worker_count; ++i) workers.push_back(cluster_worker(config, i));
        // One worker crashes mid-shard (after its first durable
        // checkpoint); one stalls past its lease.  At n=1 the crasher's
        // respawned clone carries the stall, so both faults still happen.
        workers[0].fault = coord::FaultPlan::parse("abandon-after-units=3");
        if (worker_count > 1) {
            workers[1].fault = coord::FaultPlan::parse("delay-lease-ms=2000");
        } else {
            // Single worker: pile the stall onto the same first lease — the
            // delay expires the lease, the abandon then crashes the attempt,
            // and the fault-free respawned clone finishes the audit alone.
            workers[0].fault.delay_lease_ms = 2000.0;
        }

        ClusterResult result = run_cluster(config, workers);
        EXPECT_TRUE(result.worker_errors.empty())
            << "worker error: " << result.worker_errors.front();

        const coord::CoordStats& stats = result.serve.stats;
        EXPECT_EQ(stats.shards_merged, config.shard_count);
        EXPECT_EQ(stats.queue.completions, config.shard_count);
        EXPECT_GE(stats.workers_lost, 1);  // the abandoned connection

        const std::string got_doc =
            shard::canonical_report_document(result.serve.reports).dump(2);
        EXPECT_EQ(got_doc, want_doc);
        EXPECT_EQ(dir_contents(config.artifact_dir), want_artifacts);
    }
}

TEST(CoordEndToEnd, StalledWorkerLosesTheRaceAndItsBytesAreVerified) {
    const shard::JobSpec job = gemm_job(4);
    const std::string ref_dir = scratch_dir("dup_ref");
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("dup");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 1;  // one shard, so both workers race for it
    config.artifact_dir.clear();
    config.lease.lease_ms = 400.0;

    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    workers.push_back(cluster_worker(config, 1));
    // w0 takes the only shard, then sleeps far past its lease without
    // heartbeats; w1 gets the re-issue and completes first; w0's eventual
    // completion must be accepted as a byte-identical duplicate.
    workers[0].fault = coord::FaultPlan::parse("drop-heartbeats,delay-lease-ms=2500");

    // Stagger the start so w0 deterministically leases the shard first.
    ClusterResult result;
    {
        std::mutex mu;
        std::exception_ptr serve_error;
        std::thread coordinator([&] {
            try {
                result.serve = coord::serve(config);
            } catch (...) {
                serve_error = std::current_exception();
            }
        });
        std::thread first([&] {
            try {
                coord::WorkerStats stats = coord::run_worker(workers[0]);
                std::lock_guard<std::mutex> lock(mu);
                result.workers.push_back(stats);
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(mu);
                result.worker_errors.push_back(e.what());
            }
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        std::thread second([&] {
            try {
                coord::WorkerStats stats = coord::run_worker(workers[1]);
                std::lock_guard<std::mutex> lock(mu);
                result.workers.push_back(stats);
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(mu);
                result.worker_errors.push_back(e.what());
            }
        });
        first.join();
        second.join();
        coordinator.join();
        if (serve_error) std::rethrow_exception(serve_error);
    }

    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();
    const coord::CoordStats& stats = result.serve.stats;
    EXPECT_EQ(stats.queue.expirations, 1);
    EXPECT_EQ(stats.queue.completions, 1);
    EXPECT_EQ(stats.queue.duplicate_completions, 1);
    EXPECT_EQ(stats.duplicate_files_verified, 1);
    // Both attempts' record files exist and are byte-identical — the
    // determinism contract, enforced per completion.
    const std::string a0 = read_file(config.records_dir + "/lease-s0-a0.jsonl");
    const std::string a1 = read_file(config.records_dir + "/lease-s0-a1.jsonl");
    EXPECT_EQ(a0, a1);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, PoisonShardIsQuarantinedAndReportStaysByteIdentical) {
    const shard::JobSpec job = gemm_job(6);
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("quarantine");
    coord::CoordConfig config = cluster_config(dir, job);
    config.artifact_dir.clear();
    // One lost attempt is a permanent failure: the crash below routes the
    // shard straight into the quarantine path instead of a clean re-issue.
    config.lease.max_failures = 1;

    // The faulted worker is the only one until its abandon fires, so it
    // surely leases a shard and crashes it; its fault-free clone then
    // drains the rest.
    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    workers[0].fault = coord::FaultPlan::parse("abandon-after-units=3");

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();

    const coord::CoordStats& stats = result.serve.stats;
    EXPECT_EQ(stats.shards_quarantined, 1);
    ASSERT_EQ(stats.quarantined_units.size(), 1u);
    EXPECT_GE(stats.shards_split, 1);
    EXPECT_EQ(stats.queue.shards_failed, 0);  // quarantine resolved it
    // The fault lived in the worker, not the trial: the blamed unit is
    // benign, so its tightened-budget in-process re-run reproduces the
    // record a healthy worker would have written, the split remainder is
    // drained by the fault-free clone, and the finished audit matches the
    // single-process run byte for byte.
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, QuarantinedUnitKeepsItsCoverage) {
    // The blamed unit's record is copied out of the coordinator's side
    // audit; its coverage words must come along, or the report's pairs_hit
    // falls short of the single-process run.
    shard::JobSpec job = gemm_job(6);
    job.coverage = true;
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("quarantine_coverage");
    coord::CoordConfig config = cluster_config(dir, job);
    config.artifact_dir.clear();
    config.shard_count = 1;
    // The abandoned lease expires at its deadline: one loss fails the shard.
    config.lease.max_failures = 1;

    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    // Checkpoints every 2 units: the last durable one is at unit 16, which
    // the quarantine then blames and re-runs in-process.
    workers[0].fault = coord::FaultPlan::parse("abandon-after-units=17");

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();
    ASSERT_EQ(result.serve.stats.quarantined_units.size(), 1u);
    EXPECT_EQ(result.serve.stats.quarantined_units[0], 16);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, ShortLeaseIsBeatAtAQuarterOfItself) {
    // Only the lease is set, well under the fixed 2500 ms heartbeat serve
    // used to advertise whatever the lease, and the one shard outlasts it
    // with no checkpoint inside: only beats at the derived interval keep
    // the healthy holder's lease from expiring mid-shard.  (3000 trials
    // keep the shard at over twice the lease: the test took 1.5-1.7 s on a
    // 4-vCPU host.)
    shard::JobSpec job;
    job.workload = "doitgen";
    job.passes = "correct";
    job.max_trials = 3000;
    job.defaults = workloads::npbench_defaults();
    const std::string dir = scratch_dir("short_lease");
    coord::CoordConfig config;
    config.job = job;
    config.shard_count = 1;
    config.checkpoint_interval = 1 << 30;
    config.socket_path = dir + "/coord.sock";
    config.records_dir = dir + "/records";
    config.lease.lease_ms = 600.0;

    const auto start = std::chrono::steady_clock::now();
    ClusterResult result = run_cluster(config, {cluster_worker(config, 0)});
    const double serve_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();
    // The shard ran for more than one lease, or this proves nothing.
    EXPECT_GT(serve_ms, config.lease.lease_ms);
    const coord::CoordStats& stats = result.serve.stats;
    EXPECT_EQ(stats.queue.expirations, 0);
    EXPECT_EQ(stats.queue.requeues, 0);
    EXPECT_EQ(stats.queue.granted, 1);
    EXPECT_EQ(stats.shards_merged, 1);
}

TEST(CoordEndToEnd, TransportBlipResumesTheSession) {
    const shard::JobSpec job = gemm_job(6);
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("resume");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 2;
    config.artifact_dir.clear();
    // The lease is the whole silence budget: it outlives the blip plus one
    // reply timeout (a quarter lease) of the redial.
    config.lease.lease_ms = 4000.0;

    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    // The connection dies mid-shard (after 3 units) but the worker process
    // survives and keeps executing; its heartbeat thread reconnects with
    // the same session id and resumes beating the SAME attempt.
    workers[0].fault = coord::FaultPlan::parse("disconnect-after-units=3");

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();

    const coord::CoordStats& stats = result.serve.stats;
    EXPECT_GE(stats.sessions_resumed, 1);
    // The lease outlived the broken connection and was never re-issued: no
    // expiration, no second attempt of the interrupted shard.
    EXPECT_EQ(stats.queue.expirations, 0);
    EXPECT_EQ(stats.queue.requeues, 0);
    EXPECT_EQ(stats.workers_seen, 1) << "a resume is not a fresh session";
    EXPECT_EQ(stats.shards_merged, config.shard_count);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, DuplicatedLeaseRequestLeasesOneShardAtATime) {
    const shard::JobSpec job = gemm_job(4);
    const std::string dir = scratch_dir("duplicated_request");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 2;
    config.artifact_dir.clear();

    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    // Frame 2 is the worker's first lease-request: the coordinator reads it
    // twice while the first copy's lease is held.
    workers[0].fault = coord::FaultPlan::parse("duplicate-frame=2");

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();
    ASSERT_EQ(result.workers.size(), 1u);
    EXPECT_GE(result.workers.front().frames_duplicated, 1);

    // The second copy waits: a second grant would sit unrun on this worker
    // until it expired and went out again.
    const coord::CoordStats& stats = result.serve.stats;
    EXPECT_EQ(stats.queue.granted, config.shard_count);
    EXPECT_EQ(stats.queue.expirations, 0);
    EXPECT_EQ(stats.shards_merged, config.shard_count);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2),
              reference_doc(job, ""));
}

TEST(CoordEndToEnd, RepeatedCompletionOfTheWinnerIsAcknowledgedUnread) {
    const shard::JobSpec job = gemm_job(4);
    const std::string dir = scratch_dir("repeated_complete");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 2;
    config.artifact_dir.clear();
    config.lease.lease_ms = 8000.0;  // outlives each shard without heartbeats

    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    // Without heartbeats the worker's frames are hello, lease-request,
    // complete, ...: frame 3, its first completion, reaches the coordinator
    // twice.
    workers[0].fault = coord::FaultPlan::parse("drop-heartbeats,duplicate-frame=3");

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();
    ASSERT_EQ(result.workers.size(), 1u);
    EXPECT_GE(result.workers.front().frames_duplicated, 1);

    // The repeat is acknowledged: not a losing duplicate, and there is no
    // other file to verify against the winner's.
    const coord::CoordStats& stats = result.serve.stats;
    EXPECT_EQ(stats.queue.duplicate_completions, 0);
    EXPECT_EQ(stats.duplicate_files_verified, 0);
    EXPECT_EQ(stats.queue.completions, config.shard_count);
    EXPECT_EQ(stats.shards_merged, config.shard_count);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2),
              reference_doc(job, ""));
}

TEST(CoordEndToEnd, HelloWithoutASessionIsDropped) {
    // A connection without a session could hold a lease no reconnect can
    // resume, so its hello is a protocol error; a normal worker still
    // finishes the audit.
    const shard::JobSpec job = gemm_job(4);
    const std::string dir = scratch_dir("sessionless");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 2;
    config.artifact_dir.clear();

    coord::ServeResult served;
    std::exception_ptr serve_error;
    std::thread coordinator([&] {
        try {
            served = coord::serve(config);
        } catch (...) {
            serve_error = std::current_exception();
        }
    });
    try {
        const coord::Endpoint ep = coord::Endpoint::unix_path(config.socket_path);
        int fd = coord::connect_endpoint(ep);
        for (int tries = 0; fd < 0 && tries < 500; ++tries) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            fd = coord::connect_endpoint(ep);
        }
        coord::FramedConn conn(fd);
        common::Json hello = message("hello");
        hello["worker"] = "anonymous";
        hello["protocol"] = coord::kProtocolVersion;
        conn.write(hello);
        const coord::ReadResult r = conn.read(5000);
        EXPECT_EQ(r.status, coord::ReadStatus::Closed)
            << (r.status == coord::ReadStatus::Ok ? common::json_string(r.message, "type")
                                                   : std::string("timeout"));
    } catch (const std::exception& e) {
        ADD_FAILURE() << "sessionless hello: " << e.what();
    }
    try {
        coord::run_worker(cluster_worker(config, 0));
    } catch (const std::exception& e) {
        ADD_FAILURE() << "worker: " << e.what();
    }
    coordinator.join();
    if (serve_error) std::rethrow_exception(serve_error);
    EXPECT_EQ(served.stats.workers_seen, 1);
    EXPECT_EQ(served.stats.shards_merged, config.shard_count);
    EXPECT_EQ(shard::canonical_report_document(served.reports).dump(2), reference_doc(job, ""));
}

TEST(CoordEndToEnd, TcpTransportMatchesUnixByteForByte) {
    const shard::JobSpec job = gemm_job(4);
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("tcp");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 2;
    config.artifact_dir.clear();
    // Probe a free port, then listen on it for real.  (In-process workers
    // need the address before serve() resolves port 0.)
    int port = 0;
    const int probe = coord::listen_endpoint(coord::Endpoint::parse_tcp("127.0.0.1:0"), 1, &port);
    ::close(probe);
    config.listen_address = "127.0.0.1:" + std::to_string(port);
    config.socket_path.clear();

    std::vector<coord::WorkerConfig> workers;
    for (int i = 0; i < 2; ++i) {
        coord::WorkerConfig wc = cluster_worker(config, i);
        wc.socket_path.clear();
        wc.connect_address = config.listen_address;
        workers.push_back(wc);
    }

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();
    EXPECT_EQ(result.serve.stats.workers_seen, 2);
    EXPECT_EQ(result.serve.stats.shards_merged, config.shard_count);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, WireFaultsAreAbsorbedByteIdentically) {
    const shard::JobSpec job = gemm_job(6);
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("wire_faults");
    coord::CoordConfig config = cluster_config(dir, job);
    config.artifact_dir.clear();
    // The lease outlives the 700 ms partition plus one 1000 ms reply
    // timeout, a quarter lease (a dropped hello on the redial).
    config.lease.lease_ms = 4000.0;

    // Every fault class at once, on both workers: periodic loss, latency,
    // duplication, one corrupted frame (-> CRC disconnect -> session
    // resume) and a disconnect that redials only once its partition heals.
    std::vector<coord::WorkerConfig> workers;
    for (int i = 0; i < 2; ++i) {
        coord::WorkerConfig wc = cluster_worker(config, i);
        wc.fault = coord::FaultPlan::parse(
            "drop-frame-every-n=11,delay-frame-ms=2,duplicate-frame=6,"
            "corrupt-frame-byte=9,disconnect-after-units=3,heal-ms=700");
        workers.push_back(wc);
    }

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();

    ASSERT_EQ(result.workers.size(), 2u);
    std::int64_t dropped = 0, duplicated = 0;
    for (const coord::WorkerStats& w : result.workers) {
        dropped += w.frames_dropped;
        duplicated += w.frames_duplicated;
        // The one-shot faults fire once per worker: one corrupted frame
        // written, and one partition during the worker's first lease.
        EXPECT_EQ(w.frames_corrupted, 1);
        EXPECT_TRUE(w.disconnected);
    }
    EXPECT_GE(dropped, 1);
    EXPECT_GE(duplicated, 1);
    // The corrupted frames and the partitions severed live connections;
    // every holder came back within its lease and resumed it.
    EXPECT_GE(result.serve.stats.sessions_resumed, 1);
    EXPECT_EQ(result.serve.stats.queue.expirations, 0);
    EXPECT_EQ(result.serve.stats.shards_merged, config.shard_count);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, CrashedShardIsSalvagedFromItsCheckpoint) {
    const shard::JobSpec job = gemm_job(6);
    const std::string dir = scratch_dir("salvage");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 2;
    config.artifact_dir.clear();

    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    // Abandon after >3 units with checkpoint_interval=2: exactly one
    // durable chunk, so the replacement must salvage 2 units.
    workers[0].fault = coord::FaultPlan::parse("abandon-after-units=3");

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty());
    std::int64_t salvaged = 0;
    for (const coord::WorkerStats& w : result.workers) salvaged += w.salvages;
    EXPECT_GE(salvaged, 1);
    EXPECT_EQ(result.serve.stats.shards_merged, 2);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2),
              reference_doc(job, ""));
}

}  // namespace
}  // namespace ff

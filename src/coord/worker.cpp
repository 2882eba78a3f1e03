#include "coord/worker.h"

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/sealed_log.h"
#include "coord/protocol.h"
#include "shard/records.h"
#include "shard/runner.h"

namespace ff::coord {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using common::Json;

void sleep_ms(double ms) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Milliseconds left until `deadline`, 0 once it has passed.
int ms_until(Clock::time_point deadline) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
    return static_cast<int>(std::clamp<std::int64_t>(left.count(), 0, INT_MAX));
}

/// Reconnect schedule when the coordinator is unreachable; jitter spreads a
/// worker fleet's reconnect stampede.  The short first delay lets workers
/// started alongside their coordinator join even an audit whose leases
/// finish within tens of milliseconds.
constexpr common::BackoffPolicy kReconnectBackoff{20.0, 2.0, 3000.0, 0.2};

/// Bounds of the heartbeat interval a welcome or lease grant advertises.
/// HeartbeatThread skips its sleep for an interval <= 0, so a bad value
/// would beat in a tight loop against the single-threaded coordinator; the
/// interval is also the reply patience, which poll(2) takes as an int.
constexpr double kMinHeartbeatMs = 20.0;
constexpr double kMaxHeartbeatMs = 86400000.0;  // one day

double heartbeat_interval_ms(const Json& message) {
    const double ms = common::json_double(message, "heartbeat_ms");
    // NaN fails the test too.
    return ms > kMinHeartbeatMs ? std::min(ms, kMaxHeartbeatMs) : kMinHeartbeatMs;
}

/// FNV-1a of the worker id, seeding the reconnect-jitter Rng.  Not
/// std::hash: that is implementation-defined, and the jitter schedule must
/// be a pure function of the worker id so a fault-injection run replays
/// the same delay sequence on every build.
std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/// Session id: stable across every reconnect of this worker lifetime,
/// unique across processes and across run_worker() calls in one process
/// (in-process test clusters).  A reconnect that says hello with it
/// resumes the session, whose leases outlive any one connection.
std::string make_session(const std::string& id) {
    static std::atomic<int> seq{0};
    return id + "/" + std::to_string(::getpid()) + "." + std::to_string(seq.fetch_add(1));
}

/// Unrecoverable conditions (protocol mismatch, reconnect budget spent) —
/// everything else an inner-loop error just triggers a reconnect.
struct FatalError : common::Error {
    using common::Error::Error;
};

/// A stop request helper threads sleep on: stop() wakes every wait at once,
/// so joining a helper never stalls the thread that stops it.
class StopSignal {
public:
    /// Sleeps up to `ms` (clamped to a day); true once stop() was called.
    bool wait_for(double ms) {
        const auto span = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::duration<double, std::milli>(std::clamp(ms, 0.0, 86400000.0)));
        std::unique_lock<std::mutex> lock(mu_);
        return cv_.wait_for(lock, span, [this] { return stopped_; });
    }

    bool stopped() const {
        std::lock_guard<std::mutex> lock(mu_);
        return stopped_;
    }

    void stop() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stopped_ = true;
        }
        cv_.notify_all();
    }

private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool stopped_ = false;
};

/// Sends heartbeats for one lease while the main thread executes the
/// shard.  The first beat goes out immediately — a long prepare phase must
/// not look like death — then one per interval.  The beat callback owns
/// delivery (including reconnecting a dead socket); when it reports the
/// connection unrecoverable the thread ends silently and the main thread
/// notices on its next frame.
class HeartbeatThread {
public:
    /// The beat callback receives the thread's stop signal so a reconnect
    /// in progress can abandon its backoff sleeps the moment stop() is
    /// called.
    HeartbeatThread(std::function<bool(StopSignal&)> beat, double interval_ms, bool enabled) {
        if (!enabled) return;
        thread_ = std::thread([this, beat = std::move(beat), interval_ms] {
            while (!stop_.stopped()) {
                if (!beat(stop_)) return;
                if (stop_.wait_for(interval_ms)) return;
            }
        });
    }

    HeartbeatThread(const HeartbeatThread&) = delete;
    HeartbeatThread& operator=(const HeartbeatThread&) = delete;
    ~HeartbeatThread() { stop(); }

    void stop() {
        stop_.stop();
        if (thread_.joinable()) thread_.join();
    }

private:
    StopSignal stop_;
    std::thread thread_;
};

/// Per-lease wall-clock watchdog.  The main thread calls reset() from the
/// runner's progress hook (one durable checkpoint = one reset); when the
/// gap since the last reset exceeds the budget the whole process dies
/// with kWorkerExitWatchdog via _Exit — no unwinding, exactly like an
/// external kill, so the record file keeps whatever was durable.  A
/// poison unit that spins forever keeps heartbeating (HeartbeatThread is
/// a separate thread) but stops resetting; only this catches it.
class Watchdog {
public:
    Watchdog(double budget_ms, const std::string& worker_id) {
        if (budget_ms <= 0.0) return;
        reset();
        thread_ = std::thread([this, budget_ms, worker_id] {
            // Sleep until the budget since the last reset runs out; a reset
            // meanwhile moves the deadline, disarm() ends the wait at once.
            while (!stop_.wait_for(budget_ms - idle_ms())) {
                const double idle = idle_ms();
                if (idle <= budget_ms) continue;
                std::fprintf(stderr, "[worker %s] watchdog: no progress in %lld ms; exiting %d\n",
                             worker_id.c_str(), static_cast<long long>(idle),
                             kWorkerExitWatchdog);
                std::_Exit(kWorkerExitWatchdog);
            }
        });
    }

    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;
    ~Watchdog() { disarm(); }

    void reset() {
        last_reset_.store(Clock::now().time_since_epoch().count(), std::memory_order_relaxed);
    }

    /// Stops the timer for good — called once the shard result is in, so
    /// slow coordinator replies are never mistaken for a stalled trial.
    void disarm() {
        stop_.stop();
        if (thread_.joinable()) thread_.join();
    }

private:
    double idle_ms() const {
        const Clock::duration last(last_reset_.load(std::memory_order_relaxed));
        return std::chrono::duration<double, std::milli>(Clock::now().time_since_epoch() - last)
            .count();
    }

    std::atomic<Clock::rep> last_reset_{0};  ///< Clock ticks at the last reset().
    StopSignal stop_;
    std::thread thread_;
};

/// The hog-memory fault: allocate and touch blocks until the process
/// ceiling pushes back.  Meant to run under --rlimit-as, where either the
/// new-handler (installed by run_worker) or the bad_alloc below ends the
/// process with kWorkerExitMemoryCap; without a cap it runs until the OS
/// kills it, which the coordinator survives as an ordinary crash.
[[noreturn]] void hog_memory() {
    std::vector<std::unique_ptr<char[]>> hoard;
    try {
        for (;;) {
            constexpr std::size_t kBlock = std::size_t(16) << 20;
            auto block = std::make_unique<char[]>(kBlock);
            std::memset(block.get(), 0x5a, kBlock);  // touch: address space AND memory
            hoard.push_back(std::move(block));
        }
    } catch (const std::bad_alloc&) {
    }
    std::_Exit(kWorkerExitMemoryCap);
}

class Worker {
public:
    explicit Worker(const WorkerConfig& config)
        : config_(config),
          id_(config.worker_id.empty() ? "pid" + std::to_string(::getpid())
                                       : config.worker_id),
          session_(make_session(id_)),
          rng_(common::splitmix64(fnv1a(id_))),
          fault_armed_(!config.fault.empty()) {}

    WorkerStats run();

private:
    enum class Outcome { Done, Abandon, Reconnect };

    void log(const std::string& line) const {
        if (config_.verbose) {
            std::fprintf(stderr, "[worker %s] %s\n", id_.c_str(), line.c_str());
        }
    }

    Endpoint endpoint() const {
        return config_.connect_address.empty() ? Endpoint::unix_path(config_.socket_path)
                                               : Endpoint::parse_tcp(config_.connect_address);
    }

    /// The one point every frame is written through: the fault plan's
    /// frame faults fire here, at ordinals of the worker's own traffic.
    void send(FramedConn& conn, const Json& message);
    /// The one point every frame is read through (the frame delay holds
    /// each frame read).
    ReadResult receive(FramedConn& conn, int timeout_ms);

    /// One dial + hello exchange.  Returns false on anything recoverable
    /// (unreachable, dropped hello, dead stream) so the backoff loop
    /// retries; throws FatalError on an explicit protocol refusal.
    /// Callers serialize via conn_mu_ whenever a heartbeat thread is alive.
    bool connect_once();
    /// Closes conn_, waits out a partition fault's heal, then runs
    /// connect_once under the backoff schedule.  `stop` (the heartbeat
    /// thread's) cuts every wait short and abandons the dial.  Same
    /// serialization rule.
    bool reconnect(StopSignal* stop = nullptr);
    /// One heartbeat delivery, reconnecting the session on a dead socket
    /// (HeartbeatThread's beat callback; `stop` aborts backoff sleeps).
    /// False = unrecoverable.
    bool send_heartbeat(int shard, int attempt, StopSignal& stop);
    Json make_beat(int shard, int attempt) const;

    /// The request loop on one connection: the pending report first, then
    /// lease requests.
    Outcome serve_leases();
    /// A wait reply's retry_ms as an int, clamped to [0, heartbeat_ms_]
    /// before it becomes a deadline: a wire value like 1e300 would overflow
    /// the conversion, and a negative or NaN one re-requests at once.
    int retry_ms(const Json& wait) const;
    /// Runs the granted shard and leaves its `complete` or `failed` frame
    /// in report_.  False when an abandon fault ended the lease instead.
    bool execute_lease(Json grant);
    /// Takes the ack or reject that answers report_ into the stats.
    void settle_report(const Json& reply);
    void salvage(const shard::ShardManifest& manifest, const std::string& records_path,
                 const Json& candidates);

    WorkerConfig config_;
    std::string id_;
    std::string session_;
    common::Rng rng_;
    /// Guards conn_'s identity (replacement on reconnect) and rng_.  The
    /// beat thread holds it across its reconnects; the runner's progress
    /// hook only try_locks (a skipped progress beat is harmless).
    std::mutex conn_mu_;
    FramedConn conn_;
    /// The interval the last welcome or lease grant advertised: the beat
    /// cadence and the reply patience.
    double heartbeat_ms_ = 2500.0;
    /// The finished lease's report until an ack or reject settles it.
    /// serve_leases sends it first on every connection, so no report is lost
    /// with its socket: the coordinator byte-verifies a repeated completion
    /// and ignores a repeated failure of an attempt it already dropped.
    std::optional<Json> report_;
    std::int64_t report_units_ = 0;  ///< Units the reported attempt ran.
    /// The prepared job, kept across leases: the next lease of the same job
    /// prepares only the instances its range adds.
    shard::JobCache jobs_;
    bool fault_armed_;  ///< One-shot faults not yet fired.
    /// No dial before this (a disconnect fault's heal-ms); under conn_mu_.
    Clock::time_point redial_at_{};
    /// Guards frames_sent_ and the frame counters of stats_, so a frame's
    /// ordinal is its place on the wire.
    std::mutex wire_mu_;
    std::int64_t frames_sent_ = 0;  ///< Frames offered to an open connection so far.
    WorkerStats stats_;
};

void Worker::send(FramedConn& conn, const Json& message) {
    const FaultPlan& fault = config_.fault;
    // A closed connection refuses the frame before it takes an ordinal, so
    // the ordinals and counters see only frames the wire could carry.
    if (!fault.frame_faults() || !conn.open()) return conn.write(message);
    if (fault.delay_frame_ms > 0.0) sleep_ms(fault.delay_frame_ms);
    std::lock_guard<std::mutex> lock(wire_mu_);
    const std::int64_t ordinal = ++frames_sent_;
    if (fault.drop_frame_every_n > 0 && ordinal % fault.drop_frame_every_n == 0) {
        ++stats_.frames_dropped;
        return;
    }
    std::string wire = encode_frame(message);
    const bool corrupt = fault.corrupt_frame_byte > 0 && ordinal >= fault.corrupt_frame_byte &&
                         stats_.frames_corrupted == 0;
    if (corrupt) wire.back() = static_cast<char>(wire.back() ^ 0x5a);  // after the CRC
    conn.write_wire(wire);
    if (corrupt) ++stats_.frames_corrupted;  // written: the peer sees a bad checksum
    if (fault.duplicate_frame_every_n > 0 && ordinal % fault.duplicate_frame_every_n == 0) {
        conn.write_wire(wire);
        ++stats_.frames_duplicated;
    }
}

ReadResult Worker::receive(FramedConn& conn, int timeout_ms) {
    ReadResult r = conn.read(timeout_ms);
    if (r.status == ReadStatus::Ok && config_.fault.delay_frame_ms > 0.0) {
        sleep_ms(config_.fault.delay_frame_ms);
    }
    return r;
}

bool Worker::connect_once() {
    int fd = connect_endpoint(endpoint());
    if (fd < 0) return false;
    FramedConn fresh(fd);
    Json hello = Json::object();
    hello["type"] = "hello";
    hello["worker"] = id_;
    hello["session"] = session_;
    hello["protocol"] = kProtocolVersion;
    try {
        send(fresh, hello);
        while (true) {
            ReadResult r = receive(fresh, static_cast<int>(heartbeat_ms_));
            if (r.status != ReadStatus::Ok) return false;
            const std::string& type = common::json_string(r.message, "type");
            if (type == "error") {
                throw FatalError("coordinator refused hello: " +
                                 common::json_string(r.message, "error"));
            }
            if (type != "welcome") continue;  // a stray duplicated reply; keep reading
            heartbeat_ms_ = heartbeat_interval_ms(r.message);
            if (r.message.contains("resumed") && common::json_bool(r.message, "resumed")) {
                log("session " + session_ + " resumed");
            }
            break;
        }
    } catch (const FatalError&) {
        throw;
    } catch (const common::Error&) {
        return false;
    }
    conn_ = std::move(fresh);
    log("connected to " + endpoint().describe());
    return true;
}

bool Worker::reconnect(StopSignal* stop) {
    conn_.close();
    auto wait = [stop](double ms) {
        if (stop) stop->wait_for(ms);
        else sleep_ms(ms);
    };
    wait(ms_until(redial_at_));
    return common::retry_with_backoff(
        config_.max_connect_attempts, kReconnectBackoff, rng_,
        [&] { return (stop && stop->stopped()) || connect_once(); }, wait);
}

Json Worker::make_beat(int shard, int attempt) const {
    Json beat = Json::object();
    beat["type"] = "heartbeat";
    beat["shard"] = shard;
    beat["attempt"] = attempt;
    return beat;
}

bool Worker::send_heartbeat(int shard, int attempt, StopSignal& stop) {
    std::lock_guard<std::mutex> lock(conn_mu_);
    try {
        send(conn_, make_beat(shard, attempt));
        return true;
    } catch (const common::Error&) {
    }
    // The socket died mid-lease (partition, coordinator blip, injected
    // disconnect).  Reconnect with the same session id and resume beating
    // the same attempt: the lease lives to its deadline whatever became of
    // the connection, so a session back within lease_ms keeps the shard in
    // progress.  The stop signal short-circuits the heal wait, the attempts
    // and the sleeps — once the lease is over, nobody needs this connection
    // enough to wait for it.
    bool ok = false;
    try {
        ok = reconnect(&stop);
    } catch (const FatalError&) {
        return false;  // refusal surfaces on the main thread's next frame
    }
    if (!ok || stop.stopped()) return false;
    ++stats_.reconnects;
    log("heartbeat reconnected (session " + session_ + ", shard " + std::to_string(shard) + ")");
    try {
        send(conn_, make_beat(shard, attempt));
        return true;
    } catch (const common::Error&) {
        return false;
    }
}

int Worker::retry_ms(const Json& wait) const {
    const double ms = common::json_double(wait, "retry_ms");
    return ms > 0.0 ? static_cast<int>(std::min(ms, heartbeat_ms_)) : 0;  // NaN fails the test too
}

Worker::Outcome Worker::serve_leases() {
    while (true) {
        // A disconnect fault closed the socket mid-lease: redial first.
        if (!conn_.open()) return Outcome::Reconnect;
        try {
            Json request = Json::object();
            request["type"] = "lease-request";
            send(conn_, report_ ? *report_ : request);
            // After a wait reply the worker keeps reading its socket until
            // the retry deadline: the coordinator's done broadcast then ends
            // an idle worker at once, and only the deadline passing
            // re-requests.
            std::optional<Clock::time_point> retry_at;
            while (true) {
                ReadResult r = receive(
                    conn_, retry_at ? ms_until(*retry_at) : static_cast<int>(heartbeat_ms_));
                if (r.status == ReadStatus::Timeout) {
                    if (!retry_at) throw common::Error("no reply from the coordinator");
                    break;  // the retry is due: re-request
                }
                if (r.status == ReadStatus::Closed) return Outcome::Reconnect;
                const std::string& type = common::json_string(r.message, "type");
                if (type == "done") return Outcome::Done;
                if (type == "error") {
                    throw FatalError("coordinator: " + common::json_string(r.message, "error"));
                }
                if (report_ && (type == "ack" || type == "reject")) {
                    settle_report(r.message);
                    if (type == "ack" && common::json_bool(r.message, "done")) return Outcome::Done;
                    break;
                }
                if (!report_ && type == "wait" && !retry_at) {
                    retry_at = Clock::now() + std::chrono::milliseconds(retry_ms(r.message));
                } else if (!report_ && type == "lease") {
                    // Also mid-wait: a duplicated request's second reply can
                    // grant a lease, and the coordinator counts it as held.
                    if (!execute_lease(std::move(r.message))) return Outcome::Abandon;
                    break;
                } else {
                    // A duplicated frame's extra reply (a second wait or
                    // ack): skip, never desynchronize.
                    log("ignoring stray '" + type + "' frame");
                }
            }
        } catch (const FatalError&) {
            throw;
        } catch (const common::Error& e) {
            log(std::string("connection trouble: ") + e.what());
            return Outcome::Reconnect;
        }
    }
}

void Worker::settle_report(const Json& reply) {
    const std::string shard = std::to_string(common::json_int(*report_, "shard"));
    if (common::json_string(reply, "type") == "reject") {
        log("report on shard " + shard + " rejected: " + common::json_string(reply, "error"));
        ++stats_.shards_failed;
    } else if (common::json_string(*report_, "type") == "complete") {
        ++stats_.shards_completed;
        stats_.units_run += report_units_;
        log("shard " + shard + " complete (" + std::to_string(report_units_) +
            " units this attempt)");
    }
    report_.reset();
}

bool Worker::execute_lease(Json grant) {
    int shard = static_cast<int>(common::json_int(grant, "shard"));
    int attempt = static_cast<int>(common::json_int(grant, "attempt"));
    shard::ShardManifest manifest = shard::ShardManifest::from_json(grant["manifest"]);
    const std::string records_path = common::json_string(grant, "records_path");
    heartbeat_ms_ = heartbeat_interval_ms(grant);
    log("leased shard " + std::to_string(shard) + " attempt " + std::to_string(attempt) +
        " [" + std::to_string(manifest.unit_begin) + ", " + std::to_string(manifest.unit_end) +
        ")");

    if (fault_armed_ && config_.fault.delay_lease_ms > 0.0) {
        log("fault: delaying " + std::to_string(config_.fault.delay_lease_ms) + " ms");
        sleep_ms(config_.fault.delay_lease_ms);
    }

    salvage(manifest, records_path, grant["resume_candidates"]);

    Watchdog watchdog(config_.watchdog_ms, id_);

    shard::RunShardOptions options;
    options.num_threads = config_.num_threads;
    if (fault_armed_ && config_.fault.kill_after_units >= 0) {
        options.interrupt_after_units = config_.fault.kill_after_units;
    } else if (fault_armed_ && config_.fault.abandon_after_units >= 0) {
        options.interrupt_after_units = config_.fault.abandon_after_units;
    }
    // Each durable checkpoint resets the watchdog and doubles as a
    // heartbeat alongside the timer thread's beats.  The progress beat
    // only try_locks: if the beat thread holds the connection (possibly
    // mid-reconnect), skipping one is harmless.  Heartbeat write errors
    // are swallowed — the records are durable and duplicate completions
    // byte-verify, so the shard is worth finishing even on a dead socket.
    options.on_progress = [this, &watchdog, shard, attempt](std::int64_t units_done) {
        watchdog.reset();
        if (fault_armed_ && config_.fault.hog_memory_after_units >= 0 &&
            units_done > config_.fault.hog_memory_after_units) {
            fault_armed_ = false;
            log("fault: hogging memory after " + std::to_string(units_done) + " units");
            hog_memory();  // never returns
        }
        if (fault_armed_ && config_.fault.spin_after_units >= 0 &&
            units_done > config_.fault.spin_after_units) {
            fault_armed_ = false;
            log("fault: spinning after " + std::to_string(units_done) + " units");
            // The HeartbeatThread keeps beating — from the lease queue's
            // seat this worker looks perfectly healthy.  Only the
            // wall-clock watchdog (or an external kill) ends this.
            for (;;) sleep_ms(50.0);
        }
        if (fault_armed_ && config_.fault.disconnect_after_units >= 0 &&
            units_done > config_.fault.disconnect_after_units) {
            fault_armed_ = false;
            log("fault: dropping the connection after " + std::to_string(units_done) +
                " units (still executing)");
            // The deterministic driver of session resume: the coordinator
            // sees EOF and leaves the lease to its deadline; the beat
            // thread's next write fails, waits out heal-ms (a partition),
            // reconnects with the same session, and resumes it.
            std::lock_guard<std::mutex> lock(conn_mu_);
            conn_.close();
            stats_.disconnected = true;
            redial_at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double, std::milli>(
                                                config_.fault.heal_ms));
            return;
        }
        if (config_.fault.drop_heartbeats) return;
        std::unique_lock<std::mutex> lock(conn_mu_, std::try_to_lock);
        if (!lock.owns_lock()) return;
        try {
            send(conn_, make_beat(shard, attempt));
        } catch (const common::Error&) {
        }
    };

    shard::RunShardResult result;
    try {
        // Beats stop with this scope, before any report goes out.
        HeartbeatThread heartbeats(
            [this, shard, attempt](StopSignal& stop) {
                return send_heartbeat(shard, attempt, stop);
            },
            heartbeat_ms_, !config_.fault.drop_heartbeats);
        result = shard::run_shard(jobs_, manifest, records_path, options);
    } catch (const common::Error& e) {
        watchdog.disarm();
        log("shard " + std::to_string(shard) + " failed: " + e.what());
        ++stats_.shards_failed;
        Json failed = Json::object();
        failed["type"] = "failed";
        failed["shard"] = shard;
        failed["attempt"] = attempt;
        failed["error"] = std::string(e.what());
        report_ = std::move(failed);
        return true;
    }
    watchdog.disarm();

    if (!result.completed) {
        // The interrupt hook only fires for an armed kill/abandon fault.
        fault_armed_ = false;
        if (config_.fault.kill_after_units >= 0) {
            // A real mid-shard crash: the record file keeps its torn tail.
            ::raise(SIGKILL);
        }
        log("fault: abandoning shard " + std::to_string(shard) + " after " +
            std::to_string(result.units_run) + " units");
        conn_.close();
        return false;
    }
    fault_armed_ = false;
    Json complete = Json::object();
    complete["type"] = "complete";
    complete["shard"] = shard;
    complete["attempt"] = attempt;
    report_ = std::move(complete);
    report_units_ = result.units_run;
    return true;
}

void Worker::salvage(const shard::ShardManifest& manifest, const std::string& records_path,
                     const Json& candidates) {
    if (!candidates.is_array() || fs::exists(records_path)) return;
    const std::string want = manifest.to_json().dump();
    for (const Json& candidate : candidates.as_array()) {
        if (!candidate.is_string()) continue;
        const std::string& path = candidate.as_string();
        try {
            shard::ShardRecordFile file = shard::read_record_file(path);
            if (file.manifest.to_json().dump() != want) continue;
            if (file.checkpoint <= manifest.unit_begin) continue;  // nothing durable
            // Copy the durable prefix — safe even while the prior attempt
            // is still writing, because resume_offset never exceeds the
            // bytes that were fsync'd under its last checkpoint.  The copy
            // is a sealed log of its own: written at `.tmp`, fsynced, then
            // renamed with a directory fsync, so the resumed stream's
            // directory entry is as durable as a fresh one's.
            std::ifstream in(path, std::ios::binary);
            std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
            if (static_cast<std::int64_t>(bytes.size()) < file.resume_offset)
                throw common::Error(path + " shrank below its durable prefix");
            bytes.resize(static_cast<std::size_t>(file.resume_offset));
            common::SealedWriter out = common::SealedWriter::create(records_path);
            out.append_verified(bytes);
            out.sync();
            out.publish();
            ++stats_.salvages;
            log("salvaged " + std::to_string(file.checkpoint - manifest.unit_begin) +
                " units from " + path);
            return;
        } catch (const common::Error&) {
            continue;  // unreadable/foreign candidate; try the next
        }
    }
}

WorkerStats Worker::run() {
    bool first = true;
    while (true) {
        if (!reconnect()) {
            throw common::Error("worker " + id_ + ": coordinator unreachable at " +
                                endpoint().describe() + " after " +
                                std::to_string(config_.max_connect_attempts) + " attempts");
        }
        if (!first) ++stats_.reconnects;
        first = false;
        const Outcome out = serve_leases();
        if (out == Outcome::Done) {
            log("audit done; exiting");
            return stats_;
        }
        if (out == Outcome::Abandon) {
            stats_.abandoned = true;
            return stats_;
        }
    }
}

}  // namespace

WorkerStats run_worker(const WorkerConfig& config) {
    ignore_sigpipe();
    if (config.rlimit_as_bytes > 0) {
        struct rlimit lim;
        lim.rlim_cur = static_cast<rlim_t>(config.rlimit_as_bytes);
        lim.rlim_max = static_cast<rlim_t>(config.rlimit_as_bytes);
        if (::setrlimit(RLIMIT_AS, &lim) != 0) {
            throw common::Error("worker: setrlimit(RLIMIT_AS, " +
                                std::to_string(config.rlimit_as_bytes) +
                                ") failed: " + std::strerror(errno));
        }
        // Under the cap, a failed allocation must kill ONLY this worker
        // with a distinguishable code — never unwind into a Crash verdict
        // that other runs (under other caps) would not reproduce.
        std::set_new_handler([] { std::_Exit(kWorkerExitMemoryCap); });
    }
    Worker worker(config);
    return worker.run();
}

}  // namespace ff::coord

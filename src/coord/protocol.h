// Coordinator wire protocol: checksummed, length-prefixed JSON frames over
// a stream socket (unix-domain by default, TCP for multi-host audits).
//
// One frame =
//
//   [payload length : u32 big-endian]
//   [wire version   : u8]   (kProtocolVersion; mismatch = handshake error)
//   [CRC32C(payload): u32 big-endian]
//   [payload        : `length` bytes of compact JSON]
//
// The hand-rolled framing keeps the transport dependency-free and
// debuggable (`socat - UNIX:coord.sock | xxd`), in the same spirit as small
// binary RPC stacks with explicit sequencing; JSON as the payload reuses
// the shard wire codecs (manifests travel inside lease grants verbatim).
// The checksum makes a flipped bit on the wire a *classified* failure
// (FrameError::Kind::BadChecksum -> peer treats it as a disconnect) instead
// of undefined downstream behaviour, and the version byte turns a
// cross-version connect into a clean handshake error: a v1 peer's first
// payload byte ('{' = 0x7b) lands where v2 expects the version byte, so
// mixed deployments fail fast with a readable message, never a hang.
//
// Message flow (worker-initiated, strictly request/reply except for
// one-way heartbeats and the coordinator's terminal "done" broadcast):
//
//   worker -> coord   {"type":"hello","worker":"w0","session":"w0/711.0",
//                      "protocol":2}
//   coord  -> worker  {"type":"welcome","protocol":2,"heartbeat_ms":N,
//                      "resumed":bool}
//   worker -> coord   {"type":"lease-request"}
//   coord  -> worker  {"type":"lease","shard":i,"attempt":a,
//                      "manifest":{...},"records_path":"...",
//                      "resume_candidates":[...],"lease_ms":N,
//                      "heartbeat_ms":N}
//                   | {"type":"wait","retry_ms":N}   (queue momentarily dry:
//                                                     wait on the socket for up
//                                                     to N ms, then re-request;
//                                                     a "done" may arrive first)
//                   | {"type":"done"}                (audit finished, exit)
//   worker -> coord   {"type":"heartbeat","shard":i,"attempt":a}
//                     (one-way; extends the lease deadline)
//   worker -> coord   {"type":"complete","shard":i,"attempt":a}
//   coord  -> worker  {"type":"ack","done":bool}
//                   | {"type":"reject","error":"..."}  (file failed validation)
//   worker -> coord   {"type":"failed","shard":i,"attempt":a,"error":"..."}
//   coord  -> worker  {"type":"ack","done":bool}
//
// The "session" id is what survives a broken connection, and every hello
// must carry one: a worker that reconnects mid-shard re-sends hello with
// the same session string and heartbeats the same attempt, whose lease
// lived on by its deadline (see coordinator.h).  A finished lease's
// complete or failed frame is the first frame after the welcome on every
// connection until an ack or reject settles it.
#pragma once

/// \file
/// Checksummed length-prefixed JSON framing plus unix/TCP socket helpers
/// for src/coord.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "common/error.h"
#include "common/json.h"

namespace ff::coord {

/// Version spoken by this build — both the frame-header version byte and
/// the "protocol" field of the hello/welcome exchange.  Version 2 added the
/// per-frame CRC32C + version byte and session-resume hellos.
constexpr int kProtocolVersion = 2;

/// Bytes of frame header preceding the payload: length + version + CRC.
constexpr std::size_t kFrameHeaderBytes = 9;

/// Frames larger than this are a protocol violation (a manifest is ~1 KiB;
/// nothing legitimate approaches the bound).
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// A malformed frame, classified.  Every decoder failure is one of these —
/// a receiver can distinguish "the peer speaks another protocol version"
/// (clean handshake error, worth a best-effort error reply) from "the
/// stream is corrupt" (treated exactly like a disconnect) without string
/// matching.
class FrameError : public common::Error {
public:
    enum class Kind {
        Oversized,    ///< Length prefix exceeds kMaxFrameBytes.
        BadVersion,   ///< Version byte != kProtocolVersion (or a v1 peer).
        BadChecksum,  ///< Payload bytes do not match the frame CRC32C.
        BadPayload,   ///< CRC matched but the payload is not valid JSON.
    };
    FrameError(Kind kind, const std::string& msg) : Error(msg), kind_(kind) {}
    Kind kind() const { return kind_; }

private:
    Kind kind_;
};

/// Outcome of a framed read.
enum class ReadStatus {
    Ok,       ///< A complete frame was decoded.
    Timeout,  ///< The deadline elapsed before a full frame arrived.
    Closed,   ///< Orderly EOF from the peer.
};

/// A framed read: `message` is meaningful only when `status == Ok`.
struct ReadResult {
    ReadStatus status = ReadStatus::Closed;
    common::Json message;
};

/// Serializes `message` into one complete wire frame (header + payload).
std::string encode_frame(const common::Json& message);

/// Writes one frame (blocking).  Throws common::Error on I/O failure or an
/// oversized payload.  A dead peer surfaces as an error, never SIGPIPE.
void write_frame(int fd, const common::Json& message);

/// Incremental frame decoder for the coordinator's nonblocking event loop:
/// append whatever recv produced, then drain complete frames with next().
class FrameBuffer {
public:
    /// Appends raw socket bytes.
    void append(const char* data, std::size_t size);

    /// Extracts the next complete frame, or nullopt when more bytes are
    /// needed.  Throws FrameError on an oversized length prefix, a version
    /// byte this build does not speak, a checksum mismatch, or an
    /// unparseable payload (the connection should be dropped; BadVersion
    /// additionally merits a handshake-error reply).
    std::optional<common::Json> next();

    /// Discards any buffered bytes.
    void clear();

private:
    std::string buf_;  ///< Undecoded bytes, oldest first.
};

/// A worker-side framed connection: blocking reads with a timeout, writes
/// serialized by a mutex (the heartbeat thread shares the socket with the
/// request/reply loop).  Bytes recv'd past the frame a read() returns are
/// kept for the next read — a pushed "done" broadcast arriving glued to a
/// reply can never desynchronize the stream.
class FramedConn {
public:
    FramedConn() = default;
    explicit FramedConn(int fd) : fd_(fd) {}
    FramedConn(FramedConn&& other) noexcept;
    FramedConn& operator=(FramedConn&& other) noexcept;
    FramedConn(const FramedConn&) = delete;
    FramedConn& operator=(const FramedConn&) = delete;
    ~FramedConn();

    bool open() const { return fd_ >= 0; }

    /// Writes one frame under the write mutex (thread-safe).
    void write(const common::Json& message);

    /// Writes pre-encoded frame bytes (encode_frame's output, possibly
    /// sabotaged by a fault plan) under the write mutex.
    void write_wire(const std::string& wire);

    /// Reads the next frame, waiting up to `timeout_ms` (< 0 = forever).
    /// Single-reader only.  EOF returns ReadStatus::Closed (any partial
    /// frame in flight is discarded with the connection).  A signal landing
    /// mid-poll or mid-recv (EINTR) resumes the wait against the original
    /// deadline — it is never surfaced as an error or a shortened timeout.
    ReadResult read(int timeout_ms);

    /// Closes the socket (idempotent).
    void close();

private:
    int fd_ = -1;
    FrameBuffer buf_;       ///< Leftover bytes across read() calls.
    std::mutex write_mu_;   ///< Serializes concurrent write() frames.
};

/// Where a coordinator listens / a worker dials: either a unix-domain
/// socket path or a TCP host:port.
struct Endpoint {
    bool tcp = false;
    std::string path;  ///< unix-domain socket path (tcp == false)
    std::string host;  ///< TCP host or numeric address (tcp == true)
    int port = 0;      ///< TCP port; 0 = kernel-assigned (listen only)

    static Endpoint unix_path(std::string p);

    /// Parses "host:port" (e.g. "0.0.0.0:7643", "audit-box:7643",
    /// ":7643" = all interfaces).  Throws common::Error when the port is
    /// missing or not a number in [0, 65535].
    static Endpoint parse_tcp(const std::string& hostport);

    /// Human/CLI-facing form: the path, or "host:port".
    std::string describe() const;
};

/// Binds + listens on `ep`.  For unix endpoints any stale socket file is
/// unlinked first.  For TCP endpoints the socket gets SO_REUSEADDR, and
/// when `ep.port == 0` the kernel-assigned port is written back through
/// `bound_port` (also filled for fixed ports).  Returns the listening fd;
/// throws on failure.
int listen_endpoint(const Endpoint& ep, int backlog, int* bound_port = nullptr);

/// Connects to `ep` (TCP connections get TCP_NODELAY — the protocol is
/// small request/reply frames where Nagle only adds latency).  Returns the
/// fd, or -1 when the coordinator is not (yet) reachable — callers retry
/// with backoff.  EINTR during connect is handled internally (the
/// in-progress connect is waited out), never surfaced as unreachable.
int connect_endpoint(const Endpoint& ep);

/// Ignores SIGPIPE process-wide, once (thread-safe): a peer that dies
/// mid-frame must surface as an I/O error, not kill the process.  Called
/// by serve() and run_worker(), which may run as threads of one test
/// process.
void ignore_sigpipe();

}  // namespace ff::coord

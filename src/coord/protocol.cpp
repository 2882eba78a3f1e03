#include "coord/protocol.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/checksum.h"
#include "common/error.h"

namespace ff::coord {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw common::Error(what + ": " + std::strerror(errno));
}

/// Encodes a 32-bit big-endian length prefix.
void put_u32_be(char out[4], std::uint32_t v) {
    out[0] = static_cast<char>((v >> 24) & 0xff);
    out[1] = static_cast<char>((v >> 16) & 0xff);
    out[2] = static_cast<char>((v >> 8) & 0xff);
    out[3] = static_cast<char>(v & 0xff);
}

std::uint32_t get_u32_be(const char* in) {
    return (static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) << 24) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(in[1])) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(in[2])) << 8) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(in[3]));
}

/// Fills `addr` from `path`; unix socket paths have a hard ~107 byte bound.
sockaddr_un make_addr(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw common::Error("socket path too long (" + std::to_string(path.size()) +
                            " bytes, limit " + std::to_string(sizeof(addr.sun_path) - 1) +
                            "): " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

/// RAII for getaddrinfo results.  Move-only: a copied `res` pointer would
/// be freed once per copy.
struct AddrInfo {
    addrinfo* res = nullptr;
    AddrInfo() = default;
    AddrInfo(AddrInfo&& other) noexcept : res(other.res) { other.res = nullptr; }
    AddrInfo& operator=(AddrInfo&& other) noexcept {
        if (this != &other) {
            if (res) ::freeaddrinfo(res);
            res = other.res;
            other.res = nullptr;
        }
        return *this;
    }
    AddrInfo(const AddrInfo&) = delete;
    AddrInfo& operator=(const AddrInfo&) = delete;
    ~AddrInfo() {
        if (res) ::freeaddrinfo(res);
    }
};

/// Resolves host:port for TCP.  `passive` selects listen-side semantics
/// (empty host = all interfaces instead of loopback).
AddrInfo resolve_tcp(const std::string& host, int port, bool passive) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_protocol = IPPROTO_TCP;
    if (passive) hints.ai_flags = AI_PASSIVE;
    AddrInfo out;
    const std::string service = std::to_string(port);
    int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(), service.c_str(), &hints,
                           &out.res);
    if (rc != 0) {
        throw common::Error("resolve " + (host.empty() ? std::string("*") : host) + ":" +
                            service + ": " + ::gai_strerror(rc));
    }
    return out;
}

void set_nodelay(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));  // best effort
}

/// Completes a connect() that returned EINTR: POSIX leaves the connection
/// attempt in progress, so poll for writability and read SO_ERROR instead
/// of retrying connect (which would fail with EALREADY).
bool finish_interrupted_connect(int fd) {
    while (true) {
        pollfd pfd{fd, POLLOUT, 0};
        int pr = ::poll(&pfd, 1, -1);
        if (pr < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) return false;
    return err == 0;
}

/// Sends every byte of one encoded frame (blocking).
void send_wire(int fd, const std::string& wire) {
    std::size_t off = 0;
    while (off < wire.size()) {
        // MSG_NOSIGNAL: a peer that died mid-write surfaces as EPIPE, not
        // a process-killing SIGPIPE.
        ssize_t n = ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // SO_SNDTIMEO expired: the peer stopped draining its
                // socket.  The caller drops the connection; the frame is
                // torn mid-wire, which the peer's FrameBuffer never sees.
                throw common::Error("send timed out (peer not reading)");
            }
            throw_errno("send");
        }
        off += static_cast<std::size_t>(n);
    }
}

/// Binds + listens on a unix-domain stream socket, unlinking any stale
/// file at `path` first.  Returns the listening fd; throws on failure.
int listen_unix(const std::string& path, int backlog) {
    sockaddr_un addr = make_addr(path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket");
    ::unlink(path.c_str());  // stale socket file from a previous run
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("bind " + path);
    }
    if (::listen(fd, backlog) < 0) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("listen " + path);
    }
    return fd;
}

/// Connects to a unix-domain socket.  Returns the fd, or -1 when the
/// coordinator is not (yet) there — callers retry with backoff.
int connect_unix(const std::string& path) {
    sockaddr_un addr = make_addr(path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
        if (errno == EINTR && finish_interrupted_connect(fd)) return fd;
        ::close(fd);
        return -1;
    }
    return fd;
}

}  // namespace

std::string encode_frame(const common::Json& message) {
    std::string payload = message.dump();
    if (payload.size() > kMaxFrameBytes) {
        throw common::Error("frame payload too large: " + std::to_string(payload.size()) +
                            " bytes");
    }
    std::string wire(kFrameHeaderBytes, '\0');
    put_u32_be(wire.data(), static_cast<std::uint32_t>(payload.size()));
    wire[4] = static_cast<char>(kProtocolVersion);
    put_u32_be(wire.data() + 5, common::crc32c(payload));
    wire += payload;
    return wire;
}

void write_frame(int fd, const common::Json& message) { send_wire(fd, encode_frame(message)); }

void FrameBuffer::append(const char* data, std::size_t size) { buf_.append(data, size); }

std::optional<common::Json> FrameBuffer::next() {
    if (buf_.size() < 4) return std::nullopt;
    // The length is validated as soon as it is readable — an insane prefix
    // must never make the receiver buffer (or wait for) gigabytes.
    std::uint32_t len = get_u32_be(buf_.data());
    if (len > kMaxFrameBytes) {
        throw FrameError(FrameError::Kind::Oversized,
                         "oversized frame: " + std::to_string(len) + " bytes");
    }
    if (buf_.size() < kFrameHeaderBytes) return std::nullopt;
    // Version is checked before waiting for the full payload so a peer
    // speaking another version fails on its first header, not after a
    // potentially never-arriving body.
    int version = static_cast<unsigned char>(buf_[4]);
    if (version != kProtocolVersion) {
        throw FrameError(FrameError::Kind::BadVersion,
                         "wire protocol version mismatch: peer sent " +
                             std::to_string(version) + ", this build speaks " +
                             std::to_string(kProtocolVersion));
    }
    if (buf_.size() < kFrameHeaderBytes + static_cast<std::size_t>(len)) return std::nullopt;
    std::uint32_t want = get_u32_be(buf_.data() + 5);
    std::string_view payload(buf_.data() + kFrameHeaderBytes, len);
    std::uint32_t got = common::crc32c(payload);
    if (got != want) {
        throw FrameError(FrameError::Kind::BadChecksum,
                         "frame checksum mismatch: header " + common::crc32c_hex(want) +
                             ", payload " + common::crc32c_hex(got));
    }
    common::Json message;
    try {
        message = common::Json::parse(std::string(payload));
    } catch (const common::ParseError& e) {
        throw FrameError(FrameError::Kind::BadPayload,
                         "frame payload is not valid JSON: " + common::error_detail(e));
    }
    buf_.erase(0, kFrameHeaderBytes + static_cast<std::size_t>(len));
    return message;
}

FramedConn::FramedConn(FramedConn&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
    other.fd_ = -1;
}

FramedConn& FramedConn::operator=(FramedConn&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.fd_;
        buf_ = std::move(other.buf_);
        other.fd_ = -1;
    }
    return *this;
}

FramedConn::~FramedConn() { close(); }

void FramedConn::write(const common::Json& message) { write_wire(encode_frame(message)); }

void FramedConn::write_wire(const std::string& wire) {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (fd_ < 0) throw common::Error("write on a closed connection");
    send_wire(fd_, wire);
}

ReadResult FramedConn::read(int timeout_ms) {
    if (fd_ < 0) throw common::Error("read on a closed connection");
    // An absolute deadline, not a per-iteration budget: EINTR restarts the
    // poll with only the *remaining* time, so a stream of signals (the
    // respawn/watchdog machinery is signal-happy) cannot stretch the wait.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        timeout_ms >= 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms)
                        : Clock::time_point{};
    while (true) {
        if (auto frame = buf_.next()) return {ReadStatus::Ok, std::move(*frame)};
        if (timeout_ms >= 0) {
            auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
                deadline - Clock::now());
            int wait_ms = static_cast<int>(std::max<std::int64_t>(0, remaining.count()));
            pollfd pfd{fd_, POLLIN, 0};
            int pr = ::poll(&pfd, 1, wait_ms);
            if (pr < 0) {
                if (errno == EINTR) continue;
                throw_errno("poll");
            }
            if (pr == 0) return {ReadStatus::Timeout, {}};
        }
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("recv");
        }
        if (n == 0) return {ReadStatus::Closed, {}};
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

void FrameBuffer::clear() { buf_.clear(); }

void FramedConn::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        buf_.clear();
    }
}

Endpoint Endpoint::unix_path(std::string p) {
    Endpoint ep;
    ep.tcp = false;
    ep.path = std::move(p);
    return ep;
}

Endpoint Endpoint::parse_tcp(const std::string& hostport) {
    auto colon = hostport.rfind(':');
    if (colon == std::string::npos) {
        throw common::Error("TCP address must be host:port, got '" + hostport + "'");
    }
    Endpoint ep;
    ep.tcp = true;
    ep.host = hostport.substr(0, colon);
    const std::string port_str = hostport.substr(colon + 1);
    errno = 0;
    char* end = nullptr;
    long port = std::strtol(port_str.c_str(), &end, 10);
    if (port_str.empty() || end == nullptr || *end != '\0' || errno != 0 || port < 0 ||
        port > 65535) {
        throw common::Error("TCP port must be a number in [0, 65535], got '" + port_str +
                            "'");
    }
    ep.port = static_cast<int>(port);
    return ep;
}

std::string Endpoint::describe() const {
    if (!tcp) return path;
    return (host.empty() ? std::string("*") : host) + ":" + std::to_string(port);
}

int listen_endpoint(const Endpoint& ep, int backlog, int* bound_port) {
    if (!ep.tcp) {
        if (bound_port) *bound_port = 0;
        return listen_unix(ep.path, backlog);
    }
    AddrInfo ai = resolve_tcp(ep.host, ep.port, /*passive=*/true);
    int fd = -1;
    std::string last_error = "no addresses";
    for (addrinfo* a = ai.res; a != nullptr; a = a->ai_next) {
        fd = ::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC, a->ai_protocol);
        if (fd < 0) {
            last_error = std::string("socket: ") + std::strerror(errno);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, a->ai_addr, a->ai_addrlen) == 0 && ::listen(fd, backlog) == 0) break;
        last_error = std::string(std::strerror(errno));
        ::close(fd);
        fd = -1;
    }
    if (fd < 0) {
        throw common::Error("listen " + ep.describe() + ": " + last_error);
    }
    if (bound_port) {
        sockaddr_storage addr{};
        socklen_t len = sizeof(addr);
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
            int saved = errno;
            ::close(fd);
            errno = saved;
            throw_errno("getsockname");
        }
        if (addr.ss_family == AF_INET) {
            *bound_port = ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
        } else if (addr.ss_family == AF_INET6) {
            *bound_port = ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
        } else {
            *bound_port = ep.port;
        }
    }
    return fd;
}

int connect_endpoint(const Endpoint& ep) {
    if (!ep.tcp) return connect_unix(ep.path);
    AddrInfo ai;
    try {
        // Default host for dialing is loopback, not all-interfaces.
        ai = resolve_tcp(ep.host.empty() ? "127.0.0.1" : ep.host, ep.port,
                         /*passive=*/false);
    } catch (const common::Error&) {
        return -1;  // transient DNS failure: caller retries with backoff
    }
    for (addrinfo* a = ai.res; a != nullptr; a = a->ai_next) {
        int fd = ::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC, a->ai_protocol);
        if (fd < 0) continue;
        if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0 ||
            (errno == EINTR && finish_interrupted_connect(fd))) {
            set_nodelay(fd);
            return fd;
        }
        ::close(fd);
    }
    return -1;
}

void ignore_sigpipe() {
    static std::once_flag once;
    std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

}  // namespace ff::coord

#include "coord/fault.h"

#include <cerrno>
#include <cstdlib>
#include <vector>

#include "common/error.h"

namespace ff::coord {

namespace {

/// One `key[=value]` token of a comma-separated fault spec.  Errors start
/// with "fault plan", e.g. "fault plan: kill-after-units=soon: expected an
/// integer".
struct FaultToken {
    std::string text;        ///< The whole token.
    std::string key;         ///< Up to the first '='.
    std::string value;       ///< After the first '=' ("" without one).
    bool has_value = false;  ///< Whether the token has an '='.

    /// The value as an integer; throws common::Error unless it is one.
    std::int64_t i64() const {
        char* end = nullptr;
        errno = 0;
        const long long v = std::strtoll(value.c_str(), &end, 10);
        if (value.empty() || end != value.c_str() + value.size() || errno != 0)
            throw common::Error("fault plan: " + text + ": expected an integer");
        return static_cast<std::int64_t>(v);
    }

    /// The value as milliseconds; throws common::Error unless it is a
    /// number in [0, one day], so every sleep and deadline built from it
    /// stays in range.
    double ms() const {
        char* end = nullptr;
        errno = 0;
        const double v = std::strtod(value.c_str(), &end);
        if (value.empty() || end != value.c_str() + value.size() || errno != 0 ||
            !(v >= 0.0 && v <= 86400000.0))
            throw common::Error("fault plan: " + text +
                                ": expected milliseconds in [0, 86400000]");
        return v;
    }
};

/// The non-empty comma-separated tokens of `spec`, in order.
std::vector<FaultToken> fault_tokens(const std::string& spec) {
    std::vector<FaultToken> tokens;
    for (std::size_t start = 0; start <= spec.size();) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos) end = spec.size();
        if (end > start) {
            FaultToken& t = tokens.emplace_back();
            t.text = spec.substr(start, end - start);
            const std::size_t eq = t.text.find('=');
            t.key = t.text.substr(0, eq);
            t.has_value = eq != std::string::npos;
            if (t.has_value) t.value = t.text.substr(eq + 1);
        }
        start = end + 1;
    }
    return tokens;
}

std::string ms_text(double ms) { return std::to_string(static_cast<long long>(ms)); }

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
    FaultPlan plan;
    bool heal = false;
    for (const FaultToken& t : fault_tokens(spec)) {
        if (t.key == "kill-after-units" && t.has_value) {
            plan.kill_after_units = t.i64();
        } else if (t.key == "abandon-after-units" && t.has_value) {
            plan.abandon_after_units = t.i64();
        } else if (t.key == "spin-after-units" && t.has_value) {
            plan.spin_after_units = t.i64();
        } else if (t.key == "hog-memory-after-units" && t.has_value) {
            plan.hog_memory_after_units = t.i64();
        } else if (t.key == "disconnect-after-units" && t.has_value) {
            plan.disconnect_after_units = t.i64();
        } else if (t.key == "heal-ms" && t.has_value) {
            plan.heal_ms = t.ms();
            heal = true;
        } else if (t.key == "delay-lease-ms" && t.has_value) {
            plan.delay_lease_ms = t.ms();
        } else if (t.key == "drop-heartbeats" && !t.has_value) {
            plan.drop_heartbeats = true;
        } else if (t.key == "drop-frame-every-n" && t.has_value) {
            plan.drop_frame_every_n = t.i64();
            if (plan.drop_frame_every_n == 1) {
                throw common::Error(
                    "fault plan: drop-frame-every-n=1 would drop every hello and wedge the "
                    "handshake forever; use n >= 2");
            }
        } else if (t.key == "delay-frame-ms" && t.has_value) {
            plan.delay_frame_ms = t.ms();
        } else if (t.key == "duplicate-frame" && t.has_value) {
            plan.duplicate_frame_every_n = t.i64();
        } else if (t.key == "corrupt-frame-byte" && t.has_value) {
            plan.corrupt_frame_byte = t.i64();
        } else {
            throw common::Error(
                "fault plan: unknown token '" + t.text +
                "' (expected kill-after-units=N, abandon-after-units=N, spin-after-units=N, "
                "hog-memory-after-units=N, disconnect-after-units=N, heal-ms=N, "
                "delay-lease-ms=N, drop-heartbeats, drop-frame-every-n=N, delay-frame-ms=N, "
                "duplicate-frame=N or corrupt-frame-byte=N)");
        }
    }
    if (heal && plan.disconnect_after_units < 0)
        throw common::Error("fault plan: heal-ms needs disconnect-after-units");
    return plan;
}

std::string FaultPlan::describe() const {
    if (empty()) return "none";
    std::string out;
    auto add = [&out](const std::string& piece) {
        if (!out.empty()) out += ",";
        out += piece;
    };
    if (kill_after_units >= 0) add("kill-after-units=" + std::to_string(kill_after_units));
    if (abandon_after_units >= 0) {
        add("abandon-after-units=" + std::to_string(abandon_after_units));
    }
    if (spin_after_units >= 0) add("spin-after-units=" + std::to_string(spin_after_units));
    if (hog_memory_after_units >= 0) {
        add("hog-memory-after-units=" + std::to_string(hog_memory_after_units));
    }
    if (disconnect_after_units >= 0) {
        add("disconnect-after-units=" + std::to_string(disconnect_after_units));
        if (heal_ms > 0.0) add("heal-ms=" + ms_text(heal_ms));
    }
    if (drop_heartbeats) add("drop-heartbeats");
    if (delay_lease_ms > 0.0) add("delay-lease-ms=" + ms_text(delay_lease_ms));
    if (drop_frame_every_n > 0) {
        add("drop-frame-every-n=" + std::to_string(drop_frame_every_n));
    }
    if (delay_frame_ms > 0.0) add("delay-frame-ms=" + ms_text(delay_frame_ms));
    if (duplicate_frame_every_n > 0) {
        add("duplicate-frame=" + std::to_string(duplicate_frame_every_n));
    }
    if (corrupt_frame_byte > 0) add("corrupt-frame-byte=" + std::to_string(corrupt_frame_byte));
    return out;
}

}  // namespace ff::coord

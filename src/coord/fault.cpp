#include "coord/fault.h"

#include <cerrno>
#include <cstdlib>

#include "common/error.h"

namespace ff::coord {

std::vector<FaultToken> fault_tokens(const std::string& spec, const std::string& dialect) {
    std::vector<FaultToken> tokens;
    for (std::size_t start = 0; start <= spec.size();) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos) end = spec.size();
        if (end > start) {
            FaultToken& t = tokens.emplace_back();
            t.dialect = dialect;
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

std::int64_t FaultToken::i64() const {
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size() || errno != 0)
        throw common::Error(dialect + ": " + key + "=" + value + ": expected an integer");
    return static_cast<std::int64_t>(v);
}

double FaultToken::f64() const {
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() || errno != 0)
        throw common::Error(dialect + ": " + key + "=" + value + ": expected a number");
    return v;
}

void FaultToken::reject(const std::string& expected) const {
    throw common::Error(dialect + ": unknown token '" + text + "' (expected " + expected + ")");
}

FaultPlan FaultPlan::parse(const std::string& spec) {
    FaultPlan plan;
    for (const FaultToken& t : fault_tokens(spec, "fault plan")) {
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
        } else if (t.key == "delay-lease-ms" && t.has_value) {
            plan.delay_lease_ms = t.f64();
        } else if (t.key == "drop-heartbeats" && !t.has_value) {
            plan.drop_heartbeats = true;
        } else {
            t.reject(
                "kill-after-units=N, abandon-after-units=N, spin-after-units=N, "
                "hog-memory-after-units=N, disconnect-after-units=N, delay-lease-ms=N or "
                "drop-heartbeats");
        }
    }
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
    }
    if (drop_heartbeats) add("drop-heartbeats");
    if (delay_lease_ms > 0.0) {
        add("delay-lease-ms=" + std::to_string(static_cast<long long>(delay_lease_ms)));
    }
    return out;
}

}  // namespace ff::coord

#include "trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "common/json.h"

namespace ffbench {

double Tracer::now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

int Tracer::begin(std::string name, int audit) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.audit = audit;
    s.start_s = now_s();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void Tracer::end(int id) {
    // Called from span guards' destructors, so a misuse aborts instead of
    // throwing.
    if (open_.empty() || open_.back() != id) {
        std::fprintf(stderr, "ffbench: span %d closed out of order\n", id);
        std::abort();
    }
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    open_.pop_back();
}

std::map<std::string, double> Tracer::total_by_name() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += s.end_s - s.start_s;
    return out;
}

std::map<std::string, double> Tracer::self_by_name() const {
    // Children never overlap (one thread), so the time they cover is the
    // sum of their durations.
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - covered[i];
    return out;
}

void Tracer::write_jsonl(const std::string& path, const std::string& header) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("ffbench: cannot write " + path);
    out << header << "\n";
    for (const Span& s : spans_) {
        ff::common::Json j = ff::common::Json::object();
        j["name"] = s.name;
        j["start_s"] = s.start_s;
        j["end_s"] = s.end_s;
        j["parent"] = s.parent;
        j["audit"] = s.audit;
        out << j.dump() << "\n";
    }
    if (!out) throw std::runtime_error("ffbench: short write to " + path);
}

}  // namespace ffbench

// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded around calls into the library's public functions from
// the benchmark's own code (the library itself is not instrumented).  Each
// span carries its name, start and end on steady_clock, the span that was
// open when it began (its parent), and the id of the audit it belongs to.
// Spans stay in memory until the run ends; write_jsonl() dumps them.
// Single-threaded: spans are opened and closed on the benchmark's main thread.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ffbench {

struct Span {
    std::string name;
    double start_s = 0.0;  ///< Seconds since the tracer's epoch.
    double end_s = 0.0;
    int parent = -1;  ///< Index into Tracer::spans(), -1 for a root.
    int audit = -1;   ///< Audit (kernel) id the span belongs to.
};

class Tracer {
public:
    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    /// Opens a span under the innermost open span; returns its index.
    int begin(std::string name, int audit);
    /// Closes span `id`; aborts unless it is the innermost open span.
    void end(int id);

    /// Runs `f` inside a span named `name` and returns its result.  The span
    /// is closed on the exception path too.
    template <class F>
    decltype(auto) time(const char* name, int audit, F&& f) {
        struct Closer {
            Tracer& tracer;
            int id;
            ~Closer() { tracer.end(id); }
        } closer{*this, begin(name, audit)};
        return std::forward<F>(f)();
    }

    /// Duration of every span, summed by name.
    std::map<std::string, double> total_by_name() const;
    /// Self time (duration minus the time covered by direct children),
    /// summed by name.
    std::map<std::string, double> self_by_name() const;

    /// Writes one JSON object per span, preceded by `header` (a JSON object
    /// line, e.g. the host fingerprint).
    void write_jsonl(const std::string& path, const std::string& header) const;

private:
    double now_s() const;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;  ///< Stack of open span indices.
};

}  // namespace ffbench

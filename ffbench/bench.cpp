// ffbench: the in-process half of the benchmark (see ffbench/README.md).
//
//   ffbench detect|sweep|guided --seed N --seconds S [--trace FILE]
//                                [--tiny] [--corrupt-report]
//   ffbench fleet-ref --seed N --seconds S --kernels a,b --ref-dir DIR
//                     [--trace FILE] [--tiny]
//   ffbench spawn <program> <args...>
//
// The first form audits the 38-kernel npbench suite over and over for S
// seconds, timing each pass (wall clock from audit start to finalized
// reports) and checking every pass: verdicts against the planted-bug
// inventory and canonical reports against the run's first audit of the
// same job.  With --trace, half the time runs untraced and half runs traced:
// spans around the library's public calls, plus a single-threaded replay
// of the prepare stages and of the first trials of every instance.
//
// fleet-ref prepares the fleet workload (ffbench/run.py drives the
// coordinator): set-up time, the single-process reference report of each
// fleet job, and the in-process time of the same jobs.
//
// The last stdout line is one JSON object of raw measurements; run.py turns
// it into the benchmark's result line.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/constraints.h"
#include "core/cutout.h"
#include "core/diff_test.h"
#include "core/fuzzer.h"
#include "core/guided.h"
#include "core/mincut.h"
#include "core/report.h"
#include "core/sampler.h"
#include "interp/buffer.h"
#include "shard/manifest.h"
#include "shard/merger.h"
#include "trace.h"
#include "transforms/registry.h"
#include "workloads/npbench.h"

namespace {

using namespace ff;
using common::Json;
using Clock = std::chrono::steady_clock;

/// Threads of every in-process audit (the benchmark host has 4 cores).
constexpr int kThreads = 4;
/// Trials of every instance replayed through the public trial calls in a
/// traced pass.
constexpr int kReplayTrials = 3;
/// Fewest set-ups a run times; set-up time is their median.
constexpr std::size_t kMinSetups = 11;

/// Sampler seeds a run cycles through, pass after pass.  A pass's cost
/// depends on the sizes its trials draw (on detect, mostly the planted
/// hang's first trial), so a run spreads over many seeds to time the
/// typical audit rather than a few draws.  The fleet reference must be the
/// coordinator's single job.
int seed_count(const std::string& workload) {
    if (workload == "detect") return 64;
    if (workload == "fleet-ref") return 1;
    return 16;
}

/// Seeds audited per pass.  A detect audit of the suite takes about 0.1 s,
/// short enough for scheduler jitter to show; its pass audits 8 seeds.
int seeds_per_pass(const std::string& workload) { return workload == "detect" ? 8 : 1; }

/// The paper's Table 2 inventory, as bench/bench_table2_npbench.cpp lists
/// it: the seven transformations an audit must flag.  Everything else must
/// come out clean.  This is the benchmark's own expectation, independent of
/// the code under test.
const std::set<std::string> kTable2Flagged = {
    "BufferTiling[bug:reversed-offset]",
    "TaskletFusion[bug:ignores-downstream-reads]",
    "Vectorization",
    "MapExpansion[bug:dangling-exit]",
    "MapReduceFusion[bug:stale-access-node]",
    "StateAssignElimination[bug:next-state-only]",
    "SymbolAliasPromotion[bug:interstate-only]",
};

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string trace_path;
    bool tiny = false;
    bool corrupt_report = false;
    std::vector<std::string> kernels;
    std::string ref_dir;
    std::string fingerprint = "{}";  ///< Host fingerprint (JSON), stamped on the trace.
};

std::vector<std::string> split_commas(const std::string& s) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > pos) out.push_back(s.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return out;
}

Options parse_options(int argc, char** argv) {
    if (argc < 2) throw std::runtime_error("usage: ffbench <workload> [options]");
    Options o;
    o.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        if (a == "--seed") o.seed = std::stoull(value());
        else if (a == "--seconds") o.seconds = std::stod(value());
        else if (a == "--trace") o.trace_path = value();
        else if (a == "--tiny") o.tiny = true;
        else if (a == "--corrupt-report") o.corrupt_report = true;
        else if (a == "--kernels") o.kernels = split_commas(value());
        else if (a == "--ref-dir") o.ref_dir = value();
        else if (a == "--fingerprint") o.fingerprint = value();
        else throw std::runtime_error("unknown option " + a);
    }
    static const std::set<std::string> known = {"detect", "sweep", "guided", "fleet-ref"};
    if (!known.count(o.workload)) throw std::runtime_error("unknown workload " + o.workload);
    if (o.workload == "fleet-ref" && (o.kernels.empty() || o.ref_dir.empty()))
        throw std::runtime_error("fleet-ref needs --kernels and --ref-dir");
    return o;
}

/// The job every audit of a workload runs with sampler seed number
/// `seed_index` (one per kernel; only the workload name differs).  Mirrors
/// `ffaudit run` so the fleet reference is the CLI's single-process report.
shard::JobSpec workload_job(const Options& o, const std::string& kernel, int seed_index = 0) {
    shard::JobSpec job;
    job.workload = kernel;
    job.passes = o.workload == "detect" ? "table2" : "correct";
    job.seed = o.seed * 1000 + static_cast<std::uint64_t>(seed_index);
    job.max_trials = o.tiny ? 10 : 100;
    if (o.workload == "detect") {
        // bench_table2_npbench's audit: a planted hang costs 2000 state
        // transitions instead of the interpreter default of 100000, and
        // sizes up to 6 keep each of those transitions cheap.
        job.max_state_transitions = 2000;
        job.size_max = 6;
        job.max_trials = 10;
    }
    if (o.workload == "guided") job.feedback = job.coverage = true;
    job.defaults = workloads::npbench_defaults();
    return job;
}

/// Everything built before the first timed audit.
struct Suite {
    std::vector<ir::SDFG> programs;
    std::vector<xform::TransformationPtr> passes;
};

Suite build_suite(const Options& o, const std::vector<std::string>& kernels) {
    Suite s;
    for (const std::string& k : kernels) s.programs.push_back(workloads::build_npbench_kernel(k));
    s.passes = shard::job_passes(workload_job(o, kernels.front()));
    if (o.workload == "detect") {
        // Only the planted-bug passes: the seven transformations Table 2 flags.
        std::erase_if(s.passes, [](const xform::TransformationPtr& p) {
            return !kTable2Flagged.count(p->name());
        });
    }
    return s;
}

/// What one audit of one kernel produced.
struct AuditOut {
    std::vector<core::FuzzReport> reports;
    core::SchedulerStats stats;
    std::size_t corpus_entries = 0;
};

/// One audit through the public prepare / run_range / finalize / corpus
/// calls (what `ffaudit run` does).  With a tracer, each call is a span.
AuditOut run_audit(const core::FuzzConfig& config, const ir::SDFG& program,
                   const std::vector<xform::TransformationPtr>& passes, ffbench::Tracer* tr,
                   int audit) {
    core::Fuzzer fuzzer(config);
    AuditOut out;
    auto step = [&](const char* name, auto&& f) -> decltype(auto) {
        if (!tr) return f();
        return tr->time(name, audit, f);
    };
    core::PreparedAudit prepared =
        step("core.prepare", [&] { return fuzzer.prepare(program, passes); });
    step("core.run_range", [&] { prepared.run_range(0, prepared.unit_count()); });
    out.reports = step("core.finalize", [&] { return prepared.finalize(); });
    if (config.feedback)
        out.corpus_entries = step("feedback.corpus", [&] { return prepared.corpus(); }).size();
    out.stats = prepared.stats();
    return out;
}

/// Replays one kernel's prepare stages and the first trials of every
/// instance through the public per-stage calls, single-threaded, each call
/// a span.  Mirrors core::Fuzzer's prepare_instance and run_unit.
void replay_audit(ffbench::Tracer& tr, int audit, const core::FuzzConfig& given,
                  const ir::SDFG& p, const std::vector<xform::TransformationPtr>& passes,
                  std::map<std::string, double>& counts) {
    core::FuzzConfig config = given;
    if (config.feedback) config.coverage = true;
    if (config.coverage) config.diff.exec.coverage = true;
    core::DiffConfig uninstrumented = config.diff;
    uninstrumented.exec.coverage = false;
    const int trials = std::min(kReplayTrials, config.max_trials);

    for (const auto& pass : passes) {
        const std::vector<xform::Match> matches =
            tr.time("transforms.find_matches", audit, [&] { return pass->find_matches(p); });
        for (const xform::Match& match : matches) {
            const xform::ChangeSet delta = tr.time(
                "transforms.affected_nodes", audit, [&] { return pass->affected_nodes(p, match); });
            core::Cutout cutout = tr.time("core.cutout", audit, [&] {
                return core::extract_cutout(p, delta, config.cutout);
            });
            if (config.use_mincut && !cutout.whole_program) {
                core::MinCutResult mc = tr.time("core.mincut", audit, [&] {
                    return core::minimize_input_configuration(p, delta, cutout, config.cutout);
                });
                counts["mincut_runs"] += 1;
                counts["mincut_improved"] += mc.improved ? 1 : 0;
                cutout = std::move(mc.cutout);
            }
            ir::SDFG transformed = cutout.program;
            try {
                tr.time("transforms.apply", audit, [&] {
                    pass->apply(transformed, cutout.remap_match(match));
                });
            } catch (const std::exception&) {
                continue;  // invalid code at apply: the instance runs no trials
            }
            const core::Constraints constraints = tr.time("core.constraints", audit, [&] {
                return core::derive_constraints(p, cutout.program);
            });
            const core::ValidationResult validation = tr.time(
                "core.validate", audit, [&] { return core::ValidationResult::of(transformed); });

            const core::InputSampler sampler(config.sampler);
            std::optional<core::InstanceFeedback> feedback;
            if (config.feedback)
                feedback.emplace(cutout.program, cutout.input_config, constraints, sampler,
                                 config.diff.exec, config.generation_size, 0);
            core::DifferentialTester tester(cutout.program, transformed, cutout.system_state,
                                            config.diff, nullptr, &validation);
            std::optional<core::DifferentialTester> plain;
            if (config.feedback)
                plain.emplace(cutout.program, transformed, cutout.system_state, uninstrumented,
                              nullptr, &validation);
            interp::Interpreter original_side(config.diff.exec);
            interp::Interpreter transformed_side(config.diff.exec);
            // The first trials, as the scheduler runs them: plans are built
            // on the first one, and a failure ends the instance.
            for (int t = 0; t < trials; ++t) {
                interp::Context inputs;
                try {
                    inputs = tr.time("core.sample", audit, [&] {
                        return feedback ? feedback->sample_trial(t)
                                        : sampler.sample(cutout.program, cutout.input_config,
                                                         constraints,
                                                         static_cast<std::uint64_t>(t));
                    });
                } catch (const std::exception&) {
                    continue;  // unresolvable shapes: an uninteresting trial
                }
                interp::Context a = inputs;
                const interp::ExecResult ra = tr.time("interp.original", audit, [&] {
                    return original_side.run(cutout.program, a);
                });
                if (ra.ok() && validation.valid) {
                    interp::Context b = inputs;
                    const interp::ExecResult rb = tr.time("interp.transformed", audit, [&] {
                        return transformed_side.run(transformed, b);
                    });
                    // The system-state comparison run_trial makes after both
                    // sides completed.
                    if (rb.ok())
                        tr.time("core.compare", audit, [&] {
                            for (const std::string& name : cutout.system_state)
                                if (a.has_buffer(name) && b.has_buffer(name))
                                    interp::compare_buffers(a.buffers.at(name), b.buffers.at(name),
                                                            config.diff.threshold);
                        });
                }
                const core::TrialOutcome outcome =
                    tr.time("core.trial", audit, [&] { return tester.run_trial(inputs); });
                if (plain)
                    tr.time("feedback.uninstrumented_trial", audit,
                              [&] { return plain->run_trial(inputs); });
                if (outcome.verdict != core::Verdict::Pass &&
                    outcome.verdict != core::Verdict::Uninteresting)
                    break;
            }
        }
    }
}

/// Verdict check against the inventory: flagged instances of transformations
/// the inventory calls clean.  (Missing flags are a suite-level check.)
int wrong_instances(const Options& o, const std::vector<core::FuzzReport>& reports) {
    int wrong = 0;
    for (const core::FuzzReport& r : reports) {
        if (!r.failed()) continue;
        // detect runs only inventory passes; sweep/guided may flag only the
        // input-dependent Vectorization.
        const bool allowed = o.workload == "detect" ? kTable2Flagged.count(r.transformation) > 0
                                                    : r.transformation == "Vectorization";
        if (!allowed) ++wrong;
    }
    return wrong;
}

std::string canonical_text(std::vector<core::FuzzReport> reports) {
    return shard::canonical_report_document(std::move(reports)).dump(2) + "\n";
}

/// High-water resident set of this process image.  (getrusage's ru_maxrss
/// would include the spawning process's memory from before exec.)
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// `ffbench spawn <program> <args...>`: runs the program as a forked child
/// and reports its peak resident set, including the children it reaped,
/// on stderr.  Forking from this small process keeps the parent's memory
/// out of the child's high-water mark.
int spawn(char** argv) {
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        execv(argv[0], argv);
        _exit(127);
    }
    int status = 0;
    rusage ru{};
    if (wait4(pid, &status, 0, &ru) != pid) throw std::runtime_error("wait4 failed");
    std::fprintf(stderr, "[ffbench] spawn maxrss_kb %ld\n", ru.ru_maxrss);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/// Accumulates one pass's exact counters (identical on every pass).
struct PassCounts {
    double executed_trials = 0, uninteresting = 0, units = 0, claims = 0;
    double builds = 0, rebinds = 0, hits = 0, launches = 0, fallbacks = 0, segments = 0;
    double points = 0, instructions = 0, input_volume = 0, matches = 0;
    double pairs_total = 0, pairs_hit = 0, corpus_entries = 0, detect_trials = 0;
    std::map<std::string, int> flagged_by_transformation;

    void add(const AuditOut& a) {
        for (const core::FuzzReport& r : a.reports) {
            executed_trials += r.trials + r.uninteresting;
            uninteresting += r.uninteresting;
            points += static_cast<double>(r.original_points + r.transformed_points);
            instructions += static_cast<double>(r.original_instructions + r.transformed_instructions);
            input_volume += static_cast<double>(r.input_volume);
            pairs_total += static_cast<double>(r.pairs_total);
            pairs_hit += static_cast<double>(r.pairs_hit);
            matches += 1;
            if (r.failed()) {
                detect_trials += r.trials;
                ++flagged_by_transformation[r.transformation];
            }
        }
        units += static_cast<double>(a.stats.units);
        claims += static_cast<double>(a.stats.claims);
        builds += a.stats.contexts_built;
        rebinds += a.stats.context_rebinds;
        hits += a.stats.context_hits;
        launches += static_cast<double>(a.stats.spec.kernel_launches);
        fallbacks += static_cast<double>(a.stats.spec.kernel_fallbacks);
        segments += static_cast<double>(a.stats.spec.segment_launches);
        corpus_entries += static_cast<double>(a.corpus_entries);
    }
};

/// Runs the in-process workloads and fleet-ref; returns the raw result.
Json run(const Options& o) {
    std::vector<std::string> kernels = o.kernels;
    if (kernels.empty()) kernels = workloads::npbench_kernel_names();
    // The self-test's kernels: between them, every planted bug has a match.
    if (o.tiny && o.workload != "fleet-ref")
        kernels = {"gemm", "jacobi_1d", "go_fast", "scalar_pipeline", "alias_stages", "durbin_lite"};

    // Set-up: the suite's SDFGs and the pass set.  Built once before the
    // first pass and again after every untimed stretch between passes, so
    // the median compares set-ups under the same conditions as the passes.
    std::vector<double> setup_times;
    Suite suite;
    auto set_up = [&] {
        const auto t0 = Clock::now();
        suite = build_suite(o, kernels);
        setup_times.push_back(seconds_since(t0));
    };
    set_up();
    std::vector<core::FuzzConfig> configs;
    for (int i = 0; i < seed_count(o.workload); ++i) {
        configs.push_back(shard::job_fuzz_config(workload_job(o, kernels.front(), i)));
        configs.back().num_threads = kThreads;
    }
    const std::size_t seeds = configs.size();
    const std::size_t per_pass_seeds = static_cast<std::size_t>(seeds_per_pass(o.workload));

    Json out = Json::object();

    int attempted = 0, failed = 0, wrong_verdicts = 0, mismatches = 0;
    // Digest of the canonical report of every (seed, kernel) job from its
    // first audit; the fleet reference keeps the text for run.py.
    std::vector<std::vector<std::size_t>> reference(seeds, std::vector<std::size_t>(kernels.size(), 0));
    std::vector<std::string> fleet_reference(kernels.size());
    bool corrupted = false;
    std::size_t next_seed = 0;  // position in the seed cycle

    // One pass: the suite audited under the next `per_pass_seeds` seeds of
    // the cycle.  `tr` non-null makes it a traced pass.  Returns the pass's
    // wall clock; `counts` gets one entry per seed.
    auto one_pass = [&](ffbench::Tracer* tr, std::vector<PassCounts>& counts) -> double {
        counts.assign(per_pass_seeds, PassCounts{});
        const std::size_t first = next_seed;
        next_seed += per_pass_seeds;
        std::vector<std::vector<AuditOut>> outs(per_pass_seeds, std::vector<AuditOut>(kernels.size()));
        std::vector<std::vector<bool>> threw(per_pass_seeds, std::vector<bool>(kernels.size(), false));
        const auto t0 = Clock::now();
        const int pass_span = tr ? tr->begin("pass", -1) : -1;
        for (std::size_t j = 0; j < per_pass_seeds; ++j) {
            const core::FuzzConfig& config = configs[(first + j) % seeds];
            for (std::size_t k = 0; k < kernels.size(); ++k) {
                const int id = static_cast<int>(j * kernels.size() + k);
                const int audit_span = tr ? tr->begin("audit", id) : -1;
                try {
                    outs[j][k] = run_audit(config, suite.programs[k], suite.passes, tr, id);
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "ffbench: audit of %s threw: %s\n", kernels[k].c_str(),
                                 e.what());
                    threw[j][k] = true;
                }
                if (tr) tr->end(audit_span);
            }
        }
        if (tr) tr->end(pass_span);
        const double elapsed = seconds_since(t0);

        // Checks (untimed).
        for (std::size_t j = 0; j < per_pass_seeds; ++j) {
            const bool first_audit = first + j < seeds;
            std::vector<std::size_t>& ref = reference[(first + j) % seeds];
            for (std::size_t k = 0; k < kernels.size(); ++k) {
                ++attempted;
                if (threw[j][k]) {
                    ++failed;
                    continue;
                }
                counts[j].add(outs[j][k]);
                const int wrong = wrong_instances(o, outs[j][k].reports);
                std::string text = canonical_text(outs[j][k].reports);
                if (o.corrupt_report && !corrupted && !first_audit) {
                    text[text.size() / 2] ^= 0x01;  // the self-test's planted mismatch
                    corrupted = true;
                }
                const std::size_t digest = std::hash<std::string>{}(text);
                const bool mismatch = !first_audit && digest != ref[k];
                if (first_audit) ref[k] = digest;
                if (first_audit && o.workload == "fleet-ref") fleet_reference[k] = std::move(text);
                wrong_verdicts += wrong;
                mismatches += mismatch ? 1 : 0;
                if (wrong > 0 || mismatch) ++failed;
            }
            if (o.workload == "detect") {
                for (const std::string& name : kTable2Flagged) {
                    if (counts[j].flagged_by_transformation.count(name)) continue;
                    std::fprintf(stderr, "ffbench: %s was not flagged\n", name.c_str());
                    ++wrong_verdicts;
                    ++failed;
                }
            }
        }
        return elapsed;
    };

    {
        const bool traced = !o.trace_path.empty();
        const double untraced_budget = traced ? o.seconds / 2 : o.seconds;
        std::vector<double> samples, executed;
        PassCounts first_counts;
        const auto t0 = Clock::now();
        const auto deadline = t0 + std::chrono::duration<double>(untraced_budget);
        // Every seed once, then at least one repeat, so reports are compared.
        do {
            std::vector<PassCounts> c;
            samples.push_back(one_pass(nullptr, c));
            double trials = 0;
            for (const PassCounts& pc : c) trials += pc.executed_trials;
            executed.push_back(trials);
            if (samples.size() == 1) first_counts = c.front();
            set_up();
        } while (Clock::now() < deadline || next_seed <= seeds);
        while (setup_times.size() < kMinSetups) set_up();
        out["setup_s"] = median(setup_times);
        out["samples"] = Json::array();
        for (double s : samples) out["samples"].push_back(s);
        out["executed"] = Json::array();
        for (double e : executed) out["executed"].push_back(e);
        out["detect_trials"] = first_counts.detect_trials;
        out["pairs_hit"] = first_counts.pairs_hit;
        out["instances_per_pass"] = first_counts.matches * static_cast<double>(per_pass_seeds);

        if (traced) {
            // Replays cover the first seed of each traced pass, so every
            // time below is per audit of the suite under one seed.
            ffbench::Tracer tr;
            std::map<std::string, double> replay_counts;
            std::vector<double> traced_walls;
            // Counts come from the run's first audit of the suite (seed 0),
            // so exact ones repeat on a seed.
            const PassCounts& tc = first_counts;
            const auto trace_deadline =
                Clock::now() + std::chrono::duration<double>(o.seconds - seconds_since(t0));
            do {
                const auto w0 = Clock::now();
                std::vector<PassCounts> c;
                const core::FuzzConfig& config = configs[next_seed % seeds];
                one_pass(&tr, c);
                const int replay = tr.begin("replay", -1);
                for (std::size_t k = 0; k < kernels.size(); ++k)
                    replay_audit(tr, static_cast<int>(k), config, suite.programs[k], suite.passes,
                                 replay_counts);
                tr.end(replay);
                traced_walls.push_back(seconds_since(w0));
            } while (Clock::now() < trace_deadline);
            const double passes = static_cast<double>(traced_walls.size());
            // Every layer span is a leaf, so its total is its self time;
            // "pass" and "audit" self time is what no layer span covers.
            const auto total = tr.total_by_name();
            const auto self = tr.self_by_name();
            static const std::set<std::string> replayed = {
                "transforms.find_matches", "transforms.affected_nodes", "transforms.apply",
                "core.cutout", "core.mincut", "core.constraints", "core.validate", "core.sample",
                "core.trial", "core.compare", "interp.original", "interp.transformed",
                "feedback.uninstrumented_trial", "replay"};
            auto per_pass = [&](const std::string& name) {
                auto it = total.find(name);
                if (it == total.end()) return 0.0;
                const double audits = replayed.count(name) ? 1.0 : static_cast<double>(per_pass_seeds);
                return it->second / passes / audits;
            };
            Json layers = Json::object();
            for (const char* name :
                 {"transforms.find_matches", "transforms.affected_nodes", "transforms.apply",
                  "core.cutout", "core.mincut", "core.constraints", "core.validate",
                  "core.prepare", "core.sample", "core.trial", "core.run_range", "core.finalize",
                  "interp.original", "interp.transformed", "feedback.corpus"})
                layers[std::string(name) + "_s"] = per_pass(name);
            const double sides = per_pass("interp.original") + per_pass("interp.transformed");
            layers["core.compare_s"] = per_pass("core.compare");
            const bool feedback = configs.front().feedback;
            const double instrumentation =
                feedback ? per_pass("core.trial") - per_pass("feedback.uninstrumented_trial")
                                : 0.0;
            layers["feedback.instrumentation_s"] = instrumentation;
            layers["transforms.matches"] = tc.matches;
            layers["core.input_volume"] = tc.input_volume;
            layers["core.mincut_improved_ratio"] =
                replay_counts["mincut_runs"] > 0
                    ? replay_counts["mincut_improved"] / replay_counts["mincut_runs"]
                    : 0.0;
            layers["core.units"] = tc.units;
            layers["core.claims"] = tc.claims;
            layers["core.context_builds"] = tc.builds;
            layers["core.context_rebinds"] = tc.rebinds;
            layers["core.context_hits"] = tc.hits;
            layers["core.useful_ratio"] = tc.units > 0 ? tc.executed_trials / tc.units : 0.0;
            layers["core.uninteresting_ratio"] =
                tc.executed_trials > 0 ? tc.uninteresting / tc.executed_trials : 0.0;
            layers["interp.points"] = tc.points;
            layers["interp.instructions"] = tc.instructions;
            layers["interp.kernel_launches"] = tc.launches;
            layers["interp.kernel_fallbacks"] = tc.fallbacks;
            layers["interp.segment_launches"] = tc.segments;
            layers["feedback.corpus_entries"] = tc.corpus_entries;
            layers["feedback.pairs_total"] = tc.pairs_total;
            layers["feedback.pairs_hit"] = tc.pairs_hit;

            // Shares of the traced pass's wall clock.  prepare, run_range,
            // finalize and corpus partition each audit; the replay's per-trial
            // costs (sample + run_trial) split run_range into interpreter
            // sides, coverage instrumentation, sampling and the rest of the
            // trial layer.  Guided sampling is the feedback module's work.
            const double pass_s = per_pass("pass");
            const double run_range = per_pass("core.run_range");
            const double sample = per_pass("core.sample");
            const double unit = sample + per_pass("core.trial");
            auto frac = [&](double part, double cap) {
                return unit > 0 ? std::clamp(part / unit, 0.0, std::max(cap, 0.0)) : 0.0;
            };
            const double f_sample = frac(sample, 1.0);
            const double f_sides = frac(sides, 1.0 - f_sample);
            const double f_instr = frac(instrumentation, 1.0 - f_sample - f_sides);
            const double f_rest = 1.0 - f_sample - f_sides - f_instr;
            const double f_feedback = f_instr + (feedback ? f_sample : 0.0);
            Json shares = Json::object();
            shares["prepare"] = per_pass("core.prepare") / pass_s;
            shares["interp"] = run_range * f_sides / pass_s;
            shares["feedback"] = (run_range * f_feedback + per_pass("feedback.corpus")) / pass_s;
            shares["trial"] = (run_range * (f_rest + (feedback ? 0.0 : f_sample)) +
                               per_pass("core.finalize")) /
                              pass_s;
            auto self_per_pass = [&](const std::string& name) {
                auto it = self.find(name);
                return it == self.end() ? 0.0 : it->second / passes / static_cast<double>(per_pass_seeds);
            };
            shares["unattributed"] = (self_per_pass("pass") + self_per_pass("audit")) / pass_s;
            layers["shares"] = shares;
            layers["traced_wall_s"] = median(traced_walls);
            layers["replay_s"] = per_pass("replay");
            layers["traced_passes"] = passes;
            out["layers"] = layers;
            tr.write_jsonl(o.trace_path, o.fingerprint);
        }
    }
    if (o.workload == "fleet-ref") {
        // The single-process report of every fleet job, for run.py to
        // compare the coordinator's reports against.
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            std::ofstream f(o.ref_dir + "/" + kernels[k] + ".json", std::ios::binary | std::ios::trunc);
            f << fleet_reference[k];
            if (!f) throw std::runtime_error("cannot write the fleet reference for " + kernels[k]);
        }
        if (!o.trace_path.empty()) {
            // Shard planning, the coordinator's first step.
            std::vector<double> plan;
            for (std::size_t rep = 0; rep < kMinSetups; ++rep) {
                const auto t0 = Clock::now();
                for (const std::string& k : kernels) {
                    const shard::JobSpec job = workload_job(o, k);
                    shard::plan_shards(job, shard::load_job_program(job), 4);
                }
                plan.push_back(seconds_since(t0));
            }
            out["plan_s"] = median(plan);
        }
    }
    out["attempted"] = attempted;
    out["failed"] = failed;
    out["wrong_verdicts"] = wrong_verdicts;
    out["report_mismatches"] = mismatches;
    out["peak_rss_mb"] = peak_rss_mb();
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc >= 3 && std::string(argv[1]) == "spawn") return spawn(argv + 2);
        const Options o = parse_options(argc, argv);
        std::printf("%s\n", run(o).dump().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ffbench: %s\n", e.what());
        return 1;
    }
}

#include "core/diff_test.h"

#include <algorithm>

#include "common/error.h"

namespace ff::core {

namespace {

void hash_buffer(common::Hasher128& h, const interp::Buffer& buffer) {
    h.u64(static_cast<std::uint64_t>(buffer.dtype())).u64(buffer.dims());
    for (std::int64_t extent : buffer.shape()) h.u64(static_cast<std::uint64_t>(extent));
    h.bytes(buffer.raw_data(), buffer.raw_bytes());
}

/// Content digest of one buffer: dtype, shape and bytes.
common::Digest128 buffer_digest(const interp::Buffer& buffer) {
    common::Hasher128 h;
    hash_buffer(h, buffer);
    return h.finish();
}

/// Digest of an input configuration: every symbol binding and every buffer.
common::Digest128 context_digest(const interp::Context& ctx) {
    common::Hasher128 h;
    h.u64(ctx.symbols.size());
    for (const auto& [name, value] : ctx.symbols)
        h.str(name).u64(static_cast<std::uint64_t>(value));
    h.u64(ctx.buffers.size());
    for (const auto& [name, buffer] : ctx.buffers) {
        h.str(name);
        hash_buffer(h, buffer);
    }
    return h.finish();
}

/// Whether `ctx` holds exactly the system state `entry` recorded: the same
/// containers present, each with the same content digest.
bool state_matches(const OriginalMemo::Entry& entry, const interp::Context& ctx,
                   const std::set<std::string>& system_state) {
    std::size_t k = 0;
    for (const std::string& name : system_state) {
        const std::optional<common::Digest128>& want = entry.state[k++];
        const auto it = ctx.buffers.find(name);
        if (it == ctx.buffers.end() ? want.has_value()
                                    : !want || buffer_digest(it->second) != *want)
            return false;
    }
    return true;
}

/// What the memo keeps of an original-side run: `outcome` holds its
/// counters and coverage, `ctx` its system state.
OriginalMemo::Entry memo_entry(const common::Digest128& inputs, const interp::ExecResult& run,
                               const TrialOutcome& outcome, const interp::Context& ctx,
                               const std::set<std::string>& system_state) {
    OriginalMemo::Entry entry;
    entry.inputs = inputs;
    entry.status = run.status;
    entry.message = run.message;
    if (!run.ok()) return entry;
    entry.points = outcome.original_points;
    entry.instructions = outcome.original_instructions;
    entry.coverage = outcome.coverage;
    for (const std::string& name : system_state) {
        const auto it = ctx.buffers.find(name);
        entry.state.push_back(it == ctx.buffers.end() ? std::nullopt
                                                      : std::optional(buffer_digest(it->second)));
    }
    return entry;
}

/// The outcome of a trial whose *original* side rejected the input: a
/// crash, a hang or an exhausted resource budget is the input's fault, and
/// the trial is resampled.
TrialOutcome uninteresting(const std::string& message) {
    TrialOutcome outcome;
    outcome.verdict = Verdict::Uninteresting;
    outcome.detail = message;
    return outcome;
}

}  // namespace

OriginalMemo::OriginalMemo(int trials) : entries_(static_cast<std::size_t>(std::max(trials, 0))) {}

const OriginalMemo::Entry* OriginalMemo::lookup(int trial, const common::Digest128& inputs) {
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry* entry = trial >= 0 && static_cast<std::size_t>(trial) < entries_.size()
                             ? entries_[static_cast<std::size_t>(trial)].get()
                             : nullptr;
    if (entry && entry->inputs == inputs) {
        ++stats_.hits;
        return entry;
    }
    ++stats_.misses;
    return nullptr;
}

void OriginalMemo::publish(int trial, Entry entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (trial < 0 || static_cast<std::size_t>(trial) >= entries_.size()) return;
    std::unique_ptr<const Entry>& slot = entries_[static_cast<std::size_t>(trial)];
    if (!slot) slot = std::make_unique<const Entry>(std::move(entry));
}

void OriginalMemo::note_fallback() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.fallbacks;
}

MemoStats OriginalMemo::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

const char* verdict_name(Verdict v) {
    switch (v) {
        case Verdict::Pass: return "pass";
        case Verdict::SemanticsChanged: return "semantics-changed";
        case Verdict::TransformedCrash: return "transformed-crash";
        case Verdict::TransformedHang: return "transformed-hang";
        case Verdict::InvalidCode: return "invalid-code";
        case Verdict::Uninteresting: return "uninteresting";
        case Verdict::ResourceExhausted: return "resource-exhausted";
    }
    return "?";
}

Verdict verdict_from_name(const std::string& name) {
    // Every enum value must appear here — the exhaustive round-trip test in
    // tests/test_fuzzer.cpp fails on any gap.
    for (Verdict v : {Verdict::Pass, Verdict::SemanticsChanged, Verdict::TransformedCrash,
                      Verdict::TransformedHang, Verdict::InvalidCode, Verdict::Uninteresting,
                      Verdict::ResourceExhausted}) {
        if (name == verdict_name(v)) return v;
    }
    throw common::Error("unknown verdict name: " + name);
}

ValidationResult ValidationResult::of(const ir::SDFG& transformed) {
    ValidationResult result;
    try {
        transformed.validate();
    } catch (const std::exception& e) {
        result.valid = false;
        result.error = e.what();
    }
    return result;
}

DifferentialTester::DifferentialTester(DiffConfig config)
    // One interpreter for both sides, retained for the tester's lifetime:
    // its execution scratch arena is amortized over every trial, and state
    // plans and compiled tasklet bytecode live in the bound instance's plan
    // cache (config.exec.use_compiled_tasklets selects the engine).  An
    // unbound tester carries a throwaway private cache; bind() installs the
    // instance's shared cache.
    : config_(config), interp_(config.exec) {}

DifferentialTester::DifferentialTester(const ir::SDFG& original, const ir::SDFG& transformed,
                                       std::set<std::string> system_state, DiffConfig config,
                                       interp::PlanCachePtr plan_cache,
                                       const ValidationResult* prevalidated)
    : DifferentialTester(config) {
    owned_system_state_ = std::move(system_state);
    bind(original, transformed, owned_system_state_, std::move(plan_cache), prevalidated);
}

void DifferentialTester::bind(const ir::SDFG& original, const ir::SDFG& transformed,
                              const std::set<std::string>& system_state,
                              interp::PlanCachePtr plan_cache,
                              const ValidationResult* prevalidated, OriginalMemo* memo) {
    original_ = &original;
    transformed_ = &transformed;
    system_state_ = &system_state;
    memo_ = memo;
    // Both sides share one plan cache — and with it every sibling tester
    // running trials of the same instance on other threads.
    interp_.rebind_plan_cache(std::move(plan_cache));
    validation_ = prevalidated ? *prevalidated : ValidationResult::of(transformed);

    // Coverage instruments the *original* side only: the corpus and report
    // counters are defined over original-side def-use pairs, which exist on
    // every trial (the transformed side may not even run).
    if (config_.exec.coverage) atlas_ = interp_.plan_cache()->atlas_for(original);
    else atlas_.reset();
}

TrialOutcome DifferentialTester::run_trial(const interp::Context& inputs, int trial) {
    if (!original_) throw common::Error("DifferentialTester: run_trial on unbound tester");
    if (!validation_.valid) {
        TrialOutcome invalid;
        invalid.verdict = Verdict::InvalidCode;
        invalid.detail = validation_.error;
        return invalid;
    }

    // The original side: from the class memo when an equal cutout already
    // ran these inputs, else run here (and published for the class).
    OriginalMemo* const memo = trial >= 0 ? memo_ : nullptr;
    const common::Digest128 input_digest = memo ? context_digest(inputs) : common::Digest128{};
    const OriginalMemo::Entry* const hit = memo ? memo->lookup(trial, input_digest) : nullptr;
    TrialOutcome outcome;
    interp::Context ctx_original;
    if (hit) {
        if (hit->status != interp::ExecStatus::Ok) return uninteresting(hit->message);
        outcome.original_points = hit->points;
        outcome.original_instructions = hit->instructions;
        outcome.coverage = hit->coverage;
    } else {
        // The coverage map is installed only while this run executes.
        if (atlas_) {
            cov_map_.reset(atlas_->pair_count());
            interp_.set_coverage(&cov_map_);
        }
        ctx_original = inputs;
        const interp::ExecResult r1 = interp_.run(*original_, ctx_original);
        interp_.set_coverage(nullptr);
        if (r1.ok()) {
            outcome.original_points = r1.points;
            outcome.original_instructions = r1.instructions;
            if (atlas_) outcome.coverage = cov_map_.trimmed_words();
        }
        if (memo)
            memo->publish(trial,
                          memo_entry(input_digest, r1, outcome, ctx_original, *system_state_));
        if (!r1.ok()) return uninteresting(r1.message);
    }

    interp::Context ctx_transformed = inputs;
    const interp::ExecResult r2 = interp_.run(*transformed_, ctx_transformed);
    if (r2.status == interp::ExecStatus::Hang) {
        outcome.verdict = Verdict::TransformedHang;
        outcome.detail = r2.message;
        return outcome;
    }
    if (r2.status == interp::ExecStatus::Crash) {
        outcome.verdict = Verdict::TransformedCrash;
        outcome.detail = r2.message;
        return outcome;
    }
    if (r2.status == interp::ExecStatus::Resource) {
        outcome.verdict = Verdict::ResourceExhausted;
        outcome.detail = r2.message;
        return outcome;
    }
    outcome.transformed_points = r2.points;
    outcome.transformed_instructions = r2.instructions;

    if (hit) {
        // Bitwise-equal system state passes at every threshold.  Anything
        // else needs the original's buffers: re-run it (a pure function of
        // the inputs) and compare exactly.
        if (state_matches(*hit, ctx_transformed, *system_state_)) {
            outcome.verdict = Verdict::Pass;
            return outcome;
        }
        memo->note_fallback();
        ctx_original = inputs;
        interp_.run(*original_, ctx_original);
    }

    // System-state comparison.
    for (const auto& name : *system_state_) {
        const bool in1 = ctx_original.has_buffer(name);
        const bool in2 = ctx_transformed.has_buffer(name);
        if (!in1 && !in2) continue;  // neither side touched it
        if (in1 != in2) {
            outcome.verdict = Verdict::SemanticsChanged;
            outcome.detail = "system state container '" + name + "' produced by only one side";
            return outcome;
        }
        const auto mismatch = interp::compare_buffers(
            ctx_original.buffers.at(name), ctx_transformed.buffers.at(name), config_.threshold);
        if (mismatch) {
            outcome.verdict = Verdict::SemanticsChanged;
            outcome.detail = "'" + name + "' differs at flat index " +
                             std::to_string(mismatch->flat_index) + ": " +
                             std::to_string(mismatch->lhs) + " vs " +
                             std::to_string(mismatch->rhs);
            return outcome;
        }
    }
    outcome.verdict = Verdict::Pass;
    return outcome;
}

}  // namespace ff::core

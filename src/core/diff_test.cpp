#include "core/diff_test.h"

#include "common/error.h"

namespace ff::core {

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
    // One interpreter per side, retained for the tester's lifetime: state
    // plans, compiled tasklet bytecode and the execution scratch arena are
    // built on the first trial of a binding and amortized over every
    // subsequent one (config.exec.use_compiled_tasklets selects the engine).
    // An unbound tester carries throwaway private caches; bind() installs
    // the instance's shared cache.
    : config_(config), interp_original_(config.exec), interp_transformed_(config.exec) {}

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
                              const ValidationResult* prevalidated) {
    original_ = &original;
    transformed_ = &transformed;
    system_state_ = &system_state;
    // Both sides share one plan cache — and with it every sibling tester
    // running trials of the same instance on other threads.
    interp_original_.rebind_plan_cache(plan_cache ? std::move(plan_cache)
                                                  : std::make_shared<interp::PlanCache>());
    interp_transformed_.rebind_plan_cache(interp_original_.plan_cache());
    validation_ = prevalidated ? *prevalidated : ValidationResult::of(transformed);

    // Coverage instruments the *original* side only: the corpus and report
    // counters are defined over original-side def-use pairs, which exist on
    // every trial (the transformed side may not even run).
    if (config_.exec.coverage) {
        atlas_ = interp_original_.plan_cache()->atlas_for(original);
        cov_map_.reset(atlas_->pair_count());
        interp_original_.set_coverage(&cov_map_);
    } else {
        atlas_.reset();
        interp_original_.set_coverage(nullptr);
    }
}

TrialOutcome DifferentialTester::run_trial(const interp::Context& inputs) {
    if (!original_) throw common::Error("DifferentialTester: run_trial on unbound tester");
    if (!validation_.valid) {
        TrialOutcome invalid;
        invalid.verdict = Verdict::InvalidCode;
        invalid.detail = validation_.error;
        return invalid;
    }

    if (atlas_) cov_map_.reset(atlas_->pair_count());
    interp::Context ctx_original = inputs;
    const interp::ExecResult r1 = interp_original_.run(*original_, ctx_original);
    // A resource-budget exhaustion on the *original* side is the input's
    // fault, exactly like an original-side crash or hang: resampled.
    if (!r1.ok()) {
        TrialOutcome uninteresting;
        uninteresting.verdict = Verdict::Uninteresting;
        uninteresting.detail = r1.message;
        return uninteresting;
    }

    TrialOutcome outcome;
    outcome.original_points = r1.points;
    outcome.original_instructions = r1.instructions;
    if (atlas_) outcome.coverage = cov_map_.trimmed_words();

    interp::Context ctx_transformed = inputs;
    const interp::ExecResult r2 = interp_transformed_.run(*transformed_, ctx_transformed);
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

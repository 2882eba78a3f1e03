#include "core/fuzzer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.h"
#include "core/guided.h"
#include "core/report.h"
#include "core/testcase_io.h"
#include "ir/serialize.h"

namespace ff::core {

namespace {

std::size_t count_dataflow_nodes(const ir::SDFG& sdfg) {
    std::size_t n = 0;
    for (ir::StateId sid : sdfg.states()) n += sdfg.state(sid).graph().node_count();
    return n;
}

/// Resolves the config's implication chain (feedback => coverage =>
/// instrumented interpreters) once, so prepare, the worker contexts and the
/// per-instance feedback state all see the same effective settings.
FuzzConfig normalized_config(FuzzConfig config) {
    if (config.feedback) config.coverage = true;
    if (config.coverage) config.diff.exec.coverage = true;
    if (config.generation_size < 1) config.generation_size = 1;
    return config;
}

int resolve_thread_count(int requested, std::int64_t available_units) {
    int t = requested;
    if (t <= 0) t = static_cast<int>(std::thread::hardware_concurrency());
    // Never more workers than units (a zero-unit audit needs one worker at
    // most — it exits on its first claim).
    const std::int64_t cap = std::max<std::int64_t>(available_units, 1);
    return static_cast<int>(std::clamp<std::int64_t>(t, 1, cap));
}

/// One transformation instance: its match, the cutout pipeline's output
/// once prepared, plus everything trial execution writes.  Pinned in a
/// deque (atomics make it immovable; workers index it concurrently).
struct InstanceJob {
    std::size_t index = 0;      ///< Position in the audit.
    std::size_t pass = 0;       ///< Index of its transformation in the pass set.
    xform::Match match;         ///< The match discovery found.
    bool prepared = false;      ///< The per-instance pipeline has run.
    FuzzReport report;          ///< Filled by prepare, merged by finalize.
    Cutout cutout;              ///< Extracted (possibly min-cut) cutout.
    ir::SDFG transformed;       ///< Cutout with the transformation applied.
    Constraints constraints;    ///< Gray-box sampling constraints.
    InputSampler sampler;       ///< Deterministic (seed, trial) input source.
    ValidationResult validation;  ///< Of `transformed`, computed once.
    /// Key of the instance's cutout class (see cutout_key); set for
    /// instances whose trials run both sides.
    std::optional<common::Digest128> class_key;
    /// The original-side memo the instance shares with the other members
    /// of its cutout class (null while it has none).  Owned by the audit.
    OriginalMemo* memo = nullptr;
    /// The instance's compiled artifacts (plans, tasklet programs, coverage
    /// atlas), shared by every tester bound to it and by the feedback
    /// derivation; they live as long as the prepared audit.
    interp::PlanCachePtr plans;
    std::vector<TrialRecord> records;  ///< Per-trial slots, indexed by trial.
    /// Coverage-guided trial generation state (feedback jobs only); holds
    /// references into this job, which the deque pins in place.
    std::unique_ptr<InstanceFeedback> feedback;
    bool runnable = false;      ///< false: report is final (apply failed).
    double setup_seconds = 0.0;  ///< Cutout + min-cut + apply + constraints.
    /// Trial-phase wall clock: ns offsets from the pool epoch of the first
    /// claimed and last finished unit (CAS min/max, any worker).
    std::atomic<std::int64_t> first_ns{std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::int64_t> last_ns{-1};
};

/// Global (instance, trial) unit queue over one contiguous range of the
/// flat unit space `instance * max_trials + trial`; a single monotonic
/// cursor hands out one unit per claim.  Monotonicity gives the determinism
/// invariant: every trial with an index <= its instance's lowest failure is
/// guaranteed to execute *within the range*, which is all
/// merge_trial_records needs once every range of the unit space has run
/// somewhere (single process or cross-process shards).  (For uniform
/// micro-tasks like fuzz trials, work stealing degenerates to exactly this
/// single shared queue; per-thread deques would only add overhead — see
/// docs/ARCHITECTURE.md.)
///
/// Monotonicity also makes the completed prefix of the range cheap to know:
/// each worker announces the unit it is about to claim before its claim can
/// succeed and withdraws it once the claimed trial is done, so every unit
/// below min(cursor, every announced unit) has finished.
class AuditScheduler {
public:
    /// A claimed (instance, trial) unit.
    struct Claim {
        int instance = 0;  ///< Instance (job) index.
        int trial = 0;     ///< Trial index within the instance.
    };

    AuditScheduler(std::size_t instances, int max_trials, std::int64_t unit_begin,
                   std::int64_t unit_end, int workers)
        : max_trials_(std::max(max_trials, 0)),
          end_(unit_end),
          next_(unit_begin),
          stop_(instances),
          in_flight_(static_cast<std::size_t>(workers)) {
        for (auto& s : stop_) s.store(max_trials_, std::memory_order_relaxed);
        for (auto& f : in_flight_) f.store(kIdle, std::memory_order_relaxed);
    }

    /// Excludes an instance entirely (setup failed); its units are skipped.
    void skip_instance(std::size_t instance) {
        stop_[instance].store(-1, std::memory_order_release);
    }

    /// Claims the next unit for `worker`; false when the range is drained
    /// (or aborted).  The claim stays in flight until finish(worker).
    bool claim(int worker, Claim& c) {
        std::atomic<std::int64_t>& announced = in_flight_[static_cast<std::size_t>(worker)];
        std::int64_t u = next_.load(std::memory_order_seq_cst);
        for (;;) {
            // Announce before the cursor can move past u: a prefix reader
            // that sees the moved cursor also sees this announcement.
            announced.store(u, std::memory_order_seq_cst);
            if (aborted_.load(std::memory_order_acquire) || u >= end_) {
                announced.store(kIdle, std::memory_order_seq_cst);
                return false;
            }
            const int inst = static_cast<int>(u / max_trials_);
            const int trial = static_cast<int>(u % max_trials_);
            if (trial > stop_at(static_cast<std::size_t>(inst))) {
                // Everything left in this instance is past its stop index:
                // jump the cursor to the next instance's first unit.
                const std::int64_t next_inst =
                    (static_cast<std::int64_t>(inst) + 1) * max_trials_;
                if (next_.compare_exchange_weak(u, next_inst, std::memory_order_seq_cst))
                    u = next_inst;
                continue;
            }
            if (next_.compare_exchange_weak(u, u + 1, std::memory_order_seq_cst)) {
                c = Claim{inst, trial};
                return true;
            }
        }
    }

    /// `worker`'s claim is done (its slot is final).
    void finish(int worker) {
        in_flight_[static_cast<std::size_t>(worker)].store(kIdle, std::memory_order_seq_cst);
    }

    /// Every unit below this one has finished or was skipped.
    std::int64_t completed_prefix() const {
        std::int64_t prefix = next_.load(std::memory_order_seq_cst);
        for (const auto& f : in_flight_)
            prefix = std::min(prefix, f.load(std::memory_order_seq_cst));
        return std::min(prefix, end_);
    }

    /// Records a failure; later trials of that instance stop being claimed.
    void fail_at(std::size_t instance, int trial) {
        auto& stop = stop_[instance];
        int cur = stop.load(std::memory_order_acquire);
        while (trial < cur &&
               !stop.compare_exchange_weak(cur, trial, std::memory_order_acq_rel)) {
        }
    }

    /// Current stop index of `instance` (trials above it are irrelevant).
    int stop_at(std::size_t instance) const {
        return stop_[instance].load(std::memory_order_acquire);
    }

    /// Stops all further claims (a worker raised).
    void abort() { aborted_.store(true, std::memory_order_release); }

private:
    static constexpr std::int64_t kIdle = std::numeric_limits<std::int64_t>::max();

    const int max_trials_;
    const std::int64_t end_;  // one past the last unit of the range
    std::atomic<std::int64_t> next_;
    std::atomic<bool> aborted_{false};
    std::vector<std::atomic<int>> stop_;  // per-instance early-stop index
    /// Per worker: the unit its current claim is (kIdle between claims).
    std::vector<std::atomic<std::int64_t>> in_flight_;
};

/// A pool-worker slot's execution context: its tester (one interpreter +
/// scratch) and the instance (and class memo) that tester is bound to.  Kept
/// by the PreparedAudit across run_range calls and reset_trials().
struct WorkerContext {
    static constexpr std::size_t kUnbound = std::numeric_limits<std::size_t>::max();
    std::unique_ptr<DifferentialTester> tester;  ///< Null until first claimed.
    std::size_t instance = kUnbound;             ///< Binding of `tester`.
    /// Memo of the binding: an instance gains one when a later prepare
    /// finds the first other member of its class.
    const OriginalMemo* memo = nullptr;
};

/// Everything the worker pool shares for one run.
struct PoolShared {
    PoolShared(std::deque<InstanceJob>& j, AuditScheduler& s, std::vector<WorkerContext>& c,
               const DiffConfig& d)
        : jobs(j), scheduler(s), contexts(c), diff(d) {}

    std::deque<InstanceJob>& jobs;
    AuditScheduler& scheduler;
    /// One slot per worker, handed out in first-claim order (next_slot), so
    /// a range that needs fewer workers than an earlier one reuses the
    /// slots the earlier one built.
    std::vector<WorkerContext>& contexts;
    const DiffConfig& diff;  ///< Settings of every built tester.
    std::chrono::steady_clock::time_point epoch{};
    std::atomic<int> next_slot{0};
    std::atomic<std::int64_t> units{0};
    std::atomic<int> contexts_built{0};
    std::atomic<int> context_hits{0};
    std::atomic<int> context_rebinds{0};
    /// Called by a worker after each finished claim (streaming ranges only).
    std::function<void()> after_claim;
    std::exception_ptr error;
    std::mutex error_mutex;
};

std::int64_t ns_since(std::chrono::steady_clock::time_point epoch) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

void atomic_store_min(std::atomic<std::int64_t>& a, std::int64_t v) {
    std::int64_t cur = a.load(std::memory_order_relaxed);
    while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
    }
}

void atomic_store_max(std::atomic<std::int64_t>& a, std::int64_t v) {
    std::int64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
    }
}

/// Runs one (instance, trial) unit: sample inputs, differential-execute,
/// record the outcome in the instance's trial slot.
void run_unit(InstanceJob& job, int trial, DifferentialTester& tester,
              AuditScheduler& scheduler) {
    TrialRecord& rec = job.records[static_cast<std::size_t>(trial)];
    interp::Context inputs;
    try {
        // Guided jobs draw from the feedback scheduler (a pure function of
        // the prepared job, like the plain sampler path).
        inputs = job.feedback ? job.feedback->sample_trial(trial)
                              : job.sampler.sample(job.cutout.program, job.cutout.input_config,
                                                   job.constraints,
                                                   static_cast<std::uint64_t>(trial));
    } catch (const std::exception&) {
        rec.kind = TrialRecord::Kind::Uninteresting;  // unresolvable shapes
        if (job.feedback) job.feedback->note_trial(trial, {});
        return;
    }
    const TrialOutcome outcome = tester.run_trial(inputs, trial);
    // Donate the original-side coverage so corpus derivation at finalize
    // does not have to re-execute this trial.
    if (job.feedback) job.feedback->note_trial(trial, outcome.coverage);
    rec.coverage = outcome.coverage;
    rec.original_points = outcome.original_points;
    rec.original_instructions = outcome.original_instructions;
    rec.transformed_points = outcome.transformed_points;
    rec.transformed_instructions = outcome.transformed_instructions;
    if (outcome.verdict == Verdict::Uninteresting) {
        rec.kind = TrialRecord::Kind::Uninteresting;
        return;
    }
    if (outcome.verdict == Verdict::Pass) {
        rec.kind = TrialRecord::Kind::Pass;
        return;
    }
    rec.verdict = outcome.verdict;
    rec.detail = outcome.detail;
    rec.inputs = std::make_unique<interp::Context>(std::move(inputs));
    rec.kind = TrialRecord::Kind::Failed;
    scheduler.fail_at(job.index, trial);
}

/// Points a worker's context at `job`: builds the slot's tester on its
/// first use, keeps one already bound to the job (a hit), rebinds otherwise.
void bind_context(PoolShared& sh, WorkerContext& ctx, InstanceJob& job) {
    if (ctx.tester && ctx.instance == job.index && ctx.memo == job.memo) {
        sh.context_hits.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (ctx.tester) {
        sh.context_rebinds.fetch_add(1, std::memory_order_relaxed);
    } else {
        ctx.tester = std::make_unique<DifferentialTester>(sh.diff);
        sh.contexts_built.fetch_add(1, std::memory_order_relaxed);
    }
    // A bind that throws leaves the tester unbound, never a stale hit for
    // a later range.
    ctx.instance = WorkerContext::kUnbound;
    ctx.tester->bind(job.cutout.program, job.transformed, job.cutout.system_state, job.plans,
                     &job.validation, job.memo);
    ctx.instance = job.index;
    ctx.memo = job.memo;
}

/// One worker of the audit-wide pool: claims units off the global queue,
/// taking a context slot on its first claim and pointing it at the claim's
/// instance whenever that differs from the previous claim's.
void run_worker(PoolShared& sh, int worker) {
    WorkerContext* ctx = nullptr;
    int current = -1;  // instance of the previous claim
    try {
        AuditScheduler::Claim c;
        while (sh.scheduler.claim(worker, c)) {
            InstanceJob& job = sh.jobs[static_cast<std::size_t>(c.instance)];
            // Stamp before the context (re)bind so plan building counts
            // toward the instance's trial-phase wall clock.
            atomic_store_min(job.first_ns, ns_since(sh.epoch));
            if (!ctx)
                ctx = &sh.contexts[static_cast<std::size_t>(
                    sh.next_slot.fetch_add(1, std::memory_order_relaxed))];
            if (c.instance != current) {
                bind_context(sh, *ctx, job);
                current = c.instance;
            }
            run_unit(job, c.trial, *ctx->tester, sh.scheduler);
            sh.units.fetch_add(1, std::memory_order_relaxed);
            atomic_store_max(job.last_ns, ns_since(sh.epoch));
            sh.scheduler.finish(worker);
            if (sh.after_claim) sh.after_claim();
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(sh.error_mutex);
        if (!sh.error) sh.error = std::current_exception();
        sh.scheduler.abort();
    }
}

/// Key of a cutout's class: a digest of the serialized cutout program, its
/// input configuration and its system state.  Within an audit, trial inputs
/// and the original side's run are functions of these alone (constraints
/// derive from the audited program and the cutout program; sampler seed and
/// exec settings are audit-wide), so instances with equal keys run equal
/// original sides on equal inputs.
common::Digest128 cutout_key(const Cutout& cutout) {
    common::Hasher128 h;
    h.str(ir::to_json(cutout.program).dump());
    h.u64(cutout.input_config.size());
    for (const std::string& name : cutout.input_config) h.str(name);
    h.u64(cutout.system_state.size());
    for (const std::string& name : cutout.system_state) h.str(name);
    return h.finish();
}

/// Steps 1-4 of the pipeline for one instance: isolation, extraction,
/// min-cut, transformation application, plus constraint derivation and
/// validation.  On failure to apply, the job's report is final and the job
/// is marked not runnable.
void prepare_instance(const FuzzConfig& config, const ir::SDFG& p,
                      const xform::Transformation& transformation, const xform::Match& match,
                      InstanceJob& job) {
    const auto t0 = std::chrono::steady_clock::now();
    FuzzReport& report = job.report;
    report.transformation = transformation.name();
    report.match_description = match.description;
    report.program_nodes = count_dataflow_nodes(p);

    // 1-2. Change isolation (white-box) and cutout extraction.
    if (config.whole_program) {
        job.cutout = whole_program_cutout(p);
    } else {
        const xform::ChangeSet delta = transformation.affected_nodes(p, match);
        job.cutout = extract_cutout(p, delta, config.cutout);
        report.input_volume_before_mincut =
            job.cutout.concrete_input_volume(config.cutout.defaults);

        // 3. Minimum input-flow cut.
        if (config.use_mincut && !job.cutout.whole_program) {
            MinCutResult mc = minimize_input_configuration(p, delta, job.cutout, config.cutout);
            report.mincut_improved = mc.improved;
            job.cutout = std::move(mc.cutout);
        }
    }
    report.whole_program_cutout = job.cutout.whole_program;
    report.cutout_nodes = count_dataflow_nodes(job.cutout.program);
    report.input_volume = job.cutout.concrete_input_volume(config.cutout.defaults);
    if (report.input_volume_before_mincut == 0)
        report.input_volume_before_mincut = report.input_volume;

    // 4. Apply the transformation to (a copy of) the cutout.
    job.transformed = job.cutout.program;
    try {
        const xform::Match cutout_match = job.cutout.remap_match(match);
        transformation.apply(job.transformed, cutout_match);
    } catch (const std::exception& e) {
        report.verdict = Verdict::InvalidCode;
        report.detail = std::string("apply failed: ") + e.what();
        report.seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        return;  // job.runnable stays false; the report is final
    }

    // 5. Gray-box constraints; validation happens once here so every
    // execution context that binds this instance reuses the result instead
    // of re-walking the same immutable graph.
    job.constraints = derive_constraints(p, job.cutout.program);
    job.sampler = InputSampler(config.sampler);
    job.validation = ValidationResult::of(job.transformed);
    job.records.resize(static_cast<std::size_t>(std::max(config.max_trials, 0)));
    job.plans = std::make_shared<interp::PlanCache>();
    // An instance whose transformed cutout fails validation never runs the
    // original side (each trial is invalid-code at once): it joins no class
    // and derives no corpus.
    if (job.validation.valid && config.max_trials > 0) job.class_key = cutout_key(job.cutout);
    if (config.feedback && job.validation.valid) {
        // The feedback state captures references into this job (pinned in
        // the audit's deque) and runs its derivation interpreter over the
        // job's plan cache with the same exec settings the trial testers use.
        job.feedback = std::make_unique<InstanceFeedback>(
            job.cutout.program, job.cutout.input_config, job.constraints, job.sampler,
            config.diff.exec, config.generation_size, static_cast<std::int64_t>(job.index),
            job.plans);
    }
    job.runnable = true;
    job.setup_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Merges one instance's trial slots into its report (canonical order, see
/// report.h), saves the reproducer artifact for failing instances, and
/// derives the wall-clock metrics.
void finalize_instance(const FuzzConfig& config, InstanceJob& job) {
    if (!job.runnable) return;  // report already final (apply failed)
    FuzzReport& report = job.report;
    const TrialRecord* failing = merge_trial_records(job.records, report);
    if (config.coverage)
        report.pairs_total =
            static_cast<std::int64_t>(job.plans->atlas_for(job.cutout.program)->pair_count());
    if (job.feedback) {
        // Complete the canonical corpus scan over the full trial space:
        // donate every executed slot's coverage (empty = ran, no coverage),
        // then derive the gaps (slots other shards ran, or slots early-stop
        // skipped) by re-execution — shard- and thread-invariant by
        // construction (docs/ARCHITECTURE.md clause 10).
        for (std::size_t t = 0; t < job.records.size(); ++t) {
            const TrialRecord& rec = job.records[t];
            if (rec.kind == TrialRecord::Kind::NotRun) continue;
            job.feedback->note_trial(static_cast<std::int64_t>(t), rec.coverage);
        }
        job.feedback->derive_through(static_cast<std::int64_t>(job.records.size()));
        report.corpus_size = static_cast<std::int64_t>(job.feedback->entries().size());
    }
    if (failing && !config.artifact_dir.empty()) {
        if (failing->inputs)
            report.artifact_path =
                save_testcase_artifact(config.artifact_dir, job.cutout, job.transformed,
                                       *failing->inputs, report, config.diff.exec,
                                       &report.artifact_error);
        else  // unreachable for records this process executed
            report.artifact_error = "failing record carries no inputs; no artifact saved";
    }
    const std::int64_t first = job.first_ns.load(std::memory_order_relaxed);
    const std::int64_t last = job.last_ns.load(std::memory_order_relaxed);
    const double trial_seconds =
        last >= 0 && first <= last ? static_cast<double>(last - first) * 1e-9 : 0.0;
    report.seconds = job.setup_seconds + trial_seconds;
    const int executed = report.trials + report.uninteresting;
    if (report.seconds > 0.0 && executed > 0)
        report.trials_per_second = executed / report.seconds;
}

}  // namespace

/// Prepared jobs plus everything that persists across run_range calls: the
/// worker slots' execution contexts (so successive ranges, and a worker's
/// successive leases, reuse warm interpreters) and the scheduler stats
/// since preparation or the last reset.
struct PreparedAudit::Impl {
    FuzzConfig config;              ///< Captured at prepare time.
    std::deque<InstanceJob> jobs;   ///< Pinned (atomics make them immovable).
    std::size_t pass_count = 0;     ///< Size of the pass set discovery ran on.
    SchedulerStats stats;           ///< Since preparation or the last reset.
    std::vector<WorkerContext> contexts;  ///< One per pool-worker slot.
    /// Cutout classes of the prepared instances: each key's first member.
    std::map<common::Digest128, std::size_t> classes;
    /// One original-side memo per class of two or more prepared members.
    std::vector<std::unique_ptr<OriginalMemo>> memos;
    /// Plan-cache counters at the last reset; stats report the growth since.
    interp::SpecStats spec_base;
    /// Memo counters at the last reset.
    MemoStats memo_base;
    std::chrono::steady_clock::time_point epoch;  ///< Trial wall-clock base.
    /// Lowest known failing trial per instance (max_trials = none): seeds
    /// the scheduler's early-stop across run_range calls and set_record
    /// injections.
    std::vector<int> lowest_failure;

    int max_trials() const { return std::max(config.max_trials, 0); }
    std::int64_t unit_count() const {
        return static_cast<std::int64_t>(jobs.size()) * max_trials();
    }

    /// Specialization counters summed over every prepared job's plan cache.
    interp::SpecStats spec_totals() const {
        interp::SpecStats total;
        for (const InstanceJob& job : jobs)
            if (job.plans) total += job.plans->spec_stats();
        return total;
    }

    /// Memo counters summed over every class memo.
    MemoStats memo_totals() const {
        MemoStats total;
        for (const auto& memo : memos) total += memo->stats();
        return total;
    }

    /// Puts newly prepared instances into their cutout classes, giving a
    /// class its memo when its second member arrives.
    void join_classes(const std::vector<std::size_t>& prepared);

    /// Instances [first, last) whose units intersect [begin, end).  With no
    /// trials per instance no instance has units, and every range covers
    /// them all.
    std::pair<std::size_t, std::size_t> instances_in(std::int64_t begin, std::int64_t end) const {
        const std::int64_t mt = max_trials();
        if (mt == 0) return {0, jobs.size()};
        begin = std::clamp<std::int64_t>(begin, 0, unit_count());
        end = std::clamp<std::int64_t>(end, begin, unit_count());
        if (begin == end) return {0, 0};
        return {static_cast<std::size_t>(begin / mt),
                static_cast<std::size_t>((end + mt - 1) / mt)};
    }

    /// Throws unless every instance intersecting [begin, end) is prepared.
    void require_prepared(std::int64_t begin, std::int64_t end, const char* what) const {
        const auto [first, last] = instances_in(begin, end);
        for (std::size_t i = first; i < last; ++i)
            if (!jobs[i].prepared)
                throw common::Error(std::string(what) + ": instance " + std::to_string(i) +
                                    " is not prepared");
    }

    void prepare_range(const ir::SDFG& p, const std::vector<xform::TransformationPtr>& passes,
                       std::int64_t begin, std::int64_t end);
    void run_range(std::int64_t begin, std::int64_t end, std::int64_t interval,
                   const SettleFn& on_settle);
    void note_failures(std::int64_t begin, std::int64_t end);
};

/// Runs the per-instance pipelines (cutout, min-cut, apply, constraints)
/// of the unprepared instances intersecting [begin, end).  They are
/// independent pure functions of (program, match) writing only their own job
/// slot, so they fan out over the worker pool; reports are byte-identical at
/// any thread count, only prepare_seconds varies.
void PreparedAudit::Impl::prepare_range(const ir::SDFG& p,
                                        const std::vector<xform::TransformationPtr>& passes,
                                        std::int64_t begin, std::int64_t end) {
    if (passes.size() != pass_count)
        throw common::Error("prepare_range: " + std::to_string(passes.size()) +
                            " passes given, but match discovery ran on " +
                            std::to_string(pass_count));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::size_t> todo;
    const auto [first, last] = instances_in(begin, end);
    for (std::size_t i = first; i < last; ++i)
        if (!jobs[i].prepared) todo.push_back(i);
    const auto prepare_one = [&](std::size_t i) {
        InstanceJob& job = jobs[i];
        prepare_instance(config, p, *passes[job.pass], job.match, job);
        job.prepared = true;
    };
    const int prep_workers =
        resolve_thread_count(config.num_threads, static_cast<std::int64_t>(todo.size()));
    if (prep_workers <= 1 || todo.size() <= 1) {
        for (std::size_t i : todo) prepare_one(i);
    } else {
        // Claims are monotonic, so when a prepare throws, every lower-index
        // instance has already been claimed and will finish — rethrowing the
        // lowest-index failure reproduces exactly what the sequential loop
        // would have raised.
        std::atomic<std::size_t> next{0};
        std::atomic<bool> abort{false};
        std::mutex error_mutex;
        std::size_t error_index = std::numeric_limits<std::size_t>::max();
        std::exception_ptr error;
        auto prep_worker = [&] {
            for (;;) {
                // Check abort *before* claiming: a claimed index is always
                // prepared, so every index below any failing one is
                // attempted and the lowest-index rethrow below matches the
                // sequential loop exactly.
                if (abort.load(std::memory_order_acquire)) return;
                const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
                if (k >= todo.size()) return;
                try {
                    prepare_one(todo[k]);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (k < error_index) {
                        error_index = k;
                        error = std::current_exception();
                    }
                    abort.store(true, std::memory_order_release);
                }
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(prep_workers));
        for (int t = 0; t < prep_workers; ++t) pool.emplace_back(prep_worker);
        for (std::thread& t : pool) t.join();
        if (error) std::rethrow_exception(error);
    }
    join_classes(todo);
    stats.prepare_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void PreparedAudit::Impl::join_classes(const std::vector<std::size_t>& prepared) {
    for (std::size_t i : prepared) {
        InstanceJob& job = jobs[i];
        if (!job.class_key) continue;
        const auto [it, first] = classes.try_emplace(*job.class_key, i);
        if (first) continue;
        InstanceJob& head = jobs[it->second];
        if (!head.memo) {
            memos.push_back(std::make_unique<OriginalMemo>(max_trials()));
            head.memo = memos.back().get();
        }
        job.memo = head.memo;
    }
}

/// Executes every unit of [begin, end) with one worker pool (the audit-wide
/// scheduler restricted to the range), settling the completed prefix on the
/// grid `begin + k * interval` (one boundary at `end` when interval <= 0).
void PreparedAudit::Impl::run_range(std::int64_t begin, std::int64_t end, std::int64_t interval,
                                    const SettleFn& on_settle) {
    const int mt = max_trials();
    const std::int64_t total = unit_count();
    begin = std::clamp<std::int64_t>(begin, 0, total);
    end = std::clamp<std::int64_t>(end, begin, total);
    require_prepared(begin, end, "run_range");

    std::int64_t available_units = 0;
    for (const InstanceJob& job : jobs) {
        if (!job.runnable) continue;
        const std::int64_t lo =
            std::max<std::int64_t>(begin, static_cast<std::int64_t>(job.index) * mt);
        const std::int64_t hi =
            std::min<std::int64_t>(end, static_cast<std::int64_t>(job.index + 1) * mt);
        if (hi > lo) available_units += hi - lo;
    }
    const int workers = resolve_thread_count(config.num_threads, available_units);
    AuditScheduler scheduler(jobs.size(), mt, begin, end, workers);
    for (InstanceJob& job : jobs) {
        if (!job.runnable) {
            scheduler.skip_instance(job.index);
            continue;
        }
        // Failures found by earlier ranges (or injected records) early-stop
        // this range's trials of the same instance.
        if (lowest_failure[job.index] < mt) scheduler.fail_at(job.index, lowest_failure[job.index]);
        job.report.threads = workers;
    }
    stats.workers = workers;

    if (contexts.size() < static_cast<std::size_t>(workers))
        contexts.resize(static_cast<std::size_t>(workers));
    PoolShared sh{jobs, scheduler, contexts, config.diff};
    sh.epoch = epoch;

    // Settling: each sub-range of the grid whose units have all finished is
    // made final (note_failures) and handed to the hook, in order, by one
    // thread at a time.  Workers that find another thread settling move on;
    // the tail is settled here after the join.
    std::mutex settle_mutex;
    std::int64_t settled = begin;
    bool stopped = false;
    const auto settle = [&] {  // caller holds settle_mutex
        while (!stopped && settled < end) {
            const std::int64_t to = interval > 0 ? std::min(settled + interval, end) : end;
            if (scheduler.completed_prefix() < to) return;
            note_failures(settled, to);
            const std::int64_t from = std::exchange(settled, to);
            // Stays set if the hook throws: the lock is released while the
            // exception unwinds, before the pool aborts, and no other thread
            // may settle past a failed hook meanwhile.
            stopped = true;
            if (on_settle && !on_settle(from, to)) {
                scheduler.abort();
                return;
            }
            stopped = false;
        }
    };
    if (on_settle)
        sh.after_claim = [&] {
            std::unique_lock<std::mutex> lock(settle_mutex, std::try_to_lock);
            if (lock.owns_lock()) settle();
        };

    if (workers == 1) {
        run_worker(sh, 0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int i = 0; i < workers; ++i) pool.emplace_back([&sh, i] { run_worker(sh, i); });
        for (std::thread& t : pool) t.join();
    }
    if (sh.error) std::rethrow_exception(sh.error);

    stats.spec = spec_totals();
    stats.spec -= spec_base;
    stats.memo = memo_totals();
    stats.memo -= memo_base;
    const std::int64_t units = sh.units.load(std::memory_order_relaxed);
    stats.units += units;
    stats.claims += units;  // one unit per claim
    stats.contexts_built += sh.contexts_built.load(std::memory_order_relaxed);
    stats.context_hits += sh.context_hits.load(std::memory_order_relaxed);
    stats.context_rebinds += sh.context_rebinds.load(std::memory_order_relaxed);

    std::lock_guard<std::mutex> lock(settle_mutex);
    settle();
}

/// Folds failures recorded in [begin, end) into the per-instance
/// lowest-failure watermarks, and resets every slot of the range above an
/// instance's watermark to NotRun: whether a worker had such a trial in
/// flight when the failure landed is thread timing, and the slots (which
/// shard record streams carry) must be a pure function of the job.
void PreparedAudit::Impl::note_failures(std::int64_t begin, std::int64_t end) {
    const int mt = max_trials();
    if (mt == 0) return;
    for (std::int64_t u = begin; u < end;) {
        const std::size_t inst = static_cast<std::size_t>(u / mt);
        const std::int64_t first = static_cast<std::int64_t>(inst) * mt;
        const std::int64_t stop = std::min(first + mt, end);
        InstanceJob& job = jobs[inst];
        for (; job.runnable && u < stop; ++u) {
            const int trial = static_cast<int>(u - first);
            TrialRecord& rec = job.records[static_cast<std::size_t>(trial)];
            if (trial > lowest_failure[inst]) rec = TrialRecord{};
            else if (rec.kind == TrialRecord::Kind::Failed) lowest_failure[inst] = trial;
        }
        u = stop;
    }
}

PreparedAudit::PreparedAudit() : impl_(std::make_unique<Impl>()) {}
PreparedAudit::~PreparedAudit() = default;
PreparedAudit::PreparedAudit(PreparedAudit&&) noexcept = default;
PreparedAudit& PreparedAudit::operator=(PreparedAudit&&) noexcept = default;

std::size_t PreparedAudit::instance_count() const { return impl_->jobs.size(); }

int PreparedAudit::max_trials() const { return impl_->max_trials(); }

std::int64_t PreparedAudit::unit_count() const { return impl_->unit_count(); }

bool PreparedAudit::instance_runnable(std::size_t instance) const {
    return impl_->jobs.at(instance).runnable;
}

void PreparedAudit::prepare_range(const ir::SDFG& p,
                                  const std::vector<xform::TransformationPtr>& passes,
                                  std::int64_t unit_begin, std::int64_t unit_end) {
    impl_->prepare_range(p, passes, unit_begin, unit_end);
}

void PreparedAudit::run_range(std::int64_t unit_begin, std::int64_t unit_end,
                              std::int64_t settle_interval, const SettleFn& on_settle) {
    impl_->run_range(unit_begin, unit_end, settle_interval, on_settle);
}

void PreparedAudit::reset_trials() {
    Impl& impl = *impl_;
    for (InstanceJob& job : impl.jobs) {
        for (TrialRecord& rec : job.records) rec = TrialRecord{};
        job.first_ns.store(std::numeric_limits<std::int64_t>::max(), std::memory_order_relaxed);
        job.last_ns.store(-1, std::memory_order_relaxed);
    }
    impl.lowest_failure.assign(impl.jobs.size(), impl.max_trials());
    impl.stats = SchedulerStats{};
    impl.spec_base = impl.spec_totals();
    impl.memo_base = impl.memo_totals();
    impl.epoch = std::chrono::steady_clock::now();
}

const std::vector<TrialRecord>& PreparedAudit::records(std::size_t instance) const {
    return impl_->jobs.at(instance).records;
}

void PreparedAudit::set_record(std::int64_t unit, TrialRecord record) {
    const int mt = impl_->max_trials();
    if (mt == 0 || unit < 0 || unit >= impl_->unit_count())
        throw common::Error("set_record: unit " + std::to_string(unit) +
                            " outside the audit's unit space");
    impl_->require_prepared(unit, unit + 1, "set_record");
    const std::size_t instance = static_cast<std::size_t>(unit / mt);
    const int trial = static_cast<int>(unit % mt);
    InstanceJob& job = impl_->jobs[instance];
    if (!job.runnable) return;  // report final since prepare; slots unused
    if (record.kind == TrialRecord::Kind::Failed && trial < impl_->lowest_failure[instance])
        impl_->lowest_failure[instance] = trial;
    job.records[static_cast<std::size_t>(trial)] = std::move(record);
}

std::vector<FuzzReport> PreparedAudit::finalize() {
    impl_->require_prepared(0, impl_->unit_count(), "finalize");
    std::vector<FuzzReport> reports;
    reports.reserve(impl_->jobs.size());
    for (InstanceJob& job : impl_->jobs) {
        finalize_instance(impl_->config, job);
        reports.push_back(std::move(job.report));
    }
    return reports;
}

const SchedulerStats& PreparedAudit::stats() const { return impl_->stats; }

std::vector<feedback::CorpusEntry> PreparedAudit::corpus() const {
    std::vector<feedback::CorpusEntry> out;
    // Jobs are in canonical instance order and each instance's entries are
    // in ascending trial order, so the concatenation is already the
    // canonical merge order (feedback::merge_corpus_entries is a no-op on
    // it).
    for (const InstanceJob& job : impl_->jobs) {
        if (!job.feedback) continue;
        std::vector<feedback::CorpusEntry> entries = job.feedback->entries();
        out.insert(out.end(), std::make_move_iterator(entries.begin()),
                   std::make_move_iterator(entries.end()));
    }
    return out;
}

FuzzReport Fuzzer::test_instance(const ir::SDFG& p, const xform::Transformation& transformation,
                                 const xform::Match& match) {
    PreparedAudit audit;
    audit.impl_->config = normalized_config(config_);
    InstanceJob& job = audit.impl_->jobs.emplace_back();
    job.index = 0;
    prepare_instance(audit.impl_->config, p, transformation, match, job);
    job.prepared = true;
    audit.impl_->lowest_failure.assign(1, audit.impl_->max_trials());
    audit.impl_->stats.prepare_seconds = job.setup_seconds;
    audit.impl_->epoch = std::chrono::steady_clock::now();
    audit.run_range(0, audit.unit_count());
    std::vector<FuzzReport> reports = audit.finalize();
    stats_ = audit.stats();
    return std::move(reports.front());
}

std::vector<FuzzReport> Fuzzer::audit(const ir::SDFG& p,
                                      const std::vector<xform::TransformationPtr>& passes) {
    PreparedAudit prepared = prepare(p, passes);
    prepared.run_range(0, prepared.unit_count());
    std::vector<FuzzReport> reports = prepared.finalize();
    stats_ = prepared.stats();
    return reports;
}

PreparedAudit Fuzzer::prepare(const ir::SDFG& p,
                              const std::vector<xform::TransformationPtr>& passes,
                              std::int64_t unit_begin, std::int64_t unit_end) {
    // Match discovery stays sequential and global — its order fixes the
    // canonical instance indexing the merge replays — then the
    // per-instance pipelines run for the requested range only.
    const auto prep0 = std::chrono::steady_clock::now();
    PreparedAudit prepared;
    PreparedAudit::Impl& impl = *prepared.impl_;
    impl.config = normalized_config(config_);
    impl.pass_count = passes.size();
    for (std::size_t k = 0; k < passes.size(); ++k) {
        for (xform::Match& match : passes[k]->find_matches(p)) {
            InstanceJob& job = impl.jobs.emplace_back();
            job.index = impl.jobs.size() - 1;
            job.pass = k;
            job.match = std::move(match);
        }
    }
    impl.lowest_failure.assign(impl.jobs.size(), impl.max_trials());
    impl.stats.prepare_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - prep0).count();
    impl.prepare_range(p, passes, unit_begin, unit_end);
    impl.epoch = std::chrono::steady_clock::now();
    return prepared;
}

}  // namespace ff::core

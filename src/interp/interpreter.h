// SDFG interpreter.
//
// Replaces DaCe's code generation + native execution in the original
// implementation: both sides of every differential test run under this
// interpreter, so relative measurements (cutout vs whole program, trials to
// failure) carry the same meaning as in the paper.
//
// Execution model:
//  * The state machine starts at the start state; after a state's dataflow
//    graph executes, the first outgoing interstate edge whose condition
//    evaluates true is taken and its assignments applied (simultaneously).
//    No matching edge terminates the program.  More than
//    `max_state_transitions` transitions is reported as a hang (Sec. 5.1).
//  * Within a state, top-level nodes execute in topological order.  Map
//    scopes iterate their (possibly negative-step) ranges; `Sequential`
//    order is the definition of program semantics, other schedules are
//    declarative hints.
//  * Every container access is bounds-checked; violations and unbound
//    symbols surface as a Crash result rather than undefined behaviour.
//  * Containers are allocated lazily on first access: host transients are
//    zero-filled, Device containers are filled with deterministic garbage.
//
// Compiled execution path (the fuzzing hot path):
//
// Fuzz throughput is bounded by the innermost loop — one tasklet execution
// per map point, on both sides of every differential trial.  The interpreter
// therefore compiles each state once into a StatePlan: topological order and
// scope structure, plus, per tasklet node, a TaskletPlan binding every
// incident memlet to a fixed slot range of the tasklet's compiled bytecode
// program (see tasklet_lang.h) together with precomputed subset shape
// information (single-point flag, constant element counts).  Execution then
// runs map points against a reusable flat scratch arena (slot + register
// Value arrays, index/range buffers, per-state Buffer pointer cache) —
// no ConnectorEnv map, no per-point gather/scatter vectors, no heap
// allocation per map point for scalar tasklets.  The legacy tree-walking
// path is kept bit-for-bit intact behind ExecConfig::use_compiled_tasklets
// = false as the reference for differential testing and benchmarking.
//
// Interned symbols (no hot-path string lookups):
//
// Plans lower every symbol reference — map parameters, map range bounds,
// memlet index expressions — to dense sym::SymId slots of the plan cache's
// SymbolTable at build time (sym::CompiledExpr).  Execution mirrors the
// symbols a plan references from the string-keyed Context bindings into a
// flat i64 vector once per state execution; from then on map-parameter
// resolution in the scope odometer is an array store and every index
// expression evaluates against array loads.  Scopes whose subtree consists
// entirely of compiled-engine tasklets ("pure" scopes) never touch the
// string-keyed bindings at all; scopes containing library/comm/access/
// reference-engine nodes additionally maintain the string bindings per
// iteration, preserving the legacy semantics for those nodes.
//
// Specialization tiers (plan-level loop specialization):
//
// On top of the compiled path, each tasklet selects a *dtype signature*
// (TaskletPlan::sig): a program admitting the untagged double VM
// (TaskletProgram::has_f64_variant) whose accesses all bind single points
// and whose input connectors all bind float-family (F64/F32) containers runs
// tagless on raw doubles; every other tasklet, int-family inputs included,
// runs the tagged VM.  Output containers may be any dtype — the store-side
// conversions mirror the tagged VM's Buffer::store casts exactly.  Then
// build_plan classifies every map scope.  A scope may carry a ScopeKernel
// over a *band* of perfectly nested levels: its levels below the deepest
// one any of its bounds references (the leading levels that feed bounds —
// tile parameters, a triangular map's outer level — stay on the generic
// odometer, which launches the band once per prefix point), extended by
// every level of a sole nested map scope whose bounds reference no band
// parameter (the reduction nest of every matmul).  The band's tasklets
// must all select the F64 signature and their memlet indices be affine in
// the band parameters with constant coefficients: per-access flat-stride
// advances replace the odometer's per-point index-expression evaluation
// and bounds-checked flat_index calls — advancing a point is one add per
// connector, and the whole iteration footprint is validated once per
// launch (a launch that could fault falls back to the generic odometer,
// which owns partial-effect and error-ordering semantics).  Kernels are
// untagged only: their lanes move raw Buffer storage with per-lane dtype
// conversion, and the F64 feasibility proof (no traps, no integer
// division) makes their point loop throw-free.  A scope holding any tagged
// tasklet — every int-family one — runs the generic odometer.  On top of
// that sits the *segment* tier: a kernel whose tasklets are all
// straight-line (no branches, no traps) can run a whole batch level per
// dispatch through the VM's batch mode (TaskletProgram::run_vm<double,
// true>) — auto-vectorizable column loops instead of per-point dispatch.
// The batch level is the innermost one, or for a nest whose innermost
// level cannot batch (a reduction's stride-0 accumulator) its outer
// scope's innermost level, with the nested levels in order inside each
// batch lane.  Each launch checks the concrete lane windows for unsafe
// aliasing (batching reorders loads/stores across points) and silently
// degrades to the per-point kernel loop when lanes could collide.
// Classification lives in the shared plan (keyed, like everything else, on
// plan uid + mutation epoch); ExecConfig::specialize and
// ExecConfig::batch_segments select what execution uses, and results are
// byte-identical under every toggle combination.
//
// Plan sharing across threads:
//
// All derived artifacts live in a PlanCache (see plan_cache.h) keyed by
// (SDFG plan uid, mutation epoch, state).  Several interpreters — e.g. one
// per worker thread of the parallel fuzzer — can share one cache over the
// same immutable SDFG pair; per-interpreter scratch keeps execution state
// thread-private.  A plan lookup takes the cache lock once per state
// execution, and the returned handle keeps the plan alive while the state
// runs.  Applying a transformation bumps the SDFG's mutation epoch, so a
// warm interpreter transparently rebuilds plans for the transformed graph
// instead of requiring a fresh instance.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "interp/buffer.h"
#include "interp/plan_cache.h"
#include "ir/sdfg.h"
#include "symbolic/interned.h"

namespace ff::feedback {
class CoverageMap;
}

namespace ff::interp {

struct ExecConfig {
    std::int64_t max_state_transitions = 100000;
    /// Map-point fuel: total points executed across all map scopes of one
    /// run() before ExecStatus::Resource (0 = unlimited).  Checked in the
    /// generic odometer and pre-charged per launch by the flat-stride
    /// kernels — exhaustion is a pure function of (program, inputs, budget),
    /// so results stay byte-identical across execution tiers.
    std::int64_t max_points = 0;
    /// Per-run() allocation budget over lazily created buffers, in bytes
    /// (0 = unlimited).  Caller-provided input buffers are never charged.
    std::int64_t max_alloc_bytes = 0;
    /// Execute tasklets via the bytecode VM against precomputed memlet
    /// access plans (the fast path).  false selects the reference AST
    /// engine with per-point ConnectorEnv construction — kept selectable
    /// for differential testing and the hot-path benchmark.
    bool use_compiled_tasklets = true;
    /// Use the plan's specialization tiers: flat-stride map kernels and the
    /// untagged f64 tasklet VM (only meaningful with compiled
    /// tasklets).  Plans always carry the classification; this selects
    /// whether execution uses it.  Off reproduces the generic compiled path
    /// — results are byte-identical either way (the determinism contract),
    /// so this knob exists for benchmarking and differential self-checks.
    bool specialize = true;
    /// Run segment-eligible kernels through the batched vertical VMs (whole
    /// stride-1 innermost extent per dispatch) instead of the per-point
    /// kernel loop.  Only meaningful with specialize; results are
    /// byte-identical either way, so this knob exists for benchmarking and
    /// differential self-checks.
    bool batch_segments = true;
    /// Ask core::DifferentialTester to record def-use pair coverage (see
    /// feedback/coverage.h): when set, DifferentialTester::bind fetches the
    /// coverage atlas and installs a map via Interpreter::set_coverage for
    /// the original side.  The interpreter itself never reads this flag —
    /// it marks whenever a map is installed.  Marking is charged at
    /// scope-launch granularity from tier-invariant point counts, so the
    /// bitmap is byte-identical across every execution tier and toggle
    /// combination, and recording never perturbs results.
    bool coverage = false;
};

enum class ExecStatus {
    Ok,
    Crash,
    Hang,
    /// A deterministic resource budget (ExecConfig::max_points /
    /// max_alloc_bytes) was exhausted.
    Resource,
};

struct ExecResult {
    ExecStatus status = ExecStatus::Ok;
    std::string message;
    std::int64_t state_transitions = 0;
    /// Cost counters of this execution (maintained for the resource fuel,
    /// surfaced as the seed of performance-differential verdicts).  Totals
    /// are byte-identical across execution tiers when status == Ok; on error
    /// paths the tiers may detect exhaustion at different granularity, so
    /// consumers must only compare them for Ok results.
    std::int64_t points = 0;        ///< Map points executed.
    std::int64_t instructions = 0;  ///< Tasklet dispatches executed.

    bool ok() const { return status == ExecStatus::Ok; }
};

/// Runtime state of one program execution: symbol values + live buffers.
struct Context {
    sym::Bindings symbols;
    std::map<std::string, Buffer> buffers;

    bool has_buffer(const std::string& name) const { return buffers.count(name) > 0; }
};

/// One dimension of a subset, lowered to interned-symbol programs.
struct RangePlan {
    sym::CompiledExpr begin, end, step;
};

/// One memlet of a planned tasklet, resolved to a slot range of its compiled
/// program.  Subset shape facts that do not depend on symbol values are
/// precomputed here so the per-point work is index-expression evaluation
/// plus bounds-checked loads/stores.
struct AccessPlan {
    const ir::Memlet* memlet = nullptr;
    std::string conn;
    int slot_base = -1;       ///< -1: gathered for side effects only.
    int width = 0;            ///< Lanes backing the slot range.
    bool single_point = false;  ///< Every dimension is a single index.
    std::int64_t const_volume = -1;  ///< Total points if constant, else -1.
    int cache_index = -1;     ///< Slot in the per-state Buffer* cache.
    bool invalid = false;     ///< Outputs only: connector never produced.
    /// Passthrough staging (connector untouched by the program): the input
    /// gathers its *pre-execution* snapshot into this scratch pool slot and
    /// the forwarding output scatters from it — matching the reference
    /// engine, which binds connector values before the program runs.
    int passthrough_pool = -1;
    /// Subset index expressions lowered to interned-slot programs; evaluated
    /// against the flat bindings on the compiled path (no string lookups).
    std::vector<RangePlan> dims;
};

/// Dtype signature of a planned tasklet: which VM executes it under
/// ExecConfig::specialize.  F64 requires the program to admit the untagged
/// double engine (TaskletProgram::has_f64_variant), every *input* connector
/// to bind a single-point subset of a float-family (F64/F32) container, and
/// every output connector a single-point subset of any dtype — output
/// conversions mirror the tagged VM's Buffer::store casts exactly, so
/// results are byte-identical.
enum class VMSig : std::uint8_t {
    Tagged,  ///< Generic tagged-Value bytecode VM (always correct).
    F64,     ///< Untagged double VM (float-family inputs).
};

/// Compiled execution recipe for one tasklet node.
struct TaskletPlan {
    TaskletProgramPtr prog;
    std::string label;
    std::vector<AccessPlan> inputs;   // in-edge order
    std::vector<AccessPlan> outputs;  // out-edge order
    /// Declared-input validation, in the reference engine's check order
    /// (reads() name order) so both engines name the same connector when
    /// several are missing/undersized.  input_index -1 = bound by no edge;
    /// raised on execution (a tasklet inside an empty map never runs).
    struct InputCheck {
        std::string conn;
        int input_index = -1;
        int width = 0;
    };
    std::vector<InputCheck> input_checks;
    /// Trap connector bound by an edge: the static unbound-lane analysis
    /// does not apply, run this node on the reference engine.
    bool use_reference = false;
    /// Dtype signature selected at plan time (see VMSig).  Untagged
    /// signatures are gated at execution time by ExecConfig::specialize.
    VMSig sig = VMSig::Tagged;
    /// Def-use pair id bases of this tasklet's accesses, inputs then outputs
    /// (the CovAtlas enumeration order matches inputs/outputs exactly).
    /// Access j's class-c pair is cov_bases[j] + c.  Always populated —
    /// plans are config-independent; ExecConfig::coverage gates marking.
    std::vector<std::uint32_t> cov_bases;
};

/// Compiled execution recipe for one map scope.
struct ScopePlan {
    std::string label;                       ///< For diagnostics (step 0).
    std::vector<sym::SymId> params;          ///< Interned iteration variables.
    std::vector<const std::string*> param_names;  ///< Into the MapEntry node.
    std::vector<RangePlan> ranges;           ///< One per param.
    std::vector<ir::NodeId> children;        ///< Ordered nodes inside the scope.
    /// Subtree contains only compiled-engine tasklets and pure nested
    /// scopes: iteration binds parameters in the flat bindings only, never
    /// touching the string-keyed Context map.
    bool pure = false;
    /// Index into StatePlan::kernels when this scope launches a flat-stride
    /// band (see ScopeKernel); -1 otherwise.
    int kernel = -1;
    /// Per level: no range of a deeper level references this level's
    /// parameter or a deeper one, so every value of the level iterates the
    /// same sub-nest.  When its first value reaches no leaf, the odometer
    /// skips the rest (no budget would stop a walk that never charges fuel).
    std::vector<std::uint8_t> same_subnest;
    /// Concatenated cov_bases of this scope's *direct* tasklet children:
    /// after a successful launch the interpreter marks base +
    /// region_class(points this launch iterated) for each — one pass over a
    /// flat vector, no per-point work (see feedback/coverage.h).  Nested
    /// scopes mark their own tasklets per inner launch.
    std::vector<std::uint32_t> cov_bases;
};

/// One memlet of a flat-stride kernel: the affine decomposition of its
/// (single-point) subset over the band's parameters.  index_d = base_d +
/// sum_k coeffs[d * levels + k] * param_k, where base_d is obtained at
/// launch time by evaluating the lowered index programs at the band's begin
/// point (parameters outside the band are part of the base).
struct KernelAccess {
    int tasklet = 0;      ///< Index into ScopeKernel::tasklets.
    bool output = false;  ///< Input or output of that tasklet.
    int index = 0;        ///< Position among the tasklet's inputs/outputs.
    std::vector<std::int64_t> coeffs;  ///< dims x band levels, row-major.
};

/// One iteration level of a kernel's band.
struct BandLevel {
    sym::SymId param;  ///< Interned iteration variable.
    RangePlan range;   ///< Never references a band parameter.
};

/// Flat-stride specialization of one map scope: a *band* of perfectly
/// nested levels launched as one kernel.  The band is the scope's levels
/// from `prefix` on — leading levels whose parameters feed later bounds
/// (MapTiling's tile parameters, triangular maps) stay on the generic
/// odometer, which launches the band once per prefix point — followed, for
/// a scope whose only child is a map scope, by every level of that nested
/// scope (the matmul/matvec reduction nest).  Every band bound is
/// evaluable at band entry, every tasklet the band runs selected the
/// untagged F64 signature, and every memlet index is affine in the band
/// parameters with constant coefficients — per-point addressing collapses
/// to one precomputed flat-offset add per connector.  Classified once at
/// plan time; every launch still validates ranks, input dtypes and the
/// concrete iteration footprint, handing launches that could fault back to
/// the generic odometer (which owns partial-effect and error-ordering
/// semantics).
struct ScopeKernel {
    std::size_t prefix = 0;         ///< Leading scope levels outside the band.
    std::vector<BandLevel> levels;  ///< The band, outermost first.
    /// Band levels of the launching scope; the rest belong to `nested`.
    std::size_t outer_levels = 0;
    /// scope_plans index of the sole nested scope the band spans, -1 when
    /// the band covers one scope.  Its children are the kernel's tasklets.
    int nested = -1;
    std::vector<int> tasklets;           ///< tasklet_plans indices, child order.
    std::vector<KernelAccess> accesses;  ///< Grouped by tasklet, inputs first.
    /// Segment-eligible: every tasklet is straight-line, so a batch level
    /// can execute through the batch VM.  Each launch still checks the
    /// concrete lane windows for unsafe aliasing before batching (see
    /// segment_alias_safe).
    bool segment_ok = false;
};

/// Precomputed execution structure of one state: topological order, scope
/// plans (interned params + lowered range bounds + ordered children), and
/// per-tasklet access plans.  Built once per (state, mutation epoch), cached
/// in the PlanCache and shared across interpreter threads — nested map
/// scopes execute O(iterations) times and must not re-derive any of this
/// per point.
struct StatePlan {
    std::vector<ir::NodeId> top_level;  // ordered, no MapExit
    std::vector<TaskletPlan> tasklet_plans;
    std::vector<int> node_to_plan;   // NodeId -> index into tasklet_plans, -1 otherwise
    std::vector<ScopePlan> scope_plans;
    std::vector<int> node_to_scope;  // NodeId -> index into scope_plans, -1 otherwise
    std::vector<ScopeKernel> kernels;  // flat-stride scopes (ScopePlan::kernel)
    int cache_slots = 0;             // total AccessPlan count (Buffer* cache size)
    /// Symbols this plan references: flat-binding slots mirrored from the
    /// Context's string-keyed map once per state execution.
    std::vector<std::pair<sym::SymId, std::string>> referenced;
    /// Flat-binding vector size the plan's ids index into.
    std::size_t symtab_size = 0;

    const TaskletPlan* plan_of(ir::NodeId node) const {
        const auto i = static_cast<std::size_t>(node);
        if (i >= node_to_plan.size() || node_to_plan[i] < 0) return nullptr;
        return &tasklet_plans[static_cast<std::size_t>(node_to_plan[i])];
    }
    const ScopePlan& scope_of(ir::NodeId node) const {
        return scope_plans[static_cast<std::size_t>(
            node_to_scope[static_cast<std::size_t>(node)])];
    }
};

class Interpreter {
public:
    /// `plans` may be shared with other interpreters (one per worker thread
    /// of the parallel fuzzer); nullptr creates a private cache.
    explicit Interpreter(ExecConfig config = {}, PlanCachePtr plans = nullptr)
        : config_(config),
          plans_(plans ? std::move(plans) : std::make_shared<PlanCache>()) {}

    const ExecConfig& config() const { return config_; }
    const PlanCachePtr& plan_cache() const { return plans_; }

    /// Swaps the shared plan cache and drops the execution cache, so a
    /// *warm* interpreter — scratch arena and value pool intact — can be
    /// rebound to a different SDFG pair.  This is how the audit-wide
    /// scheduler reuses one execution context across transformation
    /// instances (see core::Fuzzer).  nullptr installs a fresh private
    /// cache.
    void rebind_plan_cache(PlanCachePtr plans);

    /// Runs the whole SDFG.  The context provides inputs (pre-created
    /// buffers) and receives all outputs; it is mutated in place.
    ExecResult run(const ir::SDFG& sdfg, Context& ctx);

    /// Executes one state's dataflow graph (exceptions propagate).
    /// Exposed for the multi-rank runtime.
    void execute_state(const ir::SDFG& sdfg, const ir::State& state, Context& ctx);

    /// Executes a single non-scope node (used by the multi-rank runtime to
    /// interleave ranks at node granularity).
    void execute_node(const ir::SDFG& sdfg, const ir::State& state, ir::NodeId node,
                      Context& ctx);

    // --- Data movement helpers (shared with library nodes & multirank) ---

    /// Buffer for `name`, allocating according to descriptor rules.
    Buffer& ensure_buffer(const ir::SDFG& sdfg, Context& ctx, const std::string& name);

    /// Reads the memlet's subset (row-major over the subset's ranges).
    std::vector<Value> gather(const ir::SDFG& sdfg, Context& ctx, const ir::Memlet& memlet);

    /// Reads the memlet's subset into `out` (cleared first; capacity — and
    /// thus prior heap allocations — is reused across calls).
    void gather_into(const ir::SDFG& sdfg, Context& ctx, const ir::Memlet& memlet,
                     std::vector<Value>& out);

    /// Writes `values` over the memlet's subset (row-major).
    void scatter(const ir::SDFG& sdfg, Context& ctx, const ir::Memlet& memlet,
                 const std::vector<Value>& values);

    /// scatter() without the container: writes `count` values row-major.
    void scatter_values(const ir::SDFG& sdfg, Context& ctx, const ir::Memlet& memlet,
                        const Value* values, std::size_t count);

    /// Reusable scratch buffer for data-movement helpers (library nodes,
    /// copies, collectives).  Buffer `which` remains valid until the same
    /// index is requested again; distinct indices are independent.
    std::vector<Value>& scratch_values(std::size_t which);

    /// Parsed tasklet for `code`, cached by content (in the shared cache).
    TaskletProgramPtr program_for(const std::string& code);

    /// Drops the per-execution Buffer pointer cache.  Call before driving
    /// execute_node() directly with contexts whose addresses may recycle
    /// earlier, destroyed contexts (run()/execute_state() do this
    /// themselves).
    void invalidate_execution_cache();

    /// Installs (or clears, with nullptr) the def-use coverage bitmap this
    /// interpreter marks into when ExecConfig::coverage is set.  The caller
    /// owns the map, keyed to the executed SDFG's CovAtlas (see
    /// PlanCache::atlas_for), and must keep it alive across run() calls.
    void set_coverage(feedback::CoverageMap* map) { cov_map_ = map; }

private:
    void execute_node_planned(const ir::SDFG& sdfg, const ir::State& state,
                              const StatePlan& plan, ir::NodeId node, Context& ctx);
    void execute_scope(const ir::SDFG& sdfg, const ir::State& state, const StatePlan& plan,
                       ir::NodeId entry, Context& ctx);
    /// Pushes `sp`'s parameters onto the scope stacks, saving the bindings
    /// they shadow; leave_params restores them.  `interned_only` scopes
    /// bind in the flat bindings only.
    void enter_params(const ScopePlan& sp, bool interned_only, const Context& ctx);
    void leave_params(const ScopePlan& sp, bool interned_only, Context& ctx);
    /// Attempts one flat-stride launch of `kern`'s band at the current
    /// prefix point of `sp` (whose parameters the caller entered).  Returns
    /// false when per-launch validation (rank match, footprint in bounds,
    /// sane extents) fails — the caller then runs the generic odometer,
    /// which reproduces the exact partial effects and error of the
    /// unspecialized path.  A band spanning a nested scope also declines
    /// when the budget cannot cover the whole nest or a nested extent is
    /// empty, steps by 0 or fails to evaluate, because the generic nest
    /// evaluates those only after charging its first outer point.  The
    /// launching scope's ranges are evaluated level by level exactly like
    /// the generic path, so step-0 / unbound-symbol errors surface
    /// identically.
    bool execute_scope_kernel(const ir::SDFG& sdfg, const StatePlan& plan, const ScopePlan& sp,
                              const ScopeKernel& kern, Context& ctx);
    /// Whether this launch's concrete lane windows permit batching band
    /// level `batch`, with the levels below it running in order inside each
    /// batch lane.  Batching reorders loads/stores across points, so:
    ///  * with levels below `batch`, every write lane's batch stride must
    ///    exceed its whole sequential travel, so different batch lanes
    ///    never write one address;
    ///  * every (write, other) lane pair on the same buffer must be
    ///    pointwise-aligned — the same address at every point, with a
    ///    nonzero batch stride — or cover disjoint address windows.  Pairs
    ///    whose levels above `batch` step alike keep their relative offset
    ///    in every segment, so the first segment decides; any other pair
    ///    must be disjoint over the whole launch.
    /// In particular a stride-0 in-place update (x = f(x) broadcast over the
    /// segment) is a sequential dependency and is refused.  Reads scratch
    /// lane state set up by execute_scope_kernel.
    bool segment_alias_safe(const ScopeKernel& kern, std::size_t batch) const;
    /// The batched loop of a committed, alias-safe launch: iterates the
    /// levels above `batch`, and per segment runs tiles of batch lanes
    /// through the VM's batch mode (gather columns -> batch VM -> scatter
    /// columns, converting per lane dtype), once per point of the levels
    /// below `batch`, in order.  Tile-outer / tasklet-inner order preserves
    /// per-point semantics for pointwise-aligned cross-tasklet
    /// dependencies.  Must only be called from execute_scope_kernel after
    /// footprint validation and fuel charging; cannot throw (straight-line,
    /// throw-free programs by classification).
    void run_segment_kernel(const StatePlan& plan, const ScopeKernel& kern, std::size_t batch);
    void execute_tasklet(const ir::SDFG& sdfg, const ir::State& state, ir::NodeId node,
                         Context& ctx);
    void execute_tasklet_planned(const ir::SDFG& sdfg, const ir::State& state,
                                 const StatePlan& plan, const TaskletPlan& tp, Context& ctx);
    /// Untagged twin of execute_tasklet_planned (tp.sig == F64 only):
    /// single-point gathers/scatters straight between raw Buffer storage and
    /// a flat double slot array, converting per the lane's dtype — no Value
    /// tags anywhere.  Returns false — before any store, with only
    /// idempotent work done — when a caller-provided input buffer's dtype
    /// drifted outside the float family; the caller then runs the tagged
    /// path, which handles any dtype.
    bool execute_tasklet_untagged(const ir::SDFG& sdfg, const StatePlan& plan,
                                  const TaskletPlan& tp, Context& ctx);
    void execute_access_copies(const ir::SDFG& sdfg, const ir::State& state, ir::NodeId node,
                               Context& ctx);
    void execute_comm_single_rank(const ir::SDFG& sdfg, const ir::State& state, ir::NodeId node,
                                  Context& ctx);

    /// The bound PlanCache's StatePlan for (sdfg plan uid, mutation epoch,
    /// state), built on first use; a mutation-epoch bump invalidates
    /// transparently.  Takes the cache lock once per call, so callers look
    /// a plan up once per state execution and hold the returned handle
    /// while it runs.
    std::shared_ptr<const StatePlan> plan_for(const ir::SDFG& sdfg, const ir::State& state);
    /// Mirrors the symbols `plan` references from ctx.symbols into the flat
    /// bindings (once per state execution; also resets the scope stacks).
    void sync_flat_bindings(const StatePlan& plan, const Context& ctx);
    /// Evaluates `subset` under the context's bindings into the shared
    /// scratch range buffer and returns it.
    const std::vector<ir::ConcreteRange>& concretize_into(const ir::Subset& subset,
                                                          const Context& ctx);
    /// Evaluates an access plan's lowered dims against the flat bindings.
    const std::vector<ir::ConcreteRange>& concretize_plan(const AccessPlan& ap);
    StatePlan build_plan(const ir::SDFG& sdfg, const ir::State& state);
    void build_tasklet_plan(const ir::SDFG& sdfg, const ir::State& state, ir::NodeId node,
                            TaskletPlan& tp, int& cache_counter, std::vector<sym::SymId>& used);
    /// Classifies one scope for flat-stride band execution; appends to
    /// plan.kernels and links sp.kernel on success.
    void classify_scope_kernel(const ir::SDFG& sdfg, const ir::State& state, StatePlan& plan,
                               ScopePlan& sp);

    Buffer& plan_buffer(const ir::SDFG& sdfg, Context& ctx, const StatePlan& plan,
                        const AccessPlan& ap);
    /// Returns the number of points gathered.
    std::int64_t plan_gather(const ir::SDFG& sdfg, Context& ctx, const StatePlan& plan,
                             const AccessPlan& ap, Value* slots);
    void plan_scatter(const ir::SDFG& sdfg, Context& ctx, const StatePlan& plan,
                      const TaskletPlan& tp, const AccessPlan& ap, const Value* slots);

    ExecConfig config_;
    PlanCachePtr plans_;  ///< Shared derived-artifact cache (see plan_cache.h).
    /// Coverage bitmap to mark (nullptr = off; see set_coverage).  Checked
    /// only at scope-launch / top-level-dispatch granularity, never per
    /// point.
    feedback::CoverageMap* cov_map_ = nullptr;

    /// Per-run() resource accounting, reset at run() entry: map points and
    /// tasklet dispatches executed (the fuel behind ExecConfig::max_points
    /// and ExecResult's cost counters) and bytes charged to the allocation
    /// budget.  Saturating adds — hostile footprints must not overflow into
    /// a fresh budget.
    std::int64_t points_used_ = 0;
    std::int64_t instructions_used_ = 0;
    std::int64_t alloc_used_ = 0;

    /// Flat, reusable execution scratch: all per-map-point storage lives
    /// here so steady-state tasklet execution performs no heap allocation.
    struct Scratch {
        std::vector<Value> slots;               // tasklet connector lanes
        std::vector<Value> regs;                // VM register file
        std::vector<std::int64_t> idx;          // current index tuple
        std::vector<ir::ConcreteRange> ranges;  // concretized subset
        std::vector<std::int64_t> input_counts; // gathered points per input
        std::vector<Buffer*> buffer_cache;      // per-AccessPlan, lazily filled
        const void* cache_plan = nullptr;
        const void* cache_ctx = nullptr;

        // Interned-symbol execution state.
        sym::FlatBindings flat;      // SymId -> value for the current state
        sym::EvalStack eval_stack;   // CompiledExpr scratch
        /// Saved shadowed bindings per active scope parameter (stack,
        /// base-offset discipline: no allocation in steady state).
        struct SavedParam {
            sym::SymId id;
            bool flat_bound;
            std::int64_t flat_value;
            bool str_bound;               // impure scopes only
            std::int64_t str_value;
        };
        std::vector<SavedParam> param_stack;
        /// Name + current value of every active map parameter, innermost
        /// last; lets cold paths (buffer shape resolution) see scope-bound
        /// symbols without per-iteration string-map writes.
        struct ActiveParam {
            const std::string* name;
            std::int64_t value;
        };
        std::vector<ActiveParam> active_params;

        // Untagged tasklet execution (TaskletPlan::sig == F64): connector
        // lanes, the VM register file, and the segment tier's column arena —
        // slot and register columns of one tile (slot s occupies
        // [s*tile, s*tile + tile)), sized per launch for the largest program
        // and reused across tiles and launches.
        std::vector<double> f64_slots, f64_regs, f64_cols;

        // Flat-stride kernel launch state (reused across launches).
        /// One access of the running kernel: its buffer's raw storage base
        /// and runtime dtype, and the current flat offset.
        struct KernelLane {
            void* raw = nullptr;            // dtype-erased storage base
            ir::DType dt = ir::DType::F64;  // runtime buffer dtype
            std::int64_t offset = 0;
            int slot = -1;  // connector slot base; -1 = side-effect-only gather
        };
        std::vector<KernelLane> lanes;
        /// lanes x levels: offset advance of one step of level k (0 for a
        /// level with one value).
        std::vector<std::int64_t> lane_step;
        /// lanes x levels: offset delta applied when level k advances (its
        /// step, minus the full traversal of every deeper level — the
        /// odometer reset folded into one add).
        std::vector<std::int64_t> lane_delta;
        std::vector<std::int64_t> kbegin, kstep, kcount;  // per level
        std::vector<std::int64_t> kiter;                  // odometer counters
        /// Per lane, batched launches: the offset at the current point of
        /// the levels below the batch level, and one segment's travel.
        std::vector<std::int64_t> lane_cursor, lane_travel;
    };
    Scratch scratch_;
    // Deque: growing the pool must not invalidate references handed out for
    // lower indices (library nodes hold several operands at once).
    std::deque<std::vector<Value>> value_pool_;
};

/// Iterates all index tuples of concretized ranges in row-major order,
/// honouring negative steps; invokes fn(idx) with `idx` as the index tuple
/// buffer (resized to ranges.size()).  Implemented as an iterative odometer
/// — no recursion, no allocation beyond `idx` itself.  A range with step 0
/// raises common::Error (it would otherwise silently execute nothing).
template <typename Fn>
void for_each_point_into(const std::vector<ir::ConcreteRange>& ranges,
                         std::vector<std::int64_t>& idx, Fn&& fn) {
    const std::size_t dims = ranges.size();
    idx.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
        const auto [begin, end, step] = ranges[d];
        if (step == 0) throw common::Error("range with step 0");
        if (step > 0 ? begin > end : begin < end) return;  // empty dimension
        idx[d] = begin;
    }
    if (dims == 0) {
        fn(idx);  // a 0-D subset has exactly one (empty) point
        return;
    }
    while (true) {
        fn(idx);
        // Odometer carry from the innermost dimension outward.
        std::size_t d = dims;
        while (true) {
            if (d == 0) return;
            --d;
            const auto [begin, end, step] = ranges[d];
            idx[d] += step;
            if (step > 0 ? idx[d] <= end : idx[d] >= end) break;
            idx[d] = begin;
        }
    }
}

/// Allocating convenience wrapper around for_each_point_into.
template <typename Fn>
void for_each_point(const std::vector<ir::ConcreteRange>& ranges, Fn&& fn) {
    std::vector<std::int64_t> idx;
    for_each_point_into(ranges, idx, std::forward<Fn>(fn));
}

}  // namespace ff::interp

#include "interp/interpreter.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <type_traits>

#include "common/error.h"
#include "common/rng.h"
#include "feedback/coverage.h"
#include "interp/library_nodes.h"

namespace ff::interp {

using ir::DataflowNode;
using ir::NodeId;
using ir::NodeKind;

namespace {

// Indices into the interpreter's scratch_values() pool.  Library nodes use
// low indices (see library_nodes.cpp); the interpreter's own helpers use the
// high ones so nested data movement never aliases.
constexpr std::size_t kCopyScratch = 6;
constexpr std::size_t kPassthroughBase = 8;  // + per-tasklet passthrough pool index

/// Longest level a flat-stride launch takes on: longer extents make no
/// throughput difference either way, and keep the footprint arithmetic
/// comfortably inside __int128.
constexpr std::int64_t kMaxExtent = std::int64_t{1} << 31;
/// Most nested prefix points one nest launch walks into runs; a longer walk
/// declines to per-outer-point launches.
constexpr std::size_t kMaxRuns = 256;

/// Seed of the deterministic garbage Device containers start with.
constexpr std::uint64_t kDeviceGarbageSeed = 0xD00DULL;

/// Precomputes subset shape facts that do not depend on symbol values.
void analyze_subset(AccessPlan& ap) {
    ap.single_point = true;
    ap.const_volume = 1;
    bool volume_known = true;
    for (const ir::Range& r : ap.memlet->subset.ranges) {
        const bool step_const_nonzero = r.step->is_constant() && r.step->constant_value() != 0;
        if (step_const_nonzero && r.begin->equals(*r.end)) continue;  // one index
        ap.single_point = false;
        if (step_const_nonzero && r.begin->is_constant() && r.end->is_constant()) {
            ap.const_volume *= ir::concrete_range_size(ir::ConcreteRange{
                r.begin->constant_value(), r.end->constant_value(), r.step->constant_value()});
        } else {
            volume_known = false;
        }
    }
    if (!volume_known) ap.const_volume = -1;
}

/// `end - begin` of `r` when it is the same under every binding: both bounds
/// affine in their symbols with equal constant coefficients, which cancel.
/// Bounded by kMaxExtent.
std::optional<std::int64_t> constant_extent(const ir::Range& r) {
    std::set<std::string> names;
    r.begin->collect_symbols(names);
    r.end->collect_symbols(names);
    std::vector<const std::string*> symbols;
    for (const std::string& n : names) symbols.push_back(&n);
    const auto begin = ir::affine_coefficients(r.begin, symbols);
    const auto end = ir::affine_coefficients(r.end, symbols);
    if (!begin || !end || *begin != *end) return std::nullopt;
    sym::Bindings zero;
    for (const std::string& n : names) zero[n] = 0;
    try {
        const __int128 extent =
            static_cast<__int128>(r.end->evaluate(zero)) - r.begin->evaluate(zero);
        if (extent < -kMaxExtent || extent > kMaxExtent) return std::nullopt;
        return static_cast<std::int64_t>(extent);
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

/// Lowers an input of a tasklet that may take the F64 signature to taps
/// (AccessPlan::taps); false when the input must stay on the tagged gather.
/// A single point is one tap.  A window qualifies when every dimension has a
/// constant extent and a constant nonzero step, it holds every lane the
/// program declares (an empty window, or one the program reads past, raises
/// or checks nothing on the gather), and its connector is an input only (an
/// output connector would scatter gathered lanes no tap loads).
bool lower_taps(AccessPlan& ap, const TaskletProgram& prog) {
    const std::vector<ir::Range>& ranges = ap.memlet->subset.ranges;
    const std::size_t dims = ranges.size();
    ap.box.assign(dims, 0);
    if (ap.single_point) {
        ap.taps.push_back({ap.slot_base, std::vector<std::int64_t>(dims, 0)});
        ap.window_points = 1;
        return true;
    }
    std::vector<std::int64_t> count(dims), step(dims);
    std::int64_t volume = 1;
    for (std::size_t d = 0; d < dims; ++d) {
        const ir::Range& r = ranges[d];
        if (!r.step->is_constant() || r.step->constant_value() == 0) return false;
        const std::optional<std::int64_t> extent = constant_extent(r);
        if (!extent) return false;
        step[d] = r.step->constant_value();
        count[d] = ir::concrete_range_size(ir::ConcreteRange{0, *extent, step[d]});
        if (count[d] == 0 || count[d] > kMaxExtent / volume) return false;
        volume *= count[d];
        ap.box[d] = (count[d] - 1) * step[d];
    }
    if (volume < ap.width) return false;
    const SlotDesc* slot = nullptr;
    for (const SlotDesc& sd : prog.slot_table())
        if (sd.name == ap.conn) slot = &sd;
    if (slot && slot->is_output) return false;
    ap.window_points = volume;
    // Lane l is the window's l-th point in row-major order.
    for (const int lane : slot ? prog.loaded_lanes(*slot) : std::vector<int>{}) {
        AccessPlan::Tap tap{slot->base + lane, std::vector<std::int64_t>(dims)};
        std::int64_t rest = lane;
        for (std::size_t d = dims; d-- > 0;) {
            tap.offset[d] = rest % count[d] * step[d];
            rest /= count[d];
        }
        ap.taps.push_back(std::move(tap));
    }
    if (ap.taps.empty()) ap.taps.push_back({-1, std::vector<std::int64_t>(dims, 0)});
    return true;
}

/// Lowers one symbolic range triple to interned programs.
RangePlan lower_range(const ir::Range& r, sym::SymbolTable& tab,
                      std::vector<sym::SymId>& used) {
    RangePlan rp;
    rp.begin = sym::CompiledExpr::lower(r.begin, tab, &used);
    rp.end = sym::CompiledExpr::lower(r.end, tab, &used);
    rp.step = sym::CompiledExpr::lower(r.step, tab, &used);
    return rp;
}

/// Whether any bound of `r` references one of `ids`.
bool range_uses(const RangePlan& r, const sym::SymId* ids, std::size_t count) {
    return r.begin.uses_any(ids, count) || r.end.uses_any(ids, count) ||
           r.step.uses_any(ids, count);
}

/// Saturating counter add: hostile iteration footprints (a kernel launch's
/// point product can exceed int64) must clamp, never wrap into a fresh
/// budget.
std::int64_t saturating_add(std::int64_t counter, __int128 amount) {
    const __int128 sum = static_cast<__int128>(counter) + amount;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    return sum > kMax ? kMax : static_cast<std::int64_t>(sum);
}

// --- Untagged load/store conversions -----------------------------------------
//
// Kernels move values between raw Buffer storage and flat double arenas
// (the untagged VM runs only there).  These helpers are the exact
// expressions Buffer::load / Buffer::store apply on the tagged path, so
// every tier stays byte-identical for any container dtype:
//  * loads read float-family storage only (F32 -> double mirrors the tagged
//    load; the signature and each launch's dtype check keep integer
//    storage out);
//  * stores convert the untagged result like Buffer::store converts a float
//    Value: float storage through as_double, integer storage through as_int
//    (truncation to int64 first, then narrowing).

/// Raw storage base of `buf`'s runtime dtype (never null for a constructed
/// buffer).
void* raw_data_of(Buffer& buf) {
    switch (buf.dtype()) {
        case ir::DType::F64: return buf.f64_data();
        case ir::DType::F32: return buf.f32_data();
        case ir::DType::I64: return buf.i64_data();
        case ir::DType::I32: return buf.i32_data();
    }
    return nullptr;
}

/// Calls fn with `raw` as a pointer to `dt`'s element type.
template <typename Fn>
void with_elements(void* raw, ir::DType dt, Fn&& fn) {
    switch (dt) {
        case ir::DType::F64: fn(static_cast<double*>(raw)); break;
        case ir::DType::F32: fn(static_cast<float*>(raw)); break;
        case ir::DType::I64: fn(static_cast<std::int64_t*>(raw)); break;
        case ir::DType::I32: fn(static_cast<std::int32_t*>(raw)); break;
    }
}

/// Buffer::store's conversion of an untagged double to element type S.
template <typename S>
S store_cast(double v) {
    if constexpr (std::is_floating_point_v<S>) return static_cast<S>(v);
    else return static_cast<S>(truncate_to_int64(v));
}

/// Element `flat` of F64 or F32 storage, promoted like Buffer::load.
double load_double(const void* raw, ir::DType dt, std::int64_t flat) {
    return dt == ir::DType::F64 ? static_cast<const double*>(raw)[flat]
                                : static_cast<double>(static_cast<const float*>(raw)[flat]);
}

/// Stores `v` into element `flat` of storage of any dtype.
void store_double(void* raw, ir::DType dt, std::int64_t flat, double v) {
    with_elements(raw, dt, [&](auto* dst) {
        dst[flat] = store_cast<std::remove_pointer_t<decltype(dst)>>(v);
    });
}

/// Column twin of load_double: col[j] = element base + j * stride, j < n.
void gather_column(double* col, const void* raw, ir::DType dt, std::int64_t base,
                   std::int64_t stride, std::int64_t n) {
    const auto gather = [&](const auto* src) {
        for (std::int64_t j = 0; j < n; ++j) col[j] = static_cast<double>(src[base + j * stride]);
    };
    if (dt == ir::DType::F64) gather(static_cast<const double*>(raw));
    else gather(static_cast<const float*>(raw));
}

/// Column twin of store_double: element base + j * stride = col[j], j < n.
void scatter_column(void* raw, ir::DType dt, std::int64_t base, std::int64_t stride,
                    const double* col, std::int64_t n) {
    with_elements(raw, dt, [&](auto* dst) {
        using S = std::remove_pointer_t<decltype(dst)>;
        for (std::int64_t j = 0; j < n; ++j) dst[base + j * stride] = store_cast<S>(col[j]);
    });
}

/// Sizes a VM frame for `prog` and zeroes its slots (lanes no input loads
/// start at zero in every representation); returns the slot array.
template <typename T>
T* reset_frame(std::vector<T>& slots, std::vector<T>& regs, const TaskletProgram& prog) {
    const auto nslots = static_cast<std::size_t>(prog.slot_count());
    const auto nregs = static_cast<std::size_t>(prog.reg_count());
    if (slots.size() < nslots) slots.resize(nslots);
    std::fill_n(slots.begin(), nslots, T{});
    if (regs.size() < nregs) regs.resize(nregs);
    return slots.data();
}

}  // namespace

StatePlan Interpreter::build_plan(const ir::SDFG& sdfg, const ir::State& state) {
    const auto topo = state.graph().topological_order();
    if (!topo) throw common::ValidationError("state '" + state.name() + "' has a dataflow cycle");

    const ir::ScopeTree scopes(state);
    StatePlan plan;
    NodeId max_id = -1;
    std::map<NodeId, std::vector<NodeId>> scope_children;
    for (NodeId n : *topo) {
        max_id = std::max(max_id, n);
        const NodeKind k = state.graph().node(n).kind;
        if (k == NodeKind::MapExit) continue;  // executed with its entry
        const NodeId p = scopes.parent(n);
        if (p == graph::kInvalidNode) plan.top_level.push_back(n);
        else scope_children[p].push_back(n);
    }

    // Per-tasklet memlet access plans and per-scope iteration plans.  Both
    // are engine-independent (the reference path simply ignores the tasklet
    // plans), so one shared plan serves interpreters of either config.
    sym::SymbolTable& tab = plans_->symbols();
    std::vector<sym::SymId> used;

    plan.node_to_plan.assign(static_cast<std::size_t>(max_id + 1), -1);
    plan.node_to_scope.assign(static_cast<std::size_t>(max_id + 1), -1);
    int cache_counter = 0;
    for (NodeId n : *topo) {
        const DataflowNode& node = state.graph().node(n);
        if (node.kind == NodeKind::Tasklet) {
            TaskletPlan tp;
            build_tasklet_plan(sdfg, state, n, tp, cache_counter, used);
            plan.node_to_plan[static_cast<std::size_t>(n)] =
                static_cast<int>(plan.tasklet_plans.size());
            plan.tasklet_plans.push_back(std::move(tp));
        } else if (node.kind == NodeKind::MapEntry) {
            ScopePlan sp;
            sp.label = node.label;
            for (std::size_t i = 0; i < node.params.size(); ++i) {
                const sym::SymId id = tab.intern(node.params[i]);
                sp.params.push_back(id);
                sp.param_names.push_back(&node.params[i]);
                // Referenced so a same-named free symbol (shadowing) is
                // mirrored; the scope save/restore handles the rest.
                if (std::find(used.begin(), used.end(), id) == used.end())
                    used.push_back(id);
                sp.ranges.push_back(lower_range(node.map_ranges[i], tab, used));
            }
            sp.children = std::move(scope_children[n]);
            sp.same_subnest.assign(sp.params.size(), 1);
            for (std::size_t k = 0; k < sp.params.size(); ++k)
                for (std::size_t j = k + 1; j < sp.params.size(); ++j)
                    if (range_uses(sp.ranges[j], &sp.params[k], sp.params.size() - k))
                        sp.same_subnest[k] = 0;
            plan.node_to_scope[static_cast<std::size_t>(n)] =
                static_cast<int>(plan.scope_plans.size());
            plan.scope_plans.push_back(std::move(sp));
        }
    }
    plan.cache_slots = cache_counter;

    // Scope purity, innermost-first (reverse topological order guarantees a
    // nested entry is classified before its parent).
    for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
        const NodeId n = *it;
        if (state.graph().node(n).kind != NodeKind::MapEntry) continue;
        ScopePlan& sp = plan.scope_plans[static_cast<std::size_t>(
            plan.node_to_scope[static_cast<std::size_t>(n)])];
        bool pure = true;
        for (NodeId c : sp.children) {
            const NodeKind k = state.graph().node(c).kind;
            if (k == NodeKind::Tasklet) {
                const TaskletPlan* tp = plan.plan_of(c);
                pure = pure && tp && !tp->use_reference;
            } else if (k == NodeKind::MapEntry) {
                pure = pure && plan.scope_of(c).pure;
            } else {
                // Access copies, library and comm nodes read ctx.symbols.
                pure = false;
            }
        }
        sp.pure = pure;
    }

    // Specialization tier: flat-stride bands for qualifying scopes.
    std::int64_t f64_count = 0, window_count = 0;
    for (const TaskletPlan& tp : plan.tasklet_plans) {
        if (tp.sig != VMSig::F64) continue;
        ++f64_count;
        window_count += std::any_of(tp.inputs.begin(), tp.inputs.end(),
                                    [](const AccessPlan& ap) { return !ap.single_point; });
    }
    std::int64_t specialized = 0, segmented = 0;
    for (ScopePlan& sp : plan.scope_plans) {
        classify_scope_kernel(sdfg, state, plan, sp);
        specialized += sp.kernel >= 0 ? 1 : 0;
        if (sp.kernel >= 0 && plan.kernels[static_cast<std::size_t>(sp.kernel)].segment_ok)
            ++segmented;
    }
    plans_->note_classification(static_cast<std::int64_t>(plan.scope_plans.size()), specialized,
                                segmented, static_cast<std::int64_t>(plan.tasklet_plans.size()),
                                f64_count, window_count);

    // Def-use pair id bases (feedback/coverage.h).  The atlas enumerates the
    // same accesses in the same order as the tasklet plans above, so each
    // plan's j-th access takes base + j * kNumClasses.  Plans are shared
    // between coverage-on and coverage-off interpreters; ExecConfig::coverage
    // gates marking, not planning.
    {
        ir::StateId sid = graph::kInvalidNode;
        for (const ir::StateId s : sdfg.states())
            if (&sdfg.state(s) == &state) {
                sid = s;
                break;
            }
        const auto atlas = plans_->atlas_for(sdfg);
        for (NodeId n : *topo) {
            const int pi = static_cast<std::size_t>(n) < plan.node_to_plan.size()
                               ? plan.node_to_plan[static_cast<std::size_t>(n)]
                               : -1;
            if (pi < 0) continue;
            TaskletPlan& tp = plan.tasklet_plans[static_cast<std::size_t>(pi)];
            const std::int64_t base = atlas->base_of(sid, n);
            if (base < 0) continue;  // unconnected tasklet: not enumerated
            const std::size_t accesses = tp.inputs.size() + tp.outputs.size();
            tp.cov_bases.reserve(accesses);
            for (std::size_t j = 0; j < accesses; ++j)
                tp.cov_bases.push_back(static_cast<std::uint32_t>(base) +
                                       static_cast<std::uint32_t>(j) * feedback::kNumClasses);
        }
        for (ScopePlan& sp : plan.scope_plans) {
            for (NodeId c : sp.children) {
                const TaskletPlan* tp = plan.plan_of(c);
                if (!tp) continue;
                sp.cov_bases.insert(sp.cov_bases.end(), tp->cov_bases.begin(),
                                    tp->cov_bases.end());
            }
        }
    }

    plan.referenced.reserve(used.size());
    for (const sym::SymId id : used) plan.referenced.emplace_back(id, tab.name(id));
    plan.symtab_size = tab.size();
    return plan;
}

void Interpreter::classify_scope_kernel(const ir::SDFG& sdfg, const ir::State& state,
                                        StatePlan& plan, ScopePlan& sp) {
    const std::size_t nparams = sp.params.size();
    if (!sp.pure || nparams == 0) return;

    // The band starts one past the deepest level any of the scope's bounds
    // references: the levels above feed bounds and stay on the generic
    // odometer, which launches the band once per prefix point (tiled and
    // triangular maps).  Band bounds are then evaluable at band entry.
    ScopeKernel kern;
    for (const RangePlan& r : sp.ranges)
        for (std::size_t k = kern.prefix; k < nparams; ++k)
            if (range_uses(r, &sp.params[k], 1)) kern.prefix = k + 1;
    if (kern.prefix == nparams) return;
    std::vector<const std::string*> names;
    for (std::size_t k = kern.prefix; k < nparams; ++k) {
        kern.levels.push_back(BandLevel{sp.params[k], sp.ranges[k]});
        names.push_back(sp.param_names[k]);
    }
    kern.outer_levels = kern.levels.size();

    // A sole nested map scope extends the band when no nested bound
    // references an outer band parameter — the perfectly nested reduction.
    // Its own leading levels that feed its later bounds (a tiled
    // reduction's tile parameter) become runs, walked once per launch.
    const ScopePlan* body = &sp;
    std::vector<sym::SymId> params;  // every parameter the launch binds
    for (const BandLevel& l : kern.levels) params.push_back(l.param);
    if (sp.children.size() == 1 &&
        state.graph().node(sp.children[0]).kind == NodeKind::MapEntry) {
        const int ni = plan.node_to_scope[static_cast<std::size_t>(sp.children[0])];
        const ScopePlan& inner = plan.scope_plans[static_cast<std::size_t>(ni)];
        const std::size_t ninner = inner.params.size();
        for (const RangePlan& r : inner.ranges)
            if (range_uses(r, params.data(), params.size())) return;
        for (const RangePlan& r : inner.ranges)
            for (std::size_t k = kern.nested_prefix; k < ninner; ++k)
                if (range_uses(r, &inner.params[k], 1)) kern.nested_prefix = k + 1;
        if (kern.nested_prefix == ninner) return;
        // All runs share one set of steps.
        for (std::size_t k = kern.nested_prefix; k < ninner; ++k)
            if (inner.ranges[k].step.uses_any(inner.params.data(), kern.nested_prefix)) return;
        params.insert(params.end(), inner.params.begin(),
                      inner.params.begin() + static_cast<std::ptrdiff_t>(kern.nested_prefix));
        for (std::size_t k = kern.nested_prefix; k < ninner; ++k) {
            kern.levels.push_back(BandLevel{inner.params[k], inner.ranges[k]});
            names.push_back(inner.param_names[k]);
            params.push_back(inner.params[k]);
        }
        kern.nested = ni;
        body = &inner;
    }
    const std::size_t nlevels = kern.levels.size();
    // Every parameter the launch binds is its own (a shadowing nested
    // parameter or a repeated one would alias two levels).
    for (std::size_t k = 0; k < params.size(); ++k)
        for (std::size_t j = k + 1; j < params.size(); ++j)
            if (params[k] == params[j]) return;

    for (const ir::NodeId c : body->children) {
        if (state.graph().node(c).kind != NodeKind::Tasklet) return;  // nested scope etc.
        const TaskletPlan* tp = plan.plan_of(c);
        // Kernels run the untagged VM only.  The F64 signature binds every
        // access to a single point of a container, and its feasibility
        // proof rules out traps and integer division — so the committed
        // point loop is throw-free, as it must be: lane buffers are
        // pre-allocated at launch, and a tasklet throwing mid-loop would
        // leave different partial allocations than the lazily-allocating
        // generic path.  Every other tasklet runs the generic tagged VM.
        if (!tp || tp->sig != VMSig::F64) return;
        // Input validation must be statically satisfied: an input delivers
        // its window's points (one for a single point), so any wider (or
        // unbound) declared input would throw per point — leave that to the
        // generic path.
        for (const TaskletPlan::InputCheck& check : tp->input_checks) {
            if (check.input_index < 0) return;
            const AccessPlan& in = tp->inputs[static_cast<std::size_t>(check.input_index)];
            if (check.width > in.window_points) return;
        }
        const int tindex = static_cast<int>(kern.tasklets.size());
        // One lane per output and per input tap, each affine in the band
        // through its memlet's begin index.
        auto classify_access = [&](const AccessPlan& ap, bool output, int index) {
            // Rank mismatches raise inside the loop on the generic path.
            if (sdfg.container(ap.memlet->data).dims() != ap.dims.size()) return false;
            KernelAccess ka;
            ka.tasklet = tindex;
            ka.output = output;
            ka.index = index;
            ka.coeffs.reserve(ap.dims.size() * nlevels);
            for (const ir::Range& r : ap.memlet->subset.ranges) {
                const auto coeffs = ir::affine_coefficients(r.begin, names);
                if (!coeffs) return false;
                ka.coeffs.insert(ka.coeffs.end(), coeffs->begin(), coeffs->end());
            }
            if (output || ap.single_point) {
                ka.slot = ap.slot_base;
                kern.accesses.push_back(std::move(ka));
                return true;
            }
            ka.box = ap.box;
            for (const AccessPlan::Tap& tap : ap.taps) {
                ka.slot = tap.slot;
                ka.offset = tap.offset;
                kern.accesses.push_back(ka);
            }
            return true;
        };
        const std::size_t first_lane = kern.accesses.size();
        for (std::size_t i = 0; i < tp->inputs.size(); ++i)
            if (!classify_access(tp->inputs[i], false, static_cast<int>(i))) return;
        kern.input_lanes.push_back(kern.accesses.size() - first_lane);
        for (std::size_t i = 0; i < tp->outputs.size(); ++i)
            if (!classify_access(tp->outputs[i], true, static_cast<int>(i))) return;
        kern.tasklets.push_back(plan.node_to_plan[static_cast<std::size_t>(c)]);
    }

    // Segment eligibility: every tasklet is straight-line, so the VM's batch
    // mode applies.
    kern.segment_ok = !kern.tasklets.empty();
    for (const int t : kern.tasklets)
        kern.segment_ok = kern.segment_ok &&
                          plan.tasklet_plans[static_cast<std::size_t>(t)].prog->is_straightline();

    sp.kernel = static_cast<int>(plan.kernels.size());
    plan.kernels.push_back(std::move(kern));
}

void Interpreter::build_tasklet_plan(const ir::SDFG& sdfg, const ir::State& state, NodeId nid,
                                     TaskletPlan& tp, int& cache_counter,
                                     std::vector<sym::SymId>& used) {
    const DataflowNode& node = state.graph().node(nid);
    tp.prog = program_for(node.code);
    tp.label = node.label;
    const TaskletProgram& prog = *tp.prog;
    sym::SymbolTable& tab = plans_->symbols();

    auto lower_dims = [&](AccessPlan& ap) {
        ap.dims.reserve(ap.memlet->subset.ranges.size());
        for (const ir::Range& r : ap.memlet->subset.ranges)
            ap.dims.push_back(lower_range(r, tab, used));
    };

    std::set<std::string> bound;
    for (graph::EdgeId eid : state.graph().in_edges(nid)) {
        const auto& edge = state.graph().edge(eid).data;
        if (edge.dst_conn.empty()) continue;  // ordering-only dependency edge
        AccessPlan ap;
        ap.memlet = &edge.memlet;
        ap.conn = edge.dst_conn;
        for (const SlotDesc& sd : prog.slot_table()) {
            if (sd.name == edge.dst_conn) {
                ap.slot_base = sd.base;
                ap.width = sd.width;
                break;
            }
        }
        analyze_subset(ap);
        lower_dims(ap);
        ap.cache_index = cache_counter++;
        bound.insert(edge.dst_conn);
        for (const std::string& t : prog.trap_connectors())
            if (t == edge.dst_conn) tp.use_reference = true;
        tp.inputs.push_back(std::move(ap));
    }

    // reads() name order = the reference engine's check order.  Multiple
    // edges binding one connector: the last gather wins in both engines, so
    // validate against the last matching input.
    for (const auto& [name, width] : prog.reads()) {
        TaskletPlan::InputCheck check;
        check.conn = name;
        check.width = width;
        for (std::size_t i = 0; i < tp.inputs.size(); ++i)
            if (tp.inputs[i].conn == name) check.input_index = static_cast<int>(i);
        tp.input_checks.push_back(std::move(check));
    }

    int next_pool = 0;
    for (graph::EdgeId eid : state.graph().out_edges(nid)) {
        const auto& edge = state.graph().edge(eid).data;
        AccessPlan ap;
        ap.memlet = &edge.memlet;
        ap.conn = edge.src_conn;
        for (const SlotDesc& sd : prog.slot_table()) {
            if (sd.name == edge.src_conn) {
                ap.slot_base = sd.base;
                ap.width = sd.width;
                break;
            }
        }
        if (ap.slot_base < 0) {
            if (bound.count(edge.src_conn)) {
                // The program never mentions this connector: the edge
                // forwards the gathered input values unchanged.  Stage the
                // pre-execution snapshot in a passthrough pool so an earlier
                // output writing the same container cannot alter it.
                for (AccessPlan& in : tp.inputs)
                    if (in.conn == edge.src_conn) {
                        if (in.passthrough_pool < 0) in.passthrough_pool = next_pool++;
                        ap.passthrough_pool = in.passthrough_pool;
                        break;
                    }
            } else {
                ap.invalid = true;  // raised when this edge executes
            }
        } else {
            // Connector used by the program *and* bound as an input: the
            // reference engine scatters the full gathered vector, which can
            // exceed the compiled slot width when the input memlet is larger
            // than the referenced lanes — only then do the engines diverge,
            // so run such nodes on the reference engine.
            for (const AccessPlan& in : tp.inputs)
                if (in.conn == edge.src_conn &&
                    (in.const_volume < 0 || in.const_volume > ap.width))
                    tp.use_reference = true;
        }
        analyze_subset(ap);
        lower_dims(ap);
        ap.cache_index = cache_counter++;
        tp.outputs.push_back(std::move(ap));
    }

    // Dtype-signature selection (see VMSig): program-side feasibility
    // (proved at parse time assuming every input arrives as a double) plus
    // graph-side facts.  Every *input* must bind a float-family container
    // through a single point or a window that lowers to taps (lower_taps) —
    // F32 inputs work on the f64 engine because the tagged VM already
    // promotes F32 loads to double (Buffer::load), so computing in double is
    // what the tagged path does anyway.  *Outputs* bind a single-point
    // subset of any dtype: the kernels' store conversions mirror
    // Buffer::store's casts on the tagged result exactly.  No passthrough
    // staging or invalid outputs on either side.
    auto untagged_ok = [&] {
        auto shape_ok = [&](const AccessPlan& ap) {
            return !ap.invalid && ap.passthrough_pool < 0 && sdfg.has_container(ap.memlet->data);
        };
        for (const AccessPlan& ap : tp.outputs)
            if (!shape_ok(ap) || !ap.single_point) return false;
        for (AccessPlan& ap : tp.inputs)
            if (!shape_ok(ap) || !ir::dtype_is_float(sdfg.container(ap.memlet->data).dtype) ||
                !lower_taps(ap, prog))
                return false;
        return true;
    };
    if (!tp.use_reference && prog.has_f64_variant() && untagged_ok()) {
        tp.sig = VMSig::F64;
    } else {
        for (AccessPlan& ap : tp.inputs) {  // taps mean the F64 signature
            ap.taps.clear();
            ap.box.clear();
        }
    }
}

std::shared_ptr<const StatePlan> Interpreter::plan_for(const ir::SDFG& sdfg,
                                                       const ir::State& state) {
    return plans_->get_or_build(PlanKey{sdfg.plan_uid(), sdfg.mutation_epoch(), &state},
                                [&] { return build_plan(sdfg, state); });
}

void Interpreter::sync_flat_bindings(const StatePlan& plan, const Context& ctx) {
    Scratch& s = scratch_;
    s.flat.reset(plan.symtab_size);
    s.eval_stack.clear();
    s.param_stack.clear();
    s.active_params.clear();
    for (const auto& [id, name] : plan.referenced) {
        auto it = ctx.symbols.find(name);
        if (it != ctx.symbols.end()) s.flat.bind(id, it->second);
    }
}

void Interpreter::invalidate_execution_cache() {
    scratch_.cache_plan = nullptr;
    scratch_.cache_ctx = nullptr;
}

void Interpreter::rebind_plan_cache(PlanCachePtr plans) {
    plans_ = plans ? std::move(plans) : std::make_shared<PlanCache>();
    // Scratch stays: its vectors are sized per state on entry and reusing
    // their capacity is the point of rebinding.
    invalidate_execution_cache();
}

ExecResult Interpreter::run(const ir::SDFG& sdfg, Context& ctx) {
    ExecResult result;
    invalidate_execution_cache();
    points_used_ = 0;
    instructions_used_ = 0;
    alloc_used_ = 0;
    try {
        ir::StateId current = sdfg.start_state();
        while (true) {
            execute_state(sdfg, sdfg.state(current), ctx);

            // Pick the first matching transition, in edge insertion order.
            ir::StateId next = graph::kInvalidNode;
            const ir::InterstateEdge* taken = nullptr;
            for (graph::EdgeId eid : sdfg.cfg().out_edges(current)) {
                const auto& e = sdfg.cfg().edge(eid);
                if (!e.data.condition || e.data.condition->evaluate(ctx.symbols)) {
                    next = e.dst;
                    taken = &e.data;
                    break;
                }
            }
            if (next == graph::kInvalidNode) break;  // terminate

            // Simultaneous assignment: evaluate all RHS under old bindings.
            std::vector<std::pair<std::string, std::int64_t>> updates;
            updates.reserve(taken->assignments.size());
            for (const auto& [symbol, expr] : taken->assignments)
                updates.emplace_back(symbol, expr->evaluate(ctx.symbols));
            for (const auto& [symbol, value] : updates) ctx.symbols[symbol] = value;

            if (++result.state_transitions > config_.max_state_transitions)
                throw common::HangError(config_.max_state_transitions);

            current = next;
        }
    } catch (const common::HangError& e) {
        result.status = ExecStatus::Hang;
        result.message = e.what();
    } catch (const common::ResourceError& e) {
        result.status = ExecStatus::Resource;
        result.message = e.what();
    } catch (const std::exception& e) {
        result.status = ExecStatus::Crash;
        result.message = e.what();
    }
    // Cost counters are byte-identical across execution tiers only for Ok
    // results (see ExecResult); they are still reported on error paths for
    // diagnostics.
    result.points = points_used_;
    result.instructions = instructions_used_;
    return result;
}

void Interpreter::execute_state(const ir::SDFG& sdfg, const ir::State& state, Context& ctx) {
    const std::shared_ptr<const StatePlan> held = plan_for(sdfg, state);
    const StatePlan& plan = *held;
    invalidate_execution_cache();
    sync_flat_bindings(plan, ctx);
    for (NodeId nid : plan.top_level) {
        execute_node_planned(sdfg, state, plan, nid, ctx);
        if (cov_map_) {
            // A top-level tasklet executes exactly once: its accesses hit
            // region class 1 (one point).  Scope-enclosed tasklets are
            // marked at launch granularity by execute_scope instead.
            if (const TaskletPlan* tp = plan.plan_of(nid))
                for (const std::uint32_t base : tp->cov_bases) cov_map_->mark(base + 1);
        }
    }
}

void Interpreter::execute_node(const ir::SDFG& sdfg, const ir::State& state, NodeId nid,
                               Context& ctx) {
    const std::shared_ptr<const StatePlan> plan = plan_for(sdfg, state);
    sync_flat_bindings(*plan, ctx);
    execute_node_planned(sdfg, state, *plan, nid, ctx);
}

void Interpreter::execute_node_planned(const ir::SDFG& sdfg, const ir::State& state,
                                       const StatePlan& plan, NodeId nid, Context& ctx) {
    const DataflowNode& node = state.graph().node(nid);
    switch (node.kind) {
        case NodeKind::Access:
            ensure_buffer(sdfg, ctx, node.data);
            execute_access_copies(sdfg, state, nid, ctx);
            break;
        case NodeKind::Tasklet: {
            const TaskletPlan* tp = config_.tier != Tier::Reference ? plan.plan_of(nid) : nullptr;
            if (tp && !tp->use_reference) execute_tasklet_planned(sdfg, state, plan, *tp, ctx);
            else execute_tasklet(sdfg, state, nid, ctx);
            break;
        }
        case NodeKind::Library: execute_library(*this, sdfg, state, nid, ctx); break;
        case NodeKind::Comm: execute_comm_single_rank(sdfg, state, nid, ctx); break;
        case NodeKind::MapEntry: execute_scope(sdfg, state, plan, nid, ctx); break;
        case NodeKind::MapExit: break;
    }
}

void Interpreter::enter_params(const ScopePlan& sp, bool interned_only, const Context& ctx) {
    // Stack discipline on reusable scratch vectors: nested scopes push above
    // their parent, no steady-state allocation.
    Scratch& s = scratch_;
    for (std::size_t i = 0; i < sp.params.size(); ++i) {
        Scratch::SavedParam sv;
        sv.id = sp.params[i];
        sv.flat_bound = s.flat.is_bound(sv.id);
        sv.flat_value = sv.flat_bound ? s.flat.value(sv.id) : 0;
        sv.str_bound = false;
        sv.str_value = 0;
        if (!interned_only) {
            auto it = ctx.symbols.find(*sp.param_names[i]);
            if (it != ctx.symbols.end()) {
                sv.str_bound = true;
                sv.str_value = it->second;
            }
        }
        s.param_stack.push_back(sv);
        s.active_params.push_back(Scratch::ActiveParam{sp.param_names[i], 0});
    }
}

void Interpreter::leave_params(const ScopePlan& sp, bool interned_only, Context& ctx) {
    Scratch& s = scratch_;
    const std::size_t nparams = sp.params.size();
    const std::size_t pbase = s.param_stack.size() - nparams;
    for (std::size_t i = 0; i < nparams; ++i) {
        const Scratch::SavedParam& sv = s.param_stack[pbase + i];
        if (sv.flat_bound) s.flat.bind(sv.id, sv.flat_value);
        else s.flat.unbind(sv.id);
        if (!interned_only) {
            if (sv.str_bound) ctx.symbols[*sp.param_names[i]] = sv.str_value;
            else ctx.symbols.erase(*sp.param_names[i]);
        }
    }
    s.param_stack.resize(pbase);
    s.active_params.resize(s.active_params.size() - nparams);
}

void Interpreter::execute_scope(const ir::SDFG& sdfg, const ir::State& state,
                                const StatePlan& plan, NodeId entry, Context& ctx) {
    const ScopePlan& sp = plan.scope_of(entry);
    const std::size_t nparams = sp.params.size();
    Scratch& s = scratch_;
    // Pure scopes iterate entirely in the flat bindings: parameter binding
    // is an array store.  Impure scopes (library/comm/access/reference-
    // engine nodes inside) additionally maintain the string-keyed Context
    // bindings those nodes read, exactly like the legacy engine.
    const bool interned_only = config_.tier != Tier::Reference && sp.pure;
    const std::size_t abase = s.active_params.size();
    enter_params(sp, interned_only, ctx);

    // Coverage is charged per launch from the launch's point-fuel delta:
    // the kernel tier pre-charges the same total the generic odometer
    // accumulates (contract clause 8), so the region class — and with it the
    // bitmap — is byte-identical across tiers.
    const std::int64_t cov_snapshot = points_used_;

    // Flat-stride band: when the scope classified at plan time, the odometer
    // reaching the band's first level launches the whole band over
    // precomputed flat-offset advances (execute_scope_kernel) — once, or
    // once per prefix point.  A launch that does not validate falls through
    // to the generic levels below, which reproduce the unspecialized path's
    // exact effects and errors.
    const ScopeKernel* kern = interned_only && config_.tier >= Tier::Kernel && sp.kernel >= 0
                                  ? &plan.kernels[static_cast<std::size_t>(sp.kernel)]
                                  : nullptr;

    // Iterate the cartesian product of ranges.  Bounds are evaluated per
    // level because they may reference parameters of enclosing scopes.
    auto iterate = [&](auto&& self, std::size_t level) -> void {
        if (kern && level == kern->prefix) {
            if (execute_scope_kernel(sdfg, plan, sp, *kern, ctx)) return;
            plans_->note_kernel_fallback();
        }
        if (level == nparams) {
            // One map point.  The fuel check fires *before* the point's
            // children execute, so the kernel path's launch-entry pre-charge
            // (execute_scope_kernel) detects exhaustion of the same budget
            // with the same message — byte-identical results either way.
            points_used_ = saturating_add(points_used_, 1);
            if (config_.max_points > 0 && points_used_ > config_.max_points)
                throw common::ResourceError::points(config_.max_points);
            for (NodeId child : sp.children)
                execute_node_planned(sdfg, state, plan, child, ctx);
            return;
        }
        const auto [begin, end, step] = eval_range(sp.ranges[level]);
        if (step == 0) throw common::Error("map '" + sp.label + "' has step 0");
        const sym::SymId id = sp.params[level];
        const auto bind = [&](std::int64_t v) {
            s.flat.bind(id, v);
            s.active_params[abase + level].value = v;
            if (!interned_only) ctx.symbols[*sp.param_names[level]] = v;
        };
        for (std::int64_t v = begin; step > 0 ? v <= end : v >= end; v += step) {
            bind(v);
            const std::int64_t before = points_used_;
            self(self, level + 1);
            // Every value iterates the same sub-nest: when the first reached
            // no leaf (charged no point), no later one does — skip them,
            // leaving the parameter at its last value like the full walk.
            // (A saturated counter cannot tell, so it keeps walking.)
            if (v == begin && sp.same_subnest[level] && points_used_ == before &&
                before < std::numeric_limits<std::int64_t>::max()) {
                const __int128 span = static_cast<__int128>(end) - begin;
                bind(static_cast<std::int64_t>(begin + span / step * step));
                break;
            }
        }
    };
    iterate(iterate, 0);

    if (cov_map_ && !sp.cov_bases.empty()) {
        const std::uint32_t cls =
            static_cast<std::uint32_t>(feedback::region_class(points_used_ - cov_snapshot));
        for (const std::uint32_t base : sp.cov_bases) cov_map_->mark(base + cls);
    }
    leave_params(sp, interned_only, ctx);
}

bool Interpreter::execute_scope_kernel(const ir::SDFG& sdfg, const StatePlan& plan,
                                       const ScopePlan& sp, const ScopeKernel& kern,
                                       Context& ctx) {
    Scratch& s = scratch_;
    const std::size_t nlevels = kern.levels.size();
    const std::size_t nouter = kern.outer_levels;
    const std::size_t nlanes = kern.accesses.size();
    const ScopePlan* inner =
        kern.nested >= 0 ? &plan.scope_plans[static_cast<std::size_t>(kern.nested)] : nullptr;
    PlanCache::Launch note{0, inner != nullptr, kern.prefix > 0, kern.nested_prefix > 0};
    // The caller entered sp's parameters; the band's begin at the top of the
    // active-parameter stack, and a nest's nested parameters enter right
    // above them, so outer band level k binds active_params[abase + k] and
    // nested parameter j binds active_params[abase + nouter + j].
    const std::size_t abase = s.active_params.size() - nouter;

    // The kernel bypasses execute_tasklet_planned, so it owns the Buffer*
    // cache guard its per-point loop relies on.
    if (s.cache_plan != &plan || s.cache_ctx != &ctx) {
        s.buffer_cache.assign(static_cast<std::size_t>(plan.cache_slots), nullptr);
        s.cache_plan = &plan;
        s.cache_ctx = &ctx;
    }

    // 1. The launching scope's ranges, level by level: an empty level
    // returns before a deeper level's step-0 / unbound-symbol error fires,
    // exactly like the generic path (whose inner levels are never evaluated
    // under an empty outer one).  Their counts open run 0's row.
    s.kbegin.resize(nouter);
    s.kstep.resize(nlevels);
    s.run_count.resize(nouter);
    bool too_long = false;
    for (std::size_t k = 0; k < nouter; ++k) {
        const auto [begin, end, step] = eval_range(kern.levels[k].range);
        if (step == 0) throw common::Error("map '" + sp.label + "' has step 0");
        const std::int64_t count = ir::concrete_range_size(ir::ConcreteRange{begin, end, step});
        if (count == 0) {
            // Empty band: nothing executes, committed.
            plans_->note_kernel_launch(note);
            return true;
        }
        // A deeper empty level still commits, as the generic walk finds it
        // too.
        too_long = too_long || count > kMaxExtent;
        s.kbegin[k] = begin;
        s.kstep[k] = step;
        s.run_count[k] = count;
    }
    if (too_long) return false;

    // 2. Runs.  A nest enters its nested scope's parameters, standing in for
    // that scope's per-outer-point executions, and walks it once: its
    // bounds read nothing the outer band varies, so every outer point
    // replays the same runs.  A band without a nested scope is one run.
    if (inner) enter_params(*inner, /*interned_only=*/true, ctx);
    const auto decline = [&] {
        if (inner) leave_params(*inner, /*interned_only=*/true, ctx);
        return false;
    };
    if (inner && !walk_runs(kern, *inner)) return decline();
    const std::size_t nruns = s.run_count.size() / nlevels;

    // Points: the band's — every outer point replays every run — plus, for
    // a nest, one per outer point, which the generic path charges before
    // running each nested launch.
    __int128 outer_points = 1, run_points = 0;
    for (std::size_t k = 0; k < nouter; ++k) outer_points *= s.run_count[k];
    for (std::size_t r = 0; r < nruns; ++r) {
        __int128 points = 1;
        for (std::size_t k = nouter; k < nlevels; ++k) points *= s.run_count[r * nlevels + k];
        run_points += points;
    }
    const __int128 band_points = outer_points * run_points;
    const __int128 charge = band_points + (inner ? outer_points : 0);
    const bool over_budget = config_.max_points > 0 &&
                             static_cast<__int128>(points_used_) + charge > config_.max_points;
    // A nest the budget cannot cover runs as per-outer-point launches, which
    // reproduce the exact partial effects of the crossing point; declining
    // before lane setup keeps its buffers unallocated, as there.
    if (inner && over_budget) return decline();

    // 3. Bind parameters to run 0's first point, so base-index evaluation
    // and any lazy buffer-shape resolution see exactly what the generic
    // path's first iteration would.
    for (std::size_t k = 0; k < nouter; ++k) {
        s.flat.bind(kern.levels[k].param, s.kbegin[k]);
        s.active_params[abase + k].value = s.kbegin[k];
    }
    const auto bind_run = [&](std::size_t r) {
        const std::size_t ninner = inner->params.size();
        for (std::size_t j = 0; j < ninner; ++j) {
            const std::int64_t v = s.run_vals[r * ninner + j];
            s.flat.bind(inner->params[j], v);
            s.active_params[abase + nouter + j].value = v;
        }
    };
    if (inner) bind_run(0);

    // 4. Per access, in the generic path's first-point order: ensure the
    // buffer, validate rank and dtype, and place run 0 — evaluate the base
    // index and prove the outer travel plus the run's travel in bounds.
    // Then place every further run at its own first point.  Any validation
    // failure — *including* anything thrown (shape resolution, unbound index
    // symbol) — falls back: the generic odometer owns error semantics
    // outright, re-raising from the exact point the unspecialized run would
    // (with earlier sibling tasklets' first-point effects in place, which
    // this pre-pass must not shortcut).  Everything attempted here is
    // idempotent (allocation, pure evaluation), and a later run is only
    // placed once run 0 proved every lane's first point, where the generic
    // path allocates every lane buffer too — so the replay is byte-identical.
    const auto access_plan = [&](std::size_t a) -> const AccessPlan& {
        const KernelAccess& ka = kern.accesses[a];
        const TaskletPlan& tp =
            plan.tasklet_plans[static_cast<std::size_t>(kern.tasklets[ka.tasklet])];
        return ka.output ? tp.outputs[static_cast<std::size_t>(ka.index)]
                         : tp.inputs[static_cast<std::size_t>(ka.index)];
    };
    // Flat offset of lane a at the current bindings (run r's first point),
    // or -1 when some point of the outer travel plus run r's travel could
    // fault.  A window tap's travel carries the window's whole box, since
    // the generic gather bounds-checks its unread lanes too, and it
    // evaluates the window's end bounds as the gather does, so an end that
    // cannot evaluate throws here.
    const auto place = [&](std::size_t a, std::size_t r) -> std::int64_t {
        const KernelAccess& ka = kern.accesses[a];
        const AccessPlan& ap = access_plan(a);
        const Buffer& buf = plan_buffer(sdfg, ctx, plan, ap);
        const std::int64_t* cnt = &s.run_count[r * nlevels];
        __int128 flat = 0;
        const bool tap = !ka.box.empty();
        for (std::size_t d = 0; d < ap.dims.size(); ++d) {
            const std::int64_t base = tap ? eval_range(ap.dims[d])[0]
                                          : ap.dims[d].begin.eval(s.flat, s.eval_stack);
            __int128 lo = base, hi = base;
            if (tap) (ka.box[d] < 0 ? lo : hi) += ka.box[d];
            for (std::size_t k = 0; k < nlevels; ++k) {
                const __int128 travel = static_cast<__int128>(ka.coeffs[d * nlevels + k]) *
                                        (cnt[k] - 1) * s.kstep[k];
                (travel < 0 ? lo : hi) += travel;
            }
            if (lo < 0 || hi >= buf.shape()[d]) return -1;  // could fault: generic raises
            flat += (static_cast<__int128>(base) + (tap ? ka.offset[d] : 0)) * buf.strides()[d];
        }
        return static_cast<std::int64_t>(flat);
    };
    s.lanes.resize(nlanes);
    s.lane_base.resize(nlanes);
    s.run_off.assign(nruns * nlanes, 0);
    const auto setup_lane = [&](std::size_t a) {
        const AccessPlan& ap = access_plan(a);
        Buffer& buf = plan_buffer(sdfg, ctx, plan, ap);
        Scratch::KernelLane& lane = s.lanes[a];
        lane.raw = raw_data_of(buf);
        lane.dt = buf.dtype();
        lane.slot = kern.accesses[a].slot;
        if (buf.dims() != ap.dims.size()) return false;  // generic raises rank mismatch
        // Input dtype drift outside the float family: the generic tagged
        // path handles any dtype.  Outputs convert on store.
        if (!kern.accesses[a].output && !ir::dtype_is_float(lane.dt)) return false;
        s.lane_base[a] = place(a, 0);
        return s.lane_base[a] >= 0;
    };
    bool lanes_ok = true;
    try {
        for (std::size_t a = 0; a < nlanes && lanes_ok; ++a) lanes_ok = setup_lane(a);
        for (std::size_t r = 1; r < nruns && lanes_ok; ++r) {
            bind_run(r);
            for (std::size_t a = 0; a < nlanes && lanes_ok; ++a) {
                const std::int64_t offset = place(a, r);
                lanes_ok = offset >= 0;
                s.run_off[r * nlanes + a] = offset - s.lane_base[a];
            }
        }
    } catch (...) {
        lanes_ok = false;  // generic replay re-raises from the right point
    }
    if (!lanes_ok) return decline();
    // Every run's points are now proven in [0, size), so the step of every
    // level that moves in some run — a difference of reachable offsets —
    // fits an int64.  A level with one value in every run keeps step 0.
    s.lane_step.assign(nlanes * nlevels, 0);
    for (std::size_t k = 0; k < nlevels; ++k) {
        bool moves = false;
        for (std::size_t r = 0; r < nruns; ++r) moves = moves || s.run_count[r * nlevels + k] > 1;
        if (!moves) continue;
        for (std::size_t a = 0; a < nlanes; ++a) {
            const std::int64_t* coeffs = kern.accesses[a].coeffs.data();
            const AccessPlan& ap = access_plan(a);
            const auto& strides = plan_buffer(sdfg, ctx, plan, ap).strides();
            for (std::size_t d = 0; d < ap.dims.size(); ++d)
                s.lane_step[a * nlevels + k] += coeffs[d * nlevels + k] * s.kstep[k] * strides[d];
        }
    }

    // 5. Resource accounting, whole launch at once: the committed loop
    // below cannot raise (every run's footprint proven in bounds, throw-free
    // tasklet programs by classification), so the generic path run on the
    // same launch either completes every point or hits the same fuel
    // exhaustion — charging up front is observationally identical and keeps
    // the loop check-free.  Charged after lane setup so a fallback never
    // double-counts.
    if (over_budget) throw common::ResourceError::points(config_.max_points);
    points_used_ = saturating_add(points_used_, charge);
    instructions_used_ = saturating_add(
        instructions_used_, band_points * static_cast<__int128>(kern.tasklets.size()));
    // Every nested launch the nest stands in for iterates the same runs, so
    // one mark covers them all.
    if (inner && cov_map_) {
        const std::uint32_t cls = static_cast<std::uint32_t>(
            feedback::region_class(static_cast<std::int64_t>(run_points)));
        for (const std::uint32_t base : inner->cov_bases) cov_map_->mark(base + cls);
    }

    // 6. Batched execution: when the kernel is segment-eligible, the tier is
    // Batched, and this launch's concrete lane windows are alias-safe, run a
    // batch level through the VM's batch mode — the innermost level (a
    // segment), or failing that a nest's outer innermost level with the runs
    // in order inside each lane (a reduction batched along its output axis:
    // each output accumulates in the per-point order).  Otherwise the launch
    // runs point at a time (still committed — same results).
    std::size_t batch = nlevels;
    if (kern.segment_ok && config_.tier == Tier::Batched) {
        for (const std::size_t b : {nlevels - 1, nouter - 1}) {
            if (s.run_count[b] > 1 && segment_alias_safe(kern, b)) {
                batch = b;
                break;
            }
            if (!inner) break;
        }
    }
    run_band(plan, kern, batch);
    if (inner) leave_params(*inner, /*interned_only=*/true, ctx);
    note.points = static_cast<std::int64_t>(band_points);
    note.batched = batch < nlevels;
    note.sequential = batch + 1 < nlevels;
    plans_->note_kernel_launch(note);
    return true;
}

bool Interpreter::walk_runs(const ScopeKernel& kern, const ScopePlan& inner) {
    Scratch& s = scratch_;
    const std::size_t nlevels = kern.levels.size();
    const std::size_t nouter = kern.outer_levels;
    const std::size_t nprefix = kern.nested_prefix;
    const std::size_t ninner = inner.params.size();
    std::size_t nruns = 0, visits = 0;
    // One point of the prefix levels: evaluate the band levels in order — an
    // empty one drops the run before a deeper range is evaluated, as in the
    // generic walk — and record a non-empty run.
    const auto visit = [&] {
        s.run_count.resize((nruns + 1) * nlevels);
        s.run_vals.resize((nruns + 1) * ninner);
        std::int64_t* cnt = &s.run_count[nruns * nlevels];
        std::int64_t* vals = &s.run_vals[nruns * ninner];
        for (std::size_t k = 0; k < nouter; ++k) cnt[k] = s.run_count[k];
        for (std::size_t j = 0; j < nprefix; ++j) vals[j] = s.flat.value(inner.params[j]);
        for (std::size_t k = nouter; k < nlevels; ++k) {
            const auto [begin, end, step] = eval_range(kern.levels[k].range);
            if (step == 0) return false;
            const std::int64_t count = ir::concrete_range_size(ir::ConcreteRange{begin, end, step});
            if (count == 0) return true;
            if (count > kMaxExtent) return false;
            s.kstep[k] = step;  // the same in every run, by classification
            cnt[k] = count;
            vals[nprefix + k - nouter] = begin;
        }
        ++nruns;
        return true;
    };
    const auto walk = [&](auto&& self, std::size_t level) -> bool {
        if (level == nprefix) return visit();
        const auto [begin, end, step] = eval_range(inner.ranges[level]);
        if (step == 0) return false;
        for (std::int64_t v = begin; step > 0 ? v <= end : v >= end; v += step) {
            if (++visits > kMaxRuns) return false;
            s.flat.bind(inner.params[level], v);
            if (!self(self, level + 1)) return false;
        }
        return true;
    };
    bool ok = false;
    try {
        ok = walk(walk, 0);
    } catch (...) {
        // The generic nest raises it after charging its first outer point.
    }
    s.run_count.resize(nruns * nlevels);
    s.run_vals.resize(nruns * ninner);
    return ok && nruns > 0;
}

bool Interpreter::segment_alias_safe(const ScopeKernel& kern, std::size_t batch) const {
    const Scratch& s = scratch_;
    const std::size_t nlanes = kern.accesses.size();
    const std::size_t nlevels = kern.levels.size();
    const std::size_t nruns = s.run_count.size() / nlevels;
    // Address window of lane l over levels [from, nlevels) and every run
    // (each run's offset plus its own travel), relative to the lane's
    // launch offset.  Offsets are proven inside [0, buffer size) by lane
    // setup, so the interval arithmetic cannot overflow.
    const auto window = [&](std::size_t l, std::size_t from) {
        std::pair<std::int64_t, std::int64_t> w{std::numeric_limits<std::int64_t>::max(),
                                                std::numeric_limits<std::int64_t>::min()};
        for (std::size_t r = 0; r < nruns; ++r) {
            std::int64_t lo = s.run_off[r * nlanes + l], hi = lo;
            for (std::size_t k = from; k < nlevels; ++k) {
                const std::int64_t travel =
                    s.lane_step[l * nlevels + k] * (s.run_count[r * nlevels + k] - 1);
                (travel < 0 ? lo : hi) += travel;
            }
            w.first = std::min(w.first, lo);
            w.second = std::max(w.second, hi);
        }
        return w;
    };
    for (std::size_t w = 0; w < nlanes; ++w) {
        if (!kern.accesses[w].output) continue;
        const std::int64_t* ws = &s.lane_step[w * nlevels];
        const std::int64_t wo = s.lane_base[w];
        // Batch lanes run the runs and levels below the batch level
        // interleaved, so one lane's whole sequential span must stay short
        // of the next lane's writes.
        if (batch + 1 < nlevels) {
            const auto [tlo, thi] = window(w, batch + 1);
            if ((ws[batch] < 0 ? -ws[batch] : ws[batch]) <= thi - tlo) return false;
        }
        for (std::size_t l = 0; l < nlanes; ++l) {
            if (l == w) continue;
            // Inputs with no slot are never loaded (side-effect-only
            // gathers); they cannot observe reordering.
            if (!kern.accesses[l].output && s.lanes[l].slot < 0) continue;
            if (s.lanes[l].raw != s.lanes[w].raw) continue;  // different buffers
            const std::int64_t* ls = &s.lane_step[l * nlevels];
            const std::int64_t lo = s.lane_base[l];
            bool same_runs = true;
            for (std::size_t r = 1; r < nruns; ++r)
                same_runs = same_runs && s.run_off[r * nlanes + w] == s.run_off[r * nlanes + l];
            // Levels above the batch level and runs stepping alike keep the
            // pair's relative offset in every segment: the first decides.
            const bool same_outer = same_runs && std::equal(ws, ws + batch, ls);
            // Pointwise-aligned: the pair touches each address only at the
            // same point, so relative order per address is preserved.
            // Stride 0 over a multi-point segment is a repeated
            // same-address access — a sequential dependency, not aligned.
            if (same_outer && wo == lo && ws[batch] != 0 &&
                std::equal(ws + batch, ws + nlevels, ls + batch))
                continue;
            // Otherwise the windows must be disjoint: per segment, or over
            // the whole launch when the relative offset moves.
            const std::size_t from = same_outer ? batch : 0;
            const auto [wlo, whi] = window(w, from);
            const auto [llo, lhi] = window(l, from);
            if (wo + whi < lo + llo || lo + lhi < wo + wlo) continue;
            return false;
        }
    }
    return true;
}

void Interpreter::run_band(const StatePlan& plan, const ScopeKernel& kern, std::size_t batch) {
    Scratch& s = scratch_;
    const std::size_t nlanes = kern.accesses.size();
    const std::size_t nlevels = kern.levels.size();
    const std::size_t nouter = kern.outer_levels;
    const std::size_t nruns = s.run_count.size() / nlevels;
    const std::size_t ntasklets = kern.tasklets.size();
    const bool batched = batch < nlevels;
    // The odometers walk every level but the batch level, which each visit
    // tiles: the outer levels around the runs, a run's levels inside it.
    const std::size_t outer_end = batched && batch < nouter ? batch : nouter;
    const std::size_t nested_end = batched && batch >= nouter ? batch : nlevels;

    // Column arena: tile the batch level so scratch stays cache-resident,
    // sized once for the largest program.
    constexpr std::int64_t kTile = 256;
    if (batched) {
        for (std::size_t t = 0; t < ntasklets; ++t) {
            const TaskletPlan& tp =
                plan.tasklet_plans[static_cast<std::size_t>(kern.tasklets[t])];
            const auto cols = static_cast<std::size_t>(
                (tp.prog->slot_count() + tp.prog->reg_count()) * kTile);
            if (s.f64_cols.size() < cols) s.f64_cols.resize(cols);
        }
    }

    // One point at the lane cursors: gather -> VM -> scatter per tasklet
    // through the lanes' raw storage.
    const auto point = [&] {
        std::size_t a = 0;
        for (std::size_t t = 0; t < ntasklets; ++t) {
            const TaskletPlan& tp =
                plan.tasklet_plans[static_cast<std::size_t>(kern.tasklets[t])];
            double* slots = reset_frame(s.f64_slots, s.f64_regs, *tp.prog);
            for (const std::size_t taps_end = a + kern.input_lanes[t]; a < taps_end; ++a) {
                const Scratch::KernelLane& lane = s.lanes[a];
                if (lane.slot >= 0)
                    slots[lane.slot] = load_double(lane.raw, lane.dt, s.lane_cursor[a]);
            }
            tp.prog->run_vm(slots, s.f64_regs.data());
            for (std::size_t i = 0; i < tp.outputs.size(); ++i, ++a) {
                const Scratch::KernelLane& lane = s.lanes[a];
                store_double(lane.raw, lane.dt, s.lane_cursor[a], slots[lane.slot]);
            }
        }
    };
    // The batch level's lanes from the lane cursors, in tiles: gather
    // columns -> batch VM -> scatter columns.  Tile-outer / tasklet-inner
    // order: within a tile every tasklet sees its predecessors' stores for
    // the whole tile — for pointwise-aligned dependencies (the only
    // cross-lane interaction the alias check admits) that is exactly
    // per-point order.
    const auto columns = [&](std::int64_t extent) {
        for (std::int64_t j0 = 0; j0 < extent; j0 += kTile) {
            const std::int64_t tn = std::min(kTile, extent - j0);
            std::size_t a = 0;
            for (std::size_t t = 0; t < ntasklets; ++t) {
                const TaskletPlan& tp =
                    plan.tasklet_plans[static_cast<std::size_t>(kern.tasklets[t])];
                const auto nslots = static_cast<std::int64_t>(tp.prog->slot_count());
                double* cols = s.f64_cols.data();
                std::fill_n(cols, nslots * tn, 0.0);
                for (const std::size_t taps_end = a + kern.input_lanes[t]; a < taps_end; ++a) {
                    const Scratch::KernelLane& lane = s.lanes[a];
                    if (lane.slot < 0) continue;
                    const std::int64_t stride = s.lane_step[a * nlevels + batch];
                    gather_column(cols + lane.slot * tn, lane.raw, lane.dt,
                                  s.lane_cursor[a] + j0 * stride, stride, tn);
                }
                tp.prog->run_vm<double, true>(cols, cols + nslots * tn, tn);
                for (std::size_t i = 0; i < tp.outputs.size(); ++i, ++a) {
                    const Scratch::KernelLane& lane = s.lanes[a];
                    const std::int64_t stride = s.lane_step[a * nlevels + batch];
                    scatter_column(lane.raw, lane.dt, s.lane_cursor[a] + j0 * stride, stride,
                                   cols + lane.slot * tn, tn);
                }
            }
        }
    };
    // Advances the odometer of levels [from, to) under counts `cnt` by one
    // point and moves every lane position in `pos` with it: the advancing
    // level steps once and each deeper level of the range returns to its
    // first value.  False once the levels are exhausted (counters back at
    // 0).
    const auto advance = [&](std::size_t from, std::size_t to, const std::int64_t* cnt,
                             std::int64_t* pos) {
        for (std::size_t k = to; k-- > from;) {
            if (++s.kiter[k] < cnt[k]) {
                for (std::size_t l = 0; l < nlanes; ++l) {
                    const std::int64_t* step = &s.lane_step[l * nlevels];
                    std::int64_t delta = step[k];
                    for (std::size_t j = k + 1; j < to; ++j) delta -= step[j] * (cnt[j] - 1);
                    pos[l] += delta;
                }
                return true;
            }
            s.kiter[k] = 0;
        }
        return false;
    };

    s.kiter.assign(nlevels, 0);
    s.lane_cursor.resize(nlanes);
    do {
        for (std::size_t r = 0; r < nruns; ++r) {
            const std::int64_t* cnt = &s.run_count[r * nlevels];
            for (std::size_t l = 0; l < nlanes; ++l)
                s.lane_cursor[l] = s.lane_base[l] + s.run_off[r * nlanes + l];
            do {
                if (batched) columns(cnt[batch]);
                else point();
            } while (advance(nouter, nested_end, cnt, s.lane_cursor.data()));
        }
    } while (advance(0, outer_end, s.run_count.data(), s.lane_base.data()));
}

Buffer& Interpreter::ensure_buffer(const ir::SDFG& sdfg, Context& ctx, const std::string& name) {
    auto it = ctx.buffers.find(name);
    if (it != ctx.buffers.end()) return it->second;

    const ir::DataDesc& desc = sdfg.container(name);
    std::vector<std::int64_t> shape;
    if (scratch_.active_params.empty()) {
        shape = desc.concrete_shape(ctx.symbols);
    } else {
        // Allocating inside a map scope: the legacy engine resolved shapes
        // with the scope parameters bound (they were written into
        // ctx.symbols per iteration).  Interned scopes keep parameters in
        // the flat bindings only, so overlay the active parameters —
        // innermost last, shadowing any same-named outer symbol — to
        // preserve those semantics.  Cold path: runs once per container
        // per trial.
        sym::Bindings merged = ctx.symbols;
        for (const auto& ap : scratch_.active_params) merged[*ap.name] = ap.value;
        shape = desc.concrete_shape(merged);
    }
    // Allocation budget, charged before construction: a rejected allocation
    // leaves the context untouched, so a kernel-setup fallback replays this
    // exact check at the exact generic program point without double-charging
    // (buffers that did allocate early-return above).  Degenerate shapes
    // skip the check and fault in the Buffer constructor as before.
    if (std::all_of(shape.begin(), shape.end(), [](std::int64_t d) { return d >= 0; })) {
        __int128 bytes = static_cast<__int128>(ir::dtype_size(desc.dtype));
        for (std::int64_t d : shape) bytes *= d;
        if (config_.max_alloc_bytes > 0 &&
            static_cast<__int128>(alloc_used_) + bytes > config_.max_alloc_bytes)
            throw common::ResourceError::alloc(config_.max_alloc_bytes);
        alloc_used_ = saturating_add(alloc_used_, bytes);
    }
    Buffer buf(desc.dtype, std::move(shape));
    if (desc.storage == ir::Storage::Device) {
        // Deterministic garbage, stable per container name.
        std::uint64_t h = kDeviceGarbageSeed;
        for (char c : name) h = common::splitmix64(h ^ static_cast<std::uint64_t>(c));
        buf.fill_garbage(h);
    }
    // Host buffers are zero-initialized by construction.
    auto [pos, inserted] = ctx.buffers.emplace(name, std::move(buf));
    (void)inserted;
    return pos->second;
}

std::vector<Value> Interpreter::gather(const ir::SDFG& sdfg, Context& ctx,
                                       const ir::Memlet& memlet) {
    std::vector<Value> out;
    gather_into(sdfg, ctx, memlet, out);
    return out;
}

const std::vector<ir::ConcreteRange>& Interpreter::concretize_into(const ir::Subset& subset,
                                                                   const Context& ctx) {
    auto& cr = scratch_.ranges;
    cr.resize(subset.ranges.size());
    for (std::size_t d = 0; d < subset.ranges.size(); ++d)
        cr[d] = ir::ConcreteRange{subset.ranges[d].begin->evaluate(ctx.symbols),
                                  subset.ranges[d].end->evaluate(ctx.symbols),
                                  subset.ranges[d].step->evaluate(ctx.symbols)};
    return cr;
}

const std::vector<ir::ConcreteRange>& Interpreter::concretize_plan(const AccessPlan& ap) {
    Scratch& s = scratch_;
    auto& cr = s.ranges;
    cr.resize(ap.dims.size());
    for (std::size_t d = 0; d < ap.dims.size(); ++d) cr[d] = eval_range(ap.dims[d]);
    return cr;
}

ir::ConcreteRange Interpreter::eval_range(const RangePlan& r) {
    Scratch& s = scratch_;
    return {r.begin.eval(s.flat, s.eval_stack), r.end.eval(s.flat, s.eval_stack),
            r.step.eval(s.flat, s.eval_stack)};
}

void Interpreter::gather_into(const ir::SDFG& sdfg, Context& ctx, const ir::Memlet& memlet,
                              std::vector<Value>& out) {
    Buffer& buf = ensure_buffer(sdfg, ctx, memlet.data);
    out.clear();
    const auto& cr = concretize_into(memlet.subset, ctx);
    for_each_point_into(cr, scratch_.idx, [&](const std::vector<std::int64_t>& idx) {
        out.push_back(buf.load(buf.flat_index(idx, memlet.data)));
    });
}

void Interpreter::scatter(const ir::SDFG& sdfg, Context& ctx, const ir::Memlet& memlet,
                          const std::vector<Value>& values) {
    scatter_values(sdfg, ctx, memlet, values.data(), values.size());
}

void Interpreter::scatter_values(const ir::SDFG& sdfg, Context& ctx, const ir::Memlet& memlet,
                                 const Value* values, std::size_t count) {
    Buffer& buf = ensure_buffer(sdfg, ctx, memlet.data);
    const auto& cr = concretize_into(memlet.subset, ctx);
    std::size_t lane = 0;
    for_each_point_into(cr, scratch_.idx, [&](const std::vector<std::int64_t>& idx) {
        if (lane >= count)
            throw common::Error("scatter on '" + memlet.data + "': not enough values (" +
                                std::to_string(count) + ")");
        buf.store(buf.flat_index(idx, memlet.data), values[lane++]);
    });
}

std::vector<Value>& Interpreter::scratch_values(std::size_t which) {
    if (value_pool_.size() <= which) value_pool_.resize(which + 1);
    return value_pool_[which];
}

TaskletProgramPtr Interpreter::program_for(const std::string& code) {
    return plans_->program_for(code);
}

// --- Tasklet execution: reference path --------------------------------------

void Interpreter::execute_tasklet(const ir::SDFG& sdfg, const ir::State& state, NodeId nid,
                                  Context& ctx) {
    instructions_used_ = saturating_add(instructions_used_, 1);
    const DataflowNode& node = state.graph().node(nid);
    TaskletProgramPtr prog = program_for(node.code);

    ConnectorEnv env;
    for (graph::EdgeId eid : state.graph().in_edges(nid)) {
        const auto& edge = state.graph().edge(eid).data;
        if (edge.dst_conn.empty()) continue;  // ordering-only dependency edge
        env[edge.dst_conn] = gather(sdfg, ctx, edge.memlet);
    }
    prog->execute(env);
    for (graph::EdgeId eid : state.graph().out_edges(nid)) {
        const auto& edge = state.graph().edge(eid).data;
        auto it = env.find(edge.src_conn);
        if (it == env.end())
            throw common::Error("tasklet '" + node.label + "' did not produce connector '" +
                                edge.src_conn + "'");
        scatter(sdfg, ctx, edge.memlet, it->second);
    }
}

// --- Tasklet execution: compiled path ---------------------------------------

Buffer& Interpreter::plan_buffer(const ir::SDFG& sdfg, Context& ctx, const StatePlan& plan,
                                 const AccessPlan& ap) {
    (void)plan;
    Buffer*& cached = scratch_.buffer_cache[static_cast<std::size_t>(ap.cache_index)];
    if (!cached) cached = &ensure_buffer(sdfg, ctx, ap.memlet->data);
    return *cached;
}

std::int64_t Interpreter::plan_gather(const ir::SDFG& sdfg, Context& ctx, const StatePlan& plan,
                                      const AccessPlan& ap, Value* slots) {
    Buffer& buf = plan_buffer(sdfg, ctx, plan, ap);
    Scratch& s = scratch_;
    auto& idx = s.idx;
    if (ap.passthrough_pool >= 0) {
        // Snapshot the full subset before the program runs; forwarding
        // outputs scatter from this pool.
        auto& tmp =
            scratch_values(kPassthroughBase + static_cast<std::size_t>(ap.passthrough_pool));
        tmp.clear();
        const auto& cr = concretize_plan(ap);
        for_each_point_into(cr, idx, [&](const std::vector<std::int64_t>& ix) {
            tmp.push_back(buf.load(buf.flat_index(ix, ap.memlet->data)));
        });
        return static_cast<std::int64_t>(tmp.size());
    }
    if (ap.single_point) {
        // Hot path: a scalar element — evaluate each index program against
        // the flat bindings and load straight into the connector slot.
        idx.resize(ap.dims.size());
        for (std::size_t d = 0; d < ap.dims.size(); ++d)
            idx[d] = ap.dims[d].begin.eval(s.flat, s.eval_stack);
        const std::int64_t flat = buf.flat_index(idx, ap.memlet->data);
        if (ap.slot_base >= 0) slots[ap.slot_base] = buf.load(flat);
        return 1;
    }
    const auto& cr = concretize_plan(ap);
    std::int64_t lane = 0;
    for_each_point_into(cr, idx, [&](const std::vector<std::int64_t>& ix) {
        const std::int64_t flat = buf.flat_index(ix, ap.memlet->data);
        if (ap.slot_base >= 0 && lane < ap.width) slots[ap.slot_base + lane] = buf.load(flat);
        ++lane;
    });
    return lane;
}

void Interpreter::plan_scatter(const ir::SDFG& sdfg, Context& ctx, const StatePlan& plan,
                               const TaskletPlan& tp, const AccessPlan& ap, const Value* slots) {
    if (ap.invalid)
        throw common::Error("tasklet '" + tp.label + "' did not produce connector '" + ap.conn +
                            "'");
    Buffer& buf = plan_buffer(sdfg, ctx, plan, ap);
    Scratch& s = scratch_;
    auto& idx = s.idx;
    if (ap.passthrough_pool >= 0) {
        const auto& tmp =
            scratch_values(kPassthroughBase + static_cast<std::size_t>(ap.passthrough_pool));
        const auto& cr = concretize_plan(ap);
        std::size_t lane = 0;
        for_each_point_into(cr, idx, [&](const std::vector<std::int64_t>& ix) {
            if (lane >= tmp.size())
                throw common::Error("scatter on '" + ap.memlet->data + "': not enough values (" +
                                    std::to_string(tmp.size()) + ")");
            buf.store(buf.flat_index(ix, ap.memlet->data), tmp[lane++]);
        });
        return;
    }
    if (ap.single_point) {
        idx.resize(ap.dims.size());
        for (std::size_t d = 0; d < ap.dims.size(); ++d)
            idx[d] = ap.dims[d].begin.eval(s.flat, s.eval_stack);
        buf.store(buf.flat_index(idx, ap.memlet->data), slots[ap.slot_base]);
        return;
    }
    const auto& cr = concretize_plan(ap);
    std::int64_t lane = 0;
    for_each_point_into(cr, idx, [&](const std::vector<std::int64_t>& ix) {
        if (lane >= ap.width)
            throw common::Error("scatter on '" + ap.memlet->data + "': not enough values (" +
                                std::to_string(ap.width) + ")");
        buf.store(buf.flat_index(ix, ap.memlet->data), slots[ap.slot_base + lane]);
        ++lane;
    });
}

void Interpreter::execute_tasklet_planned(const ir::SDFG& sdfg, const ir::State& state,
                                          const StatePlan& plan, const TaskletPlan& tp,
                                          Context& ctx) {
    (void)state;
    instructions_used_ = saturating_add(instructions_used_, 1);
    Scratch& s = scratch_;
    if (s.cache_plan != &plan || s.cache_ctx != &ctx) {
        s.buffer_cache.assign(static_cast<std::size_t>(plan.cache_slots), nullptr);
        s.cache_plan = &plan;
        s.cache_ctx = &ctx;
    }
    reset_frame(s.slots, s.regs, *tp.prog);

    // Gather every input first (lazy allocation and bounds checks fire in
    // edge order, like the reference path), then validate declared inputs
    // in the reference engine's order.
    s.input_counts.resize(tp.inputs.size());
    for (std::size_t i = 0; i < tp.inputs.size(); ++i)
        s.input_counts[i] = plan_gather(sdfg, ctx, plan, tp.inputs[i], s.slots.data());
    for (const TaskletPlan::InputCheck& check : tp.input_checks)
        if (check.input_index < 0 ||
            s.input_counts[static_cast<std::size_t>(check.input_index)] < check.width)
            throw common::Error("tasklet: missing input connector '" + check.conn + "'");

    tp.prog->run_vm(s.slots.data(), s.regs.data());

    for (const AccessPlan& ap : tp.outputs) plan_scatter(sdfg, ctx, plan, tp, ap, s.slots.data());
}

// --- Copies and collectives -------------------------------------------------

void Interpreter::execute_access_copies(const ir::SDFG& sdfg, const ir::State& state, NodeId nid,
                                        Context& ctx) {
    // An edge between two access nodes is a copy.  The memlet subset is
    // interpreted in the *source* container's coordinates and written to the
    // same coordinates of the destination.
    const DataflowNode& node = state.graph().node(nid);
    for (graph::EdgeId eid : state.graph().out_edges(nid)) {
        const auto& e = state.graph().edge(eid);
        const DataflowNode& dst = state.graph().node(e.dst);
        if (dst.kind != NodeKind::Access) continue;
        const ir::Memlet& m = e.data.memlet;
        ir::Memlet src_memlet(node.data, m.subset);
        ir::Memlet dst_memlet(dst.data, m.subset);
        auto& tmp = scratch_values(kCopyScratch);
        gather_into(sdfg, ctx, src_memlet, tmp);
        scatter_values(sdfg, ctx, dst_memlet, tmp.data(), tmp.size());
    }
}

void Interpreter::execute_comm_single_rank(const ir::SDFG& sdfg, const ir::State& state,
                                           NodeId nid, Context& ctx) {
    // With a single rank every collective degenerates to an identity copy
    // (sum over one rank, gather of one chunk, broadcast from self).
    const auto& g = state.graph();
    const ir::Memlet* in_memlet = nullptr;
    const ir::Memlet* out_memlet = nullptr;
    for (graph::EdgeId eid : g.in_edges(nid))
        if (g.edge(eid).data.dst_conn == "in") in_memlet = &g.edge(eid).data.memlet;
    for (graph::EdgeId eid : g.out_edges(nid))
        if (g.edge(eid).data.src_conn == "out") out_memlet = &g.edge(eid).data.memlet;
    if (!in_memlet || !out_memlet)
        throw common::ValidationError("comm node missing in/out connector");
    auto& tmp = scratch_values(kCopyScratch);
    gather_into(sdfg, ctx, *in_memlet, tmp);
    scatter_values(sdfg, ctx, *out_memlet, tmp.data(), tmp.size());
}

}  // namespace ff::interp

#include "core/cutout.h"

#include <algorithm>

#include "common/error.h"

namespace ff::core {

using ir::DataflowNode;
using ir::NodeId;
using ir::NodeKind;

std::int64_t Cutout::concrete_input_volume(const sym::Bindings& bindings) const {
    std::int64_t total = 0;
    for (const auto& name : input_config)
        total += program.container(name).total_size()->evaluate(bindings);
    return total;
}

xform::Match Cutout::remap_match(const xform::Match& original) const {
    xform::Match remapped = original;
    if (whole_program) return remapped;  // ids preserved by SDFG copy
    auto sit = state_map.find(original.state);
    if (sit == state_map.end()) throw common::Error("cutout: match state not in cutout");
    remapped.state = sit->second;
    remapped.nodes.clear();
    for (ir::NodeId n : original.nodes) {
        auto nit = node_map.find(xform::NodeRef{original.state, n});
        if (nit == node_map.end()) throw common::Error("cutout: pattern node not in cutout");
        remapped.nodes.push_back(nit->second.node);
    }
    return remapped;
}

namespace {

/// Classification helpers for whole-program cutouts.
void classify_whole_program(const ir::SDFG& p, Cutout& cutout) {
    for (ir::StateId sid : p.states()) {
        const auto& g = p.state(sid).graph();
        for (graph::EdgeId eid : g.edges()) {
            const auto& e = g.edge(eid);
            const std::string& data = e.data.memlet.data;
            if (p.container(data).transient) continue;
            if (g.node(e.src).kind == NodeKind::Access) cutout.input_config.insert(data);
            if (g.node(e.dst).kind == NodeKind::Access) cutout.system_state.insert(data);
        }
    }
}

/// Expands a node set so that map scopes are included wholesale: any node
/// inside a scope pulls in the entire top-level scope it belongs to.
std::set<NodeId> scope_closure(const ir::State& st, const ir::ScopeTree& scopes,
                               const std::set<NodeId>& seeds) {
    std::set<NodeId> closure;
    for (NodeId n : seeds) {
        // Walk to the outermost enclosing scope.
        NodeId top = n;
        if (st.graph().node(top).kind == NodeKind::MapExit &&
            scopes.partner(top) != graph::kInvalidNode)
            top = scopes.partner(top);
        while (scopes.parent(top) != graph::kInvalidNode) top = scopes.parent(top);
        if (st.graph().node(top).kind == NodeKind::MapEntry) {
            closure.insert(top);
            if (scopes.partner(top) != graph::kInvalidNode) closure.insert(scopes.partner(top));
            closure.insert(scopes.members(top).begin(), scopes.members(top).end());
        } else {
            closure.insert(top);
        }
    }
    return closure;
}

}  // namespace

Cutout whole_program_cutout(const ir::SDFG& p) {
    Cutout cutout;
    cutout.program = p;  // deep copy with preserved ids
    cutout.program.set_name(p.name() + "_cutout");
    cutout.whole_program = true;
    for (ir::StateId sid : p.states()) {
        cutout.state_map[sid] = sid;
        for (NodeId n : p.state(sid).graph().nodes())
            cutout.node_map[xform::NodeRef{sid, n}] = xform::NodeRef{sid, n};
    }
    classify_whole_program(p, cutout);
    return cutout;
}

Cutout extract_cutout(const ir::SDFG& p, const xform::ChangeSet& delta,
                      const CutoutOptions& opts) {
    Cutout cutout;

    // Determine granularity: control-flow changes or multi-state dataflow
    // changes promote to a whole-program cutout.
    std::set<ir::StateId> touched_states;
    for (const auto& ref : delta.nodes) touched_states.insert(ref.state);
    if (!delta.control_flow_states.empty() || touched_states.size() > 1)
        return whole_program_cutout(p);
    if (touched_states.empty()) throw common::Error("cutout: empty change set");

    const ir::StateId sid = *touched_states.begin();
    const ir::State& st = p.state(sid);
    const auto& g = st.graph();

    // 1. Computation closure: affected nodes, closed over map scopes and
    //    over any non-access neighbour reached by a crossing edge.
    std::set<NodeId> seeds;
    for (const auto& ref : delta.nodes) seeds.insert(ref.node);
    const ir::ScopeTree scopes(st);
    std::set<NodeId> closure = scope_closure(st, scopes, seeds);
    while (true) {
        // Computation nodes may not be cut apart from their non-access
        // neighbours (e.g. a tasklet feeding a tasklet directly); access
        // nodes, however, are the natural cut points of a dataflow graph —
        // the cutout must NOT grow through them into producers/consumers.
        std::set<NodeId> extra;
        for (NodeId n : closure) {
            if (g.node(n).kind == NodeKind::Access) continue;
            for (graph::EdgeId eid : g.in_edges(n)) {
                const NodeId peer = g.edge(eid).src;
                if (!closure.count(peer) && g.node(peer).kind != NodeKind::Access)
                    extra.insert(peer);
            }
            for (graph::EdgeId eid : g.out_edges(n)) {
                const NodeId peer = g.edge(eid).dst;
                if (!closure.count(peer) && g.node(peer).kind != NodeKind::Access)
                    extra.insert(peer);
            }
        }
        if (extra.empty()) break;
        const std::set<NodeId> expanded = scope_closure(st, scopes, extra);
        closure.insert(expanded.begin(), expanded.end());
    }

    // 2. Boundary: direct data dependencies (access nodes).  Closure-side
    //    access nodes are cut points: their outside edges (producers or
    //    consumers beyond the cutout) are intentionally severed.
    std::set<NodeId> boundary;
    for (NodeId n : closure) {
        if (g.node(n).kind == NodeKind::Access) continue;
        for (graph::EdgeId eid : g.in_edges(n)) {
            const NodeId peer = g.edge(eid).src;
            if (!closure.count(peer)) boundary.insert(peer);
        }
        for (graph::EdgeId eid : g.out_edges(n)) {
            const NodeId peer = g.edge(eid).dst;
            if (!closure.count(peer)) boundary.insert(peer);
        }
    }

    // 3. Side-effect analyses on the original program.
    const SideEffects effects = analyze_side_effects(p, sid, closure, boundary, opts.defaults);
    cutout.input_config = effects.input_config;
    cutout.system_state = effects.system_state;

    // 4. Build the stand-alone program.
    cutout.program = ir::SDFG(p.name() + "_cutout");
    for (const auto& s : p.symbols()) cutout.program.add_symbol(s);
    const ir::StateId new_sid = cutout.program.add_state("cutout", /*is_start=*/true);
    cutout.state_map[sid] = new_sid;
    ir::State& nst = cutout.program.state(new_sid);

    std::set<NodeId> copied = closure;
    copied.insert(boundary.begin(), boundary.end());

    std::map<NodeId, NodeId> local_map;
    std::int32_t max_scope = -1;
    for (NodeId n : g.nodes()) {  // preserve insertion order for determinism
        if (!copied.count(n)) continue;
        DataflowNode node = g.node(n);
        max_scope = std::max(max_scope, node.scope_id);
        const NodeId nn = nst.graph().add_node(std::move(node));
        local_map[n] = nn;
        cutout.node_map[xform::NodeRef{sid, n}] = xform::NodeRef{new_sid, nn};
    }
    nst.skip_scope_ids(max_scope);

    // Containers touched by copied edges or nodes.
    std::set<std::string> used_containers;
    for (NodeId n : copied)
        if (g.node(n).kind == NodeKind::Access) used_containers.insert(g.node(n).data);
    std::map<std::string, std::vector<const ir::Subset*>> accessed_subsets;
    for (graph::EdgeId eid : g.edges()) {
        const auto& e = g.edge(eid);
        if (!copied.count(e.src) || !copied.count(e.dst)) continue;
        if (!closure.count(e.src) && !closure.count(e.dst)) continue;
        used_containers.insert(e.data.memlet.data);
        accessed_subsets[e.data.memlet.data].push_back(&e.data.memlet.subset);
        nst.graph().add_edge(local_map.at(e.src), local_map.at(e.dst), e.data);
    }

    // 5. Container descriptors, minimized to the accessed bounding box when
    //    all accessed subsets are parameter-free and strictly smaller.
    for (const auto& name : used_containers) {
        ir::DataDesc desc = p.container(name);
        if (opts.minimize_containers && !desc.is_scalar()) {
            auto it = accessed_subsets.find(name);
            if (it != accessed_subsets.end() && !it->second.empty()) {
                // Bounding box over the parameter-free (outer/union)
                // subsets.  Per-iteration subsets referencing map parameters
                // are refinements of those unions and are skipped.
                auto is_param_free = [&](const ir::Subset& s) {
                    for (const auto& r : s.ranges) {
                        std::set<std::string> syms;
                        r.begin->collect_symbols(syms);
                        r.end->collect_symbols(syms);
                        for (const auto& sname : syms)
                            if (!p.has_symbol(sname)) return false;
                    }
                    return true;
                };
                std::optional<ir::Subset> bbox;
                for (const ir::Subset* s : it->second) {
                    if (!is_param_free(*s)) continue;
                    if (!bbox) bbox = *s;
                    else bbox = ir::Subset::bounding_union(*bbox, *s);
                }
                // System-state containers stay large enough to cover what
                // downstream readers observe (a partially-written output
                // compared only on the written range would mask bugs that
                // corrupt the rest of the container).
                auto dit = effects.downstream_reads.find(name);
                if (dit != effects.downstream_reads.end()) {
                    for (const ir::Subset& s : dit->second) {
                        if (!is_param_free(s) || s.dims() != desc.dims()) continue;
                        if (!bbox) bbox = s;
                        else bbox = ir::Subset::bounding_union(*bbox, s);
                    }
                }
                if (bbox && bbox->dims() == desc.dims()) {
                    std::vector<sym::ExprPtr> new_shape;
                    for (const auto& r : bbox->ranges) new_shape.push_back(r.end + 1);
                    // Adopt only when strictly smaller under the defaults.
                    try {
                        ir::DataDesc candidate = desc;
                        candidate.shape = new_shape;
                        const std::int64_t before =
                            desc.total_size()->evaluate(opts.defaults);
                        const std::int64_t after =
                            candidate.total_size()->evaluate(opts.defaults);
                        if (after < before) desc.shape = std::move(new_shape);
                    } catch (const common::UnboundSymbolError&) {
                        // Unresolvable sizes: keep the original shape.
                    }
                }
            }
        }
        // Expose inputs/outputs as external; internals become transients.
        desc.transient =
            !(cutout.input_config.count(name) || cutout.system_state.count(name));
        cutout.program.add_array(name, desc.dtype, desc.shape, desc.transient, desc.storage);
    }

    // Retain only symbols that still resolve (all of p's symbols do).
    return cutout;
}

}  // namespace ff::core

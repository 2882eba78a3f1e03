// Structural validation of SDFGs.
//
// Validation is deliberately strict: the differential tester validates the
// transformed cutout before running it, so transformations that "generate
// invalid code" (Table 2: MapExpansion, MapReduceFusion, ...) are caught
// here and reported as failures, mirroring the paper's crash-on-apply class.
#include <set>
#include <string>
#include <utility>

#include "common/error.h"
#include "interp/tasklet_lang.h"
#include "ir/sdfg.h"

namespace ff::ir {

namespace {

using common::ValidationError;

/// Connector requirements of library/comm nodes.
struct LibSpec {
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
};

LibSpec library_spec(LibraryKind kind) {
    switch (kind) {
        case LibraryKind::MatMul:
        case LibraryKind::BatchedMatMul: return {{"A", "B"}, {"C"}};
        case LibraryKind::Transpose: return {{"A"}, {"B"}};
        case LibraryKind::ReduceSum:
        case LibraryKind::ReduceMax:
        case LibraryKind::Softmax: return {{"in"}, {"out"}};
    }
    return {};
}

/// Map parameters visible at `node` (walking enclosing scopes).
std::set<std::string> visible_params(const State& st, const ScopeTree& scopes, NodeId node) {
    std::set<std::string> out;
    const auto add = [&](NodeId entry) {
        for (const auto& p : st.graph().node(entry).params) out.insert(p);
    };
    // A MapEntry/MapExit sees its own parameters (its memlets use them).
    const NodeKind kind = st.graph().node(node).kind;
    const NodeId own = kind == NodeKind::MapEntry  ? node
                       : kind == NodeKind::MapExit ? scopes.partner(node)
                                                   : graph::kInvalidNode;
    if (own != graph::kInvalidNode) add(own);
    for (NodeId scope = scopes.parent(node); scope != graph::kInvalidNode;
         scope = scopes.parent(scope))
        add(scope);
    return out;
}

/// Validates one state; returns its scope tree for the nesting check.
ScopeTree validate_state(const SDFG& sdfg, const State& st) {
    const auto& g = st.graph();
    const std::string where = "state '" + st.name() + "': ";

    if (!g.topological_order())
        throw ValidationError(where + "dataflow graph contains a cycle");
    ScopeTree scopes(st);

    // Node-local checks.
    for (NodeId nid : g.nodes()) {
        const DataflowNode& n = g.node(nid);
        switch (n.kind) {
            case NodeKind::Access:
                if (!sdfg.has_container(n.data))
                    throw ValidationError(where + "access node references unknown container '" +
                                          n.data + "'");
                break;
            case NodeKind::MapEntry: {
                if (n.params.size() != n.map_ranges.size())
                    throw ValidationError(where + "map '" + n.label +
                                          "' has mismatched params/ranges");
                if (n.params.empty())
                    throw ValidationError(where + "map '" + n.label + "' has no parameters");
                if (scopes.partner(nid) == graph::kInvalidNode)
                    throw ValidationError(where + "map '" + n.label + "' has no matching exit");
                break;
            }
            case NodeKind::MapExit:
                if (scopes.partner(nid) == graph::kInvalidNode)
                    throw ValidationError(where + "map exit '" + n.label +
                                          "' has no matching entry");
                break;
            case NodeKind::Tasklet: {
                interp::TaskletProgramPtr prog;
                try {
                    prog = interp::TaskletProgram::parse(n.code);
                } catch (const common::ParseError& e) {
                    throw ValidationError(where + "tasklet '" + n.label + "': " + e.what());
                }
                // Every input connector must be fed by exactly the edges
                // that carry its name; every read must be covered.
                std::set<std::string> fed, produced;
                for (graph::EdgeId eid : g.in_edges(nid)) {
                    const auto& conn = g.edge(eid).data.dst_conn;
                    if (conn.empty()) continue;  // ordering-only dependency edge
                    if (!fed.insert(conn).second)
                        throw ValidationError(where + "tasklet '" + n.label +
                                              "' input connector '" + conn + "' fed twice");
                    if (!prog->reads().count(conn))
                        throw ValidationError(where + "tasklet '" + n.label +
                                              "' has edge into unused connector '" + conn + "'");
                }
                for (const auto& [conn, width] : prog->reads()) {
                    (void)width;
                    if (!fed.count(conn))
                        throw ValidationError(where + "tasklet '" + n.label +
                                              "' input connector '" + conn + "' is unconnected");
                }
                for (graph::EdgeId eid : g.out_edges(nid)) {
                    const auto& conn = g.edge(eid).data.src_conn;
                    if (conn.empty())
                        throw ValidationError(where + "tasklet '" + n.label +
                                              "' has out-edge without connector");
                    if (!prog->writes().count(conn))
                        throw ValidationError(where + "tasklet '" + n.label +
                                              "' writes unknown connector '" + conn + "'");
                    produced.insert(conn);
                }
                if (produced.empty())
                    throw ValidationError(where + "tasklet '" + n.label + "' has no outputs");
                break;
            }
            case NodeKind::Library: {
                const LibSpec spec = library_spec(n.lib);
                std::set<std::string> fed, produced;
                for (graph::EdgeId eid : g.in_edges(nid)) fed.insert(g.edge(eid).data.dst_conn);
                for (graph::EdgeId eid : g.out_edges(nid)) produced.insert(g.edge(eid).data.src_conn);
                for (const auto& c : spec.inputs)
                    if (!fed.count(c))
                        throw ValidationError(where + "library node '" + n.label +
                                              "' missing input connector '" + c + "'");
                for (const auto& c : spec.outputs)
                    if (!produced.count(c))
                        throw ValidationError(where + "library node '" + n.label +
                                              "' missing output connector '" + c + "'");
                break;
            }
            case NodeKind::Comm: {
                bool has_in = false, has_out = false;
                for (graph::EdgeId eid : g.in_edges(nid))
                    has_in |= g.edge(eid).data.dst_conn == "in";
                for (graph::EdgeId eid : g.out_edges(nid))
                    has_out |= g.edge(eid).data.src_conn == "out";
                if (!has_in || !has_out)
                    throw ValidationError(where + "comm node '" + n.label +
                                          "' needs 'in' and 'out' connectors");
                break;
            }
        }
    }

    // Scope structure: a scope id names one entry and one exit, and a scope
    // holding either end of another map holds both, so scopes nest and no
    // walk along a scope chain (cutout closure, parameter visibility) can
    // circle without reaching what it looks for.
    std::set<std::pair<NodeKind, std::int32_t>> scope_ends;
    for (NodeId nid : g.nodes()) {
        const DataflowNode& n = g.node(nid);
        if (n.kind != NodeKind::MapEntry && n.kind != NodeKind::MapExit) continue;
        if (!scope_ends.insert({n.kind, n.scope_id}).second)
            throw ValidationError(where + "map '" + n.label + "' shares scope id " +
                                  std::to_string(n.scope_id) + " with another map " +
                                  (n.kind == NodeKind::MapEntry ? "entry" : "exit"));
    }
    for (NodeId nid : g.nodes()) {
        if (g.node(nid).kind != NodeKind::MapEntry) continue;
        for (NodeId inner : scopes.members(nid)) {
            const NodeId other = scopes.partner(inner);
            if (other != graph::kInvalidNode && !scopes.contains(nid, other))
                throw ValidationError(where + "map '" + g.node(inner).label +
                                      "' is not nested inside map '" + g.node(nid).label + "'");
        }
    }

    // Edge checks: container existence, dimensionality, symbol visibility.
    for (graph::EdgeId eid : g.edges()) {
        const auto& edge = g.edge(eid);
        const Memlet& m = edge.data.memlet;
        if (!sdfg.has_container(m.data))
            throw ValidationError(where + "memlet references unknown container '" + m.data + "'");
        const DataDesc& desc = sdfg.container(m.data);
        if (m.subset.dims() != desc.dims())
            throw ValidationError(where + "memlet on '" + m.data + "' has " +
                                  std::to_string(m.subset.dims()) + " dims, container has " +
                                  std::to_string(desc.dims()));

        std::set<std::string> free;
        for (const auto& r : m.subset.ranges) {
            r.begin->collect_symbols(free);
            r.end->collect_symbols(free);
            r.step->collect_symbols(free);
        }
        std::set<std::string> visible = visible_params(st, scopes, edge.src);
        for (const auto& p : visible_params(st, scopes, edge.dst)) visible.insert(p);
        for (const auto& s : free) {
            if (!sdfg.has_symbol(s) && !visible.count(s))
                throw ValidationError(where + "memlet '" + m.to_string() +
                                      "' uses symbol '" + s +
                                      "' that is neither a program symbol nor a visible map "
                                      "parameter");
        }
    }

    // GPU scope storage discipline: kernels only touch device memory.
    for (NodeId nid : g.nodes()) {
        const DataflowNode& n = g.node(nid);
        if (n.kind != NodeKind::MapEntry || n.schedule != Schedule::GPU) continue;
        auto check_device = [&](graph::EdgeId eid) {
            const Memlet& m = g.edge(eid).data.memlet;
            if (sdfg.container(m.data).storage != Storage::Device)
                throw ValidationError(where + "GPU map '" + n.label +
                                      "' accesses host container '" + m.data + "'");
        };
        for (NodeId inner : scopes.members(nid)) {
            for (graph::EdgeId eid : g.in_edges(inner)) check_device(eid);
            for (graph::EdgeId eid : g.out_edges(inner)) check_device(eid);
        }
        for (graph::EdgeId eid : g.in_edges(nid)) check_device(eid);
        for (graph::EdgeId eid : g.out_edges(scopes.partner(nid))) check_device(eid);
    }
    return scopes;
}

/// Any two map scopes that hold a common node must nest, so every node has
/// one innermost scope.  Relies on the nesting check of validate_state (a
/// scope holding one end of a map holds both): a scope S holding node n is
/// n's innermost scope P or holds P's entry; if it does neither, P, which is
/// smaller, cannot hold S's entry either, so the two overlap.
void check_scopes_nest(const State& st, const ScopeTree& scopes) {
    const auto& g = st.graph();
    for (NodeId entry : g.nodes()) {
        for (NodeId n : scopes.members(entry)) {
            const NodeId innermost = scopes.parent(n);
            if (innermost == entry || scopes.contains(entry, innermost)) continue;
            throw ValidationError("state '" + st.name() + "': maps '" + g.node(innermost).label +
                                  "' and '" + g.node(entry).label + "' both hold '" +
                                  g.node(n).label + "' but neither is nested inside the other");
        }
    }
}

}  // namespace

void SDFG::validate() const {
    if (cfg_.node_count() == 0) throw ValidationError("sdfg '" + name_ + "' has no states");
    if (!cfg_.contains_node(start_state_))
        throw ValidationError("sdfg '" + name_ + "' has invalid start state");

    // Container shape symbols must be program symbols.
    for (const auto& [name, desc] : containers_) {
        for (const auto& extent : desc.shape) {
            for (const auto& s : extent->free_symbols()) {
                if (!has_symbol(s))
                    throw ValidationError("container '" + name + "' shape uses unknown symbol '" +
                                          s + "'");
            }
        }
    }

    std::vector<ScopeTree> scopes;
    for (StateId sid : cfg_.nodes()) scopes.push_back(validate_state(*this, cfg_.node(sid)));

    // Interstate edges may only assign to declared symbols.
    for (graph::EdgeId eid : cfg_.edges()) {
        const InterstateEdge& e = cfg_.edge(eid).data;
        for (const auto& [symbol, expr] : e.assignments) {
            (void)expr;
            if (!has_symbol(symbol))
                throw ValidationError("interstate edge assigns to unknown symbol '" + symbol +
                                      "'");
        }
    }

    // Last, so a graph that fails another check keeps that check's message.
    std::size_t i = 0;
    for (StateId sid : cfg_.nodes()) check_scopes_nest(cfg_.node(sid), scopes[i++]);
}

}  // namespace ff::ir

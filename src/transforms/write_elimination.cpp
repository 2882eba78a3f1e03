#include "transforms/write_elimination.h"

#include <algorithm>

#include "interp/tasklet_lang.h"

namespace ff::xform {

using ir::DataflowNode;
using ir::NodeKind;

namespace {

/// True when the tasklet is a pure identity copy (`o = i`).
bool is_identity_tasklet(const std::string& code) {
    try {
        auto prog = interp::TaskletProgram::parse(code);
        if (prog->reads().size() != 1 || prog->writes().size() != 1) return false;
        std::string normalized;
        for (char c : code)
            if (c != ' ' && c != '\t') normalized += c;
        const std::string expect = prog->writes().begin()->first + "=" + prog->reads().begin()->first;
        return normalized == expect;
    } catch (...) {
        return false;
    }
}

/// Number of writes (in-edges of access nodes) to `data` across the SDFG,
/// excluding a specific state's copy pattern.
int count_writes(const ir::SDFG& sdfg, const std::string& data) {
    int writes = 0;
    for (ir::StateId sid : sdfg.states()) {
        const ir::State& st = sdfg.state(sid);
        for (ir::NodeId a : st.access_nodes(data))
            writes += static_cast<int>(st.graph().in_degree(a));
    }
    return writes;
}

}  // namespace

std::vector<Match> WriteElimination::find_matches(const ir::SDFG& sdfg) const {
    std::vector<Match> matches;
    for (ir::StateId sid : sdfg.states()) {
        const ir::State& st = sdfg.state(sid);
        const auto& g = st.graph();
        const ir::ScopeTree scopes(st);
        for (ir::NodeId entry : g.nodes()) {
            const DataflowNode& en = g.node(entry);
            if (en.kind != NodeKind::MapEntry) continue;
            if (scopes.parent(entry) != graph::kInvalidNode) continue;  // top level only
            const auto& inside = scopes.members(entry);
            if (inside.size() != 1) continue;
            const ir::NodeId body = inside.front();
            if (g.node(body).kind != NodeKind::Tasklet) continue;
            if (!is_identity_tasklet(g.node(body).code)) continue;
            const ir::NodeId exit = scopes.partner(entry);

            // Source: single access node feeding the entry; target: single
            // access node fed by the exit.
            if (g.in_degree(entry) != 1 || g.out_degree(exit) != 1) continue;
            const ir::NodeId a1 = g.edge(g.in_edges(entry)[0]).src;
            const ir::NodeId a2 = g.edge(g.out_edges(exit)[0]).dst;
            if (g.node(a1).kind != NodeKind::Access || g.node(a2).kind != NodeKind::Access)
                continue;
            const std::string& d1 = g.node(a1).data;
            const std::string& d2 = g.node(a2).data;
            if (d1 == d2) continue;

            const ir::DataDesc& desc1 = sdfg.container(d1);
            const ir::DataDesc& desc2 = sdfg.container(d2);
            if (desc1.dims() != desc2.dims() || desc1.dtype != desc2.dtype) continue;
            bool same_shape = true;
            for (std::size_t i = 0; i < desc1.shape.size(); ++i)
                same_shape &= desc1.shape[i]->equals(*desc2.shape[i]);
            if (!same_shape) continue;
            // The copy must cover the whole container.
            if (!g.edge(g.out_edges(exit)[0])
                     .data.memlet.subset.equals(ir::Subset::full(desc2.shape)))
                continue;
            // d2 must have no other writers (we are removing its only def).
            if (count_writes(sdfg, d2) != 1) continue;

            if (variant_ == Variant::Correct) {
                if (!desc2.transient) continue;  // deleting a program output's def
                // Redirecting d2 readers to d1 requires d1 to be immutable
                // after the copy; conservatively require this is d1's only
                // context: d1 written at most once (its producer).
                if (count_writes(sdfg, d1) > 1) continue;
            }

            Match m;
            m.state = sid;
            m.nodes = {a1, entry, body, exit, a2};
            m.description = "eliminate copy '" + d1 + "' -> '" + d2 + "'";
            matches.push_back(std::move(m));
        }
    }
    return matches;
}

void WriteElimination::apply_impl(ir::SDFG& sdfg, const Match& match) const {
    ir::State& st = sdfg.state(match.state);
    auto& g = st.graph();
    const ir::NodeId a1 = match.nodes.at(0);
    const ir::NodeId entry = match.nodes.at(1);
    const ir::NodeId body = match.nodes.at(2);
    const ir::NodeId exit = match.nodes.at(3);
    const ir::NodeId a2 = match.nodes.at(4);
    const std::string d1 = g.node(a1).data;
    const std::string d2 = g.node(a2).data;

    // Redirect current-state readers of a2 to a1.
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.out_edges(a2))) {
        auto edge = g.edge(eid);  // copy: removal invalidates references
        ir::MemletEdge data = edge.data;
        if (data.memlet.data == d2) data.memlet.data = d1;
        g.remove_edge(eid);
        g.add_edge(a1, edge.dst, std::move(data));
    }

    g.remove_node(body);
    g.remove_node(entry);
    g.remove_node(exit);
    g.remove_node(a2);

    if (variant_ == Variant::Correct) {
        // Program-wide rewrite of remaining uses of d2 to d1.
        for (ir::StateId sid : sdfg.states()) {
            ir::State& other = sdfg.state(sid);
            for (ir::NodeId nid : other.graph().nodes()) {
                DataflowNode& n = other.graph().node(nid);
                if (n.kind == NodeKind::Access && n.data == d2) {
                    n.data = d1;
                    n.label = d1;
                }
            }
            for (graph::EdgeId eid : other.graph().edges()) {
                auto& mem = other.graph().edge(eid).data.memlet;
                if (mem.data == d2) mem.data = d1;
            }
        }
        sdfg.remove_container(d2);
    }
    // Bug variant: other states keep their access nodes/memlets on d2, which
    // now has no writer at all.
}

}  // namespace ff::xform

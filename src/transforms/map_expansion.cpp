#include "transforms/map_expansion.h"

namespace ff::xform {

using ir::DataflowNode;
using ir::NodeKind;

std::vector<Match> MapExpansion::find_matches(const ir::SDFG& sdfg) const {
    std::vector<Match> matches;
    for (ir::StateId sid : sdfg.states()) {
        const ir::State& st = sdfg.state(sid);
        const ir::ScopeTree scopes(st);
        for (ir::NodeId nid : st.graph().nodes()) {
            const DataflowNode& n = st.graph().node(nid);
            if (n.kind != NodeKind::MapEntry) continue;
            if (n.schedule != ir::Schedule::Parallel) continue;
            if (n.params.size() < 2) continue;
            // Ranges of the remaining parameters must not depend on the
            // peeled one (rectangular iteration spaces only).
            bool rectangular = true;
            for (std::size_t i = 1; i < n.map_ranges.size(); ++i) {
                std::set<std::string> syms;
                n.map_ranges[i].begin->collect_symbols(syms);
                n.map_ranges[i].end->collect_symbols(syms);
                if (syms.count(n.params[0])) rectangular = false;
            }
            if (!rectangular) continue;
            // The first parameter must appear in some scope memlet (this is
            // what makes the buggy variant's malformed scope detectable).
            bool used = false;
            for (ir::NodeId inner : scopes.members(nid)) {
                for (graph::EdgeId eid : st.graph().in_edges(inner)) {
                    std::set<std::string> syms;
                    for (const auto& r : st.graph().edge(eid).data.memlet.subset.ranges) {
                        r.begin->collect_symbols(syms);
                        r.end->collect_symbols(syms);
                    }
                    used |= syms.count(n.params[0]) > 0;
                }
            }
            if (!used) continue;
            Match m;
            m.state = sid;
            m.nodes = {nid};
            m.description = "expand map '" + n.label + "' (peel '" + n.params[0] + "')";
            matches.push_back(std::move(m));
        }
    }
    return matches;
}

void MapExpansion::apply_impl(ir::SDFG& sdfg, const Match& match) const {
    ir::State& st = sdfg.state(match.state);
    auto& g = st.graph();
    const ir::NodeId inner_entry = match.nodes.at(0);
    const ir::NodeId inner_exit = ir::ScopeTree(st).partner(inner_entry);

    DataflowNode& entry = g.node(inner_entry);
    const std::string peeled = entry.params[0];
    const ir::Range peeled_range = entry.map_ranges[0];
    entry.params.erase(entry.params.begin());
    entry.map_ranges.erase(entry.map_ranges.begin());

    auto [outer_entry, outer_exit] = st.add_map(entry.label + "_outer", {peeled},
                                                {peeled_range}, ir::Schedule::Parallel);

    // Boundary in-edges route through the new outer entry.
    bool linked = false;
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.in_edges(inner_entry))) {
        auto edge = g.edge(eid);
        g.remove_edge(eid);
        st.add_edge(edge.src, edge.data.src_conn, outer_entry, "", edge.data.memlet);
        st.add_edge(outer_entry, "", inner_entry, edge.data.dst_conn, edge.data.memlet);
        linked = true;
    }
    if (!linked) {
        // Input-less maps (e.g. initializers) still need the structural
        // entry-to-entry edge for scope derivation.
        ir::Memlet dep;
        for (graph::EdgeId eid : g.out_edges(inner_exit)) {
            dep = g.edge(eid).data.memlet;
            break;
        }
        st.add_edge(outer_entry, "", inner_entry, "", dep);
    }

    if (variant_ == Variant::Correct) {
        for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.out_edges(inner_exit))) {
            auto edge = g.edge(eid);
            g.remove_edge(eid);
            st.add_edge(inner_exit, "", outer_exit, "", edge.data.memlet);
            st.add_edge(outer_exit, edge.data.src_conn, edge.dst, edge.data.dst_conn,
                        edge.data.memlet);
        }
    }
    // DanglingExit: the inner exit keeps writing directly to the outside and
    // the new outer exit is left unconnected — the outer scope is malformed
    // and its parameter is not visible to the body, which validation rejects.
}

}  // namespace ff::xform

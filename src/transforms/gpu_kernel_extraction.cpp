#include "transforms/gpu_kernel_extraction.h"

#include <map>

namespace ff::xform {

using ir::DataflowNode;
using ir::NodeKind;

std::vector<Match> GpuKernelExtraction::find_matches(const ir::SDFG& sdfg) const {
    std::vector<Match> matches;
    for (ir::StateId sid : sdfg.states()) {
        const ir::State& st = sdfg.state(sid);
        const auto& g = st.graph();
        const ir::ScopeTree scopes(st);
        for (ir::NodeId entry : g.nodes()) {
            const DataflowNode& n = g.node(entry);
            if (n.kind != NodeKind::MapEntry) continue;
            if (n.schedule != ir::Schedule::Parallel) continue;
            if (scopes.parent(entry) != graph::kInvalidNode) continue;
            // Tasklet-only scopes on host containers.
            bool ok = true;
            for (ir::NodeId inner : scopes.members(entry)) {
                const NodeKind k = g.node(inner).kind;
                if (k != NodeKind::Tasklet) { ok = false; break; }
                for (graph::EdgeId eid : g.in_edges(inner))
                    ok &= sdfg.container(g.edge(eid).data.memlet.data).storage ==
                          ir::Storage::Host;
                for (graph::EdgeId eid : g.out_edges(inner))
                    ok &= sdfg.container(g.edge(eid).data.memlet.data).storage ==
                          ir::Storage::Host;
            }
            if (!ok || scopes.members(entry).empty()) continue;
            Match m;
            m.state = sid;
            m.nodes = {entry};
            m.description = "extract GPU kernel from map '" + n.label + "'";
            matches.push_back(std::move(m));
        }
    }
    return matches;
}

void GpuKernelExtraction::apply_impl(ir::SDFG& sdfg, const Match& match) const {
    ir::State& st = sdfg.state(match.state);
    auto& g = st.graph();
    const ir::NodeId entry = match.nodes.at(0);
    const ir::ScopeTree scopes(st);
    const ir::NodeId exit = scopes.partner(entry);

    // Containers read (inputs) and written (outputs) by the kernel.
    std::set<std::string> inputs, outputs;
    for (graph::EdgeId eid : g.in_edges(entry)) inputs.insert(g.edge(eid).data.memlet.data);
    for (graph::EdgeId eid : g.out_edges(exit)) outputs.insert(g.edge(eid).data.memlet.data);

    // Device twins.
    std::map<std::string, std::string> twin;
    auto ensure_twin = [&](const std::string& host_name) {
        if (twin.count(host_name)) return;
        const ir::DataDesc& desc = sdfg.container(host_name);
        const std::string dev = sdfg.fresh_container_name("gpu_" + host_name);
        sdfg.add_array(dev, desc.dtype, desc.shape, /*transient=*/true, ir::Storage::Device);
        twin[host_name] = dev;
    };
    for (const auto& d : inputs) ensure_twin(d);
    for (const auto& d : outputs) ensure_twin(d);

    // Retarget all memlets inside and on the boundary of the scope.
    auto retarget = [&](graph::EdgeId eid) {
        auto& m = g.edge(eid).data.memlet;
        auto it = twin.find(m.data);
        if (it != twin.end()) m.data = it->second;
    };
    for (ir::NodeId inner : scopes.members(entry)) {
        for (graph::EdgeId eid : g.in_edges(inner)) retarget(eid);
        for (graph::EdgeId eid : g.out_edges(inner)) retarget(eid);
    }

    g.node(entry).schedule = ir::Schedule::GPU;
    g.node(exit).schedule = ir::Schedule::GPU;

    auto full_subset = [&](const std::string& name) {
        return ir::Subset::full(sdfg.container(name).shape);
    };

    // Detach boundary edges, remembering the original host access nodes so
    // copy-ins inherit their ordering constraints (a producer map writing a
    // container earlier in this state must finish before we stage it).
    struct BoundaryEdge {
        ir::NodeId host_acc;
        ir::MemletEdge data;
    };
    std::vector<BoundaryEdge> in_edges, out_edges;
    std::map<std::string, ir::NodeId> host_in_acc;
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.in_edges(entry))) {
        auto edge = g.edge(eid);
        in_edges.push_back({edge.src, edge.data});
        host_in_acc.emplace(edge.data.memlet.data, edge.src);
        g.remove_edge(eid);
    }
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.out_edges(exit))) {
        auto edge = g.edge(eid);
        out_edges.push_back({edge.dst, edge.data});
        g.remove_edge(eid);
    }

    // Host->device copies.  The set of containers staged in is the bug
    // switch: inputs only (bug) vs inputs + outputs (correct).
    std::set<std::string> stage_in = inputs;
    if (variant_ == Variant::Correct)
        for (const auto& d : outputs) stage_in.insert(d);

    std::map<std::string, ir::NodeId> dev_in_access;
    for (const auto& host_name : stage_in) {
        const std::string& dev = twin.at(host_name);
        auto it = host_in_acc.find(host_name);
        const ir::NodeId host_acc =
            it != host_in_acc.end() ? it->second : st.add_access(host_name);
        const ir::NodeId dev_acc = st.add_access(dev);
        // Whole-container copy (faithful to the original transformation).
        st.add_edge(host_acc, "", dev_acc, "", ir::Memlet(host_name, full_subset(host_name)));
        dev_in_access[host_name] = dev_acc;
    }

    // Reattach: dev access --gpu_X--> entry for every read container.
    for (const BoundaryEdge& be : in_edges) {
        const std::string host_name = be.data.memlet.data;
        ir::MemletEdge data = be.data;
        data.memlet.data = twin.at(host_name);
        g.add_edge(dev_in_access.at(host_name), entry, std::move(data));
    }
    // Staged containers the kernel does not read still need an ordering
    // edge so their copy-in precedes the kernel.
    for (const auto& [host_name, dev_acc] : dev_in_access) {
        bool feeds_kernel = false;
        for (graph::EdgeId eid : g.out_edges(dev_acc))
            feeds_kernel |= g.edge(eid).dst == entry;
        if (!feeds_kernel) {
            const std::string& dev = twin.at(host_name);
            st.add_edge(dev_acc, "", entry, "", ir::Memlet(dev, full_subset(dev)));
        }
    }

    // exit --gpu_Y--> dev access --whole-container copy--> host access.
    // The whole-container copy-back is what leaks garbage in the bug
    // variant when the kernel wrote only a subset.
    for (const BoundaryEdge& be : out_edges) {
        const std::string host_name = be.data.memlet.data;
        const std::string& dev = twin.at(host_name);
        ir::MemletEdge data = be.data;
        data.memlet.data = dev;
        const ir::NodeId dev_out = st.add_access(dev);
        g.add_edge(exit, dev_out, std::move(data));
        st.add_edge(dev_out, "", be.host_acc, "", ir::Memlet(dev, full_subset(dev)));
    }
}

}  // namespace ff::xform

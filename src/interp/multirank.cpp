#include "interp/multirank.h"

#include "common/error.h"

namespace ff::interp {

using ir::CommKind;
using ir::NodeId;
using ir::NodeKind;

MultiRankInterpreter::MultiRankInterpreter(int num_ranks, ExecConfig config)
    : num_ranks_(num_ranks), interp_(config) {
    if (num_ranks < 1) throw common::Error("multirank: need >= 1 rank");
}

MultiRankResult MultiRankInterpreter::run(const ir::SDFG& sdfg,
                                          std::vector<Context>& rank_contexts) {
    MultiRankResult result;
    // Contexts may have been destroyed and recreated at recycled addresses
    // between runs; this runtime drives execute_node() directly, so drop the
    // interpreter's per-execution buffer cache explicitly.
    interp_.invalidate_execution_cache();
    try {
        if (rank_contexts.size() != static_cast<std::size_t>(num_ranks_))
            throw common::Error("multirank: context count != rank count");
        if (sdfg.states().size() != 1)
            throw common::Error("multirank: only single-state SDFGs are supported");

        for (int r = 0; r < num_ranks_; ++r) {
            rank_contexts[static_cast<std::size_t>(r)].symbols["rank"] = r;
            rank_contexts[static_cast<std::size_t>(r)].symbols["num_ranks"] = num_ranks_;
        }

        const ir::State& state = sdfg.state(sdfg.start_state());
        const auto topo = state.graph().topological_order();
        if (!topo) throw common::ValidationError("multirank: dataflow cycle");

        // Node-major execution: every producer finishes on all ranks before
        // a collective reads; this is the lockstep SPMD schedule.
        const ir::ScopeTree scopes(state);
        for (NodeId nid : *topo) {
            if (scopes.parent(nid) != graph::kInvalidNode) continue;
            const ir::DataflowNode& node = state.graph().node(nid);
            if (node.kind == NodeKind::MapExit) continue;
            if (node.kind == NodeKind::Comm) {
                execute_comm(sdfg, state, nid, rank_contexts);
                continue;
            }
            for (Context& ctx : rank_contexts) interp_.execute_node(sdfg, state, nid, ctx);
        }
    } catch (const common::HangError& e) {
        result.status = ExecStatus::Hang;
        result.message = e.what();
    } catch (const std::exception& e) {
        result.status = ExecStatus::Crash;
        result.message = e.what();
    }
    return result;
}

void MultiRankInterpreter::execute_comm(const ir::SDFG& sdfg, const ir::State& state, NodeId nid,
                                        std::vector<Context>& rank_contexts) {
    const ir::DataflowNode& node = state.graph().node(nid);
    const auto& g = state.graph();
    const ir::Memlet* in_memlet = nullptr;
    const ir::Memlet* out_memlet = nullptr;
    for (graph::EdgeId eid : g.in_edges(nid))
        if (g.edge(eid).data.dst_conn == "in") in_memlet = &g.edge(eid).data.memlet;
    for (graph::EdgeId eid : g.out_edges(nid))
        if (g.edge(eid).data.src_conn == "out") out_memlet = &g.edge(eid).data.memlet;
    if (!in_memlet || !out_memlet)
        throw common::ValidationError("comm node '" + node.label + "' missing connectors");

    // Gather each rank's contribution (memlets may reference `rank`) into
    // the reusable per-rank staging buffers.
    if (contributions_.size() < rank_contexts.size()) contributions_.resize(rank_contexts.size());
    std::vector<std::vector<Value>>& contributions = contributions_;
    for (std::size_t r = 0; r < rank_contexts.size(); ++r)
        interp_.gather_into(sdfg, rank_contexts[r], *in_memlet, contributions[r]);

    switch (node.comm) {
        case CommKind::Broadcast: {
            if (node.comm_root < 0 || node.comm_root >= num_ranks_)
                throw common::Error("broadcast: invalid root rank");
            const auto& payload = contributions[static_cast<std::size_t>(node.comm_root)];
            for (Context& ctx : rank_contexts) interp_.scatter(sdfg, ctx, *out_memlet, payload);
            break;
        }
        case CommKind::Allreduce: {
            std::vector<Value>& sum = reduced_;
            sum = contributions[0];
            for (std::size_t r = 1; r < contributions.size(); ++r) {
                if (contributions[r].size() != sum.size())
                    throw common::Error("allreduce: contribution size mismatch");
                for (std::size_t i = 0; i < sum.size(); ++i)
                    sum[i] = Value::from_double(sum[i].as_double() +
                                                contributions[r][i].as_double());
            }
            for (Context& ctx : rank_contexts) interp_.scatter(sdfg, ctx, *out_memlet, sum);
            break;
        }
        case CommKind::Allgather: {
            std::vector<Value>& gathered = reduced_;
            gathered.clear();
            for (const auto& chunk : contributions)
                gathered.insert(gathered.end(), chunk.begin(), chunk.end());
            for (Context& ctx : rank_contexts) interp_.scatter(sdfg, ctx, *out_memlet, gathered);
            break;
        }
    }
}

}  // namespace ff::interp

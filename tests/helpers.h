// Shared fixtures and mini-program builders for the test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "interp/interpreter.h"
#include "ir/sdfg.h"
#include "workloads/builders.h"

namespace ff::testing {

/// y[i] = x[i] * 2 over a 1-D array of symbolic size N.
inline ir::SDFG make_scale_sdfg(const std::string& code = "o = i * 2.0") {
    ir::SDFG sdfg("scale");
    sdfg.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    sdfg.add_array("x", ir::DType::F64, {n}, /*transient=*/false);
    sdfg.add_array("y", ir::DType::F64, {n}, /*transient=*/false);
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    workloads::ew_unary(sdfg, st, st.add_access("x"), "y", code);
    return sdfg;
}

/// Chain x -> T (transient) -> y with two elementwise maps.
inline ir::SDFG make_chain_sdfg(const std::string& code1 = "o = i + 1.0",
                                const std::string& code2 = "o = i * 3.0") {
    ir::SDFG sdfg("chain");
    sdfg.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    sdfg.add_array("x", ir::DType::F64, {n}, /*transient=*/false);
    sdfg.add_array("T", ir::DType::F64, {n}, /*transient=*/true);
    sdfg.add_array("y", ir::DType::F64, {n}, /*transient=*/false);
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    const ir::NodeId t = workloads::ew_unary(sdfg, st, st.add_access("x"), "T", code1);
    workloads::ew_unary(sdfg, st, t, "y", code2);
    return sdfg;
}

/// Executes and requires success; returns the context.
inline interp::Context run_ok(const ir::SDFG& sdfg, interp::Context ctx) {
    interp::Interpreter interp;
    const interp::ExecResult result = interp.run(sdfg, ctx);
    EXPECT_TRUE(result.ok()) << result.message;
    return ctx;
}

/// 1-D f64 buffer from values.
inline interp::Buffer make_buffer(std::vector<double> values) {
    interp::Buffer buf(ir::DType::F64, {static_cast<std::int64_t>(values.size())});
    for (std::size_t i = 0; i < values.size(); ++i)
        buf.store(static_cast<std::int64_t>(i), interp::Value::from_double(values[i]));
    return buf;
}

inline std::vector<double> to_vector(const interp::Buffer& buf) {
    std::vector<double> out;
    for (std::int64_t i = 0; i < buf.size(); ++i) out.push_back(buf.load_double(i));
    return out;
}

/// The first answer of ir::ScopeTree on `st` that differs from a brute-force
/// reference, or "" when all agree.  The reference matches partners by the
/// first equal scope_id in node order, takes reachable_from(entry) ∩
/// reaching(exit) as a scope's members and picks the smallest containing
/// scope as a node's parent, ties to the first in node order.
inline std::string scope_tree_mismatch(const ir::State& st) {
    const auto& g = st.graph();
    const ir::ScopeTree tree(st);
    const std::vector<ir::NodeId> nodes = g.nodes();
    std::map<ir::NodeId, std::vector<ir::NodeId>> inside;
    for (ir::NodeId n : nodes) {
        const ir::DataflowNode& node = g.node(n);
        ir::NodeId partner = graph::kInvalidNode;
        if (node.kind == ir::NodeKind::MapEntry || node.kind == ir::NodeKind::MapExit) {
            const ir::NodeKind other = node.kind == ir::NodeKind::MapEntry
                                           ? ir::NodeKind::MapExit
                                           : ir::NodeKind::MapEntry;
            for (ir::NodeId c : nodes) {
                if (g.node(c).kind == other && g.node(c).scope_id == node.scope_id) {
                    partner = c;
                    break;
                }
            }
        }
        if (tree.partner(n) != partner) return "partner of node " + std::to_string(n);
        std::vector<ir::NodeId>& members = inside[n];
        if (node.kind == ir::NodeKind::MapEntry && partner != graph::kInvalidNode) {
            const std::set<ir::NodeId> fwd = g.reachable_from(n), bwd = g.reaching(partner);
            for (ir::NodeId m : nodes)
                if (m != n && m != partner && fwd.count(m) && bwd.count(m)) members.push_back(m);
        }
        if (tree.members(n) != members) return "members of node " + std::to_string(n);
        for (ir::NodeId m : nodes) {
            const bool in = std::find(members.begin(), members.end(), m) != members.end();
            if (tree.contains(n, m) != in)
                return "contains(" + std::to_string(n) + ", " + std::to_string(m) + ")";
        }
    }
    for (ir::NodeId n : nodes) {
        ir::NodeId parent = graph::kInvalidNode;
        std::size_t size = 0;
        for (const auto& [entry, members] : inside) {
            if (std::find(members.begin(), members.end(), n) == members.end()) continue;
            if (parent == graph::kInvalidNode || members.size() < size) {
                parent = entry;
                size = members.size();
            }
        }
        if (tree.parent(n) != parent) return "parent of node " + std::to_string(n);
    }
    return "";
}

/// This process's scratch root, `ff_<pid>` under the gtest temp directory:
/// created on first use and removed at exit, so concurrent runs of one test
/// binary never share a path.
inline const std::string& scratch_root() {
    struct Root {
        std::string path = ::testing::TempDir() + "ff_" + std::to_string(::getpid());
        Root() { std::filesystem::create_directories(path); }
        ~Root() {
            std::error_code ignored;
            std::filesystem::remove_all(path, ignored);
        }
    };
    static const Root root;
    return root.path;
}

/// Fresh empty scratch directory `name` under scratch_root().
inline std::string scratch_dir(const std::string& name) {
    const std::string path = scratch_root() + "/" + name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

}  // namespace ff::testing

#include <gtest/gtest.h>

#include "common/error.h"

#include "core/cutout.h"
#include "core/changeset.h"
#include "core/mincut.h"
#include "core/side_effects.h"
#include "helpers.h"
#include "shard/manifest.h"
#include "transforms/map_tiling.h"
#include "transforms/vectorization.h"
#include "workloads/matchain.h"
#include "workloads/mha.h"
#include "workloads/npbench.h"

namespace ff::core {
namespace {

using ff::testing::make_buffer;
using ff::testing::make_chain_sdfg;
using ff::testing::run_ok;

/// Change set for the map labelled `label` in a single-state program.
xform::ChangeSet delta_for_map(const ir::SDFG& p, const std::string& label) {
    xform::ChangeSet delta;
    for (ir::StateId sid : p.states()) {
        const ir::State& st = p.state(sid);
        for (ir::NodeId n : st.graph().nodes()) {
            const auto& node = st.graph().node(n);
            if (node.kind == ir::NodeKind::MapEntry && node.label == label) delta.add(sid, n);
        }
    }
    return delta;
}

TEST(Cutout, ChainSecondMap) {
    const ir::SDFG p = make_chain_sdfg("o = i + 1.0", "o = i * 3.0");
    CutoutOptions opts;
    opts.defaults = {{"N", 8}};
    // Find the second map (producing y).
    xform::ChangeSet delta;
    const ir::StateId sid = p.start_state();
    for (ir::NodeId n : p.state(sid).graph().nodes()) {
        const auto& node = p.state(sid).graph().node(n);
        if (node.kind == ir::NodeKind::MapEntry && node.label == "ew_y") delta.add(sid, n);
    }
    ASSERT_EQ(delta.nodes.size(), 1u);

    const Cutout cutout = extract_cutout(p, delta, opts);
    EXPECT_FALSE(cutout.whole_program);
    EXPECT_NO_THROW(cutout.program.validate());

    // Input configuration: T (written upstream, read here).  x is not even
    // part of the cutout.
    EXPECT_EQ(cutout.input_config, (std::set<std::string>{"T"}));
    EXPECT_EQ(cutout.system_state, (std::set<std::string>{"y"}));
    EXPECT_TRUE(cutout.program.has_container("T"));
    EXPECT_TRUE(cutout.program.has_container("y"));
    EXPECT_FALSE(cutout.program.has_container("x"));
    // Exposed as fuzzable inputs / compared outputs.
    EXPECT_FALSE(cutout.program.container("T").transient);
    EXPECT_FALSE(cutout.program.container("y").transient);

    // The cutout is a runnable stand-alone program.
    interp::Context ctx;
    ctx.symbols["N"] = 4;
    ctx.buffers.emplace("T", make_buffer({1, 2, 3, 4}));
    const auto r = run_ok(cutout.program, ctx);
    EXPECT_EQ(ff::testing::to_vector(r.buffers.at("y")), (std::vector<double>{3, 6, 9, 12}));
}

TEST(Cutout, SystemStateIncludesTransientReadDownstream) {
    // Cutout around the FIRST map of the chain: T is transient but read by
    // the second map, so it must be in the system state (Sec. 3.1).
    const ir::SDFG p = make_chain_sdfg();
    CutoutOptions opts;
    opts.defaults = {{"N", 8}};
    const Cutout cutout = extract_cutout(p, delta_for_map(p, "ew_T"), opts);
    EXPECT_TRUE(cutout.system_state.count("T"));
    EXPECT_EQ(cutout.input_config, (std::set<std::string>{"x"}));
}

TEST(Cutout, MatrixChainMm2MatchesPaperExample) {
    // Fig. 2/3: the cutout around mm2 has inputs {U, C, V(init)} and system
    // state {V}.
    const ir::SDFG p = workloads::build_matrix_chain();
    CutoutOptions opts;
    opts.defaults = {{"N", 6}};
    const Cutout cutout = extract_cutout(p, delta_for_map(p, "mm2"), opts);
    EXPECT_FALSE(cutout.whole_program);
    EXPECT_TRUE(cutout.input_config.count("U"));  // written by mm1 upstream
    EXPECT_TRUE(cutout.input_config.count("C"));  // external
    EXPECT_EQ(cutout.system_state, (std::set<std::string>{"V"}));
    EXPECT_FALSE(cutout.program.has_container("A"));
    EXPECT_FALSE(cutout.program.has_container("R"));
    // Much smaller than the program (c << p).
    EXPECT_LT(cutout.program.state(cutout.program.start_state()).graph().node_count(),
              p.state(p.start_state()).graph().node_count() / 2);
}

TEST(Cutout, ControlFlowChangePromotesToWholeProgram) {
    const ir::SDFG p = workloads::build_npbench_kernel("alias_stages");
    xform::ChangeSet delta;
    delta.control_flow_states.insert(p.start_state());
    const Cutout cutout = extract_cutout(p, delta, {});
    EXPECT_TRUE(cutout.whole_program);
    EXPECT_EQ(cutout.program.states().size(), p.states().size());
    // Non-transient classification.
    EXPECT_TRUE(cutout.input_config.count("x"));
    EXPECT_TRUE(cutout.system_state.count("y"));
}

TEST(Cutout, ContainerMinimization) {
    // Map reads x[0:3] of a size-N container: the cutout only needs 4
    // elements (Sec. 3, step 3).
    ir::SDFG p("mini");
    p.add_symbol("N");
    p.add_array("x", ir::DType::F64, {sym::symb("N")});
    p.add_array("y", ir::DType::F64, {sym::cst(4)});
    {
        ir::State& st = p.state(p.add_state("main", true));
        const sym::ExprPtr i = sym::symb("i");
        auto [entry, exit] = st.add_map("head", {"i"},
                                        {ir::Range::span(sym::cst(0), sym::cst(3))});
        const ir::NodeId t = st.add_tasklet("head", "o = a");
        const ir::NodeId xin = st.add_access("x");
        const ir::NodeId yout = st.add_access("y");
        const ir::Subset head{{ir::Range::span(sym::cst(0), sym::cst(3))}};
        st.add_edge(xin, "", entry, "", ir::Memlet("x", head));
        st.add_edge(entry, "", t, "a", ir::Memlet("x", ir::Subset{{ir::Range::index(i)}}));
        st.add_edge(t, "o", exit, "", ir::Memlet("y", ir::Subset{{ir::Range::index(i)}}));
        st.add_edge(exit, "", yout, "", ir::Memlet("y", head));
    }
    xform::ChangeSet delta = delta_for_map(p, "head");
    CutoutOptions opts;
    opts.defaults = {{"N", 100}};
    const Cutout minimized = extract_cutout(p, delta, opts);
    EXPECT_EQ(minimized.program.container("x").total_size()->evaluate({}), 4);
    opts.minimize_containers = false;
    const Cutout unminimized = extract_cutout(p, delta, opts);
    EXPECT_EQ(unminimized.program.container("x").total_size()->evaluate({{"N", 100}}), 100);
}

TEST(Cutout, RemapMatchCarriesPatternNodes) {
    ir::SDFG p = ff::testing::make_scale_sdfg();
    xform::Vectorization vec(4);
    const auto matches = vec.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);
    const xform::ChangeSet delta = vec.affected_nodes(p, matches[0]);
    const Cutout cutout = extract_cutout(p, delta, {});
    const xform::Match remapped = cutout.remap_match(matches[0]);
    // Applying through the remapped match works on the cutout copy.
    ir::SDFG transformed = cutout.program;
    EXPECT_NO_THROW(vec.apply(transformed, remapped));
    EXPECT_NO_THROW(transformed.validate());
}

TEST(ScopeTreeProperty, MatchesReferenceOnKernelsCutoutsAndTransformedCutouts) {
    // Every state of the 38 kernels, and of the cutouts (before and after the
    // min cut) and transformed cutouts that the table2 and correct pass sets
    // prepare from them, malformed ones included.
    CutoutOptions opts;
    opts.defaults = workloads::npbench_defaults();
    int states = 0;
    auto check = [&](const ir::SDFG& p, const std::string& where) {
        for (ir::StateId sid : p.states()) {
            EXPECT_EQ(ff::testing::scope_tree_mismatch(p.state(sid)), "")
                << where << " state " << p.state(sid).name();
            ++states;
        }
    };
    for (const std::string& kernel : workloads::npbench_kernel_names()) {
        const ir::SDFG p = workloads::build_npbench_kernel(kernel);
        check(p, kernel);
        for (const char* passes : {"table2", "correct"}) {
            shard::JobSpec job;
            job.passes = passes;
            for (const auto& pass : shard::job_passes(job)) {
                for (const xform::Match& match : pass->find_matches(p)) {
                    const std::string where =
                        kernel + " " + pass->name() + " " + match.description;
                    const xform::ChangeSet delta = pass->affected_nodes(p, match);
                    Cutout cutout = extract_cutout(p, delta, opts);
                    check(cutout.program, where + " (cutout)");
                    MinCutResult mc = minimize_input_configuration(p, delta, cutout, opts);
                    if (mc.improved) check(mc.cutout.program, where + " (min cut)");
                    ir::SDFG transformed = mc.cutout.program;
                    pass->apply(transformed, mc.cutout.remap_match(match));
                    check(transformed, where + " (transformed)");
                }
            }
        }
    }
    EXPECT_GT(states, 1000);
}

TEST(SideEffects, OverlapRespectsSubranges) {
    // Writes to x[0:3]; a downstream read of x[8:9] does NOT put x in the
    // system state (disjoint sub-regions, Table 1 "Sub-region" column).
    ir::SDFG p("ranges");
    p.add_symbol("N");
    p.add_array("x", ir::DType::F64, {sym::symb("N")}, /*transient=*/true);
    p.add_array("src", ir::DType::F64, {sym::cst(4)});
    p.add_array("lo", ir::DType::F64, {sym::cst(4)});
    p.add_array("hi", ir::DType::F64, {sym::cst(2)});
    ir::State& st = p.state(p.add_state("main", true));
    const sym::ExprPtr i = sym::symb("i");
    // Writer map: x[0:3] = src[i].
    auto [we, wx] = st.add_map("writer", {"i"}, {ir::Range::span(sym::cst(0), sym::cst(3))});
    const ir::NodeId wt = st.add_tasklet("writer", "o = a");
    const ir::NodeId src = st.add_access("src");
    const ir::NodeId xmid = st.add_access("x");
    st.add_edge(src, "", we, "", ir::Memlet("src", ir::Subset{{ir::Range::span(sym::cst(0), sym::cst(3))}}));
    st.add_edge(we, "", wt, "a", ir::Memlet("src", ir::Subset{{ir::Range::index(i)}}));
    st.add_edge(wt, "o", wx, "", ir::Memlet("x", ir::Subset{{ir::Range::index(i)}}));
    st.add_edge(wx, "", xmid, "", ir::Memlet("x", ir::Subset{{ir::Range::span(sym::cst(0), sym::cst(3))}}));
    // Reader of the disjoint tail: lo? reads x[8:9].
    auto [re, rx] = st.add_map("tail_reader", {"i"}, {ir::Range::span(sym::cst(0), sym::cst(1))});
    const ir::NodeId rt = st.add_tasklet("tail_reader", "o = a");
    const ir::NodeId hi = st.add_access("hi");
    st.add_edge(xmid, "", re, "", ir::Memlet("x", ir::Subset{{ir::Range::span(sym::cst(8), sym::cst(9))}}));
    st.add_edge(re, "", rt, "a", ir::Memlet("x", ir::Subset{{ir::Range::index(i + 8)}}));
    st.add_edge(rt, "o", rx, "", ir::Memlet("hi", ir::Subset{{ir::Range::index(i)}}));
    st.add_edge(rx, "", hi, "", ir::Memlet("hi", ir::Subset{{ir::Range::span(sym::cst(0), sym::cst(1))}}));

    const std::set<ir::NodeId> closure{we, wt, wx};
    const std::set<ir::NodeId> boundary{src, xmid};
    const SideEffects fx =
        analyze_side_effects(p, p.start_state(), closure, boundary, {{"N", 16}});
    EXPECT_FALSE(fx.system_state.count("x"));  // disjoint read: no side effect
    EXPECT_TRUE(fx.input_config.count("src"));
}

TEST(SideEffects, ExternalWritesAlwaysSystemState) {
    const ir::SDFG p = ff::testing::make_scale_sdfg();
    const ir::State& st = p.state(p.start_state());
    std::set<ir::NodeId> closure, boundary;
    for (ir::NodeId n : st.graph().nodes()) {
        const auto& node = st.graph().node(n);
        if (node.kind == ir::NodeKind::Access) boundary.insert(n);
        else closure.insert(n);
    }
    const SideEffects fx = analyze_side_effects(p, p.start_state(), closure, boundary,
                                                {{"N", 8}});
    EXPECT_TRUE(fx.system_state.count("y"));   // non-transient write
    EXPECT_TRUE(fx.input_config.count("x"));   // non-transient read
}

TEST(BlackBoxDiff, FindsTilingChange) {
    // Black-box change isolation (Sec. 3, step 2): diff G_p vs G_T(p).
    ir::SDFG before = ff::testing::make_scale_sdfg();
    ir::SDFG after = before;
    xform::MapTiling tiling(4);
    tiling.apply(after, tiling.find_matches(after)[0]);
    const xform::ChangeSet delta = diff_changeset(before, after);
    ASSERT_FALSE(delta.nodes.empty());
    bool found_map = false;
    for (const auto& ref : delta.nodes)
        found_map |= before.state(ref.state).graph().node(ref.node).kind ==
                     ir::NodeKind::MapEntry;
    EXPECT_TRUE(found_map);
    EXPECT_TRUE(delta.control_flow_states.empty());
}

TEST(BlackBoxDiff, IdenticalProgramsYieldEmptyDelta) {
    const ir::SDFG p = ff::testing::make_scale_sdfg();
    const xform::ChangeSet delta = diff_changeset(p, p);
    EXPECT_TRUE(delta.nodes.empty());
    EXPECT_TRUE(delta.control_flow_states.empty());
}

TEST(BlackBoxDiff, InterstateChangeFlagsControlFlow) {
    ir::SDFG before = workloads::build_npbench_kernel("alias_stages");
    ir::SDFG after = before;
    after.cfg().edge(after.cfg().edges()[0]).data.assignments.clear();
    const xform::ChangeSet delta = diff_changeset(before, after);
    EXPECT_FALSE(delta.control_flow_states.empty());
}

}  // namespace
}  // namespace ff::core

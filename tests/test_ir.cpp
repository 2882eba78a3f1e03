#include <gtest/gtest.h>

#include "common/error.h"
#include "helpers.h"
#include "ir/sdfg.h"
#include "ir/serialize.h"
#include "symbolic/parser.h"
#include "workloads/builders.h"

namespace ff::ir {
namespace {

using common::ValidationError;

TEST(Subset, VolumeAndConcretize) {
    const sym::ExprPtr n = sym::symb("N");
    Subset s{{Range::full(n), Range::span(sym::cst(2), sym::cst(5))}};
    EXPECT_EQ(s.volume()->evaluate({{"N", 7}}), 7 * 4);
    const auto conc = s.concretize({{"N", 7}});
    EXPECT_EQ(conc[0], (ConcreteRange{0, 6, 1}));
    EXPECT_EQ(conc[1], (ConcreteRange{2, 5, 1}));
}

TEST(Subset, ConcreteRangeSizeWithNegativeStep) {
    EXPECT_EQ(concrete_range_size({4, 1, -1}), 4);
    EXPECT_EQ(concrete_range_size({1, 4, -1}), 0);
    EXPECT_EQ(concrete_range_size({0, 9, 2}), 5);
    EXPECT_EQ(concrete_range_size({3, 3, 1}), 1);
    EXPECT_EQ(concrete_range_size({5, 2, 1}), 0);
    EXPECT_THROW((void)concrete_range_size(ConcreteRange{0, 1, 0}), common::Error);
}

TEST(Subset, OverlapIsPerDimension) {
    // [0..3] x [0..3]  vs  [5..9] x [0..3]: disjoint in dim 0.
    EXPECT_FALSE(concrete_subsets_overlap({{0, 3, 1}, {0, 3, 1}}, {{5, 9, 1}, {0, 3, 1}}));
    EXPECT_TRUE(concrete_subsets_overlap({{0, 3, 1}, {0, 3, 1}}, {{3, 9, 1}, {2, 2, 1}}));
    // Stride-blind (conservative): even/odd interleave reports overlap.
    EXPECT_TRUE(concrete_subsets_overlap({{0, 8, 2}}, {{1, 9, 2}}));
    // Rank confusion: conservative true.
    EXPECT_TRUE(concrete_subsets_overlap({{0, 1, 1}}, {{0, 1, 1}, {0, 1, 1}}));
}

TEST(Subset, BoundingUnion) {
    const Subset a{{Range::span(sym::cst(0), sym::cst(3))}};
    const Subset b{{Range::span(sym::cst(2), sym::cst(9))}};
    const Subset u = Subset::bounding_union(a, b);
    const auto conc = u.concretize({});
    EXPECT_EQ(conc[0], (ConcreteRange{0, 9, 1}));
}

TEST(DataDesc, TotalSizeAndBytes) {
    DataDesc d;
    d.name = "A";
    d.dtype = DType::F32;
    d.shape = {sym::symb("N"), sym::symb("N")};
    EXPECT_EQ(d.total_size()->evaluate({{"N", 4}}), 16);
    EXPECT_EQ(d.total_bytes()->evaluate({{"N", 4}}), 64);
    EXPECT_EQ(d.concrete_shape({{"N", 3}}), (std::vector<std::int64_t>{3, 3}));
}

TEST(State, ScopeStructure) {
    SDFG sdfg("scopes");
    sdfg.add_symbol("N");
    sdfg.add_array("x", DType::F64, {sym::symb("N")});
    State& st = sdfg.state(sdfg.add_state("main", true));
    auto [outer_e, outer_x] = st.add_map("outer", {"i"}, {Range::full(sym::symb("N"))});
    auto [inner_e, inner_x] = st.add_map("inner", {"j"}, {Range::full(sym::symb("N"))});
    const NodeId t = st.add_tasklet("body", "o = 1.0");
    st.add_edge(outer_e, "", inner_e, "", Memlet("x", Subset{{Range::full(sym::symb("N"))}}));
    st.add_edge(inner_e, "", t, "", Memlet("x", Subset{{Range::index(sym::symb("j"))}}));
    st.add_edge(t, "o", inner_x, "", Memlet("x", Subset{{Range::index(sym::symb("j"))}}));
    st.add_edge(inner_x, "", outer_x, "", Memlet("x", Subset{{Range::full(sym::symb("N"))}}));

    const ScopeTree scopes(st);
    EXPECT_EQ(scopes.partner(outer_e), outer_x);
    EXPECT_EQ(scopes.partner(inner_x), inner_e);
    EXPECT_EQ(scopes.partner(t), graph::kInvalidNode);
    EXPECT_EQ(scopes.members(outer_e), (std::vector<NodeId>{inner_e, inner_x, t}));
    EXPECT_EQ(scopes.members(inner_e), (std::vector<NodeId>{t}));
    EXPECT_TRUE(scopes.members(t).empty());
    EXPECT_TRUE(scopes.contains(outer_e, t));
    EXPECT_FALSE(scopes.contains(inner_e, inner_x));
    EXPECT_EQ(scopes.parent(t), inner_e);
    EXPECT_EQ(scopes.parent(inner_e), outer_e);
    EXPECT_EQ(scopes.parent(inner_x), outer_e);
    EXPECT_EQ(scopes.parent(outer_e), graph::kInvalidNode);
    EXPECT_EQ(scopes.parent(outer_x), graph::kInvalidNode);
}

TEST(Validation, RejectsOverlappingScopes) {
    // A tasklet inside two 1-D maps, neither inside the other: it reads from
    // both entries and writes to both exits.  Each map's scope is {t} alone,
    // so t's innermost scope was a tie; this graph validated, and a run
    // filed t under one map and crashed with "unbound symbol: j".
    SDFG sdfg("overlap");
    sdfg.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    for (const char* name : {"x", "y", "a", "b"}) sdfg.add_array(name, DType::F64, {n});
    State& st = sdfg.state(sdfg.add_state("main", true));
    auto [a_e, a_x] = st.add_map("A", {"i"}, {Range::full(n)});
    auto [b_e, b_x] = st.add_map("B", {"j"}, {Range::full(n)});
    const NodeId t = st.add_tasklet("t", "o = u + v; p = u");
    const Subset whole{{Range::full(n)}};
    st.add_edge(st.add_access("x"), "", a_e, "", Memlet("x", whole));
    st.add_edge(st.add_access("y"), "", b_e, "", Memlet("y", whole));
    st.add_edge(a_e, "", t, "u", Memlet("x", Subset{{Range::index(sym::symb("i"))}}));
    st.add_edge(b_e, "", t, "v", Memlet("y", Subset{{Range::index(sym::symb("j"))}}));
    st.add_edge(t, "o", a_x, "", Memlet("a", Subset{{Range::index(sym::symb("i"))}}));
    st.add_edge(t, "p", b_x, "", Memlet("b", Subset{{Range::index(sym::symb("j"))}}));
    st.add_edge(a_x, "", st.add_access("a"), "", Memlet("a", whole));
    st.add_edge(b_x, "", st.add_access("b"), "", Memlet("b", whole));
    try {
        sdfg.validate();
        ADD_FAILURE() << "validated";
    } catch (const ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find("maps 'A' and 'B'"), std::string::npos) << e.what();
    }
}

TEST(Sdfg, ContainerManagement) {
    SDFG sdfg("c");
    sdfg.add_symbol("N");
    sdfg.add_array("A", DType::F64, {sym::symb("N")});
    EXPECT_TRUE(sdfg.has_container("A"));
    EXPECT_THROW(sdfg.add_array("A", DType::F64, {}), ValidationError);
    EXPECT_THROW(sdfg.container("nope"), ValidationError);
    EXPECT_EQ(sdfg.fresh_container_name("A"), "A_0");
    EXPECT_EQ(sdfg.fresh_container_name("B"), "B");
}

TEST(Sdfg, UsedFreeSymbolsExcludesMapParams) {
    const ir::SDFG sdfg = ff::testing::make_scale_sdfg();
    const auto used = sdfg.used_free_symbols();
    EXPECT_TRUE(used.count("N"));
    EXPECT_FALSE(used.count("ei"));  // map parameter, bound
}

TEST(Validation, AcceptsWellFormed) {
    EXPECT_NO_THROW(ff::testing::make_scale_sdfg().validate());
    EXPECT_NO_THROW(ff::testing::make_chain_sdfg().validate());
}

TEST(Validation, RejectsUnknownContainer) {
    SDFG sdfg("bad");
    State& st = sdfg.state(sdfg.add_state("main", true));
    st.add_access("ghost");
    EXPECT_THROW(sdfg.validate(), ValidationError);
}

TEST(Validation, RejectsUnknownMemletSymbol) {
    SDFG sdfg("bad");
    sdfg.add_symbol("N");
    sdfg.add_array("x", DType::F64, {sym::symb("N")});
    State& st = sdfg.state(sdfg.add_state("main", true));
    const NodeId a = st.add_access("x");
    const NodeId t = st.add_tasklet("t", "o = i");
    st.add_edge(a, "", t, "i", Memlet("x", Subset{{Range::index(sym::symb("mystery"))}}));
    st.add_edge(t, "o", st.add_access("x"), "", Memlet("x", Subset{{Range::index(sym::cst(0))}}));
    EXPECT_THROW(sdfg.validate(), ValidationError);
}

TEST(Validation, RejectsUnconnectedTaskletInput) {
    SDFG sdfg("bad");
    sdfg.add_symbol("N");
    sdfg.add_array("x", DType::F64, {sym::symb("N")});
    State& st = sdfg.state(sdfg.add_state("main", true));
    const NodeId t = st.add_tasklet("t", "o = a + b");
    const NodeId a = st.add_access("x");
    st.add_edge(a, "", t, "a", Memlet("x", Subset{{Range::index(sym::cst(0))}}));
    st.add_edge(t, "o", st.add_access("x"), "", Memlet("x", Subset{{Range::index(sym::cst(0))}}));
    EXPECT_THROW(sdfg.validate(), ValidationError);  // 'b' unconnected
}

TEST(Validation, RejectsShapeWithUnknownSymbol) {
    SDFG sdfg("bad");
    sdfg.add_array("x", DType::F64, {sym::symb("M")});  // M not declared
    sdfg.add_state("main", true);
    EXPECT_THROW(sdfg.validate(), ValidationError);
}

TEST(Validation, RejectsDimensionalityMismatch) {
    SDFG sdfg("bad");
    sdfg.add_symbol("N");
    sdfg.add_array("x", DType::F64, {sym::symb("N"), sym::symb("N")});
    State& st = sdfg.state(sdfg.add_state("main", true));
    const NodeId a = st.add_access("x");
    const NodeId t = st.add_tasklet("t", "o = i");
    st.add_edge(a, "", t, "i", Memlet("x", Subset{{Range::index(sym::cst(0))}}));  // 1-D on 2-D
    st.add_edge(t, "o", st.add_access("x"), "",
                Memlet("x", Subset{{Range::index(sym::cst(0)), Range::index(sym::cst(0))}}));
    EXPECT_THROW(sdfg.validate(), ValidationError);
}

TEST(Serialize, ScaleRoundTrip) {
    const SDFG original = ff::testing::make_scale_sdfg();
    const SDFG restored = sdfg_from_json(to_json(original));
    EXPECT_NO_THROW(restored.validate());

    // Executing both yields identical results.
    interp::Context ctx;
    ctx.symbols["N"] = 5;
    ctx.buffers.emplace("x", ff::testing::make_buffer({1, 2, 3, 4, 5}));
    const auto r1 = ff::testing::run_ok(original, ctx);
    const auto r2 = ff::testing::run_ok(restored, ctx);
    EXPECT_TRUE(r1.buffers.at("y").bitwise_equal(r2.buffers.at("y")));
}

TEST(Serialize, InterstateRoundTrip) {
    SDFG sdfg("loop");
    sdfg.add_symbol("t");
    sdfg.add_symbol("T");
    sdfg.add_symbol("N");
    sdfg.add_array("x", DType::F64, {sym::symb("N")});
    const StateId s1 = sdfg.add_state("a", true);
    const StateId s2 = sdfg.add_state("b");
    InterstateEdge e;
    e.condition = sym::parse_bool("t < T and t >= 0");
    e.assignments.emplace_back("t", sym::parse_expr("t + 1"));
    sdfg.add_interstate_edge(s1, s2, e);

    const SDFG restored = sdfg_from_json(to_json(sdfg));
    ASSERT_EQ(restored.cfg().edges().size(), 1u);
    const auto& edge = restored.cfg().edge(restored.cfg().edges()[0]).data;
    EXPECT_TRUE(edge.condition->equals(*e.condition));
    ASSERT_EQ(edge.assignments.size(), 1u);
    EXPECT_EQ(edge.assignments[0].first, "t");
}

TEST(Serialize, PreservesKindsAndAttrs) {
    SDFG sdfg("kinds");
    sdfg.add_symbol("N");
    sdfg.add_array("x", DType::F32, {sym::symb("N")}, true, Storage::Device);
    State& st = sdfg.state(sdfg.add_state("main", true));
    const NodeId lib = st.add_library(LibraryKind::Softmax, "sm");
    const NodeId comm = st.add_comm(CommKind::Broadcast, 2, "bc");
    auto [me, mx] = st.add_map("m", {"i"}, {Range::full(sym::symb("N"))}, Schedule::GPU);
    st.graph().node(me).attrs["tiled"] = "8";
    (void)lib;
    (void)comm;
    (void)mx;

    const SDFG restored = sdfg_from_json(to_json(sdfg));
    const State& rst = restored.state(restored.start_state());
    int libs = 0, comms = 0, gpu_maps = 0;
    for (NodeId n : rst.graph().nodes()) {
        const auto& node = rst.graph().node(n);
        if (node.kind == NodeKind::Library && node.lib == LibraryKind::Softmax) ++libs;
        if (node.kind == NodeKind::Comm && node.comm == CommKind::Broadcast &&
            node.comm_root == 2)
            ++comms;
        if (node.kind == NodeKind::MapEntry && node.schedule == Schedule::GPU &&
            node.attrs.count("tiled"))
            ++gpu_maps;
    }
    EXPECT_EQ(libs, 1);
    EXPECT_EQ(comms, 1);
    EXPECT_EQ(gpu_maps, 1);
    EXPECT_EQ(restored.container("x").storage, Storage::Device);
    EXPECT_TRUE(restored.container("x").transient);
    EXPECT_EQ(restored.container("x").dtype, DType::F32);
}

}  // namespace
}  // namespace ff::ir

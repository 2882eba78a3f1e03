#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>

#include "common/error.h"
#include "helpers.h"
#include "interp/interpreter.h"
#include "interp/multirank.h"
#include "ir/sdfg.h"
#include "symbolic/parser.h"
#include "workloads/builders.h"

// --- Allocation instrumentation --------------------------------------------
//
// Global operator new override counting allocations while a flag is set:
// used below to prove the compiled tasklet path performs no per-map-point
// heap allocation in steady state.
//
// GCC pairs the replaced aligned operator new (aligned_alloc) with the
// plain free() in operator delete and warns; free() is the correct
// deallocator for aligned_alloc on this platform.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
    if (g_count_allocations.load(std::memory_order_relaxed))
        g_allocation_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    if (g_count_allocations.load(std::memory_order_relaxed))
        g_allocation_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) - 1) &
                                         ~(static_cast<std::size_t>(align) - 1)))
        return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace ff::interp {
namespace {

using ff::testing::make_buffer;
using ff::testing::make_chain_sdfg;
using ff::testing::make_scale_sdfg;
using ff::testing::run_ok;
using ff::testing::to_vector;
using ir::Memlet;
using ir::Range;
using ir::Subset;

TEST(Buffer, RowMajorIndexing) {
    Buffer b(ir::DType::F64, {2, 3});
    EXPECT_EQ(b.size(), 6);
    EXPECT_EQ(b.flat_index({1, 2}, "b"), 5);
    EXPECT_EQ(b.flat_index({0, 0}, "b"), 0);
    EXPECT_THROW((void)b.flat_index(std::vector<std::int64_t>{2, 0}, "b"),
                 common::OutOfBoundsError);
    EXPECT_THROW((void)b.flat_index(std::vector<std::int64_t>{0, -1}, "b"),
                 common::OutOfBoundsError);
    EXPECT_THROW((void)b.flat_index(std::vector<std::int64_t>{0}, "b"), common::Error);
}

TEST(Buffer, DtypeStorageRoundTrip) {
    Buffer f32(ir::DType::F32, {2});
    f32.store(0, Value::from_double(1.5));
    EXPECT_FLOAT_EQ(static_cast<float>(f32.load_double(0)), 1.5f);
    Buffer i32(ir::DType::I32, {2});
    i32.store(0, Value::from_int(-7));
    EXPECT_EQ(i32.load(0).as_int(), -7);
    EXPECT_FALSE(i32.load(0).is_float);
}

TEST(Buffer, GarbageFillIsDeterministicAndLarge) {
    Buffer a(ir::DType::F64, {8});
    Buffer b(ir::DType::F64, {8});
    a.fill_garbage(123);
    b.fill_garbage(123);
    EXPECT_TRUE(a.bitwise_equal(b));
    for (std::int64_t i = 0; i < a.size(); ++i) EXPECT_GE(a.load_double(i), 1.0e6);
    Buffer c(ir::DType::F64, {8});
    c.fill_garbage(124);
    EXPECT_FALSE(a.bitwise_equal(c));
}

TEST(Buffer, CompareThresholdAndBitwise) {
    Buffer a = make_buffer({1.0, 2.0, 3.0});
    Buffer b = make_buffer({1.0, 2.0 + 1e-9, 3.0});
    EXPECT_FALSE(compare_buffers(a, b, 1e-5).has_value());   // within threshold
    EXPECT_TRUE(compare_buffers(a, b, 0.0).has_value());     // bitwise differs
    Buffer c = make_buffer({1.0, 2.5, 3.0});
    const auto mismatch = compare_buffers(a, c, 1e-5);
    ASSERT_TRUE(mismatch.has_value());
    EXPECT_EQ(mismatch->flat_index, 1);
    // Shape mismatch is a mismatch.
    EXPECT_TRUE(compare_buffers(a, make_buffer({1.0, 2.0}), 1e-5).has_value());
    // Identical infinities are equal at every threshold; opposite ones, or
    // an infinity against a finite value, stay mismatches.
    const double inf = std::numeric_limits<double>::infinity();
    for (double threshold : {1e-5, 0.0}) {
        EXPECT_FALSE(compare_buffers(make_buffer({1.0, inf}), make_buffer({1.0, inf}), threshold))
            << threshold;
        EXPECT_FALSE(compare_buffers(make_buffer({-inf}), make_buffer({-inf}), threshold))
            << threshold;
        const auto opposite = compare_buffers(make_buffer({1.0, inf}), make_buffer({1.0, -inf}),
                                              threshold);
        ASSERT_TRUE(opposite.has_value()) << threshold;
        EXPECT_EQ(opposite->flat_index, 1);
        EXPECT_TRUE(compare_buffers(make_buffer({inf}), make_buffer({1e300}), threshold))
            << threshold;
        EXPECT_TRUE(compare_buffers(make_buffer({2.0}), make_buffer({-inf}), threshold))
            << threshold;
    }
}

TEST(Interpreter, ElementwiseMap) {
    interp::Context ctx;
    ctx.symbols["N"] = 4;
    ctx.buffers.emplace("x", make_buffer({1, 2, 3, 4}));
    const auto out = run_ok(make_scale_sdfg(), ctx);
    EXPECT_EQ(to_vector(out.buffers.at("y")), (std::vector<double>{2, 4, 6, 8}));
}

TEST(Interpreter, TransientsZeroInitialized) {
    interp::Context ctx;
    ctx.symbols["N"] = 3;
    ctx.buffers.emplace("x", make_buffer({5, 5, 5}));
    const auto out = run_ok(make_chain_sdfg("o = i", "o = i"), ctx);
    EXPECT_EQ(to_vector(out.buffers.at("T")), (std::vector<double>{5, 5, 5}));
    EXPECT_EQ(to_vector(out.buffers.at("y")), (std::vector<double>{5, 5, 5}));
}

TEST(Interpreter, MatmulNestMatchesLibrary) {
    // Explicit loop-nest matmul against the library node on the same data.
    ir::SDFG nest("nest");
    nest.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    nest.add_array("A", ir::DType::F64, {n, n});
    nest.add_array("B", ir::DType::F64, {n, n});
    nest.add_array("C", ir::DType::F64, {n, n});
    {
        ir::State& st = nest.state(nest.add_state("main", true));
        const ir::NodeId cz = workloads::zero_init(nest, st, "C");
        workloads::matmul_nest(nest, st, st.add_access("A"), st.add_access("B"), cz, n, n, n,
                               "mm");
    }
    ir::SDFG lib("lib");
    lib.add_symbol("N");
    lib.add_array("A", ir::DType::F64, {n, n});
    lib.add_array("B", ir::DType::F64, {n, n});
    lib.add_array("C", ir::DType::F64, {n, n});
    {
        ir::State& st = lib.state(lib.add_state("main", true));
        const ir::NodeId a = st.add_access("A");
        const ir::NodeId b = st.add_access("B");
        const ir::NodeId mm = st.add_library(ir::LibraryKind::MatMul, "mm");
        const ir::NodeId c = st.add_access("C");
        const Subset full = Subset::full(lib.container("A").shape);
        st.add_edge(a, "", mm, "A", Memlet("A", full));
        st.add_edge(b, "", mm, "B", Memlet("B", full));
        st.add_edge(mm, "C", c, "", Memlet("C", full));
    }

    interp::Context ctx;
    ctx.symbols["N"] = 3;
    ctx.buffers.emplace("A", [] {
        Buffer b(ir::DType::F64, {3, 3});
        for (int i = 0; i < 9; ++i) b.store(i, Value::from_double(i + 1));
        return b;
    }());
    ctx.buffers.emplace("B", [] {
        Buffer b(ir::DType::F64, {3, 3});
        for (int i = 0; i < 9; ++i) b.store(i, Value::from_double(0.5 * i - 2));
        return b;
    }());

    const auto r1 = run_ok(nest, ctx);
    const auto r2 = run_ok(lib, ctx);
    EXPECT_TRUE(r1.buffers.at("C").bitwise_equal(r2.buffers.at("C")));
    // Spot check one entry against a hand computation.
    // C[0,0] = 1*(-2) + 2*(-0.5) + 3*1 = 0.
    EXPECT_DOUBLE_EQ(r1.buffers.at("C").load_double(0), 0.0);
}

TEST(Interpreter, SequentialNegativeStepMap) {
    ir::SDFG sdfg("countdown");
    sdfg.add_symbol("N");
    sdfg.add_array("x", ir::DType::F64, {sym::cst(8)});
    sdfg.add_array("order", ir::DType::F64, {sym::cst(8)});
    sdfg.add_scalar("counter", ir::DType::F64, true);
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    // order[v] = x[v]; iterated v = 5,4,...,1.
    auto [entry, exit] =
        st.add_map("count", {"v"}, {Range{sym::cst(5), sym::cst(1), sym::cst(-1)}},
                   ir::Schedule::Sequential);
    const ir::NodeId t = st.add_tasklet("body", "o = a");
    const ir::NodeId xin = st.add_access("x");
    const ir::NodeId out = st.add_access("order");
    const sym::ExprPtr v = sym::symb("v");
    st.add_edge(xin, "", entry, "", Memlet("x", Subset{{Range::span(sym::cst(1), sym::cst(5))}}));
    st.add_edge(entry, "", t, "a", Memlet("x", Subset{{Range::index(v)}}));
    st.add_edge(t, "o", exit, "", Memlet("order", Subset{{Range::index(v)}}));
    st.add_edge(exit, "", out, "",
                Memlet("order", Subset{{Range::span(sym::cst(1), sym::cst(5))}}));

    interp::Context ctx;
    ctx.buffers.emplace("x", make_buffer({0, 10, 20, 30, 40, 50, 60, 70}));
    const auto r = run_ok(sdfg, ctx);
    EXPECT_EQ(to_vector(r.buffers.at("order")), (std::vector<double>{0, 10, 20, 30, 40, 50, 0, 0}));
}

TEST(Interpreter, StateMachineLoop) {
    // x doubled TSTEPS times through a state-machine self loop.
    ir::SDFG sdfg("loop");
    for (const char* s : {"N", "t", "TSTEPS"}) sdfg.add_symbol(s);
    sdfg.add_array("x", ir::DType::F64, {sym::symb("N")});
    const ir::StateId body = sdfg.add_state("body", true);
    {
        ir::State& st = sdfg.state(body);
        workloads::ew_unary(sdfg, st, st.add_access("x"), "x", "o = i * 2.0");
    }
    ir::InterstateEdge back;
    back.condition = sym::parse_bool("t < TSTEPS - 1");
    back.assignments.emplace_back("t", sym::parse_expr("t + 1"));
    sdfg.add_interstate_edge(body, body, back);

    interp::Context ctx;
    ctx.symbols = {{"N", 2}, {"t", 0}, {"TSTEPS", 4}};
    ctx.buffers.emplace("x", make_buffer({1, 3}));
    const auto r = run_ok(sdfg, ctx);
    EXPECT_EQ(to_vector(r.buffers.at("x")), (std::vector<double>{16, 48}));
    // Hang detection: never-true exit condition trips the transition budget.
    ir::SDFG hang = sdfg;
    hang.cfg().edge(hang.cfg().edges()[0]).data.condition = sym::parse_bool("0 < 1");
    interp::Context hang_ctx;
    hang_ctx.symbols = {{"N", 2}, {"t", 0}, {"TSTEPS", 4}};
    ExecConfig cfg;
    cfg.max_state_transitions = 50;
    Interpreter interp(cfg);
    EXPECT_EQ(interp.run(hang, hang_ctx).status, ExecStatus::Hang);
}

TEST(Interpreter, OutOfBoundsIsCrash) {
    ir::SDFG sdfg = make_scale_sdfg();
    // Shrink x so the map (over y's extent N) overruns it.
    sdfg.container("x").shape = {sym::symb("N") - 2};
    interp::Context ctx;
    ctx.symbols["N"] = 4;
    Interpreter interp;
    const auto r = interp.run(sdfg, ctx);
    EXPECT_EQ(r.status, ExecStatus::Crash);
    EXPECT_NE(r.message.find("out-of-bounds"), std::string::npos);
}

TEST(Interpreter, UnboundSymbolIsCrash) {
    const ir::SDFG sdfg = make_scale_sdfg();
    interp::Context ctx;  // N missing
    Interpreter interp;
    const auto r = interp.run(sdfg, ctx);
    EXPECT_EQ(r.status, ExecStatus::Crash);
    EXPECT_NE(r.message.find("unbound symbol"), std::string::npos);
}

TEST(Interpreter, DeviceBuffersStartAsGarbage) {
    ir::SDFG sdfg("dev");
    sdfg.add_symbol("N");
    sdfg.add_array("d", ir::DType::F64, {sym::cst(4)}, true, ir::Storage::Device);
    sdfg.add_array("h", ir::DType::F64, {sym::cst(4)});
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    const ir::NodeId dev = st.add_access("d");
    const ir::NodeId host = st.add_access("h");
    st.add_edge(dev, "", host, "", Memlet("d", Subset{{Range::span(sym::cst(0), sym::cst(3))}}));

    interp::Context ctx;
    const auto r = run_ok(sdfg, ctx);
    for (double v : to_vector(r.buffers.at("h"))) EXPECT_GE(v, 1.0e6);
}

TEST(Interpreter, AccessToAccessCopyCopiesSubset) {
    ir::SDFG sdfg("copy");
    sdfg.add_array("a", ir::DType::F64, {sym::cst(6)});
    sdfg.add_array("b", ir::DType::F64, {sym::cst(6)});
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    const ir::NodeId a = st.add_access("a");
    const ir::NodeId b = st.add_access("b");
    st.add_edge(a, "", b, "", Memlet("a", Subset{{Range::span(sym::cst(2), sym::cst(4))}}));

    interp::Context ctx;
    ctx.buffers.emplace("a", make_buffer({1, 2, 3, 4, 5, 6}));
    const auto r = run_ok(sdfg, ctx);
    EXPECT_EQ(to_vector(r.buffers.at("b")), (std::vector<double>{0, 0, 3, 4, 5, 0}));
}

/// Parameterized size sweep: nested tiled-style map equals flat map.
class MapNestingProperty : public ::testing::TestWithParam<int> {};

TEST_P(MapNestingProperty, InnerBoundsFromOuterParam) {
    const int n = GetParam();
    // Triangular write: out[i*(i+1)/2 + j] pattern avoided; instead write
    // out[i] = sum over j in [0, i] of 1 -> i + 1.
    ir::SDFG sdfg("tri");
    sdfg.add_symbol("N");
    sdfg.add_array("out", ir::DType::F64, {sym::symb("N")});
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    const ir::NodeId z = workloads::zero_init(sdfg, st, "out");
    const sym::ExprPtr i = sym::symb("i");
    auto [oe, ox] = st.add_map("outer", {"i"}, {Range::full(sym::symb("N"))});
    auto [ie, ix] = st.add_map("inner", {"j"}, {Range::span(sym::cst(0), i)},
                               ir::Schedule::Sequential);
    const ir::NodeId t = st.add_tasklet("acc", "o = c + 1.0");
    const ir::NodeId out = st.add_access("out");
    st.add_edge(z, "", oe, "", Memlet("out", Subset{{Range::full(sym::symb("N"))}}));
    st.add_edge(oe, "", ie, "", Memlet("out", Subset{{Range::index(i)}}));
    st.add_edge(ie, "", t, "c", Memlet("out", Subset{{Range::index(i)}}));
    st.add_edge(t, "o", ix, "", Memlet("out", Subset{{Range::index(i)}}));
    st.add_edge(ix, "", ox, "", Memlet("out", Subset{{Range::index(i)}}));
    st.add_edge(ox, "", out, "", Memlet("out", Subset{{Range::full(sym::symb("N"))}}));

    interp::Context ctx;
    ctx.symbols["N"] = n;
    const auto r = run_ok(sdfg, ctx);
    for (int k = 0; k < n; ++k) EXPECT_DOUBLE_EQ(r.buffers.at("out").load_double(k), k + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MapNestingProperty, ::testing::Values(1, 2, 3, 5, 8));

TEST(MultiRank, AllgatherConcatenates) {
    ir::SDFG sdfg("gather");
    for (const char* s : {"C", "R"}) sdfg.add_symbol(s);
    sdfg.add_array("loc", ir::DType::F64, {sym::symb("C")});
    sdfg.add_array("glob", ir::DType::F64, {sym::symb("C") * sym::symb("R")});
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    const ir::NodeId in = st.add_access("loc");
    const ir::NodeId comm = st.add_comm(ir::CommKind::Allgather);
    const ir::NodeId out = st.add_access("glob");
    st.add_edge(in, "", comm, "in", Memlet("loc", Subset{{Range::full(sym::symb("C"))}}));
    st.add_edge(comm, "out", out, "",
                Memlet("glob", Subset{{Range::full(sym::symb("C") * sym::symb("R"))}}));

    const int ranks = 3;
    std::vector<interp::Context> ctxs(ranks);
    for (int r = 0; r < ranks; ++r) {
        ctxs[static_cast<std::size_t>(r)].symbols = {{"C", 2}, {"R", ranks}};
        ctxs[static_cast<std::size_t>(r)].buffers.emplace(
            "loc", make_buffer({r * 10.0, r * 10.0 + 1}));
    }
    MultiRankInterpreter multi(ranks);
    const auto result = multi.run(sdfg, ctxs);
    ASSERT_TRUE(result.ok()) << result.message;
    for (int r = 0; r < ranks; ++r) {
        EXPECT_EQ(to_vector(ctxs[static_cast<std::size_t>(r)].buffers.at("glob")),
                  (std::vector<double>{0, 1, 10, 11, 20, 21}));
        EXPECT_EQ(ctxs[static_cast<std::size_t>(r)].symbols.at("rank"), r);
    }
}

TEST(MultiRank, AllreduceSumsAndBroadcastSelectsRoot) {
    ir::SDFG sdfg("reduce");
    sdfg.add_symbol("C");
    sdfg.add_array("x", ir::DType::F64, {sym::symb("C")});
    sdfg.add_array("sum", ir::DType::F64, {sym::symb("C")});
    sdfg.add_array("root_copy", ir::DType::F64, {sym::symb("C")});
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    const ir::NodeId in = st.add_access("x");
    const ir::NodeId ar = st.add_comm(ir::CommKind::Allreduce);
    const ir::NodeId sum = st.add_access("sum");
    const ir::NodeId bc = st.add_comm(ir::CommKind::Broadcast, 1);
    const ir::NodeId rc = st.add_access("root_copy");
    const Subset full{{Range::full(sym::symb("C"))}};
    st.add_edge(in, "", ar, "in", Memlet("x", full));
    st.add_edge(ar, "out", sum, "", Memlet("sum", full));
    st.add_edge(in, "", bc, "in", Memlet("x", full));
    st.add_edge(bc, "out", rc, "", Memlet("root_copy", full));

    std::vector<interp::Context> ctxs(2);
    for (int r = 0; r < 2; ++r) {
        ctxs[static_cast<std::size_t>(r)].symbols = {{"C", 2}};
        ctxs[static_cast<std::size_t>(r)].buffers.emplace(
            "x", make_buffer({1.0 + r, 10.0 + r}));
    }
    MultiRankInterpreter multi(2);
    ASSERT_TRUE(multi.run(sdfg, ctxs).ok());
    EXPECT_EQ(to_vector(ctxs[0].buffers.at("sum")), (std::vector<double>{3, 21}));
    EXPECT_EQ(to_vector(ctxs[0].buffers.at("root_copy")), (std::vector<double>{2, 11}));
    EXPECT_EQ(to_vector(ctxs[1].buffers.at("root_copy")), (std::vector<double>{2, 11}));
}

TEST(MultiRank, SingleRankDegeneratesToIdentity) {
    // The single-rank interpreter treats collectives as copies.
    ir::SDFG sdfg("gather1");
    sdfg.add_symbol("C");
    sdfg.add_array("loc", ir::DType::F64, {sym::symb("C")});
    sdfg.add_array("glob", ir::DType::F64, {sym::symb("C")});
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    const ir::NodeId in = st.add_access("loc");
    const ir::NodeId comm = st.add_comm(ir::CommKind::Allgather);
    const ir::NodeId out = st.add_access("glob");
    const Subset full{{Range::full(sym::symb("C"))}};
    st.add_edge(in, "", comm, "in", Memlet("loc", full));
    st.add_edge(comm, "out", out, "", Memlet("glob", full));

    interp::Context ctx;
    ctx.symbols["C"] = 3;
    ctx.buffers.emplace("loc", make_buffer({7, 8, 9}));
    const auto r = run_ok(sdfg, ctx);
    EXPECT_EQ(to_vector(r.buffers.at("glob")), (std::vector<double>{7, 8, 9}));
}

// --- Compiled execution path -------------------------------------------------

TEST(Interpreter, MemletRangeStepZeroIsError) {
    // for_each_point previously skipped step-0 ranges silently (executing
    // zero iterations); it must raise instead.
    const std::vector<ir::ConcreteRange> ranges{{0, 5, 0}};
    EXPECT_THROW(for_each_point(ranges, [](const std::vector<std::int64_t>&) {}),
                 common::Error);
}

TEST(Interpreter, CompiledMatchesReferenceOnBranchyChain) {
    const ir::SDFG sdfg = make_chain_sdfg("o = i > 0.5 ? i * 2.0 : -i",
                                          "t = i * i; o = t + min(i, 0.25)");
    auto run_with = [&](Tier tier) {
        ExecConfig cfg;
        cfg.tier = tier;
        Interpreter interp(cfg);
        interp::Context ctx;
        ctx.symbols["N"] = 17;
        ctx.buffers.emplace("x", make_buffer({-3, -0.25, 0, 0.25, 0.5, 0.75, 1, 2, 3, 4, 5, 6, 7,
                                              8, 9, 10, 11}));
        EXPECT_TRUE(interp.run(sdfg, ctx).ok());
        return ctx;
    };
    const interp::Context ref = run_with(Tier::Reference);
    const interp::Context fast = run_with(Tier::Batched);
    EXPECT_TRUE(ref.buffers.at("y").bitwise_equal(fast.buffers.at("y")));
}

TEST(Interpreter, CompiledMatchesReferenceOnMatmulNest) {
    ir::SDFG sdfg("mm");
    const sym::ExprPtr m = sym::cst(5), k = sym::cst(4), n = sym::cst(3);
    sdfg.add_array("A", ir::DType::F64, {m, k});
    sdfg.add_array("B", ir::DType::F64, {k, n});
    sdfg.add_array("C", ir::DType::F64, {m, n});
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    const ir::NodeId a = st.add_access("A");
    const ir::NodeId b = st.add_access("B");
    const ir::NodeId c0 = workloads::zero_init(sdfg, st, "C");
    workloads::matmul_nest(sdfg, st, a, b, c0, m, k, n, "mm");

    auto run_with = [&](Tier tier) {
        ExecConfig cfg;
        cfg.tier = tier;
        Interpreter interp(cfg);
        interp::Context ctx;
        interp::Buffer av(ir::DType::F64, {5, 4}), bv(ir::DType::F64, {4, 3});
        for (std::int64_t i = 0; i < av.size(); ++i)
            av.store(i, Value::from_double(0.5 * static_cast<double>(i) - 3.0));
        for (std::int64_t i = 0; i < bv.size(); ++i)
            bv.store(i, Value::from_double(0.25 * static_cast<double>(i % 5) - 0.5));
        ctx.buffers.emplace("A", std::move(av));
        ctx.buffers.emplace("B", std::move(bv));
        EXPECT_TRUE(interp.run(sdfg, ctx).ok());
        return ctx;
    };
    const interp::Context ref = run_with(Tier::Reference);
    const interp::Context fast = run_with(Tier::Batched);
    EXPECT_TRUE(ref.buffers.at("C").bitwise_equal(fast.buffers.at("C")));
}

TEST(Interpreter, PassthroughOutputForwardsPreExecutionSnapshot) {
    // Connector 'p' is bound by an edge but never mentioned by the program:
    // the out-edge forwarding it must see the values gathered *before* the
    // tasklet ran — even though an earlier out-edge overwrites the same
    // container — on both engines.
    ir::SDFG sdfg("pass");
    sdfg.add_array("x", ir::DType::F64, {sym::cst(1)});
    sdfg.add_array("y", ir::DType::F64, {sym::cst(1)});
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    const ir::NodeId xin = st.add_access("x");
    const ir::NodeId t = st.add_tasklet("t", "o = 42.0");
    const ir::NodeId xout = st.add_access("x");
    const ir::NodeId yout = st.add_access("y");
    const Subset first{{Range::index(sym::cst(0))}};
    st.add_edge(xin, "", t, "p", Memlet("x", first));
    st.add_edge(t, "o", xout, "", Memlet("x", first));  // overwrites x[0] first
    st.add_edge(t, "p", yout, "", Memlet("y", first));  // then forwards p

    for (const Tier tier : {Tier::Reference, Tier::Batched}) {
        ExecConfig cfg;
        cfg.tier = tier;
        Interpreter interp(cfg);
        interp::Context ctx;
        ctx.buffers.emplace("x", make_buffer({7.0}));
        const ExecResult r = interp.run(sdfg, ctx);
        ASSERT_TRUE(r.ok()) << r.message;
        EXPECT_DOUBLE_EQ(ctx.buffers.at("x").load_double(0), 42.0) << ff::testing::tier_name(tier);
        EXPECT_DOUBLE_EQ(ctx.buffers.at("y").load_double(0), 7.0) << ff::testing::tier_name(tier);
    }
}

TEST(Interpreter, CompiledSteadyStateAllocationsAreSizeIndependent) {
    // Acceptance check for the compiled engine: once plans, buffers and
    // scratch are warm, a full re-execution performs only a constant number
    // of heap allocations (one per scope for saved bindings and the first
    // parameter-symbol insert) — none per map point.
    auto warm_run_allocations = [](std::int64_t n) {
        const ir::SDFG sdfg = make_chain_sdfg();
        Interpreter interp;  // compiled engine is the default
        interp::Context ctx;
        ctx.symbols["N"] = n;
        ctx.buffers.emplace("x",
                            make_buffer(std::vector<double>(static_cast<std::size_t>(n), 1.5)));
        EXPECT_TRUE(interp.run(sdfg, ctx).ok());  // warm-up: plans + buffers + scratch
        g_allocation_count.store(0);
        g_count_allocations.store(true);
        const ExecResult r = interp.run(sdfg, ctx);
        g_count_allocations.store(false);
        EXPECT_TRUE(r.ok()) << r.message;
        return g_allocation_count.load();
    };
    const std::size_t small = warm_run_allocations(8);
    const std::size_t large = warm_run_allocations(512);
    EXPECT_EQ(small, large) << "per-map-point allocation detected";
    EXPECT_LE(large, 16u);
}

}  // namespace
}  // namespace ff::interp

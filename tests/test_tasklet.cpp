#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "interp/tasklet_lang.h"

namespace ff::interp {
namespace {

Value run_scalar(const std::string& code, ConnectorEnv env, const std::string& out = "o") {
    const auto prog = TaskletProgram::parse(code);
    prog->execute(env);
    return env.at(out).at(0);
}

ConnectorEnv env1(const std::string& name, double v) {
    return ConnectorEnv{{name, {Value::from_double(v)}}};
}

TEST(Tasklet, Arithmetic) {
    EXPECT_DOUBLE_EQ(run_scalar("o = a * 2.0 + 1.0", env1("a", 3)).as_double(), 7.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = a - 10.0", env1("a", 3)).as_double(), -7.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = -a", env1("a", 3)).as_double(), -3.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = a / 4.0", env1("a", 3)).as_double(), 0.75);
}

TEST(Tasklet, IntegerSemantics) {
    // int / int is floor division; int + int stays integer.
    ConnectorEnv env{{"a", {Value::from_int(-7)}}};
    const Value v = run_scalar("o = a / 2", env);
    EXPECT_FALSE(v.is_float);
    EXPECT_EQ(v.i, -4);
    const Value m = run_scalar("o = a % 3", env);
    EXPECT_EQ(m.i, 2);
}

TEST(Tasklet, MixedPromotesToDouble) {
    ConnectorEnv env{{"a", {Value::from_int(3)}}};
    const Value v = run_scalar("o = a / 2.0", env);
    EXPECT_TRUE(v.is_float);
    EXPECT_DOUBLE_EQ(v.f, 1.5);
}

TEST(Tasklet, ComparisonAndTernary) {
    EXPECT_DOUBLE_EQ(run_scalar("o = a > 0 ? a : 0", env1("a", 5)).as_double(), 5.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = a > 0 ? a : 0", env1("a", -5)).as_double(), 0.0);
    EXPECT_EQ(run_scalar("o = a <= 3.0", env1("a", 3)).as_int(), 1);
    EXPECT_EQ(run_scalar("o = a != 3.0", env1("a", 3)).as_int(), 0);
}

TEST(Tasklet, LogicalShortCircuit) {
    // Division by zero in the unevaluated branch must not fire.
    ConnectorEnv env{{"a", {Value::from_double(0)}}};
    EXPECT_EQ(run_scalar("o = a != 0.0 && 1.0 / a > 0.0", env).as_int(), 0);
    EXPECT_EQ(run_scalar("o = a == 0.0 || 1.0 / a > 0.0", env).as_int(), 1);
}

TEST(Tasklet, Functions) {
    EXPECT_DOUBLE_EQ(run_scalar("o = min(a, 2.0)", env1("a", 5)).as_double(), 2.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = max(a, 2.0)", env1("a", 5)).as_double(), 5.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = abs(a)", env1("a", -3)).as_double(), 3.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = sqrt(a)", env1("a", 16)).as_double(), 4.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = exp(a)", env1("a", 0)).as_double(), 1.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = pow(a, 3.0)", env1("a", 2)).as_double(), 8.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = floor(a)", env1("a", 2.7)).as_double(), 2.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = ceil(a)", env1("a", 2.1)).as_double(), 3.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = select(a > 1.0, 10.0, 20.0)", env1("a", 2)).as_double(),
                     10.0);
    EXPECT_NEAR(run_scalar("o = tanh(a)", env1("a", 0.5)).as_double(), std::tanh(0.5), 1e-15);
}

TEST(Tasklet, MultiStatementAndLocals) {
    // `t` is assigned before use: a local, not an input connector.
    const auto prog = TaskletProgram::parse("t = a * 2.0; o = t + a");
    EXPECT_EQ(prog->reads().size(), 1u);
    EXPECT_TRUE(prog->reads().count("a"));
    EXPECT_TRUE(prog->writes().count("t"));
    EXPECT_TRUE(prog->writes().count("o"));
    ConnectorEnv env = env1("a", 3);
    prog->execute(env);
    EXPECT_DOUBLE_EQ(env.at("o").at(0).as_double(), 9.0);
}

TEST(Tasklet, VectorLanes) {
    const auto prog = TaskletProgram::parse("o[0] = a[0] * s; o[1] = a[1] * s");
    EXPECT_EQ(prog->reads().at("a"), 2);
    EXPECT_EQ(prog->reads().at("s"), 1);
    EXPECT_EQ(prog->writes().at("o"), 2);
    ConnectorEnv env{{"a", {Value::from_double(1), Value::from_double(2)}},
                     {"s", {Value::from_double(10)}}};
    prog->execute(env);
    EXPECT_DOUBLE_EQ(env.at("o").at(0).as_double(), 10.0);
    EXPECT_DOUBLE_EQ(env.at("o").at(1).as_double(), 20.0);
}

TEST(Tasklet, ReadAfterOwnWrite) {
    ConnectorEnv env = env1("a", 4);
    const auto prog = TaskletProgram::parse("o = a; o = o * o");
    prog->execute(env);
    EXPECT_DOUBLE_EQ(env.at("o").at(0).as_double(), 16.0);
}

TEST(Tasklet, MissingInputThrows) {
    const auto prog = TaskletProgram::parse("o = a + b");
    ConnectorEnv env = env1("a", 1);
    EXPECT_THROW(prog->execute(env), common::Error);
}

TEST(Tasklet, ParseErrors) {
    EXPECT_THROW(TaskletProgram::parse(""), common::ParseError);
    EXPECT_THROW(TaskletProgram::parse("o ="), common::ParseError);
    EXPECT_THROW(TaskletProgram::parse("= a"), common::ParseError);
    EXPECT_THROW(TaskletProgram::parse("o = frobnicate(a)"), common::ParseError);
    EXPECT_THROW(TaskletProgram::parse("o = a +* b"), common::ParseError);
    EXPECT_THROW(TaskletProgram::parse("o = a[b]"), common::ParseError);  // non-const lane
}

TEST(Tasklet, ScientificNotation) {
    EXPECT_DOUBLE_EQ(run_scalar("o = a * 1e-5", env1("a", 2)).as_double(), 2e-5);
    EXPECT_DOUBLE_EQ(run_scalar("o = a + 1.5e2", env1("a", 0)).as_double(), 150.0);
}

/// Parameterized sweep: relu behaves like max(0, x) across signs.
class ReluProperty : public ::testing::TestWithParam<double> {};

TEST_P(ReluProperty, TernaryMatchesMax) {
    const double x = GetParam();
    const double relu = run_scalar("o = a > 0 ? a : 0", env1("a", x)).as_double();
    const double via_max = run_scalar("o = max(a, 0.0)", env1("a", x)).as_double();
    EXPECT_DOUBLE_EQ(relu, via_max);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReluProperty,
                         ::testing::Values(-10.0, -0.5, 0.0, 0.25, 3.0, 1e9, -1e9));

// --- Compiled engine (bytecode VM) -----------------------------------------

Value run_compiled(const std::string& code, ConnectorEnv env, const std::string& out = "o") {
    const auto prog = TaskletProgram::parse(code);
    prog->execute_compiled(env);
    return env.at(out).at(0);
}

TEST(TaskletCompiled, MatchesHandPickedCases) {
    EXPECT_DOUBLE_EQ(run_compiled("o = a * 2.0 + 1.0", env1("a", 3)).as_double(), 7.0);
    EXPECT_DOUBLE_EQ(run_compiled("o = a > 0 ? a : 0", env1("a", -5)).as_double(), 0.0);
    EXPECT_DOUBLE_EQ(run_compiled("t = a * 2.0; o = t + a", env1("a", 3)).as_double(), 9.0);
    // Integer floor semantics survive compilation.
    ConnectorEnv env{{"a", {Value::from_int(-7)}}};
    const Value v = run_compiled("o = a / 2", env);
    EXPECT_FALSE(v.is_float);
    EXPECT_EQ(v.i, -4);
}

TEST(TaskletCompiled, ShortCircuitViaJumps) {
    ConnectorEnv env{{"a", {Value::from_double(0)}}};
    EXPECT_EQ(run_compiled("o = a != 0.0 && 1.0 / a > 0.0", env).as_int(), 0);
    EXPECT_EQ(run_compiled("o = a == 0.0 || 1.0 / a > 0.0", env).as_int(), 1);
    // An int division by zero in the untaken branch must not fire.
    ConnectorEnv kenv{{"k", {Value::from_int(0)}}};
    EXPECT_EQ(run_compiled("o = k != 0 && 5 / k > 0", kenv).as_int(), 0);
}

TEST(TaskletCompiled, ConstantFoldingPreservesCrashes) {
    // 5 / 0 (int) throws at runtime in the reference engine; folding must
    // not turn it into a compile-time error or a silent value.
    const auto prog = TaskletProgram::parse("o = a + 5 / 0");
    ConnectorEnv env = env1("a", 1);
    EXPECT_THROW(prog->execute(env), common::Error);
    ConnectorEnv env2 = env1("a", 1);
    EXPECT_THROW(prog->execute_compiled(env2), common::Error);
}

TEST(TaskletCompiled, UnboundLocalLaneTraps) {
    // t[1] is never assigned and t is not an input: both engines throw the
    // same unbound-connector error.
    const auto prog = TaskletProgram::parse("t[0] = a; o = t[1]");
    ConnectorEnv env1_ = env1("a", 1);
    EXPECT_THROW(prog->execute(env1_), common::Error);
    ConnectorEnv env2 = env1("a", 1);
    EXPECT_THROW(prog->execute_compiled(env2), common::Error);
    EXPECT_EQ(prog->trap_connectors().size(), 1u);
    EXPECT_EQ(prog->trap_connectors()[0], "t");
}

TEST(TaskletCompiled, MissingInputThrows) {
    const auto prog = TaskletProgram::parse("o = a + b");
    ConnectorEnv env = env1("a", 1);
    EXPECT_THROW(prog->execute_compiled(env), common::Error);
}

// --- Differential property test: every engine and representation ---------
//
// Randomly generated programs over mixed int/float connectors must agree
// between the reference AST evaluator and the tagged bytecode VM on every
// output lane — including int/float promotion, floor division/modulo edge
// cases, NaNs and crashes.  Programs with an untagged variant must also
// agree between the tagged VM and the untagged representation, run one lane
// at a time and, for straight-line programs, as one multi-lane batch.

struct ProgramGen {
    common::Rng rng;
    std::vector<std::string> readable;  // expressions valid as loads
    /// No float constants or float-valued functions, so expressions over the
    /// int connectors stay integer-tagged and exercise the tagged VM's
    /// integer paths (floor division and modulo, division by zero).
    bool ints_only = false;

    explicit ProgramGen(std::uint64_t seed) : rng(seed) {}

    std::string constant() {
        switch (rng.uniform_int(0, ints_only ? 1 : 5)) {
            case 0: return std::to_string(rng.uniform_int(0, 7));          // small int
            case 1: return std::to_string(rng.uniform_int(0, 2));          // 0/1/2: div/mod edges
            case 2: return "2.0";
            case 3: return "0.5";
            case 4: return "0.0";
            default: return std::to_string(rng.uniform_int(1, 9)) + ".25";
        }
    }

    std::string leaf() {
        if (!readable.empty() && rng.chance(0.6))
            return readable[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(readable.size()) - 1))];
        return constant();
    }

    std::string expr(int depth) {
        if (depth <= 0 || rng.chance(0.25)) return leaf();
        static const char* const kInfix[] = {"+", "-",  "*",  "/",  "%",  "<",  ">",
                                             "<=", ">=", "==", "!=", "&&", "||"};
        static const char* const kFloatFns[] = {"floor", "ceil", "exp", "log",
                                                "sqrt",  "sin",  "cos", "tanh"};
        const auto sub = [&] { return expr(depth - 1); };
        // The float-valued operators come last, so ints_only cuts them off.
        const std::int64_t op = rng.uniform_int(0, ints_only ? 19 : 28);
        if (op < 13) {
            const std::string a = sub();
            return "(" + a + " " + kInfix[op] + " " + sub() + ")";
        }
        switch (op) {
            case 13: return "(-" + leaf() + ")";
            case 14: return "(!" + sub() + ")";
            case 15: {
                const std::string c = sub();
                const std::string a = sub();
                return "(" + c + " ? " + a + " : " + sub() + ")";
            }
            case 16: {
                const std::string c = sub();
                const std::string a = sub();
                return "select(" + c + ", " + a + ", " + sub() + ")";
            }
            case 17: {
                const std::string a = sub();
                return "min(" + a + ", " + sub() + ")";
            }
            case 18: {
                const std::string a = sub();
                return "max(" + a + ", " + sub() + ")";
            }
            case 19: return "abs(" + sub() + ")";
            case 20: {
                const std::string a = sub();
                return "pow(" + a + ", " + sub() + ")";
            }
            default: return std::string(kFloatFns[op - 21]) + "(" + sub() + ")";
        }
    }

    /// Returns tasklet code; fills `env` with the input connectors.
    std::string generate(ConnectorEnv& env) {
        readable = {"a", "b", "k", "m", "v[0]", "v[1]"};
        env["a"] = {Value::from_double(rng.uniform_double(-4, 4))};
        env["b"] = {rng.chance(0.2) ? Value::from_double(0.0)
                                    : Value::from_double(rng.uniform_double(-4, 4))};
        env["k"] = {Value::from_int(rng.uniform_int(-5, 5))};
        env["m"] = {rng.chance(0.3) ? Value::from_int(0) : Value::from_int(rng.uniform_int(-3, 3))};
        env["v"] = {Value::from_double(rng.uniform_double(-2, 2)),
                    Value::from_double(rng.uniform_double(-2, 2))};

        std::string code;
        const int stmts = static_cast<int>(rng.uniform_int(1, 3));
        for (int s = 0; s < stmts; ++s) {
            const std::string local = "t" + std::to_string(s);
            code += local + " = " + expr(3) + "; ";
            readable.push_back(local);
        }
        code += "o = " + expr(3);
        if (rng.chance(0.3)) code += "; w[0] = " + expr(2) + "; w[1] = " + expr(2);
        return code;
    }

    /// Inputs for an untagged run: every lane a double, with both signed
    /// zeros common enough to reach the division, modulo and min/max edge
    /// cases.
    ConnectorEnv untagged_inputs() {
        const auto value = [&] {
            if (rng.chance(0.25)) return Value::from_double(rng.chance(0.5) ? 0.0 : -0.0);
            return Value::from_double(rng.uniform_double(-4, 4));
        };
        ConnectorEnv env;
        for (const char* name : {"a", "b", "k", "m"}) env[name] = {value()};
        const Value v0 = value();
        env["v"] = {v0, value()};
        return env;
    }
};

bool values_equal(const Value& x, const Value& y) {
    if (x.is_float != y.is_float) return false;
    if (x.is_float) {
        if (std::isnan(x.f) && std::isnan(y.f)) return true;
        return std::memcmp(&x.f, &y.f, sizeof(double)) == 0;
    }
    return x.i == y.i;
}

/// Slot columns of `envs` for the untagged double representation — lane j
/// of slot s at s*n + j — laid out as execute_compiled lays out one env.
std::vector<double> slot_columns(const TaskletProgram& prog,
                                 const std::vector<ConnectorEnv>& envs) {
    const std::size_t n = envs.size();
    std::vector<double> cols(static_cast<std::size_t>(prog.slot_count()) * n, 0.0);
    for (std::size_t j = 0; j < n; ++j)
        for (const SlotDesc& sd : prog.slot_table()) {
            const auto it = envs[j].find(sd.name);
            if (it == envs[j].end()) continue;
            const std::size_t lanes =
                std::min(it->second.size(), static_cast<std::size_t>(sd.width));
            for (std::size_t l = 0; l < lanes; ++l)
                cols[(static_cast<std::size_t>(sd.base) + l) * n + j] = it->second[l].f;
        }
    return cols;
}

/// Runs `prog`'s untagged double representation over `envs`, one lane at a
/// time and — for straight-line programs — as one batch, against the tagged
/// VM on each lane: every output lane must store the same bits (NaN
/// payloads excepted) and every error must carry the same message.  Returns
/// whether the batch ran.
bool expect_untagged_agree(const TaskletProgram& prog, const std::vector<ConnectorEnv>& envs) {
    const std::size_t n = envs.size();
    std::vector<ConnectorEnv> tagged = envs;
    std::vector<std::string> errors(n);
    for (std::size_t j = 0; j < n; ++j) {
        try {
            prog.execute_compiled(tagged[j]);
        } catch (const common::Error& e) {
            errors[j] = e.what();
        }
    }
    // Lane j of `cols` (n lanes per column) against the tagged run: the
    // double stores the tagged value's as_double().
    const auto expect_lane = [&](const std::vector<double>& cols, std::size_t lanes,
                                 std::size_t j, std::size_t col_lane, const std::string& what) {
        for (const auto& [name, width] : prog.writes()) {
            const SlotDesc* sd = nullptr;
            for (const SlotDesc& d : prog.slot_table())
                if (d.name == name) sd = &d;
            ASSERT_NE(sd, nullptr) << name;
            for (int l = 0; l < width; ++l) {
                const Value& want = tagged[j].at(name)[static_cast<std::size_t>(l)];
                const double got =
                    cols[static_cast<std::size_t>(sd->base + l) * lanes + col_lane];
                EXPECT_TRUE(values_equal(Value::from_double(want.as_double()),
                                         Value::from_double(got)))
                    << what << " lane " << j << ": " << name << "[" << l
                    << "] tagged=" << want.as_double() << " untagged=" << got;
            }
        }
    };

    std::vector<double> regs(static_cast<std::size_t>(prog.reg_count()) * n);
    for (std::size_t j = 0; j < n; ++j) {
        std::vector<double> slots = slot_columns(prog, {envs[j]});
        std::string error;
        try {
            prog.run_vm(slots.data(), regs.data());
        } catch (const common::Error& e) {
            error = e.what();
        }
        EXPECT_EQ(error, errors[j]) << "scalar lane " << j;
        if (error.empty() && errors[j].empty()) expect_lane(slots, 1, j, 0, "scalar");
    }
    if (!prog.is_straightline()) return false;

    std::vector<double> cols = slot_columns(prog, envs);
    std::string error;
    try {
        prog.run_vm<double, true>(cols.data(), regs.data(), static_cast<std::int64_t>(n));
    } catch (const common::Error& e) {
        error = e.what();
    }
    bool any_error = false;
    for (const std::string& e : errors) any_error = any_error || !e.empty();
    if (any_error) {
        // The batch runs instruction by instruction across lanes, so it
        // raises the first failing instruction's error of some lane.
        EXPECT_FALSE(error.empty()) << "a lane throws but the batch did not";
        EXPECT_NE(std::find(errors.begin(), errors.end(), error), errors.end())
            << "batch raised '" << error << "'";
        return true;
    }
    EXPECT_EQ(error, "");
    for (std::size_t j = 0; j < n; ++j) expect_lane(cols, n, j, j, "batch");
    return true;
}

TEST(TaskletDifferential, RandomProgramsAgreeAcrossEngines) {
    constexpr std::size_t kLanes = 5;
    int crashes = 0, f64_runs = 0, batch_runs = 0;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
        ProgramGen gen(0xFACADE + seed);
        gen.ints_only = seed % 3 == 2;
        ConnectorEnv inputs;
        const std::string code = gen.generate(inputs);
        SCOPED_TRACE("seed=" + std::to_string(seed) + " code: " + code);

        const auto prog = TaskletProgram::parse(code);

        if (prog->has_f64_variant()) {
            std::vector<ConnectorEnv> lanes;
            for (std::size_t j = 0; j < kLanes; ++j) lanes.push_back(gen.untagged_inputs());
            batch_runs += expect_untagged_agree(*prog, lanes) ? 1 : 0;
            ++f64_runs;
        }

        ConnectorEnv ref_env = inputs;
        ConnectorEnv vm_env = inputs;
        bool ref_threw = false, vm_threw = false;
        std::string ref_msg, vm_msg;
        try {
            prog->execute(ref_env);
        } catch (const common::Error& e) {
            ref_threw = true;
            ref_msg = e.what();
        }
        try {
            prog->execute_compiled(vm_env);
        } catch (const common::Error& e) {
            vm_threw = true;
            vm_msg = e.what();
        }

        ASSERT_EQ(ref_threw, vm_threw) << "ref: " << ref_msg << " vm: " << vm_msg;
        if (ref_threw) {
            ++crashes;
            EXPECT_EQ(ref_msg, vm_msg);
            continue;
        }
        for (const auto& [name, width] : prog->writes()) {
            ASSERT_TRUE(vm_env.count(name)) << "missing output " << name;
            const auto& rv = ref_env.at(name);
            const auto& vv = vm_env.at(name);
            ASSERT_GE(vv.size(), static_cast<std::size_t>(width));
            for (int lane = 0; lane < width; ++lane)
                EXPECT_TRUE(values_equal(rv[static_cast<std::size_t>(lane)],
                                         vv[static_cast<std::size_t>(lane)]))
                    << name << "[" << lane << "]: ref=" << rv[static_cast<std::size_t>(lane)]
                           .as_double()
                    << " vm=" << vv[static_cast<std::size_t>(lane)].as_double();
        }
    }
    // The generator intentionally produces some int-div-by-zero crashes;
    // they must not dominate (the value-comparison path is the point).
    EXPECT_LT(crashes, 200);
    // Both representations and both lane modes are actually exercised.
    EXPECT_GE(f64_runs, 100);
    EXPECT_GE(batch_runs, 50);
}

}  // namespace
}  // namespace ff::interp

// Reproducer serialization: "a fully reproducible, minimal test case
// including inputs that can aid in debugging transformations" (Sec. 1).
//
// A test case bundles the original cutout, its transformed counterpart, the
// system-state container list, and the exact failing input configuration
// (symbols + buffers).  Loading it back allows re-running the failing trial
// on a workstation without the original application.
#pragma once

#include <set>
#include <string>

#include "common/json.h"
#include "core/cutout.h"
#include "core/diff_test.h"
#include "interp/interpreter.h"

namespace ff::core {

struct FuzzReport;   // fuzzer.h
struct TrialRecord;  // report.h

common::Json buffer_to_json(const interp::Buffer& buffer);
/// Throws common::ParseError, naming `name`, unless the data holds exactly
/// the shape's element count.
interp::Buffer buffer_from_json(const common::Json& j, const std::string& name = "buffer");

common::Json context_to_json(const interp::Context& ctx);
interp::Context context_from_json(const common::Json& j);

/// Wire form of one trial slot (the unit of the sharded-audit record
/// stream, src/shard): kind, and for failing trials the verdict, detail and
/// exact inputs — everything merge_trial_records and artifact saving read.
/// Lossless: record -> JSON -> record round-trips byte-identically
/// (tests/test_shard.cpp).
common::Json trial_record_to_json(const TrialRecord& record);
TrialRecord trial_record_from_json(const common::Json& j);

/// Wire form of a merged per-instance report.  Wall-clock fields
/// (`seconds`, `trials_per_second`, `threads`) are serialized too — callers
/// that need the canonical (machine-independent) form zero them first, see
/// shard::canonicalize_report.
common::Json fuzz_report_to_json(const FuzzReport& report);
FuzzReport fuzz_report_from_json(const common::Json& j);

/// `exec` holds the budgets the trial ran under.  Each one the job set — a
/// transition budget other than the interpreter default, a point or an
/// allocation budget — is recorded, so a replay runs under the same
/// budgets; a reproducer of an unbudgeted job records none.
common::Json testcase_to_json(const Cutout& cutout, const ir::SDFG& transformed,
                              const interp::Context& inputs, const std::string& transformation,
                              const std::string& verdict, const std::string& detail,
                              const interp::ExecConfig& exec);

struct LoadedTestCase {
    ir::SDFG original;
    ir::SDFG transformed;
    interp::Context inputs;
    std::set<std::string> system_state;
    std::string transformation;
    std::string verdict;
    std::string detail;
    /// Recorded budgets (see testcase_to_json); 0 = not recorded.
    std::int64_t max_state_transitions = 0;
    std::int64_t max_points = 0;
    std::int64_t max_alloc_bytes = 0;
};

/// Throws common::ParseError on a malformed document (a recorded budget
/// must be a positive integer) and
/// common::ValidationError when the original program fails ir::validate.
LoadedTestCase testcase_from_json(const common::Json& j);

/// Reads and parses a test-case JSON file; throws common::Error (unreadable
/// file), common::ParseError (malformed JSON) or common::ValidationError
/// (an invalid original program).  The single loader path shared by
/// `ffaudit replay` and examples/replay_testcase.
LoadedTestCase load_testcase_file(const std::string& path);

/// Outcome of re-running a loaded test case through a fresh differential
/// tester.
struct ReplayResult {
    TrialOutcome outcome;     ///< The replayed trial's verdict + detail.
    bool reproduced = false;  ///< Replayed verdict matches the recorded one.
};

/// Replays `tc` (both sides, differential comparison) under its recorded
/// budgets — `config`'s stand for the ones it did not record — and checks
/// the verdict against the recorded one.
ReplayResult replay_testcase(const LoadedTestCase& tc, DiffConfig config = {});

/// Writes the test case, with the budgets of `exec`, into `dir` with a
/// content-derived filename; returns the path.  On I/O failure returns ""
/// and, when `error` is non-null, stores a description there (the fuzzer
/// surfaces it as FuzzReport::artifact_error) — an empty return is never
/// silent.
std::string save_testcase_artifact(const std::string& dir, const Cutout& cutout,
                                   const ir::SDFG& transformed, const interp::Context& inputs,
                                   const FuzzReport& report, const interp::ExecConfig& exec,
                                   std::string* error = nullptr);

}  // namespace ff::core

// Golden-trace regression tests: every grid cell's digest must match the
// checked-in goldens file (`ctest -R golden`). A failure means simulator or
// TCP-stack behavior drifted; if the change is intended, re-record with
// `tools/ccas_check record` and review the summary-field diff.
//
// The suite name is lowercase so `ctest -R golden` selects exactly these.
#include "src/check/golden.h"

#include <gtest/gtest.h>

#include <string>

#include "src/harness/runner.h"
#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"

namespace ccas::check {
namespace {

TEST(golden, GridIsStableAndUnique) {
  const std::vector<GoldenCell> grid = golden_grid();
  ASSERT_FALSE(grid.empty());
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_FALSE(grid[i].name.empty());
    for (size_t j = i + 1; j < grid.size(); ++j) {
      EXPECT_NE(grid[i].name, grid[j].name) << "duplicate cell name";
    }
  }
}

TEST(golden, FormatParsesRoundTrip) {
  GoldenRecord a;
  a.name = "cell-a";
  a.digest = 0x0123456789abcdefULL;
  a.aggregate_goodput_bps = 1.25e8;
  a.utilization = 0.937;
  a.dropped_packets = 42;
  a.congestion_events = 7;
  a.sim_events = 123456;
  a.flows = 4;
  GoldenRecord b;
  b.name = "cell-b";
  b.digest = 0xffffffffffffffffULL;
  const std::string text = format_goldens({a, b});
  const std::vector<GoldenRecord> parsed = parse_goldens(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].name, a.name);
  EXPECT_EQ(parsed[0].digest, a.digest);
  EXPECT_DOUBLE_EQ(parsed[0].aggregate_goodput_bps, a.aggregate_goodput_bps);
  EXPECT_DOUBLE_EQ(parsed[0].utilization, a.utilization);
  EXPECT_EQ(parsed[0].dropped_packets, a.dropped_packets);
  EXPECT_EQ(parsed[0].congestion_events, a.congestion_events);
  EXPECT_EQ(parsed[0].sim_events, a.sim_events);
  EXPECT_EQ(parsed[0].flows, a.flows);
  EXPECT_EQ(parsed[1].digest, b.digest);
  // Round-trip must be byte-stable: format(parse(format(x))) == format(x).
  EXPECT_EQ(format_goldens(parsed), text);
}

TEST(golden, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)parse_goldens("cell deadbeef 1.0 0.5 1 2 3"),
               std::runtime_error);  // missing field + no version tag
  EXPECT_THROW(
      (void)parse_goldens("# ccas-golden-v1\ncell notahexdigest 1 0.5 1 2 3 4"),
      std::runtime_error);
  EXPECT_THROW((void)parse_goldens("cell 00000000000000aa 1 0.5 1 2 3 4"),
               std::runtime_error);  // records without a version tag
  EXPECT_TRUE(parse_goldens("").empty());
  EXPECT_TRUE(parse_goldens("# just a comment\n").empty());
}

TEST(golden, CompareFlagsMismatchMissingAndUnknown) {
  GoldenRecord exp;
  exp.name = "cell";
  exp.digest = 1;
  GoldenRecord act = exp;
  EXPECT_TRUE(compare_goldens({exp}, {act}).ok);

  act.digest = 2;
  const GoldenDiff mismatch = compare_goldens({exp}, {act});
  EXPECT_FALSE(mismatch.ok);
  EXPECT_NE(mismatch.report.find("MISMATCH"), std::string::npos);

  EXPECT_FALSE(compare_goldens({exp}, {}).ok);
  EXPECT_FALSE(compare_goldens({}, {act}).ok);
}

// The acceptance check: recompute every grid cell (auditor on — a golden
// recorded under a violated invariant would be worthless) and compare the
// digests against the checked-in file.
TEST(golden, GridMatchesCheckedInDigests) {
  std::vector<GoldenRecord> expected;
  try {
    expected = load_goldens(CCAS_GOLDENS_FILE);
  } catch (const std::exception& e) {
    FAIL() << "cannot load goldens (" << e.what()
           << "); run `tools/ccas_check record` once to create them";
  }
  ASSERT_FALSE(expected.empty());

  std::vector<GoldenRecord> actual;
  for (const GoldenCell& cell : golden_grid()) {
    ExperimentSpec spec = cell.spec;
    spec.audit = true;
    const ExperimentResult result = run_experiment(spec);
    actual.push_back(make_golden_record(cell.name, cell.spec, result));
  }
  const GoldenDiff diff = compare_goldens(expected, actual);
  EXPECT_TRUE(diff.ok) << diff.report
                       << "re-record with `tools/ccas_check record` if this "
                          "behavior change is intended";
}

// The inert `shards` field (experiment.h): the spec hash appends it only
// when it is not 1, so recorded goldens and the on-disk result cache keep
// their keys, and a spec that still carries shards > 1 (perfbench's
// core-mix-sh3) runs serially to the same result bytes.
TEST(golden, ShardsFieldKeepsSerialSpecBytes) {
  for (const GoldenCell& cell : golden_grid()) {
    ExperimentSpec spec = cell.spec;
    spec.shards = 1;
    ASSERT_EQ(sweep::canonical_spec_bytes(spec),
              sweep::canonical_spec_bytes(cell.spec))
        << cell.name << ": shards=1 changed the canonical spec bytes";
    spec.shards = 2;
    ASSERT_NE(sweep::canonical_spec_bytes(spec),
              sweep::canonical_spec_bytes(cell.spec))
        << cell.name << ": shards=2 must be visible in the canonical spec";
  }

  // The result bytes ignore the field: checked on the cheapest golden cell
  // (fewest recorded events).
  const std::vector<GoldenRecord> expected = load_goldens(CCAS_GOLDENS_FILE);
  ASSERT_FALSE(expected.empty());
  const GoldenRecord* smallest = &expected.front();
  for (const GoldenRecord& r : expected) {
    if (r.sim_events < smallest->sim_events) smallest = &r;
  }
  for (const GoldenCell& cell : golden_grid()) {
    if (cell.name != smallest->name) continue;
    ExperimentSpec spec = cell.spec;
    spec.shards = 3;
    EXPECT_EQ(sweep::serialize_result(run_experiment(spec)),
              sweep::serialize_result(run_experiment(cell.spec)))
        << cell.name << ": shards=3 changed the result bytes";
    return;
  }
  FAIL() << "no golden cell named " << smallest->name;
}

// Differential check for the qdisc refactor: routing a pre-qdisc cell
// through an explicit `--qdisc drop-tail` must be a perfect no-op — same
// canonical spec bytes (the hash gates the qdisc block on an AQM being
// selected) and the same digest as the checked-in golden. This pins the
// DropTailQueue-under-QueueDisc path to the historical byte stream.
TEST(golden, ExplicitDropTailMatchesPreQdiscDigests) {
  const std::vector<GoldenRecord> expected = load_goldens(CCAS_GOLDENS_FILE);
  auto find = [&](const std::string& name) -> const GoldenRecord* {
    for (const GoldenRecord& r : expected) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  size_t checked = 0;
  for (const GoldenCell& cell : golden_grid()) {
    if (cell.spec.scenario.net.qdisc.enabled()) continue;  // AQM cells
    // Pin the drop-tail config explicitly — including a qdisc seed, which
    // must be inert while the scheduler is drop-tail — and check the
    // canonical spec bytes (what `--qdisc drop-tail` parses to) are
    // unchanged from the implicit default.
    ExperimentSpec spec = cell.spec;
    spec.scenario.net.qdisc.kind = QdiscKind::kDropTail;
    spec.scenario.net.qdisc.seed = 0xFEEDFACE;  // ignored: qdisc disabled
    ASSERT_EQ(sweep::canonical_spec_bytes(spec),
              sweep::canonical_spec_bytes(cell.spec))
        << cell.name << ": explicit drop-tail changed the canonical spec";
    // And the run itself must reproduce the checked-in digest.
    const GoldenRecord* exp = find(cell.name);
    ASSERT_NE(exp, nullptr) << cell.name;
    spec.audit = true;
    const ExperimentResult result = run_experiment(spec);
    EXPECT_EQ(make_golden_record(cell.name, cell.spec, result).digest,
              exp->digest)
        << cell.name << ": --qdisc drop-tail drifted from the pre-qdisc digest";
    ++checked;
  }
  EXPECT_EQ(checked, 12u) << "expected the 12 drop-tail golden cells";
}

// Differential check for the workload stage: stripping the (disabled-by-
// default) workload block from every pre-workload cell is a perfect no-op
// — identical canonical spec bytes and the checked-in digest. This pins
// the invariant that a disabled WorkloadSpec leaves all pre-workload
// golden digests byte-identical.
TEST(golden, DisabledWorkloadMatchesPreWorkloadDigests) {
  const std::vector<GoldenRecord> expected = load_goldens(CCAS_GOLDENS_FILE);
  auto find = [&](const std::string& name) -> const GoldenRecord* {
    for (const GoldenRecord& r : expected) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  size_t checked = 0;
  for (const GoldenCell& cell : golden_grid()) {
    if (cell.spec.workload.enabled()) continue;  // the workload cells
    // An inert workload block (cap set, classes listed, but no arrival
    // rate) must leave the canonical spec bytes unchanged...
    ExperimentSpec spec = cell.spec;
    spec.workload.max_concurrent = 4096;
    spec.workload.classes.push_back(WorkloadClass{});
    ASSERT_EQ(sweep::canonical_spec_bytes(spec),
              sweep::canonical_spec_bytes(cell.spec))
        << cell.name << ": disabled workload changed the canonical spec";
    // ...and the run itself must reproduce the checked-in digest.
    const GoldenRecord* exp = find(cell.name);
    ASSERT_NE(exp, nullptr) << cell.name;
    spec.audit = true;
    const ExperimentResult result = run_experiment(spec);
    EXPECT_EQ(make_golden_record(cell.name, cell.spec, result).digest,
              exp->digest)
        << cell.name << ": inert workload block drifted from the recorded digest";
    ++checked;
  }
  EXPECT_EQ(checked, 12u) << "expected the 12 pre-workload golden cells";
}

}  // namespace
}  // namespace ccas::check

// Sharded sweep execution and merge: the reassembled report must emit
// byte-identical sink output, and every malformed merge input —
// overlapping shards, missing shards, a different spec — must be
// rejected with a one-line reason rather than a silently wrong grid.
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sweep/runner.h"
#include "sweep/shard.h"
#include "sweep/sinks.h"
#include "sweep/spec.h"

namespace stagedcmp {
namespace {

// 2x2 grid, both workloads: small enough for several full runs per test.
sweep::SweepSpec SmallSpec(const char* name = "shard-small") {
  sweep::SweepSpec spec(name, "2x2 shard test grid");
  spec.base_exp.cores = 2;
  spec.base_exp.l2_bytes = 1ull << 20;
  spec.base_exp.measure_instructions = 400'000;
  spec.base_exp.warmup_instructions = 100'000;
  spec.AddAxis(
      "camp",
      {{"FC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kFat; }},
       {"LC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kLean; }}});
  spec.AddAxis("workload",
               {{"OLTP",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 4;
                   c.trace.seed = 5;
                 }},
                {"DSS",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kDss;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 5;
                 }}});
  return spec;
}

sweep::SweepReport RunSpec(const sweep::SweepSpec& spec,
                           const std::string& bundle, uint32_t shard_index,
                           uint32_t shard_count) {
  harness::WorkloadFactory factory;
  sweep::RunnerOptions options;
  options.threads = 2;
  options.trace_bundle = bundle;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  sweep::SweepRunner runner(&factory, options);
  return runner.Run(spec);
}

std::string ShardText(const sweep::SweepReport& report) {
  std::ostringstream os;
  sweep::WriteShardFile(report, os);
  return os.str();
}

std::string SinkBytes(const sweep::SweepReport& report, bool golden) {
  std::ostringstream os;
  sweep::JsonSink(/*include_timing=*/false, golden).Emit(report, os);
  return os.str();
}

// Fixture with a warm bundle: the cold pass writes it, so every run in
// the test — sharded or not — replays the same mapped trace bytes and
// full metrics compare byte-for-byte.
struct WarmGrid : ::testing::Test {
  sweep::SweepSpec spec = SmallSpec();
  std::string bundle = ::testing::TempDir() + "shard_grid.traces";

  void SetUp() override {
    std::remove(bundle.c_str());
    ASSERT_EQ(RunSpec(spec, bundle, 0, 0).bundle, "cold");
  }
  void TearDown() override { std::remove(bundle.c_str()); }
};

TEST_F(WarmGrid, MergedShardsEmitBytesIdenticalToUnshardedRun) {
  const sweep::SweepReport whole = RunSpec(spec, bundle, 0, 0);
  ASSERT_EQ(whole.bundle, "warm");

  for (uint32_t n : {2u, 3u}) {
    std::vector<std::string> texts;
    for (uint32_t i = 0; i < n; ++i) {
      const sweep::SweepReport shard = RunSpec(spec, bundle, i, n);
      EXPECT_EQ(shard.bundle, "warm") << "shard " << i << "/" << n;
      // Throughput counts only the cells this shard simulated.
      size_t mine = 0;
      for (size_t c = 0; c < shard.cells.size(); ++c) mine += c % n == i;
      EXPECT_EQ(shard.cells_simulated(), mine) << "shard " << i << "/" << n;
      texts.push_back(ShardText(shard));
    }
    sweep::SweepReport merged;
    std::string err;
    ASSERT_TRUE(sweep::MergeShardReports(spec, texts, &merged, &err))
        << err;
    EXPECT_EQ(merged.cells_simulated(), whole.cells.size());
    // Full deterministic metrics — not just the golden subset — must be
    // byte-identical: all runs replayed the same mapped bundle.
    EXPECT_EQ(SinkBytes(merged, /*golden=*/false),
              SinkBytes(whole, /*golden=*/false))
        << "1 vs " << n << " shards";
    EXPECT_EQ(SinkBytes(merged, /*golden=*/true),
              SinkBytes(whole, /*golden=*/true));
  }
}

TEST_F(WarmGrid, MergeAcceptsShardsInAnyOrder) {
  const std::string s0 = ShardText(RunSpec(spec, bundle, 0, 2));
  const std::string s1 = ShardText(RunSpec(spec, bundle, 1, 2));
  sweep::SweepReport fwd, rev;
  std::string err;
  ASSERT_TRUE(sweep::MergeShardReports(spec, {s0, s1}, &fwd, &err)) << err;
  ASSERT_TRUE(sweep::MergeShardReports(spec, {s1, s0}, &rev, &err)) << err;
  EXPECT_EQ(SinkBytes(fwd, false), SinkBytes(rev, false));
}

TEST_F(WarmGrid, MergeRejectsOverlapMissingAndForeignShards) {
  const std::string s0 = ShardText(RunSpec(spec, bundle, 0, 2));
  const std::string s1 = ShardText(RunSpec(spec, bundle, 1, 2));
  sweep::SweepReport merged;
  std::string err;

  // The same shard twice is an overlap, not a merge.
  EXPECT_FALSE(sweep::MergeShardReports(spec, {s0, s0}, &merged, &err));
  EXPECT_NE(err.find("overlap"), std::string::npos) << err;

  // One of two shards is incomplete coverage.
  EXPECT_FALSE(sweep::MergeShardReports(spec, {s1}, &merged, &err));
  EXPECT_NE(err.find("incomplete"), std::string::npos) << err;

  // A shard file from a different spec definition must be rejected by
  // the fingerprint even when cell counts happen to line up.
  sweep::SweepSpec other = SmallSpec();
  other.base_exp.memory_latency += 100;
  EXPECT_FALSE(sweep::MergeShardReports(other, {s0, s1}, &merged, &err));
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;

  // ... and a different spec *name* is rejected before hashing.
  const sweep::SweepSpec renamed = SmallSpec("shard-other");
  EXPECT_FALSE(sweep::MergeShardReports(renamed, {s0, s1}, &merged, &err));
  EXPECT_NE(err.find("spec"), std::string::npos) << err;

  // Non-shard input is flagged as such, not crashed on.
  EXPECT_FALSE(
      sweep::MergeShardReports(spec, {"{\"cells\": []}"}, &merged, &err));
  std::string name;
  EXPECT_FALSE(sweep::PeekShardSpecName("not json", &name));
  EXPECT_TRUE(sweep::PeekShardSpecName(s0, &name));
  EXPECT_EQ(name, spec.name());
}

TEST_F(WarmGrid, ShardFileRoundTripsNonFiniteAndTenantFields) {
  // The writer/parser pair must survive every value class the sinks
  // emit: NaN becomes null and comes back NaN (printed as null again).
  sweep::SweepReport r = RunSpec(spec, bundle, 0, 2);
  r.cells[0].result.avg_response_cycles =
      std::numeric_limits<double>::quiet_NaN();
  const std::string text = ShardText(r);
  const sweep::SweepReport r1 = RunSpec(spec, bundle, 1, 2);
  sweep::SweepReport merged;
  std::string err;
  ASSERT_TRUE(sweep::MergeShardReports(spec, {text, ShardText(r1)}, &merged,
                                       &err))
      << err;
  EXPECT_TRUE(std::isnan(merged.cells[0].result.avg_response_cycles));
}

}  // namespace
}  // namespace stagedcmp

// Integration tests: the full pipeline (workload -> traces -> CMP replay)
// and the paper's qualitative claims as executable assertions.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/experiment.h"

namespace stagedcmp::harness {
namespace {

// Shared tiny-scale factory: databases load once per suite.
class IntegrationTest : public ::testing::Test {
 protected:
  static WorkloadFactory* factory() {
    static WorkloadFactory* f = [] {
      auto* ff = new WorkloadFactory();
      ff->tpcc_config.warehouses = 4;
      ff->tpcc_config.customers_per_district = 120;
      ff->tpcc_config.items = 1000;
      ff->tpcc_config.initial_orders_per_district = 30;
      ff->tpch_config.orders = 4000;
      ff->tpch_config.customers = 400;
      ff->tpch_config.parts = 600;
      return ff;
    }();
    return f;
  }

  static TraceSet OltpTraces(uint32_t clients, uint32_t reqs) {
    TraceSetConfig tc;
    tc.workload = WorkloadKind::kOltp;
    tc.clients = clients;
    tc.requests_per_client = reqs;
    tc.seed = 5;
    return factory()->Build(tc);
  }

  static TraceSet DssTraces(uint32_t clients) {
    TraceSetConfig tc;
    tc.workload = WorkloadKind::kDss;
    tc.clients = clients;
    tc.requests_per_client = 1;
    tc.seed = 6;
    return factory()->Build(tc);
  }

  static ExperimentConfig SmallConfig() {
    ExperimentConfig ec;
    ec.cores = 4;
    ec.l2_bytes = 4ull << 20;
    ec.measure_instructions = 2'000'000;
    ec.warmup_instructions = 500'000;
    return ec;
  }
};

TEST_F(IntegrationTest, TraceSetNonEmptyAndCounted) {
  TraceSet t = OltpTraces(4, 8);
  EXPECT_EQ(t.traces.size(), 4u);
  EXPECT_GT(t.total_events, 1000u);
  EXPECT_GT(t.total_instructions, 10000u);
  for (const auto& tr : t.traces) {
    EXPECT_EQ(tr.requests, 8u);
  }
}

TEST_F(IntegrationTest, BreakdownFractionsSumToOne) {
  TraceSet t = OltpTraces(8, 16);
  ExperimentConfig ec = SmallConfig();
  coresim::SimResult r = RunExperiment(ec, t);
  double sum = 0;
  for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
    sum += r.breakdown.Fraction(static_cast<coresim::Bucket>(b));
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(r.uipc(), 0.0);
  EXPECT_GT(r.instructions, ec.measure_instructions * 9 / 10);
}

TEST_F(IntegrationTest, LeanBeatsFatWhenSaturated) {
  TraceSet t = OltpTraces(16, 16);
  ExperimentConfig fc = SmallConfig();
  fc.camp = coresim::Camp::kFat;
  ExperimentConfig lc = SmallConfig();
  lc.camp = coresim::Camp::kLean;
  EXPECT_GT(RunExperiment(lc, t).uipc(), RunExperiment(fc, t).uipc());
}

TEST_F(IntegrationTest, FatBeatsLeanUnsaturatedResponse) {
  TraceSet t = DssTraces(1);
  ExperimentConfig fc = SmallConfig();
  fc.camp = coresim::Camp::kFat;
  fc.saturated = false;
  ExperimentConfig lc = fc;
  lc.camp = coresim::Camp::kLean;
  const double fc_rt = RunExperiment(fc, t).avg_response_cycles;
  const double lc_rt = RunExperiment(lc, t).avg_response_cycles;
  EXPECT_GT(fc_rt, 0.0);
  EXPECT_GT(lc_rt, fc_rt);  // LC single-thread is slower
}

TEST_F(IntegrationTest, SmpShowsCoherenceCmpDoesNot) {
  TraceSet t = OltpTraces(16, 16);
  ExperimentConfig smp = SmallConfig();
  smp.topology = Topology::kSmpPrivate;
  ExperimentConfig cmp = SmallConfig();
  cmp.topology = Topology::kCmpShared;
  coresim::SimResult rs = RunExperiment(smp, t);
  coresim::SimResult rc = RunExperiment(cmp, t);
  using memsim::AccessClass;
  EXPECT_GT(rs.mem.data_count[static_cast<int>(AccessClass::kCoherence)], 0u);
  EXPECT_EQ(rc.mem.data_count[static_cast<int>(AccessClass::kCoherence)], 0u);
}

TEST_F(IntegrationTest, FixedLatencyNeverSlowerThanRealistic) {
  TraceSet t = DssTraces(8);
  ExperimentConfig real = SmallConfig();
  real.l2_bytes = 16ull << 20;
  real.latency = LatencyMode::kRealistic;
  ExperimentConfig fixed = real;
  fixed.latency = LatencyMode::kFixed4;
  EXPECT_GE(RunExperiment(fixed, t).uipc() * 1.02,
            RunExperiment(real, t).uipc());
}

TEST_F(IntegrationTest, ResolvedHardwareReportsCactiLatency) {
  TraceSet t = DssTraces(2);
  ExperimentConfig ec = SmallConfig();
  ec.l2_bytes = 16ull << 20;
  ResolvedHardware hw;
  RunExperiment(ec, t, &hw);
  EXPECT_GE(hw.l2_hit_cycles, 10u);
  ec.latency = LatencyMode::kFixed4;
  RunExperiment(ec, t, &hw);
  EXPECT_EQ(hw.l2_hit_cycles, 4u);
}

TEST_F(IntegrationTest, DeterministicEndToEnd) {
  TraceSet t = OltpTraces(4, 8);
  ExperimentConfig ec = SmallConfig();
  coresim::SimResult a = RunExperiment(ec, t);
  coresim::SimResult b = RunExperiment(ec, t);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.instructions, b.instructions);
}

// Node counts outside [1, kMaxNodes] are rejected with an exception
// naming the limit, before any hierarchy is built (whose constructor
// would otherwise abort the process).
TEST_F(IntegrationTest, OutOfRangeNodeCountThrows) {
  const TraceSet empty;
  for (uint32_t cores : {0u, memsim::kMaxNodes + 1}) {
    ExperimentConfig ec = SmallConfig();
    ec.cores = cores;
    EXPECT_THROW(MakeHierarchyConfig(ec), std::invalid_argument) << cores;
    EXPECT_THROW(MakeSimConfig(ec, empty), std::invalid_argument) << cores;
    try {
      RunExperiment(ec, empty);
      ADD_FAILURE() << cores << "-node experiment ran";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("1024"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(std::to_string(cores)),
                std::string::npos)
          << e.what();
    }
  }
  ExperimentConfig widest = SmallConfig();
  widest.cores = memsim::kMaxNodes;
  EXPECT_EQ(MakeHierarchyConfig(widest).num_cores, memsim::kMaxNodes);

  // A saturated run with no measurement budget would loop forever.
  ExperimentConfig endless = SmallConfig();
  endless.saturated = true;
  endless.measure_instructions = 0;
  EXPECT_THROW(MakeSimConfig(endless, empty), std::invalid_argument);
  EXPECT_THROW(RunExperiment(endless, empty), std::invalid_argument);
  endless.saturated = false;  // a one-pass run needs no budget
  EXPECT_NO_THROW(MakeSimConfig(endless, empty));

  // An L2 size no geometry of 8..64 ways and a power-of-two set count
  // holds.
  ExperimentConfig odd = SmallConfig();
  odd.l2_bytes = (26ull << 20) + 64;
  EXPECT_THROW(MakeHierarchyConfig(odd), std::invalid_argument);
}

// The 26 MB L2 (the ExperimentConfig default and the paper's largest)
// has 53,248 sets at 8 ways, not a power of two. Its harness geometry
// widens the ways instead, so every one of its 425,984 lines can be
// resident; a set index masked to 16,384 sets held only 131,072.
TEST_F(IntegrationTest, TwentySixMegabyteL2HoldsEveryLine) {
  ExperimentConfig ec = SmallConfig();
  ec.l2_bytes = 26ull << 20;
  const memsim::HierarchyConfig hc = MakeHierarchyConfig(ec);
  EXPECT_EQ(hc.l2.size_bytes, 26ull << 20);
  EXPECT_EQ(hc.l2.associativity, 13u);
  EXPECT_EQ(hc.l2.num_sets(), 32768u);
  memsim::Cache l2(hc.l2);
  constexpr uint64_t kLines = (26ull << 20) / 64;
  for (uint64_t line = 0; line < kLines; ++line) l2.Fill(line, false);
  EXPECT_EQ(l2.CountValid(), kLines);
  EXPECT_EQ(l2.evictions(), 0u);
  // Power-of-two sizes keep the historical 8 ways.
  ec.l2_bytes = 16ull << 20;
  EXPECT_EQ(MakeHierarchyConfig(ec).l2.associativity, 8u);
}

TEST_F(IntegrationTest, StagedEngineTracesBuild) {
  TraceSetConfig tc;
  tc.workload = WorkloadKind::kDss;
  tc.clients = 2;
  tc.requests_per_client = 1;
  tc.engine = EngineMode::kStagedCohort;
  TraceSet t = factory()->Build(tc);
  EXPECT_GT(t.total_events, 1000u);
  ExperimentConfig ec = SmallConfig();
  coresim::SimResult r = RunExperiment(ec, t);
  EXPECT_GT(r.uipc(), 0.0);
}

// Property sweep: off-chip data accesses are monotonically non-increasing
// in L2 size for the same trace set (paper Section 5.1 premise).
class L2SweepIntegration : public ::testing::TestWithParam<uint64_t> {};

TEST_P(L2SweepIntegration, OffChipCountMonotone) {
  static TraceSet t = [] {
    TraceSetConfig tc;
    tc.workload = WorkloadKind::kDss;
    tc.clients = 4;
    tc.requests_per_client = 1;
    tc.seed = 9;
    WorkloadFactory f;
    f.tpch_config.orders = 3000;
    f.tpch_config.customers = 300;
    f.tpch_config.parts = 400;
    return f.Build(tc);
  }();
  auto run = [&](uint64_t bytes) {
    ExperimentConfig ec;
    ec.cores = 4;
    ec.l2_bytes = bytes;
    ec.measure_instructions = 1'500'000;
    ec.warmup_instructions = 400'000;
    coresim::SimResult r = RunExperiment(ec, t);
    using memsim::AccessClass;
    return static_cast<double>(
               r.mem.data_count[static_cast<int>(AccessClass::kOffChip)]) /
           static_cast<double>(r.instructions);
  };
  // Allow 10% tolerance: replay alignment shifts slightly across configs.
  EXPECT_GE(run(GetParam()) * 1.10, run(GetParam() * 4));
}

INSTANTIATE_TEST_SUITE_P(Sweep, L2SweepIntegration,
                         ::testing::Values(1ull << 20, 2ull << 20,
                                           4ull << 20));

}  // namespace
}  // namespace stagedcmp::harness

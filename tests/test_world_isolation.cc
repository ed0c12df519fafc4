// Workload-world isolation: trace generation in concurrent, independent
// worlds must be indistinguishable from serial builds. This is the
// contract the sweep's parallel cold build rests on, pinned from four
// sides:
//
//   * every world lays out the canonical code-region set identically
//     (PCs in traces do not depend on which world recorded them);
//   * two worlds building TPC-C and TPC-H trace sets concurrently
//     reproduce the serial single-world skeletons bit-for-bit;
//   * WorkloadFactory::Build is a pure function of its config — repeat
//     builds of the same OLTP config no longer see database state that
//     earlier builds advanced (the old once-guarded shared-DB behavior);
//   * TraceSetCache lets distinct configs build concurrently and still
//     returns one shared instance per config.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "harness/world.h"
#include "scenario_util.h"
#include "sweep/trace_cache.h"

namespace stagedcmp::scenario {
namespace {

harness::WorkloadFactory TinyFactory() {
  harness::WorkloadFactory f;
  ApplyTinyScale(&f);
  return f;
}

harness::TraceSetConfig OltpConfig() {
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kOltp;
  tc.clients = 4;
  tc.requests_per_client = 4;
  tc.seed = 21;
  return tc;
}

harness::TraceSetConfig DssConfig() {
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kDss;
  tc.clients = 4;
  tc.requests_per_client = 1;
  tc.seed = 22;
  return tc;
}

TEST(WorldIsolation, RegionLayoutIdenticalAcrossWorldsAndFreshSets) {
  const harness::WorkloadFactory f = TinyFactory();
  harness::WorkloadWorld a(f.tpcc_config, f.tpch_config);
  harness::WorkloadWorld b(f.tpcc_config, f.tpch_config);
  // Two sets over fresh maps: code recording outside any world lands on
  // the same PCs as code recorded inside one.
  trace::CodeMap map1, map2;
  const trace::RegionSet fresh1(&map1);
  const trace::RegionSet fresh2(&map2);
  for (size_t i = 0; i < trace::kRegionCount; ++i) {
    const auto id = static_cast<trace::RegionId>(i);
    EXPECT_EQ(fresh1[id].base, fresh2[id].base) << "region " << i;
    EXPECT_EQ(fresh1[id].size, fresh2[id].size) << "region " << i;
    EXPECT_EQ(a.regions()[id].base, fresh1[id].base) << "region " << i;
    EXPECT_EQ(a.regions()[id].size, fresh1[id].size) << "region " << i;
    EXPECT_EQ(b.regions()[id].base, a.regions()[id].base) << "region " << i;
    EXPECT_EQ(b.regions()[id].size, a.regions()[id].size) << "region " << i;
  }
}

TEST(WorldIsolation, ConcurrentWorldsMatchSerialSingleWorldBuilds) {
  const harness::WorkloadFactory f = TinyFactory();
  const harness::TraceSetConfig oltp = OltpConfig();
  const harness::TraceSetConfig dss = DssConfig();

  // Serial reference: each set built in its own fresh world, one at a
  // time (the semantics WorkloadFactory::Build promises).
  harness::WorkloadWorld serial_oltp(f.tpcc_config, f.tpch_config);
  harness::WorkloadWorld serial_dss(f.tpcc_config, f.tpch_config);
  const harness::TraceSet ref_oltp = serial_oltp.Build(oltp);
  const harness::TraceSet ref_dss = serial_dss.Build(dss);

  // Concurrent arm: two worlds load their databases and record traces at
  // the same time. Nothing is shared, so the interleaving cannot leak
  // into the recorded streams.
  harness::WorkloadWorld wa(f.tpcc_config, f.tpch_config);
  harness::WorkloadWorld wb(f.tpcc_config, f.tpch_config);
  harness::TraceSet got_oltp, got_dss;
  std::thread ta([&] { got_oltp = wa.Build(oltp); });
  std::thread tb([&] { got_dss = wb.Build(dss); });
  ta.join();
  tb.join();

  EXPECT_EQ(got_oltp.total_instructions, ref_oltp.total_instructions);
  EXPECT_EQ(got_oltp.total_events, ref_oltp.total_events);
  EXPECT_EQ(EventSkeleton(got_oltp), EventSkeleton(ref_oltp));
  EXPECT_EQ(got_dss.total_instructions, ref_dss.total_instructions);
  EXPECT_EQ(got_dss.total_events, ref_dss.total_events);
  EXPECT_EQ(EventSkeleton(got_dss), EventSkeleton(ref_dss));
  ASSERT_EQ(got_oltp.traces.size(), ref_oltp.traces.size());
  for (size_t i = 0; i < got_oltp.traces.size(); ++i) {
    EXPECT_EQ(got_oltp.traces[i].requests, ref_oltp.traces[i].requests)
        << "client " << i;
  }
}

TEST(WorldIsolation, FactoryBuildIsAPureFunctionOfItsConfig) {
  // The decisive difference from the old once-guarded shared database:
  // building the same OLTP config twice through one factory starts from
  // an identical database both times, so the traces are skeleton-equal.
  // (TPC-C transactions mutate the database; under the old contract the
  // second build recorded against post-first-build state.)
  harness::WorkloadFactory factory = TinyFactory();
  const harness::TraceSetConfig oltp = OltpConfig();
  const harness::TraceSet first = factory.Build(oltp);
  const harness::TraceSet second = factory.Build(oltp);
  EXPECT_EQ(first.total_instructions, second.total_instructions);
  EXPECT_EQ(first.total_events, second.total_events);
  EXPECT_EQ(EventSkeleton(first), EventSkeleton(second));
}

TEST(WorldIsolation, CacheBuildsDistinctConfigsConcurrently) {
  harness::WorkloadFactory factory = TinyFactory();
  sweep::TraceSetCache cache(&factory);

  // Reference skeletons from plain factory builds.
  const harness::TraceSet ref_oltp = factory.Build(OltpConfig());
  const harness::TraceSet ref_dss = factory.Build(DssConfig());

  // Both configs enter the cache from separate threads at once; each
  // must build exactly once, and the cached sets must match the
  // reference skeletons (same pure build, different world instance).
  const harness::TraceSet* got_oltp = nullptr;
  const harness::TraceSet* got_dss = nullptr;
  std::thread ta([&] { got_oltp = &cache.Get(OltpConfig()); });
  std::thread tb([&] { got_dss = &cache.Get(DssConfig()); });
  ta.join();
  tb.join();

  ASSERT_NE(got_oltp, nullptr);
  ASSERT_NE(got_dss, nullptr);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(EventSkeleton(*got_oltp), EventSkeleton(ref_oltp));
  EXPECT_EQ(EventSkeleton(*got_dss), EventSkeleton(ref_dss));
  // Repeat lookups alias the built instances.
  EXPECT_EQ(&cache.Get(OltpConfig()), got_oltp);
  EXPECT_EQ(&cache.Get(DssConfig()), got_dss);
  EXPECT_EQ(cache.builds(), 2u);
}

}  // namespace
}  // namespace stagedcmp::scenario

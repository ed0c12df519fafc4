#include "harness/experiment.h"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "cacti/cache_model.h"
#include "harness/world.h"

namespace stagedcmp::harness {

const char* WorkloadName(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kOltp: return "OLTP";
    case WorkloadKind::kDss: return "DSS";
    case WorkloadKind::kYcsb: return "YCSB";
  }
  return "?";
}

TraceSetConfig::Identity TraceSetConfig::Key() const {
  uint64_t theta_bits = 0;
  static_assert(sizeof(theta_bits) == sizeof(traffic.zipf_theta));
  std::memcpy(&theta_bits, &traffic.zipf_theta, sizeof(theta_bits));
  return {static_cast<uint64_t>(workload), clients, requests_per_client,
          seed, static_cast<uint64_t>(engine),
          static_cast<uint64_t>(traffic.key_dist), theta_bits,
          traffic.hot_rotate_period, static_cast<uint64_t>(traffic.arrival),
          traffic.burst_on, traffic.burst_off, traffic.think_instructions,
          static_cast<uint64_t>(tenant2_workload), tenant2_clients};
}

TraceSet WorkloadFactory::Build(const TraceSetConfig& config) const {
  // A fresh world per build: private databases, private code-region map.
  // Builds are pure functions of (config, scale knobs), so they can run
  // concurrently, and the same config always yields the same traces (up
  // to heap placement) regardless of what built before it.
  WorkloadWorld world(tpcc_config, tpch_config, ycsb_config, metrics);
  return world.Build(config);
}

namespace {

// The hierarchies' constructors abort past memsim::kMaxNodes nodes.
// Reject out-of-range node counts here, before anything is built, with
// an error a caller can catch and report.
void CheckNodeCount(uint32_t cores) {
  if (cores == 0 || cores > memsim::kMaxNodes) {
    throw std::invalid_argument(
        "experiment: cores must be in [1, " +
        std::to_string(memsim::kMaxNodes) + "] (kMaxNodes), got " +
        std::to_string(cores));
  }
}

// L2 geometry for `bytes` of 64 B lines: 8 ways, widened until the set
// count is a power of two, which Cache requires (its set index is a
// mask). A 26 MB L2 has 53,248 sets at 8 ways and becomes 13 ways x
// 32,768 sets; every power-of-two size keeps 8 ways.
memsim::CacheConfig L2Geometry(uint64_t bytes) {
  constexpr uint32_t kMinWays = 8;
  constexpr uint32_t kMaxWays = 64;
  for (uint32_t ways = kMinWays; ways <= kMaxWays; ++ways) {
    const memsim::CacheConfig c{bytes, ways, 64};
    if (memsim::Cache::Validate(c).ok()) return c;
  }
  throw std::invalid_argument(
      "experiment: no L2 geometry of 64 B lines, " +
      std::to_string(kMinWays) + ".." + std::to_string(kMaxWays) +
      " ways and a power-of-two set count holds l2_bytes = " +
      std::to_string(bytes));
}

}  // namespace

memsim::HierarchyConfig MakeHierarchyConfig(const ExperimentConfig& config) {
  CheckNodeCount(config.cores);
  memsim::HierarchyConfig h;
  h.num_cores = config.cores;
  h.l1i = memsim::CacheConfig{32 * 1024, 4, 64};
  h.l1d = memsim::CacheConfig{64 * 1024, 4, 64};
  h.l2 = L2Geometry(config.l2_bytes);
  h.lat.l1_hit = 2;
  h.lat.memory = config.memory_latency;
  if (config.latency == LatencyMode::kRealistic) {
    h.lat.l2_hit = cacti::AccessLatencyCycles(config.l2_bytes);
  } else {
    h.lat.l2_hit = config.fixed_l2_latency;
  }
  h.lat.l1_transfer = h.lat.l2_hit + 4;  // through the shared fabric
  h.lat.remote_l2 = config.memory_latency - 50;
  h.stream_buffers = config.stream_buffers;
  // L2 ports scale with banking: one port per 2MB bank, between 2 and 8
  // (physical ports/status registers do not scale with capacity — the
  // Section 5.3 pressure point).
  if (config.l2_ports > 0) {
    h.l2_ports = config.l2_ports;
  } else {
    uint32_t ports = static_cast<uint32_t>(config.l2_bytes / (2 << 20));
    if (ports < 2) ports = 2;
    if (ports > 8) ports = 8;
    h.l2_ports = ports;
  }
  h.l2_port_occupancy = 6;
  // SMP shared-bus occupancy model (no effect on CMP topologies): a
  // short address/snoop phase per transaction plus a full line-transfer
  // data phase. Address-only transactions (upgrades) hold the bus for
  // the former; fetches and writebacks also hold the data cycles.
  h.smp_bus = config.smp_bus_model;
  h.bus_addr_cycles = 4;
  h.bus_data_cycles = 12;
  return h;
}

coresim::CoreParams MakeCoreParams(coresim::Camp camp) {
  return camp == coresim::Camp::kFat ? coresim::CoreParams::Fat()
                                     : coresim::CoreParams::Lean();
}

coresim::SimConfig MakeSimConfig(const ExperimentConfig& config,
                                 const TraceSet& traces) {
  CheckNodeCount(config.cores);
  // A saturated run loops its traces until it has measured this many
  // instructions; zero would never stop.
  if (config.saturated && config.measure_instructions == 0) {
    throw std::invalid_argument(
        "experiment: a saturated run needs measure_instructions > 0");
  }
  coresim::SimConfig sc;
  sc.core = MakeCoreParams(config.camp);
  sc.num_cores = config.cores;
  sc.loop_traces = config.saturated;
  sc.max_instructions = config.saturated ? config.measure_instructions : 0;
  sc.warmup_instructions = config.saturated ? config.warmup_instructions : 0;
  sc.tenant_a_clients = traces.tenant_a_clients;
  return sc;
}

coresim::SimResult RunExperiment(const ExperimentConfig& config,
                                 const TraceSet& traces,
                                 ResolvedHardware* hw,
                                 MetricsRegistry* metrics) {
  memsim::HierarchyConfig hc = MakeHierarchyConfig(config);
  std::unique_ptr<memsim::MemoryHierarchy> hierarchy =
      config.topology == Topology::kCmpShared ? memsim::MakeCmpHierarchy(hc)
                                              : memsim::MakeSmpHierarchy(hc);

  coresim::SimConfig sc = MakeSimConfig(config, traces);
  sc.metrics = metrics;

  if (hw != nullptr) {
    hw->l2_hit_cycles = hc.lat.l2_hit;
    hw->cores = config.cores;
    hw->contexts_per_core = sc.core.contexts;
  }

  coresim::CmpSimulator sim(sc, hierarchy.get(), traces.Pointers());
  return sim.Run();
}

}  // namespace stagedcmp::harness

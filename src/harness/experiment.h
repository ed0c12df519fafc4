// Experiment harness: builds workload trace sets once, then replays them on
// arbitrary CMP/SMP configurations. One RunExperiment call corresponds to
// one bar/point of a paper figure.
#ifndef STAGEDCMP_HARNESS_EXPERIMENT_H_
#define STAGEDCMP_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coresim/cmp.h"
#include "memsim/hierarchy.h"
#include "trace/events.h"
#include "workload/database.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"
#include "workload/traffic.h"
#include "workload/ycsb.h"

namespace stagedcmp::harness {

enum class WorkloadKind : uint8_t { kOltp, kDss, kYcsb };
enum class LatencyMode : uint8_t { kRealistic, kFixed4 };
enum class Topology : uint8_t { kCmpShared, kSmpPrivate };

const char* WorkloadName(WorkloadKind w);

/// Engine execution model used when generating DSS traces.
enum class EngineMode : uint8_t { kVolcano, kStagedCohort, kStagedTuple };

struct TraceSetConfig {
  WorkloadKind workload = WorkloadKind::kOltp;
  uint32_t clients = 16;
  uint32_t requests_per_client = 4;  ///< txns (OLTP) or ops batches/queries
  uint64_t seed = 1;
  EngineMode engine = EngineMode::kVolcano;
  /// Traffic shaping (key popularity + arrival shape), applied to every
  /// client of every tenant. Defaults are byte-neutral: an unshaped
  /// config records exactly the historical trace bytes.
  workload::TrafficConfig traffic;
  /// Multi-tenant cells: when tenant2_clients > 0, an additional
  /// tenant2_clients clients of `tenant2_workload` (same
  /// requests_per_client/engine/traffic knobs) are appended to the set,
  /// recorded against a *separate* database instance, and the built
  /// TraceSet carries the attribution boundary for the replay engine.
  WorkloadKind tenant2_workload = WorkloadKind::kOltp;
  uint32_t tenant2_clients = 0;
};

/// A set of per-client traces plus the database they were recorded against.
struct TraceSet {
  TraceSetConfig config;
  std::vector<trace::ClientTrace> traces;
  uint64_t total_instructions = 0;
  uint64_t total_events = 0;
  /// Multi-tenant boundary: 0 for single-tenant sets; else traces
  /// [0, tenant_a_clients) belong to tenant A and the rest to tenant B.
  uint32_t tenant_a_clients = 0;
  /// Keep-alive for externally owned event storage. A trace set served
  /// from a mapped bundle stores view-based ClientTraces whose bytes live
  /// in the mapping; `backing` pins that mapping (type-erased so the
  /// harness layer stays independent of the sweep's bundle machinery).
  /// Destroying the last TraceSet sharing a mapping unmaps it. Empty for
  /// cold-built sets, which own their events.
  std::shared_ptr<void> backing;

  /// Per-client trace pointers in client order, built fresh on every
  /// call (RunExperiment moves the vector into the simulator).
  std::vector<const trace::ClientTrace*> Pointers() const {
    std::vector<const trace::ClientTrace*> out;
    out.reserve(traces.size());
    for (const trace::ClientTrace& t : traces) out.push_back(&t);
    return out;
  }
};

/// Generates trace sets on demand. Each Build() call runs inside a fresh,
/// isolated WorkloadWorld (see harness/world.h): its own freshly loaded
/// databases and its own code-region map, so a built trace set is a pure
/// function of (config, scale knobs) — never of prior Build calls.
///
/// Thread-safety contract:
///   * Build() is safe to call concurrently from any number of threads;
///     concurrent builds run in disjoint worlds and share nothing but
///     this factory's (const during building) scale knobs. The sweep's
///     TraceSetCache exploits this to build distinct configs in parallel.
///   * A fully-built TraceSet is immutable and safe to share across any
///     number of concurrently-running simulations.
class WorkloadFactory {
 public:
  WorkloadFactory() = default;

  /// Overridable scale knobs (defaults match DESIGN.md geometry). Set
  /// them before the first Build; they must not change while builds run.
  workload::TpccConfig tpcc_config;
  workload::TpchConfig tpch_config;
  workload::YcsbConfig ycsb_config;

  /// Observability hook: when set, every Build folds its shaper/YCSB
  /// counters into this registry (traffic.*, ycsb.*). Counting only —
  /// recorded trace bytes are identical either way.
  MetricsRegistry* metrics = nullptr;

  TraceSet Build(const TraceSetConfig& config) const;
};

struct ExperimentConfig {
  coresim::Camp camp = coresim::Camp::kFat;
  uint32_t cores = 4;
  /// L2 capacity; 64 B lines in 8 ways, or more ways when that leaves a
  /// non-power-of-two set count (26 MB: 13 ways x 32,768 sets).
  uint64_t l2_bytes = 26ull << 20;
  LatencyMode latency = LatencyMode::kRealistic;
  Topology topology = Topology::kCmpShared;
  bool saturated = true;          ///< loop traces to steady state
  uint64_t measure_instructions = 12'000'000;
  uint64_t warmup_instructions = 3'000'000;
  bool stream_buffers = true;
  uint32_t l2_ports = 0;          ///< 0 = auto (scale with banks)
  uint32_t memory_latency = 400;
  uint32_t fixed_l2_latency = 4;  ///< used when latency == kFixed4
  /// SMP topology only: charge every coherence transaction (remote
  /// fetch, upgrade invalidation round, writeback) against the shared
  /// bus's occupancy clock, making queue_delay the real wait behind
  /// earlier transactions — the coherence-limited scaling knee. False
  /// keeps the historical flat-latency timing, byte-for-byte: the pinned
  /// reference arm. It changes simulated results, so it participates in
  /// sweep output and shard fingerprints.
  bool smp_bus_model = false;
};

/// Resolved hardware view (for reporting).
struct ResolvedHardware {
  uint32_t l2_hit_cycles = 0;
  uint32_t cores = 0;
  uint32_t contexts_per_core = 0;
};

/// Runs one configuration over a trace set. Throws std::invalid_argument,
/// before building anything, when config.cores is 0 or above
/// memsim::kMaxNodes, when no L2 geometry holds config.l2_bytes, or when
/// a saturated run has measure_instructions == 0. When `metrics` is
/// non-null
/// the replay engine folds the run's counters into it under `replay.*`
/// (see SimConfig::metrics); results are identical either way.
coresim::SimResult RunExperiment(const ExperimentConfig& config,
                                 const TraceSet& traces,
                                 ResolvedHardware* hw = nullptr,
                                 MetricsRegistry* metrics = nullptr);

/// Builds the hierarchy and replay configs RunExperiment uses, without
/// running (tests/inspection). MakeSimConfig leaves SimConfig::metrics
/// unset. Both throw as RunExperiment does: MakeHierarchyConfig for the
/// node count and the L2 geometry, MakeSimConfig for the node count and
/// a saturated run's zero measurement budget.
memsim::HierarchyConfig MakeHierarchyConfig(const ExperimentConfig& config);
coresim::SimConfig MakeSimConfig(const ExperimentConfig& config,
                                 const TraceSet& traces);
coresim::CoreParams MakeCoreParams(coresim::Camp camp);

}  // namespace stagedcmp::harness

#endif  // STAGEDCMP_HARNESS_EXPERIMENT_H_

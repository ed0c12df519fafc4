// Devirtualized per-event replay core.
//
// ReplayEngine<H> is the complete CMP/SMP timing simulation, templated on
// the hierarchy type it replays against. Instantiated with a concrete
// `final` hierarchy the per-event AccessData/AccessInstr calls
// devirtualize and inline — the compiler sees trace unpacking, cache
// probes and the directory walk as one straight-line region, which is
// what removed the indirect call per replayed event from the sweep hot
// loop. Production instantiates it once per concrete type, through
// CmpSimulator::Run and memsim::VisitHierarchy. Tests instantiate it
// directly for their reference arms: plain virtual dispatch
// (tests/test_replay_equivalence.cc) and the broadcast-snoop SMP
// (tests/test_directory_equivalence.cc).
//
// The timing model itself (camps, quanta, stall attribution) is unchanged
// from the pre-template implementation and must stay bit-identical: any
// edit here must keep tests/test_replay_equivalence.cc green.
#ifndef STAGEDCMP_CORESIM_REPLAY_CORE_H_
#define STAGEDCMP_CORESIM_REPLAY_CORE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "coresim/cmp.h"
#include "memsim/hierarchy.h"
#include "trace/events.h"

namespace stagedcmp::coresim {

namespace replay_detail {
constexpr double kEps = 1e-9;
constexpr double kLcQuantumCycles = 64.0;   // RR fairness granularity
constexpr double kFcQuantumInstrs = 256.0;  // DES interleave granularity
}  // namespace replay_detail

template <typename H>
class ReplayEngine {
 public:
  ReplayEngine(const SimConfig& config, H* hierarchy,
               std::vector<const trace::ClientTrace*> clients)
      : config_(config),
        hierarchy_(hierarchy),
        clients_(std::move(clients)),
        tenants_on_(config.tenant_a_clients > 0) {
    assert(hierarchy_ != nullptr);
    cores_.resize(config_.num_cores);
    for (Core& c : cores_) c.ctx.resize(config_.core.contexts);
    // Assign clients to hardware contexts round-robin across the chip.
    const uint32_t total_ctx = config_.num_cores * config_.core.contexts;
    for (uint32_t i = 0; i < clients_.size(); ++i) {
      const uint32_t slot = i % total_ctx;
      const uint32_t core = slot % config_.num_cores;  // spread across cores
      const uint32_t ctx = slot / config_.num_cores;
      cores_[core].ctx[ctx].client_ids.push_back(i);
      cores_[core].active = true;
    }
    // Steady-state runs start each context at a staggered position in its
    // trace; otherwise concurrent scans would be artificially phase-locked
    // and share every fetched line even through a tiny L2.
    if (config_.loop_traces) {
      for (Core& c : cores_) {
        for (Context& ctx : c.ctx) {
          if (ctx.client_ids.empty()) continue;
          const trace::ClientTrace* tr = clients_[ctx.client_ids[0]];
          if (!tr->empty()) {
            ctx.pos = (static_cast<size_t>(ctx.client_ids[0]) * 2654435761u) %
                      tr->events_size();
          }
        }
      }
    }
  }

  /// Simulates and returns aggregate metrics. Call once.
  SimResult Run() {
    assert(!(config_.loop_traces && config_.max_instructions == 0));

    std::vector<double> measure_start(cores_.size(), 0.0);
    // Active cores as a binary heap whose front is the next core to step:
    // the smallest local clock, the lowest index on equal clocks. The key
    // is a strict total order, so the front is exactly the core a scan
    // over all cores would pick, at O(log n) per step instead of O(n).
    const auto later = [this](uint32_t a, uint32_t b) {
      const double ta = cores_[a].now, tb = cores_[b].now;
      return ta > tb || (ta == tb && a > b);
    };
    std::vector<uint32_t> runnable;
    for (uint32_t i = 0; i < cores_.size(); ++i) {
      if (cores_[i].active) runnable.push_back(i);
    }
    std::make_heap(runnable.begin(), runnable.end(), later);

    measuring_ = config_.warmup_instructions == 0;
    bool warmed = measuring_;

    while (true) {
      if (!warmed && total_committed_ >=
                         static_cast<double>(config_.warmup_instructions)) {
        warmed = true;
        measuring_ = true;
        hierarchy_->ResetStats();
        total_committed_ = 0.0;
        response_sum_ = 0.0;
        responses_ = 0;
        for (size_t i = 0; i < cores_.size(); ++i) {
          cores_[i].bd = CycleBreakdown();
          cores_[i].committed = 0.0;
          measure_start[i] = cores_[i].now;
        }
        for (int t = 0; t < 2; ++t) {
          tenant_[t] = TenantStats();
          tenant_committed_[t] = 0.0;
        }
      }
      if (config_.max_instructions > 0 && warmed &&
          total_committed_ >= static_cast<double>(config_.max_instructions)) {
        break;
      }
      if (runnable.empty()) break;  // all traces drained
      // Move the next core out of the heap, step it (only its own clock
      // moves), then put it back at its new clock or retire it.
      std::pop_heap(runnable.begin(), runnable.end(), later);
      const uint32_t id = runnable.back();
      if (StepCore(cores_[id], id)) {
        std::push_heap(runnable.begin(), runnable.end(), later);
      } else {
        runnable.pop_back();
      }
    }

    SimResult out;
    double elapsed = 0.0;
    for (size_t i = 0; i < cores_.size(); ++i) {
      if (!cores_[i].active) continue;
      out.breakdown += cores_[i].bd;
      out.instructions += static_cast<uint64_t>(cores_[i].committed);
      elapsed = std::max(elapsed, cores_[i].now - measure_start[i]);
    }
    out.elapsed_cycles = static_cast<uint64_t>(elapsed);
    out.requests_completed = responses_;
    out.avg_response_cycles =
        responses_ ? response_sum_ / static_cast<double>(responses_) : 0.0;
    out.events_replayed = events_replayed_;
    out.l1d_hit_rate = hierarchy_->L1DHitRate();
    out.l1i_hit_rate = hierarchy_->L1IHitRate();
    out.l2_hit_rate = hierarchy_->L2HitRate();
    out.mem = hierarchy_->stats();
    if (tenants_on_) {
      out.num_tenants = 2;
      for (int t = 0; t < 2; ++t) {
        out.tenants[t] = tenant_[t];
        out.tenants[t].instructions =
            static_cast<uint64_t>(tenant_committed_[t]);
      }
    }
    // Observability hook fires once per run, after the hot loop — see
    // SimConfig::metrics.
    if (config_.metrics != nullptr) RecordReplayMetrics(config_.metrics, out);
    return out;
  }

 private:
  struct Context {
    std::vector<uint32_t> client_ids;   // round-robin multiprogramming
    size_t cur_client = 0;
    size_t pos = 0;                     // event index in current client
    bool finished = false;              // all clients drained (non-loop)

    // In-flight state.
    double compute_remaining = 0.0;     // instructions left in current run
    uint64_t pending_event = 0;         // mem event to issue after compute
    bool has_pending_mem = false;
    double blocked_until = 0.0;
    bool blocked = false;
    Bucket block_bucket = Bucket::kOther;
    uint64_t pc = 0;
    uint64_t next_ifetch_line = 0;      // next code line boundary to fetch
    double instr_since_miss = 1e18;     // FC miss clustering distance
    double request_start = 0.0;
    double committed = 0.0;
  };

  struct Core {
    double now = 0.0;
    std::vector<Context> ctx;
    bool active = false; // has at least one client
    CycleBreakdown bd;
    double committed = 0.0;
  };

  Bucket BucketFor(memsim::AccessClass cls, bool instr) const {
    using memsim::AccessClass;
    if (instr) {
      switch (cls) {
        case AccessClass::kL2Hit: return Bucket::kIStallL2;
        default: return Bucket::kIStallMem;
      }
    }
    switch (cls) {
      case AccessClass::kL1Hit: return Bucket::kDStallL1;
      case AccessClass::kL2Hit: return Bucket::kDStallL2;
      case AccessClass::kOffChip: return Bucket::kDStallMem;
      case AccessClass::kCoherence: return Bucket::kDStallCoh;
      default: return Bucket::kOther;
    }
  }

  // Performs I-fetches implied by advancing `instrs` from ctx.pc.
  // Returns stall cycles charged (FC) or sets blocked state (LC).
  double FetchInstructions(Core& core, uint32_t core_id, Context& ctx,
                           double instrs) {
    // Walk the I-lines covered by [pc, pc + instr_bytes*instrs).
    const uint64_t line_bytes = hierarchy_->config().l2.line_bytes;
    const uint64_t start = ctx.pc;
    const uint64_t end =
        ctx.pc + static_cast<uint64_t>(instrs * config_.core.instr_bytes);
    uint64_t line = start / line_bytes;
    const uint64_t last_line = (end == start ? start : end - 1) / line_bytes;
    double stall = 0.0;
    for (; line <= last_line; ++line) {
      if (line == ctx.next_ifetch_line - 1) continue;  // already fetched
      memsim::AccessResult r =
          hierarchy_->AccessInstr(core_id, line * line_bytes,
                                  static_cast<uint64_t>(core.now));
      ctx.next_ifetch_line = line + 1;
      if (tenants_on_ && measuring_) {
        ++tenant_[TenantOf(ctx)].instr_count[static_cast<int>(r.cls)];
      }
      if (r.latency > config_.core.ifetch_hide) {
        const double eff = static_cast<double>(r.latency) -
                           static_cast<double>(config_.core.ifetch_hide);
        const Bucket b = BucketFor(r.cls, /*instr=*/true);
        if (config_.core.camp == Camp::kFat) {
          core.now += eff;
          if (measuring_) core.bd.Add(b, eff);
        } else {
          // LC: the context blocks; the core keeps running other contexts.
          ctx.blocked = true;
          ctx.blocked_until = std::max(ctx.blocked_until, core.now + eff);
          ctx.block_bucket = b;
        }
        stall += eff;
      }
    }
    ctx.pc = end;
    return stall;
  }

  // Refills ctx with its next event(s); returns false when out of events.
  bool AdvanceContext(Core& core, uint32_t core_id, Context& ctx) {
    using trace::EventKind;
    while (true) {
      if (ctx.client_ids.empty() || ctx.finished) return false;
      const trace::ClientTrace* tr = clients_[ctx.client_ids[ctx.cur_client]];
      if (ctx.pos >= tr->events_size()) {
        // Client drained: rotate to the next client on this context.
        if (config_.loop_traces) {
          ctx.cur_client = (ctx.cur_client + 1) % ctx.client_ids.size();
          ctx.pos = 0;
          ctx.request_start = core.now;
          continue;
        }
        // Without looping, each client runs exactly once.
        if (ctx.cur_client + 1 < ctx.client_ids.size()) {
          ++ctx.cur_client;
          ctx.pos = 0;
          ctx.request_start = core.now;
          continue;
        }
        ctx.finished = true;
        return false;
      }
      const uint64_t ev = tr->events_data()[ctx.pos++];
      ++events_replayed_;
      const EventKind kind = trace::UnpackKind(ev);
      switch (kind) {
        case EventKind::kCompute: {
          const uint32_t n = trace::UnpackCount(ev);
          if (n == 0) continue;
          ctx.pc = trace::UnpackAddr(ev);
          ctx.compute_remaining = n;
          FetchInstructions(core, core_id, ctx, n);
          return true;
        }
        case EventKind::kRead:
        case EventKind::kWrite: {
          const uint32_t n = std::max<uint32_t>(1, trace::UnpackCount(ev));
          ctx.compute_remaining = n;
          ctx.pending_event = ev;
          ctx.has_pending_mem = true;
          FetchInstructions(core, core_id, ctx, n);
          return true;
        }
        case EventKind::kMarker: {
          if (measuring_) {
            response_sum_ += core.now - ctx.request_start;
            ++responses_;
            if (tenants_on_) ++tenant_[TenantOf(ctx)].requests;
          }
          ctx.request_start = core.now;
          continue;
        }
      }
    }
  }

  // Issues the context's pending memory access at core.now.
  void IssueMem(Core& core, uint32_t core_id, Context& ctx) {
    using memsim::AccessClass;
    using trace::EventKind;
    const uint64_t ev = ctx.pending_event;
    ctx.has_pending_mem = false;
    const uint64_t addr = trace::UnpackAddr(ev);
    const bool is_write = trace::UnpackKind(ev) == EventKind::kWrite;
    const bool dependent = trace::UnpackDependent(ev);

    memsim::AccessResult r = hierarchy_->AccessData(
        core_id, addr, is_write, static_cast<uint64_t>(core.now));
    if (tenants_on_ && measuring_) {
      ++tenant_[TenantOf(ctx)].data_count[static_cast<int>(r.cls)];
    }
    if (r.cls == AccessClass::kL1Hit) return;  // covered by the pipeline
    // Stores retire through the store buffer and do not stall the pipeline
    // (they still update cache and coherence state above).
    if (is_write) return;

    const CoreParams& p = config_.core;
    const uint32_t hide = dependent ? p.dep_hide : p.pipeline_hide;
    double eff = std::max(0.0, static_cast<double>(r.latency) -
                                   static_cast<double>(hide));
    if (p.camp == Camp::kFat) {
      // Clustered independent misses overlap via MLP; dependent (pointer-
      // chase) misses are serially exposed.
      if (!dependent && p.rob_window > 0 &&
          ctx.instr_since_miss < static_cast<double>(p.rob_window)) {
        eff /= p.mlp;
      }
      ctx.instr_since_miss = 0.0;
      const double lat = static_cast<double>(r.latency);
      const double other_part =
          lat > 0 ? eff * (static_cast<double>(r.queue_delay) / lat) : 0.0;
      const double class_part = eff - other_part;
      core.now += eff;
      if (measuring_) {
        core.bd.Add(BucketFor(r.cls, false), class_part);
        core.bd.Add(Bucket::kOther, other_part);
      }
    } else {
      // LC: block this context; idle-time attribution happens if and when
      // the whole core runs out of runnable contexts.
      ctx.blocked = true;
      ctx.blocked_until =
          core.now + eff + static_cast<double>(p.pipeline_hide);
      ctx.block_bucket = BucketFor(r.cls, false);
      ctx.instr_since_miss = 0.0;
    }
  }

  // Advances one core by one scheduling step; returns false if the core
  // has no further work.
  bool StepCore(Core& core, uint32_t core_id) {
    using replay_detail::kEps;
    const CoreParams& p = config_.core;

    // Wake contexts whose misses resolved.
    for (Context& c : core.ctx) {
      if (c.blocked && c.blocked_until <= core.now + kEps) c.blocked = false;
    }

    // Ensure every unblocked context either has compute work or is
    // finished. Issue zero-compute pending memory ops inline.
    bool any_work = false;
    bool any_blocked = false;
    for (Context& c : core.ctx) {
      if (c.finished || c.client_ids.empty()) continue;
      int guard = 0;
      while (!c.blocked && c.compute_remaining <= kEps && ++guard < 1024) {
        if (c.has_pending_mem) {
          IssueMem(core, core_id, c);
          continue;
        }
        if (!AdvanceContext(core, core_id, c)) break;
      }
      if (c.finished) continue;
      if (c.blocked) {
        any_blocked = true;
      } else if (c.compute_remaining > kEps) {
        any_work = true;
      }
    }

    if (!any_work && !any_blocked) return false;  // core drained

    if (!any_work) {
      // All live contexts are blocked: exposed stall. Attribute the idle
      // window to the class of the earliest-resolving miss (the one the
      // core is "waiting on").
      double wake = 1e300;
      Bucket b = Bucket::kOther;
      for (const Context& c : core.ctx) {
        if (c.blocked && c.blocked_until < wake) {
          wake = c.blocked_until;
          b = c.block_bucket;
        }
      }
      const double idle = std::max(kEps, wake - core.now);
      if (measuring_) core.bd.Add(b, idle);
      core.now += idle;
      return true;
    }

    // Runnable contexts share the issue width.
    uint32_t runnable = 0;
    for (const Context& c : core.ctx) {
      if (!c.finished && !c.blocked && c.compute_remaining > kEps) ++runnable;
    }
    double rate =
        std::min(p.compute_ipc, static_cast<double>(p.issue_width) /
                                    static_cast<double>(runnable));
    if (runnable > 1) rate *= p.mt_efficiency;

    // Quantum: run until the first context drains its compute, a blocked
    // context wakes, or the fairness quantum elapses.
    double dt = p.camp == Camp::kFat
                    ? replay_detail::kFcQuantumInstrs / rate
                    : replay_detail::kLcQuantumCycles;
    for (const Context& c : core.ctx) {
      if (!c.finished && !c.blocked && c.compute_remaining > kEps) {
        dt = std::min(dt, c.compute_remaining / rate);
      }
      if (c.blocked) {
        dt = std::min(dt, std::max(kEps, c.blocked_until - core.now));
      }
    }
    dt = std::max(dt, kEps);

    double executed_total = 0.0;
    for (Context& c : core.ctx) {
      if (c.finished || c.blocked || c.compute_remaining <= kEps) continue;
      const double exec = std::min(c.compute_remaining, rate * dt);
      c.compute_remaining -= exec;
      c.committed += exec;
      c.instr_since_miss += exec;
      executed_total += exec;
      if (tenants_on_ && measuring_) tenant_committed_[TenantOf(c)] += exec;
    }
    core.now += dt;
    if (measuring_) {
      core.bd.Add(Bucket::kComputation, dt);
      core.committed += executed_total;
      total_committed_ += executed_total;
      // FC charges an explicit branch-misprediction tax (deep pipeline);
      // LC's shallow-pipe penalty is folded into its conservative IPC.
      if (p.camp == Camp::kFat && p.branch_mpki > 0) {
        const double mispredicts = executed_total * p.branch_mpki / 1000.0;
        const double bstall = mispredicts * p.branch_penalty;
        core.bd.Add(Bucket::kOther, bstall);
        core.now += bstall;
      }
    } else {
      total_committed_ += executed_total;
    }
    return true;
  }

  /// Tenant of the context's *currently replaying* client — contexts can
  /// multiprogram clients from both tenants, so attribution keys off
  /// cur_client, not the context.
  uint32_t TenantOf(const Context& ctx) const {
    return ctx.client_ids[ctx.cur_client] < config_.tenant_a_clients ? 0u : 1u;
  }

  SimConfig config_;
  H* hierarchy_;
  // Owned, taken by value: CmpSimulator moves its vector in, other callers
  // copy theirs, and a temporary argument cannot dangle.
  std::vector<const trace::ClientTrace*> clients_;
  std::vector<Core> cores_;
  double total_committed_ = 0.0;
  double response_sum_ = 0.0;
  uint64_t responses_ = 0;
  uint64_t events_replayed_ = 0;
  bool measuring_ = true;
  // Multi-tenant attribution (SimConfig::tenant_a_clients): counts only,
  // never timing — a tenant-split run must stay bit-identical in its
  // aggregate results to the same run without the boundary.
  bool tenants_on_ = false;
  TenantStats tenant_[2];
  double tenant_committed_[2] = {0.0, 0.0};
};

}  // namespace stagedcmp::coresim

#endif  // STAGEDCMP_CORESIM_REPLAY_CORE_H_

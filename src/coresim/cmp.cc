#include "coresim/cmp.h"

#include <cassert>
#include <type_traits>
#include <utility>

#include "coresim/replay_core.h"

namespace stagedcmp::coresim {

const char* CampName(Camp c) { return c == Camp::kFat ? "FC" : "LC"; }

const char* BucketName(Bucket b) {
  switch (b) {
    case Bucket::kComputation: return "computation";
    case Bucket::kIStallL2: return "i-stall-L2";
    case Bucket::kIStallMem: return "i-stall-mem";
    case Bucket::kDStallL1: return "d-stall-L1";
    case Bucket::kDStallL2: return "d-stall-L2hit";
    case Bucket::kDStallMem: return "d-stall-mem";
    case Bucket::kDStallCoh: return "d-stall-coh";
    case Bucket::kOther: return "other";
    case Bucket::kCount: break;
  }
  return "?";
}

CoreParams CoreParams::Fat() {
  CoreParams p;
  p.camp = Camp::kFat;
  p.issue_width = 4;
  p.contexts = 1;
  p.compute_ipc = 1.4;  // database ILP is low even on a 4-wide OoO [4, 21]
  p.pipeline_hide = 6;
  p.ifetch_hide = 4;
  p.rob_window = 256;
  p.mlp = 2.5;
  p.dep_hide = 4;
  p.mt_efficiency = 1.0;
  p.branch_mpki = 6.0;
  p.branch_penalty = 14;
  return p;
}

CoreParams CoreParams::Lean() {
  CoreParams p;
  p.camp = Camp::kLean;
  p.issue_width = 2;
  p.contexts = 4;
  p.compute_ipc = 1.25;  // in-order dual-issue, dependency-limited
  p.pipeline_hide = 2;
  p.dep_hide = 2;
  p.ifetch_hide = 2;
  p.rob_window = 0;  // no miss overlap within a context
  p.mlp = 1.0;
  p.mt_efficiency = 0.55;  // fine-grained thread-switch issue bubbles
  p.branch_mpki = 6.0;
  p.branch_penalty = 5;  // shallow pipe
  return p;
}

CmpSimulator::CmpSimulator(const SimConfig& config,
                           memsim::MemoryHierarchy* hierarchy,
                           std::vector<const trace::ClientTrace*> clients)
    : config_(config), hierarchy_(hierarchy), clients_(std::move(clients)) {
  assert(hierarchy_ != nullptr);
}

SimResult CmpSimulator::Run() {
  // Run is call-once, so the engine takes the client vector over.
  return memsim::VisitHierarchy(*hierarchy_, [this](auto& h) {
    return ReplayEngine<std::remove_reference_t<decltype(h)>>(
               config_, &h, std::move(clients_))
        .Run();
  });
}

}  // namespace stagedcmp::coresim

// Cold-path definitions for the hierarchies: construction, stat resets,
// reporting. The per-access hot paths live inline in hierarchy.h so the
// templated replay core can inline them.
#include "memsim/hierarchy.h"

namespace stagedcmp::memsim {

const char* AccessClassName(AccessClass c) {
  switch (c) {
    case AccessClass::kL1Hit: return "L1-hit";
    case AccessClass::kL2Hit: return "L2-hit";
    case AccessClass::kOffChip: return "off-chip";
    case AccessClass::kCoherence: return "coherence";
    case AccessClass::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// SharedL2Hierarchy (CMP)
// ---------------------------------------------------------------------------

SharedL2Hierarchy::SharedL2Hierarchy(const HierarchyConfig& config)
    : config_(config),
      l2_(config.l2),
      l1_dir_(64, BitWordsFor(config.num_cores)) {
  if (config.num_cores > kMaxNodes) {
    std::fprintf(stderr,
                 "SharedL2Hierarchy: L1 directory supports <= %u cores, "
                 "got %u\n",
                 kMaxNodes, config.num_cores);
    std::abort();
  }
  line_shift_ = Log2Floor(config.l2.line_bytes);
  for (uint32_t i = 0; i < config.num_cores; ++i) {
    l1i_.emplace_back(config.l1i);
    l1d_.emplace_back(config.l1d);
    sbuf_.emplace_back(config.stream_buffer_count, config.stream_buffer_depth);
  }
  port_free_.assign(std::max<uint32_t>(1, config.l2_ports), 0);
}

void SharedL2Hierarchy::ResetStats() {
  stats_ = HierarchyStats();
  l2_.ResetCounters();
  for (Cache& c : l1i_) c.ResetCounters();
  for (Cache& c : l1d_) c.ResetCounters();
}

double SharedL2Hierarchy::L1DHitRate() const {
  uint64_t h = 0, m = 0;
  for (const Cache& c : l1d_) {
    h += c.hits();
    m += c.misses();
  }
  return (h + m) ? static_cast<double>(h) / static_cast<double>(h + m) : 0.0;
}

double SharedL2Hierarchy::L1IHitRate() const {
  uint64_t h = 0, m = 0;
  for (const Cache& c : l1i_) {
    h += c.hits();
    m += c.misses();
  }
  return (h + m) ? static_cast<double>(h) / static_cast<double>(h + m) : 0.0;
}

// ---------------------------------------------------------------------------
// Explicit instantiations
// ---------------------------------------------------------------------------

// Both SMP arms: the directory the factory builds and the snoop reference
// arm the equivalence tests replay. These force every member of each arm
// to compile even in a build whose TUs exercise only one of them.
// Deliberately NOT paired with `extern template` declarations in the
// header: suppressing per-TU instantiation would also stop the replay
// engine from inlining the per-access methods, which is the whole point
// of the design.
template class PrivateL2HierarchyImpl<true>;   // directory
template class PrivateL2HierarchyImpl<false>;  // snoop reference

std::unique_ptr<MemoryHierarchy> MakeCmpHierarchy(const HierarchyConfig& c) {
  return std::make_unique<SharedL2Hierarchy>(c);
}
std::unique_ptr<MemoryHierarchy> MakeSmpHierarchy(const HierarchyConfig& c) {
  return std::make_unique<PrivateL2Hierarchy>(c);
}

}  // namespace stagedcmp::memsim

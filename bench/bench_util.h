// Helpers shared by micro_kernels and the tests that pin what it measures.
#ifndef STAGEDCMP_BENCH_BENCH_UTIL_H_
#define STAGEDCMP_BENCH_BENCH_UTIL_H_

#include <cstdint>

#include "common/rng.h"
#include "memsim/hierarchy.h"

namespace stagedcmp::benchutil {

/// The SMP coherence-churn workload micro_kernels'
/// BM_SmpSnoopChurn/BM_SmpDirectoryChurn time, and on which
/// tests/test_directory_equivalence.cc pins the two arms bit-identical —
/// one definition, so the benchmark pair compares identical work
/// (README's Coherence & SMP scaling section relies on that). A hot
/// write-shared region plus per-node working sets far
/// larger than the (1MB) private L2s: most data accesses miss locally
/// and resolve through coherence, where the snoop arm pays
/// O(num_cores) peer probes and the directory arm visits only holders.
struct SmpChurnStream {
  static constexpr uint32_t kNodes = 64;

  static memsim::HierarchyConfig Config() {
    memsim::HierarchyConfig hc;
    hc.num_cores = kNodes;
    hc.l2 = memsim::CacheConfig{1ull << 20, 8, 64};
    return hc;
  }

  struct Access {
    uint32_t node;
    uint64_t addr;
    bool is_write;
  };

  explicit SmpChurnStream(uint64_t seed = 42) : rng(seed) {}

  Access Next() {
    Access a;
    a.node = static_cast<uint32_t>(rng.Next() % kNodes);
    a.is_write = (rng.Next() % 6) == 0;
    a.addr = (rng.Next() & 3) == 0
                 ? 0x1000000 + (rng.Next() % (256ull << 10))
                 : 0x100000000ull + a.node * (64ull << 20) +
                       (rng.Next() % (8ull << 20));
    a.addr &= ~63ull;
    return a;
  }

  Rng rng;
};

}  // namespace stagedcmp::benchutil

#endif  // STAGEDCMP_BENCH_BENCH_UTIL_H_

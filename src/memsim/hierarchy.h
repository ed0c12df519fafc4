// Memory hierarchies: per-core split L1s over either a shared on-chip L2
// (CMP camps) or private per-node L2s kept coherent with MESI (traditional
// SMP, for the Figure 7 comparison).
//
// The hierarchy is a timing oracle: cores present an access with the current
// local time and receive (latency, classification). Shared-resource
// contention is modeled with next-free times: the CMP charges finite L2
// ports (per-port next-free times, the effect behind the sublinear OLTP
// scaling in Figure 8), and the SMP — when the bus model is enabled —
// charges every coherence transaction against one shared-bus clock, so
// queue_delay becomes the real wait behind earlier transactions (the
// coherence-limited scaling knee; see docs/COHERENCE.md).
//
// Hot-path layout: both concrete hierarchies are `final` and define their
// per-access methods inline in this header, so the templated replay core
// (coresim/replay_core.h), instantiated per concrete type, devirtualizes
// AND inlines the whole event path — trace event to cache probe with no
// indirect call. Each access resolves each cache level with a single
// `Cache::Probe` whose handle is reused for the hit/fill/state steps, and
// both coherence directories — the CMP L1 directory and the SMP private-L2
// sharers-bitmap directory — are flat open-addressed tables
// (common/flat_hash.h) probed inline. Sharer sets are runtime-width
// bitmaps: each directory stores ceil(num_cores / 64) words per line,
// fixed at construction, as the table's per-slot words, and walks them
// through a `BitSpan` view (common/bitset.h). A machine of up to 64 nodes
// therefore keeps a one-word mask and a 1024-node one sixteen words, with
// one type per topology. The `MemoryHierarchy` interface remains the
// virtual facade for the harness; VisitHierarchy (below the type
// aliases) is the one place that maps it back to the two concrete
// production types. The SMP coherence protocol itself is documented in
// docs/COHERENCE.md.
#ifndef STAGEDCMP_MEMSIM_HIERARCHY_H_
#define STAGEDCMP_MEMSIM_HIERARCHY_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/flat_hash.h"
#include "common/histogram.h"
#include "common/status.h"
#include "memsim/cache.h"
#include "memsim/stream_buffer.h"

namespace stagedcmp::memsim {

/// Node-count ceiling of both hierarchies (their constructors abort past
/// it) and of every experiment (harness::MakeHierarchyConfig throws past
/// it). The directories size their sharer sets from num_cores, so
/// nothing else depends on it.
inline constexpr uint32_t kMaxNodes = 1024;

/// Where an access was satisfied; drives stall attribution.
enum class AccessClass : uint8_t {
  kL1Hit = 0,      ///< hit in the local L1 (or stream buffer for I-fetch)
  kL2Hit,          ///< hit in on-chip L2 (or fast L1-to-L1 transfer on CMP)
  kOffChip,        ///< main-memory access
  kCoherence,      ///< dirty-remote transfer / invalidation miss (SMP)
  kCount,
};

const char* AccessClassName(AccessClass c);

/// Latency parameters (cycles). L2 hit latency is the experiment's main
/// knob: either Cacti-derived ("real") or pinned at 4 ("const" sweeps).
struct LatencyConfig {
  uint32_t l1_hit = 2;
  uint32_t l2_hit = 14;
  uint32_t memory = 400;
  uint32_t remote_l2 = 350;       ///< SMP dirty-remote cache-to-cache
  uint32_t l1_transfer = 18;      ///< CMP on-chip L1-to-L1 via shared L2
  uint32_t stream_buffer_hit = 3;
};

struct HierarchyConfig {
  uint32_t num_cores = 4;
  CacheConfig l1i{32 * 1024, 4, 64};
  CacheConfig l1d{64 * 1024, 4, 64};
  CacheConfig l2{16ull * 1024 * 1024, 8, 64};
  LatencyConfig lat;
  uint32_t l2_ports = 4;          ///< parallel L2 access ports/banks
  uint32_t l2_port_occupancy = 4; ///< cycles a request holds a port
  bool stream_buffers = true;
  uint32_t stream_buffer_count = 4;
  uint32_t stream_buffer_depth = 8;
  /// SMP shared-bus occupancy model (private-L2 hierarchies only). When
  /// false — the pinned flat-latency reference arm — coherence actions
  /// charge only the flat LatencyConfig numbers and queue_delay stays
  /// zero, reproducing the historical SMP timing byte-for-byte. When
  /// true, every coherence transaction (remote fetch, upgrade round,
  /// writeback) also occupies the one bus, and requesters wait behind
  /// earlier transactions. Cycle accounting rules: docs/COHERENCE.md.
  bool smp_bus = false;
  uint32_t bus_addr_cycles = 4;   ///< address/snoop phase occupancy
  uint32_t bus_data_cycles = 12;  ///< cache-line data-transfer occupancy
};

struct AccessResult {
  uint64_t latency = 0;     ///< total load-to-use cycles
  AccessClass cls = AccessClass::kL1Hit;
  uint64_t queue_delay = 0; ///< portion of latency due to queueing (CMP L2
                            ///< ports, or the SMP shared bus)
};

/// Aggregate counters, one row per access class, split I vs D.
struct HierarchyStats {
  uint64_t data_count[static_cast<int>(AccessClass::kCount)] = {};
  uint64_t instr_count[static_cast<int>(AccessClass::kCount)] = {};
  uint64_t l1_to_l1_transfers = 0;
  uint64_t invalidations = 0;
  uint64_t writebacks = 0;
  LogHistogram queue_delay;
  /// SMP shared-bus occupancy counters (zero when the bus model is off
  /// and on CMP hierarchies).
  uint64_t bus_transactions = 0;
  uint64_t bus_busy_cycles = 0;
  uint64_t bus_peak_queue = 0;  ///< longest single-transaction bus wait

  uint64_t data_total() const {
    uint64_t t = 0;
    for (uint64_t c : data_count) t += c;
    return t;
  }
  double data_l2_hit_ratio() const {
    // Of accesses that missed L1, fraction served by on-chip L2.
    const uint64_t l2 = data_count[static_cast<int>(AccessClass::kL2Hit)];
    const uint64_t off = data_count[static_cast<int>(AccessClass::kOffChip)] +
                         data_count[static_cast<int>(AccessClass::kCoherence)];
    const uint64_t denom = l2 + off;
    return denom ? static_cast<double>(l2) / static_cast<double>(denom) : 0.0;
  }
};

/// Abstract hierarchy; cores call Access() in (approximately) time order.
class MemoryHierarchy {
 public:
  virtual ~MemoryHierarchy() = default;

  /// A data access from `core` to byte address `addr` at local time `now`.
  virtual AccessResult AccessData(uint32_t core, uint64_t addr, bool is_write,
                                  uint64_t now) = 0;

  /// An instruction fetch of the line containing `addr`.
  virtual AccessResult AccessInstr(uint32_t core, uint64_t addr,
                                   uint64_t now) = 0;

  virtual const HierarchyStats& stats() const = 0;
  virtual const HierarchyConfig& config() const = 0;

  /// Zeroes all counters, keeping cache contents (post-warmup measurement).
  virtual void ResetStats() = 0;

  /// Per-level hit rates for reporting (L1D, L1I, L2 as seen by misses).
  virtual double L1DHitRate() const = 0;
  virtual double L1IHitRate() const = 0;
  virtual double L2HitRate() const = 0;
};

/// Coherence-directory entry, shared by both hierarchies: the line's
/// `owner`, -1 for none. The line's sharer set — one bit per node — is
/// stored beside it as the directory's per-slot words (SharersOf).
///   * CMP L1 directory: the core that last wrote the line. A hint — the
///     L1-to-L1 transfer path checks that core's L1D still holds the line
///     Modified before using it.
///   * SMP L2 directory: exactly the node whose L2 holds the line
///     Exclusive or Modified (MESI allows at most one). It mirrors L2
///     state only: a node whose L1D copy is Modified over a still-
///     Exclusive L2 copy owns a clean line, as a snoop of the L2s sees.
struct DirEntry {
  int16_t owner = -1;
};

/// line -> DirEntry, with BitWordsFor(num_cores) sharer words per line.
using SharerDirectory = FlatMap64<DirEntry>;

/// The sharer set of `e`, an entry of `dir`; valid as long as `e` is.
inline BitSpan SharersOf(SharerDirectory& dir, const DirEntry& e) {
  return BitSpan(dir.Words(e), dir.words_per_slot());
}
inline ConstBitSpan SharersOf(const SharerDirectory& dir,
                              const DirEntry& e) {
  return ConstBitSpan(dir.Words(e), dir.words_per_slot());
}

/// CMP: private split L1s, one shared banked L2, on-chip L1-to-L1 transfers.
class SharedL2Hierarchy final : public MemoryHierarchy {
 public:
  explicit SharedL2Hierarchy(const HierarchyConfig& config);

  inline AccessResult AccessData(uint32_t core, uint64_t addr, bool is_write,
                                 uint64_t now) override;
  inline AccessResult AccessInstr(uint32_t core, uint64_t addr,
                                  uint64_t now) override;

  const HierarchyStats& stats() const override { return stats_; }
  const HierarchyConfig& config() const override { return config_; }
  void ResetStats() override;
  double L1DHitRate() const override;
  double L1IHitRate() const override;
  double L2HitRate() const override { return l2_.hit_rate(); }

  const Cache& l2() const { return l2_; }

 private:
  inline uint64_t PortDelay(uint64_t line_addr, uint64_t now);
  inline void TrackL1Fill(uint32_t core, uint64_t line_addr, bool is_write);

  HierarchyConfig config_;
  std::vector<Cache> l1i_;
  std::vector<Cache> l1d_;
  std::vector<StreamBufferFile> sbuf_;
  Cache l2_;
  std::vector<uint64_t> port_free_;  // next-free time per L2 port
  // Directory over L1D lines: which cores hold the line, who owns it
  // dirty. Flat open-addressed table — probed on every L1D fill and
  // eviction, which made unordered_map's node allocations a measured
  // hot spot.
  SharerDirectory l1_dir_;
  HierarchyStats stats_;
  uint32_t line_shift_;
};

/// SMP: each node has split L1s and a private L2; MESI over the L2s.
/// Dirty-remote reads are long-latency cache-to-cache transfers; writes to
/// remotely-shared lines invalidate (subsequent remote reads then miss).
/// The full protocol — states, inclusion rules, transition table, counter
/// attribution, bus cycle accounting — is documented in docs/COHERENCE.md.
///
/// Two arms share this implementation, selected at compile time:
///   * kUseDirectory = true (`PrivateL2Hierarchy`, the default): a
///     sharers-bitmap directory (`SharerDirectory`) with each line's
///     Exclusive/Modified owner, kept exactly in sync by every L2 fill,
///     invalidation, downgrade and eviction. A read miss visits only the
///     owner, if any: Shared holders need no action. Write misses and
///     upgrades visit the bitmap's set bits, each one an invalidation. So
///     coherence cost is O(1) per read and O(holders) per write, instead
///     of O(num_cores) for both.
///   * kUseDirectory = false (`PrivateL2SnoopHierarchy`): the original
///     broadcast snoop that probes every peer L2 per miss/upgrade. Kept
///     only as the reference arm: no factory builds it, and
///     tests/test_directory_equivalence.cc replays it directly to pin the
///     two arms bit-identical.
///
/// Orthogonally, `HierarchyConfig::smp_bus` selects the timing arm: flat
/// coherence latencies (the pinned reference) or the shared-bus occupancy
/// model. Both coherence arms charge the bus through the same code, so
/// directory-vs-snoop stays bit-identical with the bus on or off.
template <bool kUseDirectory>
class PrivateL2HierarchyImpl final : public MemoryHierarchy {
 public:
  explicit PrivateL2HierarchyImpl(const HierarchyConfig& config);

  inline AccessResult AccessData(uint32_t core, uint64_t addr, bool is_write,
                                 uint64_t now) override;
  inline AccessResult AccessInstr(uint32_t core, uint64_t addr,
                                  uint64_t now) override;

  const HierarchyStats& stats() const override { return stats_; }
  const HierarchyConfig& config() const override { return config_; }
  void ResetStats() override;
  double L1DHitRate() const override;
  double L1IHitRate() const override;
  double L2HitRate() const override;

  /// The coherence directory (empty for the snoop arm). Tests only.
  const SharerDirectory& directory() const { return l2_dir_; }

  /// Node `n`'s private L1D and L2. Tests only.
  const Cache& l1d(uint32_t n) const { return l1d_[n]; }
  const Cache& l2(uint32_t n) const { return l2_[n]; }

  /// Cross-checks the directory against the actual L2 contents, both
  /// ways: every resident L2 line must have its node's sharer bit set
  /// (with owner pointing at the node iff that L2 copy is Exclusive or
  /// Modified), and every directory bit and owner must correspond to a
  /// resident line in that state. O(total L2 capacity); returns an empty
  /// string when consistent, else a description of the first violation.
  /// Tests only.
  std::string CheckDirectoryInvariants() const;

 private:
  /// Fetches a line into node caches after local L2 miss (probe `p2` of
  /// the node's L2 is reused for the fill). Returns the access class and
  /// the MESI state the line was installed with. With the bus model on,
  /// the fetch acquires the bus (address + data phases) and any dirty
  /// victim posts a writeback; `*bus_wait` receives the requester's wait.
  inline AccessClass FetchRemoteOrMemory(uint32_t node, uint64_t line_addr,
                                         bool is_write, uint64_t now,
                                         const Cache::ProbeResult& p2,
                                         LineState* fill_state,
                                         uint64_t* bus_wait);

  /// Acquires the shared bus at local time `now` for `occupancy` cycles:
  /// waits behind the transaction currently holding it, then holds it.
  /// Returns the wait. Call only with the bus model on.
  inline uint64_t BusAcquire(uint64_t now, uint32_t occupancy) {
    const uint64_t start = std::max<uint64_t>(now, bus_free_);
    const uint64_t delay = start - now;
    bus_free_ = start + occupancy;
    ++stats_.bus_transactions;
    stats_.bus_busy_cycles += occupancy;
    if (delay > stats_.bus_peak_queue) stats_.bus_peak_queue = delay;
    stats_.queue_delay.Add(delay);
    return delay;
  }

  /// Posted (fire-and-forget) bus transaction — dirty-victim writebacks.
  /// Occupies the bus and counts, but nobody waits on it, so it adds no
  /// latency and no queue_delay sample.
  inline void BusPosted(uint64_t now, uint32_t occupancy) {
    bus_free_ = std::max<uint64_t>(now, bus_free_) + occupancy;
    ++stats_.bus_transactions;
    stats_.bus_busy_cycles += occupancy;
  }

  /// Directory bookkeeping for an L2 eviction: node no longer holds the
  /// victim line. Called on every valid `EvictedLine` an L2 fill returns
  /// (data and instruction paths alike) so the bitmap never goes stale.
  inline void DirNoteEviction(uint32_t node, const EvictedLine& ev) {
    DirEntry* e = l2_dir_.Find(ev.line_addr);
    if (e == nullptr) return;
    const BitSpan sharers = SharersOf(l2_dir_, *e);
    sharers.Reset(node);
    if (e->owner == static_cast<int16_t>(node)) e->owner = -1;
    if (sharers.None()) l2_dir_.Erase(ev.line_addr);
  }

  HierarchyConfig config_;
  std::vector<Cache> l1i_;
  std::vector<Cache> l1d_;
  std::vector<Cache> l2_;  // one private L2 per node
  std::vector<StreamBufferFile> sbuf_;
  // line -> {sharers bitmap, E/M owner} over the private L2s. Flat
  // open-addressed table (same rationale as the CMP L1 directory):
  // probed on every L2 miss, upgrade, fill and eviction. Empty, with no
  // sharer words, in the snoop arm.
  SharerDirectory l2_dir_;
  HierarchyStats stats_;
  uint64_t bus_free_ = 0;  // shared-bus next-free time (smp_bus arm)
  uint32_t line_shift_;
};

/// Directory-based SMP hierarchy (the default; a read miss visits only
/// the line's owner, a write only its actual holders).
using PrivateL2Hierarchy = PrivateL2HierarchyImpl<true>;
/// Broadcast-snoop reference arm for the equivalence tests (O(num_cores)
/// probes per miss/upgrade; no sharer bitmaps).
using PrivateL2SnoopHierarchy = PrivateL2HierarchyImpl<false>;

/// Factory helpers used by the harness. Past kMaxNodes the constructors
/// abort.
std::unique_ptr<MemoryHierarchy> MakeCmpHierarchy(const HierarchyConfig& c);
std::unique_ptr<MemoryHierarchy> MakeSmpHierarchy(const HierarchyConfig& c);

/// Calls `f` with `h` downcast to its concrete type — one of the two
/// production hierarchies the factories above build — and returns its
/// result. This is the one list of those types: code instantiated per
/// type through it (the replay engine) devirtualizes and inlines the
/// per-access methods. Aborts on any other MemoryHierarchy, including the
/// snoop reference arm, which only tests replay (directly, by type).
template <class F>
decltype(auto) VisitHierarchy(MemoryHierarchy& h, F&& f) {
  if (auto* p = dynamic_cast<SharedL2Hierarchy*>(&h)) return f(*p);
  if (auto* p = dynamic_cast<PrivateL2Hierarchy*>(&h)) return f(*p);
  std::fprintf(stderr,
               "VisitHierarchy: not a production hierarchy type (build it "
               "with MakeCmpHierarchy or MakeSmpHierarchy)\n");
  std::abort();
}

// ---------------------------------------------------------------------------
// SharedL2Hierarchy (CMP) — inline hot path
// ---------------------------------------------------------------------------

inline uint64_t SharedL2Hierarchy::PortDelay(uint64_t line_addr,
                                             uint64_t now) {
  // Requests are distributed over ports by line address (banked L2); a
  // request waits until its bank's port frees, then occupies it.
  const size_t p = static_cast<size_t>(line_addr) % port_free_.size();
  const uint64_t start = std::max<uint64_t>(now, port_free_[p]);
  const uint64_t delay = start - now;
  port_free_[p] = start + config_.l2_port_occupancy;
  stats_.queue_delay.Add(delay);
  return delay;
}

inline void SharedL2Hierarchy::TrackL1Fill(uint32_t core, uint64_t line_addr,
                                           bool is_write) {
  DirEntry& e = l1_dir_.FindOrInsert(line_addr);
  const BitSpan sharers = SharersOf(l1_dir_, e);
  if (is_write) {
    // Invalidate all other L1 copies.
    sharers.ForEachSetBitExcept(core, [&](uint32_t c) {
      l1d_[c].Invalidate(line_addr);
      ++stats_.invalidations;
    });
    sharers.SetOnly(core);
    e.owner = static_cast<int16_t>(core);
  } else {
    sharers.Set(core);
  }
}

inline AccessResult SharedL2Hierarchy::AccessData(uint32_t core, uint64_t addr,
                                                  bool is_write,
                                                  uint64_t now) {
  AccessResult r;
  const uint64_t line = addr >> line_shift_;
  Cache& l1 = l1d_[core];

  const Cache::ProbeResult lp = l1.Probe(line);
  if (l1.AccessAt(lp, is_write)) {
    r.cls = AccessClass::kL1Hit;
    r.latency = config_.lat.l1_hit;
    if (is_write) {
      // Write to a shared line: invalidate remote L1 copies.
      if (DirEntry* e = l1_dir_.Find(line)) {
        if (SharersOf(l1_dir_, *e).AnyExcept(core)) {
          TrackL1Fill(core, line, /*is_write=*/true);
        } else {
          e->owner = static_cast<int16_t>(core);
        }
      }
    }
    ++stats_.data_count[static_cast<int>(r.cls)];
    return r;
  }

  // L1 miss. Check for a dirty copy in a peer L1 (fast on-chip transfer).
  DirEntry* de = l1_dir_.Find(line);
  const bool dirty_remote =
      de != nullptr && de->owner >= 0 &&
      de->owner != static_cast<int16_t>(core) &&
      l1d_[static_cast<uint32_t>(de->owner)].GetState(line) ==
          LineState::kModified;

  const uint64_t qd = PortDelay(line, now);
  r.queue_delay = qd;

  if (dirty_remote) {
    // On-chip L1-to-L1 transfer through the shared L2 fabric. The remote
    // copy is downgraded; the shared L2 absorbs the dirty data.
    const uint32_t owner = static_cast<uint32_t>(de->owner);
    l1d_[owner].Downgrade(line);
    de->owner = -1;
    const Cache::ProbeResult p2 = l2_.Probe(line);
    if (!p2.hit()) l2_.FillAt(p2, line, /*is_write=*/true);
    r.cls = AccessClass::kL2Hit;  // on-chip; paper counts these as L2 hits
    r.latency = config_.lat.l1_transfer + qd;
    ++stats_.l1_to_l1_transfers;
  } else {
    const Cache::ProbeResult p2 = l2_.Probe(line);
    if (l2_.AccessAt(p2, /*is_write=*/false)) {
      r.cls = AccessClass::kL2Hit;
      r.latency = config_.lat.l2_hit + qd;
    } else {
      r.cls = AccessClass::kOffChip;
      r.latency = config_.lat.memory + qd;
      EvictedLine ev = l2_.FillAt(p2, line, is_write);
      if (ev.valid && ev.dirty) ++stats_.writebacks;
    }
  }

  EvictedLine l1ev = l1.FillAt(lp, line, is_write);
  if (l1ev.valid) {
    if (DirEntry* e = l1_dir_.Find(l1ev.line_addr)) {
      const BitSpan sharers = SharersOf(l1_dir_, *e);
      sharers.Reset(core);
      if (e->owner == static_cast<int16_t>(core)) {
        e->owner = -1;
        // Dirty L1 victim is absorbed by the shared (writeback) L2.
        if (l1ev.dirty) {
          const Cache::ProbeResult pv = l2_.Probe(l1ev.line_addr);
          if (!pv.hit()) l2_.FillAt(pv, l1ev.line_addr, /*is_write=*/true);
        }
      }
      if (sharers.None()) l1_dir_.Erase(l1ev.line_addr);
    }
  }
  TrackL1Fill(core, line, is_write);

  ++stats_.data_count[static_cast<int>(r.cls)];
  return r;
}

inline AccessResult SharedL2Hierarchy::AccessInstr(uint32_t core,
                                                   uint64_t addr,
                                                   uint64_t now) {
  AccessResult r;
  const uint64_t line = addr >> line_shift_;
  Cache& l1 = l1i_[core];

  const Cache::ProbeResult lp = l1.Probe(line);
  if (l1.AccessAt(lp, /*is_write=*/false)) {
    r.cls = AccessClass::kL1Hit;
    r.latency = 0;  // fetch pipelined; no stall contribution
    ++stats_.instr_count[static_cast<int>(r.cls)];
    return r;
  }

  if (config_.stream_buffers && sbuf_[core].Probe(line)) {
    r.cls = AccessClass::kL1Hit;  // near-hit; stream buffer supplies line
    r.latency = config_.lat.stream_buffer_hit;
    l1.FillAt(lp, line, /*is_write=*/false);
    ++stats_.instr_count[static_cast<int>(r.cls)];
    return r;
  }

  const uint64_t qd = PortDelay(line, now);
  r.queue_delay = qd;
  const Cache::ProbeResult p2 = l2_.Probe(line);
  if (l2_.AccessAt(p2, /*is_write=*/false)) {
    r.cls = AccessClass::kL2Hit;
    r.latency = config_.lat.l2_hit + qd;
  } else {
    r.cls = AccessClass::kOffChip;
    r.latency = config_.lat.memory + qd;
    l2_.FillAt(p2, line, /*is_write=*/false);
  }
  l1.FillAt(lp, line, /*is_write=*/false);
  if (config_.stream_buffers) sbuf_[core].Allocate(line);
  ++stats_.instr_count[static_cast<int>(r.cls)];
  return r;
}

// ---------------------------------------------------------------------------
// PrivateL2HierarchyImpl (SMP) — inline hot path, both arms
// ---------------------------------------------------------------------------

template <bool kUseDirectory>
inline AccessClass
PrivateL2HierarchyImpl<kUseDirectory>::FetchRemoteOrMemory(
    uint32_t node, uint64_t line_addr, bool is_write, uint64_t now,
    const Cache::ProbeResult& p2, LineState* fill_state, uint64_t* bus_wait) {
  // Any L2-miss fill is one bus transaction: the address phase carries
  // the request (and its invalidation round, on a write), the data phase
  // the line — whether it comes from memory or dirty cache-to-cache.
  if (config_.smp_bus) {
    *bus_wait = BusAcquire(
        now, config_.bus_addr_cycles + config_.bus_data_cycles);
  }
  // Resolve remote holders. Dirty-remote => cache-to-cache (coherence
  // miss). Clean-remote on a write => invalidate peers, fetch from memory.
  bool dirty_remote = false;
  bool any_remote = false;
  // The per-peer action, shared verbatim by both arms: the directory may
  // only change WHICH peers get visited, never what happens to a visited
  // one. A set bit over an Invalid line (stale directory — a bug, see
  // CheckDirectoryInvariants) falls out as the same no-op a snoop of
  // that peer would be.
  auto visit_peer = [&](uint32_t n) {
    const Cache::ProbeResult pn = l2_[n].Probe(line_addr);
    const LineState s = l2_[n].StateAt(pn);
    if (s == LineState::kInvalid) return;
    any_remote = true;
    if (s == LineState::kModified) dirty_remote = true;
    if (is_write) {
      l2_[n].InvalidateAt(pn);
      l1d_[n].Invalidate(line_addr);
      ++stats_.invalidations;
    } else if (s == LineState::kModified || s == LineState::kExclusive) {
      l2_[n].DowngradeAt(pn);
      l1d_[n].SetState(line_addr, LineState::kShared);
    }
  };
  if constexpr (kUseDirectory) {
    // Visit only actual holders instead of snooping all num_cores peers.
    if (DirEntry* de = l2_dir_.Find(line_addr)) {
      const BitSpan sharers = SharersOf(l2_dir_, *de);
      if (is_write) {
        // Every holder is invalidated; the filler re-registers below.
        sharers.ForEachSetBitExcept(node, visit_peer);
        sharers.Clear();
      } else {
        // A read changes only the Exclusive/Modified owner (downgraded);
        // visiting a Shared holder would only set any_remote.
        any_remote = sharers.AnyExcept(node);
        if (de->owner >= 0) visit_peer(static_cast<uint32_t>(de->owner));
      }
      de->owner = -1;
    }
  } else {
    for (uint32_t n = 0; n < config_.num_cores; ++n) {
      if (n != node) visit_peer(n);
    }
  }
  *fill_state =
      is_write ? LineState::kModified
               : (any_remote ? LineState::kShared : LineState::kExclusive);
  EvictedLine ev = l2_[node].FillAt(p2, line_addr, is_write, *fill_state);
  if constexpr (kUseDirectory) {
    // Victim first (its Erase may move entries), then re-find the filled
    // line's entry and register the node.
    if (ev.valid) DirNoteEviction(node, ev);
    DirEntry& e = l2_dir_.FindOrInsert(line_addr);
    SharersOf(l2_dir_, e).Set(node);
    if (*fill_state != LineState::kShared) {
      e.owner = static_cast<int16_t>(node);
    }
  }
  if (ev.valid && ev.dirty) {
    ++stats_.writebacks;
    // Dirty victim goes back over the bus, posted behind the fill: it
    // occupies the data bus but the requester does not wait on it.
    if (config_.smp_bus) BusPosted(now, config_.bus_data_cycles);
  }
  return dirty_remote ? AccessClass::kCoherence : AccessClass::kOffChip;
}

template <bool kUseDirectory>
inline AccessResult PrivateL2HierarchyImpl<kUseDirectory>::
    AccessData(uint32_t core, uint64_t addr, bool is_write, uint64_t now) {
  AccessResult r;
  const uint64_t line = addr >> line_shift_;

  // L1D.
  const Cache::ProbeResult lp = l1d_[core].Probe(line);
  const LineState l1s = l1d_[core].StateAt(lp);
  const bool l1_ok = l1s != LineState::kInvalid &&
                     (!is_write || l1s == LineState::kModified ||
                      l1s == LineState::kExclusive);
  if (l1_ok) {
    l1d_[core].AccessAt(lp, is_write);
    r.cls = AccessClass::kL1Hit;
    r.latency = config_.lat.l1_hit;
    ++stats_.data_count[static_cast<int>(r.cls)];
    return r;
  }
  // Present-but-unwritable (upgrade miss, write to Shared): refresh LRU.
  // Absent: records the miss. Both are one AccessAt through the probe.
  l1d_[core].AccessAt(lp, false);

  // Private L2.
  const Cache::ProbeResult p2 = l2_[core].Probe(line);
  const LineState l2s = l2_[core].StateAt(p2);
  const bool l2_ok = l2s != LineState::kInvalid &&
                     (!is_write || l2s == LineState::kModified ||
                      l2s == LineState::kExclusive);
  // Whether the local L2 holds the line Shared once this access resolves
  // (selects the L1 fill state below without re-probing the L2).
  bool l2_shared_after = false;
  if (l2_ok) {
    // A write hit on Exclusive dirties the L2 copy; the directory needs
    // no update, because the writer is already the line's owner.
    l2_[core].AccessAt(p2, is_write);
    r.cls = AccessClass::kL2Hit;
    r.latency = config_.lat.l2_hit;
    l2_shared_after = !is_write && l2s == LineState::kShared;
  } else if (l2s == LineState::kShared && is_write) {
    // Upgrade: invalidate remote sharers; bus transaction latency. As in
    // FetchRemoteOrMemory, the per-peer action is one shared body.
    auto invalidate_peer = [&](uint32_t n) {
      const Cache::ProbeResult pn = l2_[n].Probe(line);
      if (l2_[n].StateAt(pn) != LineState::kInvalid) {
        l2_[n].InvalidateAt(pn);
        l1d_[n].Invalidate(line);
        ++stats_.invalidations;
      }
    };
    if constexpr (kUseDirectory) {
      DirEntry& de = l2_dir_.FindOrInsert(line);  // resident => present
      const BitSpan sharers = SharersOf(l2_dir_, de);
      sharers.ForEachSetBitExcept(core, invalidate_peer);
      sharers.SetOnly(core);
      de.owner = static_cast<int16_t>(core);
    } else {
      for (uint32_t n = 0; n < config_.num_cores; ++n) {
        if (n != core) invalidate_peer(n);
      }
    }
    l2_[core].SetStateAt(p2, LineState::kModified);
    l2_[core].AccessAt(p2, true);
    r.cls = AccessClass::kCoherence;
    r.latency = config_.lat.remote_l2 / 2;  // address-only transaction
    if (config_.smp_bus) {
      // The upgrade's invalidation round is an address-only transaction.
      const uint64_t wait = BusAcquire(now, config_.bus_addr_cycles);
      r.queue_delay = wait;
      r.latency += wait;
    }
  } else {
    l2_[core].AccessAt(p2, false);  // records the miss
    LineState fill_state = LineState::kInvalid;
    uint64_t bus_wait = 0;
    const AccessClass cls = FetchRemoteOrMemory(core, line, is_write, now, p2,
                                                &fill_state, &bus_wait);
    r.cls = cls;
    r.latency = (cls == AccessClass::kCoherence ? config_.lat.remote_l2
                                                : config_.lat.memory) +
                bus_wait;
    r.queue_delay = bus_wait;
    l2_shared_after = !is_write && fill_state == LineState::kShared;
  }

  l1d_[core].FillAt(lp, line, is_write,
                    is_write ? LineState::kModified
                             : (l2_shared_after ? LineState::kShared
                                                : LineState::kExclusive));
  // L1 victims are absorbed by the inclusive private L2.
  ++stats_.data_count[static_cast<int>(r.cls)];
  return r;
}

template <bool kUseDirectory>
inline AccessResult PrivateL2HierarchyImpl<kUseDirectory>::
    AccessInstr(uint32_t core, uint64_t addr, uint64_t now) {
  AccessResult r;
  const uint64_t line = addr >> line_shift_;
  const Cache::ProbeResult lp = l1i_[core].Probe(line);
  if (l1i_[core].AccessAt(lp, false)) {
    r.cls = AccessClass::kL1Hit;
    r.latency = 0;
    ++stats_.instr_count[static_cast<int>(r.cls)];
    return r;
  }
  if (config_.stream_buffers && sbuf_[core].Probe(line)) {
    r.cls = AccessClass::kL1Hit;
    r.latency = config_.lat.stream_buffer_hit;
    l1i_[core].FillAt(lp, line, false);
    ++stats_.instr_count[static_cast<int>(r.cls)];
    return r;
  }
  const Cache::ProbeResult p2 = l2_[core].Probe(line);
  if (l2_[core].AccessAt(p2, false)) {
    r.cls = AccessClass::kL2Hit;
    r.latency = config_.lat.l2_hit;
  } else {
    r.cls = AccessClass::kOffChip;
    r.latency = config_.lat.memory;
    // An instruction fill is a memory fetch over the same shared bus.
    if (config_.smp_bus) {
      const uint64_t wait = BusAcquire(
          now, config_.bus_addr_cycles + config_.bus_data_cycles);
      r.queue_delay = wait;
      r.latency += wait;
    }
    // I-fetch fills do not snoop (the I-side is read-only), but they DO
    // change L2 contents, so the directory must see both the fill and
    // any victim it displaces — the classic way a bitmap goes stale.
    const EvictedLine ev =
        l2_[core].FillAt(p2, line, false, LineState::kShared);
    if constexpr (kUseDirectory) {
      if (ev.valid) DirNoteEviction(core, ev);
      SharersOf(l2_dir_, l2_dir_.FindOrInsert(line)).Set(core);
    }
    // A dirty data victim displaced by the I-fill still posts its
    // writeback on the bus (kept outside the writebacks counter, which
    // has never counted I-side victims — both arms, both timing modes).
    if (config_.smp_bus && ev.valid && ev.dirty) {
      BusPosted(now, config_.bus_data_cycles);
    }
  }
  l1i_[core].FillAt(lp, line, false);
  if (config_.stream_buffers) sbuf_[core].Allocate(line);
  ++stats_.instr_count[static_cast<int>(r.cls)];
  return r;
}

// ---------------------------------------------------------------------------
// PrivateL2HierarchyImpl — cold paths (explicitly instantiated for both
// arms in hierarchy.cc)
// ---------------------------------------------------------------------------

template <bool kUseDirectory>
PrivateL2HierarchyImpl<kUseDirectory>::PrivateL2HierarchyImpl(
    const HierarchyConfig& config)
    : config_(config),
      l2_dir_(64, kUseDirectory ? BitWordsFor(config.num_cores) : 0) {
  if (kUseDirectory && config.num_cores > kMaxNodes) {
    std::fprintf(stderr,
                 "PrivateL2Hierarchy: directory supports <= %u nodes, "
                 "got %u\n",
                 kMaxNodes, config.num_cores);
    std::abort();
  }
  line_shift_ = Log2Floor(config.l2.line_bytes);
  for (uint32_t i = 0; i < config.num_cores; ++i) {
    l1i_.emplace_back(config.l1i);
    l1d_.emplace_back(config.l1d);
    l2_.emplace_back(config.l2);
    sbuf_.emplace_back(config.stream_buffer_count, config.stream_buffer_depth);
  }
}

template <bool kUseDirectory>
void PrivateL2HierarchyImpl<kUseDirectory>::ResetStats() {
  // Counters only: cache contents, the directory (which mirrors them)
  // and the bus clock survive, so post-warmup measurement starts from a
  // warm machine.
  stats_ = HierarchyStats();
  for (Cache& c : l1i_) c.ResetCounters();
  for (Cache& c : l1d_) c.ResetCounters();
  for (Cache& c : l2_) c.ResetCounters();
}

template <bool kUseDirectory>
double PrivateL2HierarchyImpl<kUseDirectory>::L1DHitRate() const {
  uint64_t h = 0, m = 0;
  for (const Cache& c : l1d_) {
    h += c.hits();
    m += c.misses();
  }
  return (h + m) ? static_cast<double>(h) / static_cast<double>(h + m) : 0.0;
}

template <bool kUseDirectory>
double PrivateL2HierarchyImpl<kUseDirectory>::L1IHitRate() const {
  uint64_t h = 0, m = 0;
  for (const Cache& c : l1i_) {
    h += c.hits();
    m += c.misses();
  }
  return (h + m) ? static_cast<double>(h) / static_cast<double>(h + m) : 0.0;
}

template <bool kUseDirectory>
double PrivateL2HierarchyImpl<kUseDirectory>::L2HitRate() const {
  uint64_t h = 0, m = 0;
  for (const Cache& c : l2_) {
    h += c.hits();
    m += c.misses();
  }
  return (h + m) ? static_cast<double>(h) / static_cast<double>(h + m) : 0.0;
}

template <bool kUseDirectory>
std::string
PrivateL2HierarchyImpl<kUseDirectory>::CheckDirectoryInvariants()
    const {
  char buf[160];
  if constexpr (!kUseDirectory) {
    if (!l2_dir_.empty()) return "snoop arm has a non-empty directory";
    return std::string();
  }
  // Caches -> directory: every resident L2 line is registered, and an
  // Exclusive or Modified L2 copy is the recorded owner.
  std::string err;
  for (uint32_t n = 0; n < config_.num_cores && err.empty(); ++n) {
    l2_[n].ForEachValidLine([&](uint64_t line, LineState s) {
      if (!err.empty()) return;
      const DirEntry* e = l2_dir_.Find(line);
      if (e == nullptr || !SharersOf(l2_dir_, *e).Test(n)) {
        std::snprintf(buf, sizeof(buf),
                      "L2[%u] holds line %#llx but directory has no sharer "
                      "bit for it",
                      n, static_cast<unsigned long long>(line));
        err = buf;
      } else if (s != LineState::kShared &&
                 e->owner != static_cast<int16_t>(n)) {
        std::snprintf(buf, sizeof(buf),
                      "L2[%u] holds line %#llx %s but owner=%d", n,
                      static_cast<unsigned long long>(line),
                      s == LineState::kModified ? "Modified" : "Exclusive",
                      static_cast<int>(e->owner));
        err = buf;
      }
    });
  }
  if (!err.empty()) return err;
  // Directory -> caches: no stale bits, no empty entries, and the owner
  // really holds the line Exclusive or Modified.
  l2_dir_.ForEach([&](uint64_t line, const DirEntry& e) {
    if (!err.empty()) return;
    const ConstBitSpan sharers = SharersOf(l2_dir_, e);
    if (sharers.None()) {
      std::snprintf(buf, sizeof(buf), "directory entry %#llx has no sharers",
                    static_cast<unsigned long long>(line));
      err = buf;
      return;
    }
    bool stale = false;
    sharers.ForEachSetBit([&](uint32_t n) {
      if (stale || !err.empty()) return;
      if (n >= config_.num_cores ||
          l2_[n].GetState(line) == LineState::kInvalid) {
        std::snprintf(buf, sizeof(buf),
                      "directory reports node %u sharing line %#llx, which "
                      "its L2 does not hold",
                      n, static_cast<unsigned long long>(line));
        err = buf;
        stale = true;
      }
    });
    if (stale || !err.empty()) return;
    if (e.owner >= 0) {
      const uint32_t o = static_cast<uint32_t>(e.owner);
      const LineState s = o < config_.num_cores ? l2_[o].GetState(line)
                                                : LineState::kInvalid;
      if (!sharers.Test(o) ||
          (s != LineState::kExclusive && s != LineState::kModified)) {
        std::snprintf(buf, sizeof(buf),
                      "directory owner %u of line %#llx does not hold it "
                      "Exclusive or Modified",
                      o, static_cast<unsigned long long>(line));
        err = buf;
      }
    }
  });
  return err;
}

}  // namespace stagedcmp::memsim

#endif  // STAGEDCMP_MEMSIM_HIERARCHY_H_

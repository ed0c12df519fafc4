// Set-associative cache with true-LRU replacement and write-back /
// write-allocate policy. Used for L1I, L1D and L2 arrays in both the CMP
// (shared L2) and SMP (private L2 + MESI) hierarchies.
//
// Hot-path design: the array is stored structure-of-arrays — parallel
// tag / LRU-stamp / state vectors — so the tags of one 8-way set span a
// single cache line, and a lookup is one contiguous scan. The probe API
// below exposes that scan as a first-class object: `Probe()` resolves a
// line to its set and way once, and every subsequent operation on that
// line (`AccessAt`, `FillAt`, `InvalidateAt`, ...) reuses the handle
// instead of re-scanning. A miss+fill that previously cost two to three
// associative scans (Access -> Contains/Fill, each re-running FindWay)
// now costs exactly one. The legacy one-shot calls (`Access`, `Fill`,
// ...) remain as probe-then-apply wrappers.
//
// A ProbeResult stays valid only while the *contents of that line's set*
// are unchanged: any Fill/Invalidate of a line mapping to the same set
// invalidates it. LRU-stamp updates do not affect validity (victim
// selection re-reads the stamps).
#ifndef STAGEDCMP_MEMSIM_CACHE_H_
#define STAGEDCMP_MEMSIM_CACHE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace stagedcmp::memsim {

/// floor(log2(x)) for x >= 1: the line/set shift computation shared by
/// the cache and the hierarchies.
inline uint32_t Log2Floor(uint64_t x) {
  uint32_t n = 0;
  while (x > 1) {
    x >>= 1;
    ++n;
  }
  return n;
}

/// Line coherence state (MESI). Plain caches only use kInvalid/kExclusive/
/// kModified; the SMP coherence layer also uses kShared.
enum class LineState : uint8_t {
  kInvalid = 0,
  kShared,
  kExclusive,
  kModified,
};

struct CacheConfig {
  uint64_t size_bytes = 64 * 1024;
  uint32_t associativity = 4;
  uint32_t line_bytes = 64;

  uint64_t num_sets() const {
    return size_bytes / (static_cast<uint64_t>(associativity) * line_bytes);
  }
};

/// Result of a lookup or fill.
struct EvictedLine {
  bool valid = false;
  bool dirty = false;
  uint64_t line_addr = 0;  ///< line-granular address (byte addr >> line shift)
};

/// A single cache array. Addresses passed in are *line addresses*
/// (byte address >> log2(line_bytes)); the caller owns that conversion so
/// every level uses a consistent granularity.
class Cache {
 public:
  /// A resolved set probe: the way holding the line (absolute index into
  /// the SoA arrays), or a miss with the set located for a later fill.
  struct ProbeResult {
    uint32_t set_base = 0;  ///< index of way 0 of the line's set
    int32_t way = -1;       ///< absolute way index on hit; -1 on miss
    bool hit() const { return way >= 0; }
  };

  /// Throws std::invalid_argument when Validate(config) fails.
  explicit Cache(const CacheConfig& config);

  static Status Validate(const CacheConfig& config);

  // -- Single-probe API (hot path) ----------------------------------------

  /// Resolves `line_addr` to its set and resident way, if any. Pure scan:
  /// no counters, no LRU disturbance (directories/snoops may probe).
  ProbeResult Probe(uint64_t line_addr) const {
    const uint32_t set_base =
        static_cast<uint32_t>(SetIndex(line_addr) * config_.associativity);
    const uint64_t tag = Tag(line_addr);
    ProbeResult p;
    p.set_base = set_base;
    for (uint32_t i = 0; i < config_.associativity; ++i) {
      if (tags_[set_base + i] == tag &&
          states_[set_base + i] != LineState::kInvalid) {
        p.way = static_cast<int32_t>(set_base + i);
        break;
      }
    }
    return p;
  }

  /// Applies an access through a probe: on a hit bumps the hit counter,
  /// refreshes LRU and (for writes) upgrades to Modified; on a miss bumps
  /// the miss counter. Returns whether it hit.
  bool AccessAt(const ProbeResult& p, bool is_write) {
    if (!p.hit()) {
      ++misses_;
      return false;
    }
    ++hits_;
    lru_[static_cast<size_t>(p.way)] = ++lru_clock_;
    if (is_write) states_[static_cast<size_t>(p.way)] = LineState::kModified;
    return true;
  }

  /// State of the probed line (kInvalid on miss).
  LineState StateAt(const ProbeResult& p) const {
    return p.hit() ? states_[static_cast<size_t>(p.way)] : LineState::kInvalid;
  }

  /// Sets the state of the probed line (no-op on miss).
  void SetStateAt(const ProbeResult& p, LineState s) {
    if (p.hit()) states_[static_cast<size_t>(p.way)] = s;
  }

  /// Installs `line_addr` through its probe. If the line is resident
  /// (probe hit — e.g. a coherence upgrade concluding), it is updated in
  /// place; otherwise the LRU (or an invalid) way of the probed set is
  /// replaced and the victim returned so the caller can update
  /// directories and issue write-backs. `p` must come from
  /// `Probe(line_addr)` with the set contents unchanged since.
  EvictedLine FillAt(const ProbeResult& p, uint64_t line_addr, bool is_write,
                     LineState state = LineState::kExclusive) {
    EvictedLine out;
    if (p.hit()) {
      // Already resident: update in place — allocating a second way for
      // the same tag would leave a stale duplicate that a later
      // invalidation misses.
      const auto w = static_cast<size_t>(p.way);
      lru_[w] = ++lru_clock_;
      states_[w] = is_write ? LineState::kModified : state;
      return out;
    }
    size_t victim = p.set_base;
    bool found_invalid = false;
    for (uint32_t i = 0; i < config_.associativity; ++i) {
      if (states_[p.set_base + i] == LineState::kInvalid) {
        victim = p.set_base + i;
        found_invalid = true;
        break;
      }
    }
    if (!found_invalid) {
      for (uint32_t i = 1; i < config_.associativity; ++i) {
        if (lru_[p.set_base + i] < lru_[victim]) victim = p.set_base + i;
      }
      out.valid = true;
      out.dirty = states_[victim] == LineState::kModified;
      // The victim shares the incoming line's set; SetIndex is a mask,
      // where dividing set_base by the associativity would put a 64-bit
      // div on every conflict-miss fill.
      out.line_addr = LineAddrFrom(tags_[victim], SetIndex(line_addr));
      ++evictions_;
      if (out.dirty) ++writebacks_;
    }
    tags_[victim] = Tag(line_addr);
    lru_[victim] = ++lru_clock_;
    states_[victim] = is_write ? LineState::kModified : state;
    return out;
  }

  /// Invalidates the probed line; returns whether it was dirty (the
  /// coherence layer then owes a write-back, which is counted here).
  bool InvalidateAt(const ProbeResult& p) {
    if (!p.hit()) return false;
    const auto w = static_cast<size_t>(p.way);
    const bool dirty = states_[w] == LineState::kModified;
    states_[w] = LineState::kInvalid;
    if (dirty) ++writebacks_;
    return dirty;
  }

  /// Downgrades the probed line to Shared (coherence read from remote).
  /// Returns true if it was dirty (owner must supply data).
  bool DowngradeAt(const ProbeResult& p) {
    if (!p.hit()) return false;
    const auto w = static_cast<size_t>(p.way);
    const bool dirty = states_[w] == LineState::kModified;
    states_[w] = LineState::kShared;
    return dirty;
  }

  // -- Legacy one-shot API (probe-then-apply wrappers) --------------------

  /// Probes for a line. Returns true on hit and refreshes LRU.
  /// If `is_write` and hit, upgrades the state to Modified.
  bool Access(uint64_t line_addr, bool is_write) {
    return AccessAt(Probe(line_addr), is_write);
  }

  /// Probes without disturbing LRU or state (for directories/snoops).
  bool Contains(uint64_t line_addr) const { return Probe(line_addr).hit(); }

  /// Returns the state of a resident line, or kInvalid.
  LineState GetState(uint64_t line_addr) const {
    return StateAt(Probe(line_addr));
  }

  /// Sets the state of a resident line (no-op if absent).
  void SetState(uint64_t line_addr, LineState s) {
    SetStateAt(Probe(line_addr), s);
  }

  /// Inserts a line (after a miss), evicting the LRU way if needed.
  EvictedLine Fill(uint64_t line_addr, bool is_write,
                   LineState state = LineState::kExclusive) {
    return FillAt(Probe(line_addr), line_addr, is_write, state);
  }

  /// Invalidates a line if present; returns whether it was dirty.
  bool Invalidate(uint64_t line_addr, bool* was_present = nullptr) {
    const ProbeResult p = Probe(line_addr);
    if (was_present != nullptr) *was_present = p.hit();
    return InvalidateAt(p);
  }

  /// Downgrades Modified/Exclusive to Shared; returns true if dirty.
  bool Downgrade(uint64_t line_addr) { return DowngradeAt(Probe(line_addr)); }

  /// Zeroes hit/miss/eviction counters without disturbing contents.
  /// Used after cache warmup so measurements exclude cold misses.
  void ResetCounters() { hits_ = misses_ = evictions_ = writebacks_ = 0; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t writebacks() const { return writebacks_; }
  double hit_rate() const {
    const uint64_t t = hits_ + misses_;
    return t ? static_cast<double>(hits_) / static_cast<double>(t) : 0.0;
  }
  const CacheConfig& config() const { return config_; }

  /// Number of valid lines currently resident (O(capacity); tests only).
  uint64_t CountValid() const;

  /// Visits every resident line as (line_addr, state). O(capacity);
  /// directory-oracle checks and tests only.
  template <typename Fn>
  void ForEachValidLine(Fn&& fn) const {
    for (size_t i = 0; i < tags_.size(); ++i) {
      if (states_[i] == LineState::kInvalid) continue;
      fn(LineAddrFrom(tags_[i], i / config_.associativity), states_[i]);
    }
  }

 private:
  size_t SetIndex(uint64_t line_addr) const {
    return static_cast<size_t>(line_addr & (num_sets_ - 1));
  }
  uint64_t Tag(uint64_t line_addr) const { return line_addr >> set_shift_; }
  uint64_t LineAddrFrom(uint64_t tag, size_t set) const {
    return (tag << set_shift_) | static_cast<uint64_t>(set);
  }

  CacheConfig config_;
  uint64_t num_sets_;
  uint32_t set_shift_;
  // Structure-of-arrays way storage, num_sets_ * associativity each: the
  // tag scan walks one contiguous line; LRU stamps and MESI states load
  // only when an operation commits.
  std::vector<uint64_t> tags_;
  std::vector<uint64_t> lru_;
  std::vector<LineState> states_;
  uint64_t lru_clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t writebacks_ = 0;
};

}  // namespace stagedcmp::memsim

#endif  // STAGEDCMP_MEMSIM_CACHE_H_

// Compact trace event encoding shared by the tracer (producer) and the
// core timing models (consumer).
//
// Each event packs into 8 bytes:
//   bits [63:16]  addr   — byte address (data) or PC (compute block)
//   bits [15:14]  kind   — read / write / compute / marker
//   bits [13:0]   count  — instructions carried by this event
//
// A read/write event's `count` is the number of instructions issued along
// with (and including) the memory operation — the tracer folds short
// computation runs into the adjacent access, which keeps traces small
// without losing instruction counts. A compute event is a straight-line run
// of `count` instructions beginning at PC `addr` (the core model derives
// I-cache line fetches from it). A marker delimits one completed request
// (query or transaction) for response-time accounting.
#ifndef STAGEDCMP_TRACE_EVENTS_H_
#define STAGEDCMP_TRACE_EVENTS_H_

#include <cassert>
#include <cstdint>
#include <vector>

namespace stagedcmp::trace {

enum class EventKind : uint8_t {
  kRead = 0,
  kWrite = 1,
  kCompute = 2,
  kMarker = 3,
};

constexpr uint32_t kMaxEventCount = (1u << 14) - 1;
/// Memory events reserve count bit 13 as the *dependent* flag (the access
/// is serially dependent on the previous one — pointer chasing — so an
/// out-of-order core cannot overlap it with the preceding miss).
constexpr uint32_t kMaxMemCount = (1u << 13) - 1;
constexpr uint32_t kDependentBit = 1u << 13;
constexpr uint64_t kAddrMask = (1ULL << 48) - 1;

inline uint64_t PackEvent(EventKind kind, uint64_t addr, uint32_t count) {
  assert(count <= kMaxEventCount);
  return ((addr & kAddrMask) << 16) |
         (static_cast<uint64_t>(kind) << 14) | count;
}

/// Packs a read/write with the dependent flag.
inline uint64_t PackMemEvent(EventKind kind, uint64_t addr, uint32_t count,
                             bool dependent) {
  assert(kind == EventKind::kRead || kind == EventKind::kWrite);
  assert(count <= kMaxMemCount);
  return PackEvent(kind, addr, count | (dependent ? kDependentBit : 0));
}

inline EventKind UnpackKind(uint64_t e) {
  return static_cast<EventKind>((e >> 14) & 0x3);
}
inline uint64_t UnpackAddr(uint64_t e) { return e >> 16; }
inline uint32_t UnpackCount(uint64_t e) {
  const EventKind k = UnpackKind(e);
  if (k == EventKind::kRead || k == EventKind::kWrite) {
    return static_cast<uint32_t>(e & (kDependentBit - 1));
  }
  return static_cast<uint32_t>(e & 0x3FFF);
}
inline bool UnpackDependent(uint64_t e) {
  const EventKind k = UnpackKind(e);
  return (k == EventKind::kRead || k == EventKind::kWrite) &&
         (e & kDependentBit) != 0;
}

/// One client's recorded execution: a replayable stream of events.
///
/// The event stream has two representations behind one accessor pair:
/// the tracer and cold builds fill the owning `events` vector, while a
/// warm mmap'd bundle load points `view_data`/`view_size` at the mapped
/// region instead (zero copy; the mapping's lifetime is pinned by the
/// enclosing TraceSet's `backing` handle). Consumers must go through
/// `events_data()`/`events_size()` so both paths replay identically.
struct ClientTrace {
  std::vector<uint64_t> events;
  const uint64_t* view_data = nullptr;  ///< non-owning; wins over `events`
  uint64_t view_size = 0;
  uint64_t total_instructions = 0;
  uint32_t requests = 0;  ///< number of kMarker events

  const uint64_t* events_data() const {
    return view_data != nullptr ? view_data : events.data();
  }
  uint64_t events_size() const {
    return view_data != nullptr ? view_size : events.size();
  }
  /// Points the trace at an externally owned event array (e.g. a mapped
  /// bundle region). The caller guarantees the storage outlives the trace.
  void SetView(const uint64_t* data, uint64_t size) {
    events.clear();
    view_data = data;
    view_size = size;
  }

  /// Empties the trace but keeps the event buffer's capacity — the right
  /// call when the same ClientTrace is about to be refilled (Tracer::Reset
  /// between recordings).
  void Clear() {
    events.clear();
    view_data = nullptr;
    view_size = 0;
    total_instructions = 0;
    requests = 0;
  }
  bool empty() const { return events_size() == 0; }
};

}  // namespace stagedcmp::trace

#endif  // STAGEDCMP_TRACE_EVENTS_H_

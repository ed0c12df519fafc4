#include "memsim/cache.h"

#include <stdexcept>

namespace stagedcmp::memsim {

namespace {
bool IsPow2(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

Status Cache::Validate(const CacheConfig& c) {
  if (!IsPow2(c.line_bytes) || c.line_bytes < 8) {
    return Status::InvalidArgument("line_bytes must be pow2 >= 8");
  }
  if (c.associativity == 0) {
    return Status::InvalidArgument("associativity must be > 0");
  }
  const uint64_t way_bytes =
      static_cast<uint64_t>(c.associativity) * c.line_bytes;
  if (c.size_bytes < way_bytes || c.size_bytes % way_bytes != 0) {
    return Status::InvalidArgument("size not a multiple of assoc*line");
  }
  if (!IsPow2(c.num_sets())) {
    return Status::InvalidArgument("number of sets must be pow2");
  }
  return Status::Ok();
}

Cache::Cache(const CacheConfig& config) : config_(config) {
  // Checked in every build type: a bad geometry would otherwise index a
  // fraction of the array (a non-power-of-two set count masks badly).
  const Status s = Validate(config);
  if (!s.ok()) throw std::invalid_argument("Cache: " + s.message());
  num_sets_ = config.num_sets();
  set_shift_ = Log2Floor(num_sets_);
  const size_t ways = num_sets_ * config.associativity;
  tags_.assign(ways, 0);
  lru_.assign(ways, 0);
  states_.assign(ways, LineState::kInvalid);
}

uint64_t Cache::CountValid() const {
  uint64_t n = 0;
  for (LineState s : states_) {
    if (s != LineState::kInvalid) ++n;
  }
  return n;
}

}  // namespace stagedcmp::memsim

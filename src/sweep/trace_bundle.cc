#include "sweep/trace_bundle.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace stagedcmp::sweep {

namespace {

constexpr uint64_t kMagic = 0x31444E4254435343ULL;  // "CSCTBND1"
// v3: header-resident index (per-trace offsets, lengths, checksums) and
// 64-byte-aligned payloads, so the file can be mapped and replayed in
// place. v1/v2 bundles demote to a cold rebuild.
constexpr uint32_t kVersion = 3;
constexpr uint64_t kAlign = 64;

constexpr uint64_t Align64(uint64_t bytes) {
  return (bytes + (kAlign - 1)) & ~(kAlign - 1);
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// The workload scale knobs that (besides the configs) determine trace
/// bytes, flattened into a fixed-width block.
std::vector<uint64_t> ScaleBlock(const harness::WorkloadFactory& factory) {
  const workload::TpccConfig& tc = factory.tpcc_config;
  const workload::TpchConfig& hc = factory.tpch_config;
  const workload::YcsbConfig& yc = factory.ycsb_config;
  return {tc.warehouses,        tc.districts_per_warehouse,
          tc.customers_per_district, tc.items,
          tc.initial_orders_per_district, tc.load_seed,
          hc.orders,            hc.customers,
          hc.parts,             hc.suppliers,
          hc.partsupp_per_part, hc.max_lines_per_order,
          hc.load_seed,
          yc.records,           yc.fields,
          yc.field_len,         yc.read_pct,
          yc.update_pct,        yc.insert_pct,
          yc.scan_pct,          yc.scan_len,
          yc.ops_per_request,   yc.load_seed};
}

/// One trace's index row as recorded in the v3 header.
struct TraceIndex {
  uint64_t requests = 0;
  uint64_t total_instructions = 0;
  uint64_t n_events = 0;
  uint64_t offset_bytes = 0;  ///< absolute, 64-byte aligned
  uint64_t checksum = 0;      ///< fresh FNV chain over the payload words
};

struct SetIndex {
  uint64_t total_instructions = 0;
  uint64_t total_events = 0;
  std::vector<TraceIndex> traces;
};

/// Parses and validates the v3 header at the start of `words` (the whole
/// file, `n_words` long) against the expected canonical sequence: magic,
/// version, scale knobs, config blocks, index geometry (every offset
/// must equal the canonical 64-aligned layout and the last payload must
/// end exactly at the end of the file), and the header checksum. False
/// on any mismatch. Payload checksums are NOT checked here — the caller
/// verifies them lazily, per set (VerifyBundleSet).
bool ParseHeader(const uint64_t* words, uint64_t n_words,
                 const harness::WorkloadFactory& factory,
                 const std::vector<harness::TraceSetConfig>& expected,
                 std::vector<SetIndex>* out) {
  const uint64_t file_bytes = n_words * 8;
  FnvChain sum;
  uint64_t words_read = 0;
  uint64_t v = 0;
  const auto get = [&](uint64_t* dst) {
    if (words_read >= n_words) return false;
    *dst = words[words_read++];
    sum.Mix(*dst);
    return true;
  };
  if (!get(&v) || v != kMagic) return false;
  if (!get(&v) || v != kVersion) return false;
  for (uint64_t want : ScaleBlock(factory)) {
    if (!get(&v) || v != want) return false;
  }
  if (!get(&v) || v != expected.size()) return false;
  out->clear();
  out->reserve(expected.size());
  for (const harness::TraceSetConfig& cfg : expected) {
    for (uint64_t want : cfg.Key()) {
      if (!get(&v) || v != want) return false;
    }
    SetIndex si;
    if (!get(&si.total_instructions) || !get(&si.total_events) || !get(&v)) {
      return false;
    }
    // Each trace contributes a 5-word index row; bound a corrupt count
    // before it reaches vector::resize.
    if (v > n_words / 5) return false;
    si.traces.resize(v);
    for (TraceIndex& ti : si.traces) {
      if (!get(&ti.requests) || !get(&ti.total_instructions) ||
          !get(&ti.n_events) || !get(&ti.offset_bytes) ||
          !get(&ti.checksum)) {
        return false;
      }
      if (ti.requests > UINT32_MAX || ti.n_events > n_words) return false;
    }
    out->push_back(std::move(si));
  }
  // Header checksum covers every header word above it.
  if (words_read >= n_words || words[words_read++] != sum.state) {
    return false;
  }
  // Geometry: the index must describe exactly the canonical layout —
  // payloads packed in order at 64-byte-aligned offsets right after the
  // padded header, with nothing trailing.
  uint64_t cursor = Align64(words_read * 8);
  for (const SetIndex& si : *out) {
    for (const TraceIndex& ti : si.traces) {
      if (ti.offset_bytes != cursor) return false;
      if (ti.n_events > (file_bytes - cursor) / 8) return false;
      cursor += Align64(ti.n_events * 8);
    }
  }
  return cursor == file_bytes;
}

/// Refcounted read-only mapping of a bundle file; unmaps on destruction.
/// Served TraceSets hold it via their type-erased `backing` pointer, so
/// the mapping lives exactly as long as the last view into it. Renaming
/// a fresh bundle over the mapped path is safe: the mapping pins the old
/// inode.
class MappedBundle {
 public:
  /// Maps `path` read-only. Null on open/stat/mmap failure (and for an
  /// empty file) — callers demote to a cold rebuild.
  static std::shared_ptr<MappedBundle> Map(const std::string& path) {
#ifndef __unix__
    (void)path;
    return nullptr;
#else
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return nullptr;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      return nullptr;
    }
    const uint64_t bytes = static_cast<uint64_t>(st.st_size);
    void* addr = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (addr == MAP_FAILED) return nullptr;
    return std::shared_ptr<MappedBundle>(new MappedBundle(addr, bytes));
#endif
  }
  ~MappedBundle() {
#ifdef __unix__
    if (addr_ != nullptr) ::munmap(addr_, bytes_);
#endif
  }

  MappedBundle(const MappedBundle&) = delete;
  MappedBundle& operator=(const MappedBundle&) = delete;

  const uint64_t* words() const {
    return static_cast<const uint64_t*>(addr_);
  }
  uint64_t size_bytes() const { return bytes_; }

 private:
  MappedBundle(void* addr, uint64_t bytes) : addr_(addr), bytes_(bytes) {}
  void* addr_;
  uint64_t bytes_;
};

}  // namespace

int64_t BundleFileBytes(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return -1;
#ifdef __unix__
  if (::fseeko(f.get(), 0, SEEK_END) != 0) return -1;
  const off_t end = ::ftello(f.get());
  return end < 0 ? -1 : static_cast<int64_t>(end);
#else
  if (std::fseek(f.get(), 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f.get());
  return end < 0 ? -1 : static_cast<int64_t>(end);
#endif
}

bool SaveTraceBundle(const std::string& path,
                     const harness::WorkloadFactory& factory,
                     const std::vector<const harness::TraceSet*>& sets) {
  const std::string tmp = path + ".tmp";
  // Single exit below removes the temp file on ANY failure — a write
  // that dies mid-stream (e.g. disk full) must not strand a truncated
  // multi-hundred-MB .tmp on the already-full disk.
  const auto write_all = [&]() -> bool {
    // Header geometry is a closed form of the set/trace counts, so the
    // payload offsets recorded in the index are known before anything
    // is written.
    uint64_t header_words = 2 + ScaleBlock(factory).size() + 1 + 1;
    for (const harness::TraceSet* ts : sets) {
      header_words +=
          harness::TraceSetConfig::kKeyWords + 3 + 5 * ts->traces.size();
    }
    const uint64_t header_end = Align64(header_words * 8);

    std::vector<uint64_t> hdr;
    hdr.reserve(header_words - 1);
    const auto put = [&](uint64_t v) { hdr.push_back(v); };
    put(kMagic);
    put(kVersion);
    for (uint64_t v : ScaleBlock(factory)) put(v);
    put(sets.size());
    uint64_t cursor = header_end;
    for (const harness::TraceSet* ts : sets) {
      for (uint64_t v : ts->config.Key()) put(v);
      put(ts->total_instructions);
      put(ts->total_events);
      put(ts->traces.size());
      for (const trace::ClientTrace& t : ts->traces) {
        FnvChain payload_sum;
        payload_sum.MixAll(t.events_data(), t.events_size());
        put(t.requests);
        put(t.total_instructions);
        put(t.events_size());
        put(cursor);
        put(payload_sum.state);
        cursor += Align64(t.events_size() * 8);
      }
    }
    FnvChain header_sum;
    header_sum.MixAll(hdr.data(), hdr.size());
    put(header_sum.state);

    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return false;
    if (!hdr.empty() && std::fwrite(hdr.data(), sizeof(uint64_t), hdr.size(),
                                    f.get()) != hdr.size()) {
      return false;
    }
    const char zeros[kAlign] = {0};
    const auto pad_to = [&](uint64_t from, uint64_t to) {
      return from == to ||
             std::fwrite(zeros, 1, to - from, f.get()) == to - from;
    };
    if (!pad_to(hdr.size() * 8, header_end)) return false;
    for (const harness::TraceSet* ts : sets) {
      for (const trace::ClientTrace& t : ts->traces) {
        const uint64_t n = t.events_size();
        if (n != 0 && std::fwrite(t.events_data(), sizeof(uint64_t), n,
                                  f.get()) != n) {
          return false;
        }
        if (!pad_to(n * 8, Align64(n * 8))) return false;
      }
    }
    // Surface buffered-write failures (disk full at flush time) here;
    // FileCloser's fclose cannot report them.
    return std::fflush(f.get()) == 0 && std::ferror(f.get()) == 0;
  };
  if (!write_all() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool VerifyBundleSet(const harness::TraceSet& set,
                     const std::vector<uint64_t>& checksums) {
  if (checksums.size() != set.traces.size()) return false;
  for (size_t i = 0; i < set.traces.size(); ++i) {
    FnvChain sum;
    sum.MixAll(set.traces[i].events_data(), set.traces[i].events_size());
    if (sum.state != checksums[i]) return false;
  }
  return true;
}

BundleOpenResult OpenTraceBundle(
    const std::string& path, const harness::WorkloadFactory& factory,
    const std::vector<harness::TraceSetConfig>& expected) {
  BundleOpenResult r;
  const auto map_t0 = std::chrono::steady_clock::now();
  std::shared_ptr<MappedBundle> mapping = MappedBundle::Map(path);
  if (mapping == nullptr || mapping->size_bytes() % 8 != 0) return r;
  std::vector<SetIndex> index;
  if (!ParseHeader(mapping->words(), mapping->size_bytes() / 8, factory,
                   expected, &index)) {
    return r;
  }
  r.mode = "mmap";
  r.bytes_mapped = mapping->size_bytes();
  r.sets.resize(expected.size());
  r.checksums.resize(expected.size());
  for (size_t j = 0; j < expected.size(); ++j) {
    harness::TraceSet& ts = r.sets[j];
    const SetIndex& si = index[j];
    // Fields that are pure functions of the config are not serialized;
    // restore them the way WorkloadWorld::Build derives them.
    ts.config = expected[j];
    ts.tenant_a_clients =
        expected[j].tenant2_clients > 0 ? expected[j].clients : 0;
    ts.total_instructions = si.total_instructions;
    ts.total_events = si.total_events;
    ts.backing = mapping;  // pins the mapping per served set
    ts.traces.resize(si.traces.size());
    r.checksums[j].reserve(si.traces.size());
    for (size_t i = 0; i < si.traces.size(); ++i) {
      const TraceIndex& ti = si.traces[i];
      trace::ClientTrace& t = ts.traces[i];
      t.SetView(mapping->words() + ti.offset_bytes / 8, ti.n_events);
      t.total_instructions = ti.total_instructions;
      t.requests = static_cast<uint32_t>(ti.requests);
      r.checksums[j].push_back(ti.checksum);
    }
  }
  r.map_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - map_t0)
          .count());
  return r;
}

}  // namespace stagedcmp::sweep

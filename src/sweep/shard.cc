#include "sweep/shard.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "coresim/breakdown.h"
#include "memsim/hierarchy.h"
#include "sweep/sinks.h"
#include "sweep/trace_bundle.h"

namespace stagedcmp::sweep {

namespace {

// Schema 2: adds the SMP shared-bus occupancy fields (smp_bus_model in
// the fingerprint, bus_* counters in every result block). Schema-1 files
// predate the bus model and cannot carry its counters, so they are
// rejected rather than silently merged with zeros.
constexpr int kShardSchema = 2;
constexpr int kNumClasses = static_cast<int>(memsim::AccessClass::kCount);
constexpr int kNumBuckets = static_cast<int>(coresim::Bucket::kCount);

/// Length-prefixed string into the fingerprint's FNV chain.
void MixStr(FnvChain* m, const std::string& s) {
  m->Mix(s.size());
  for (char c : s) m->Mix(static_cast<uint8_t>(c));
}

/// Hash of the expanded grid: spec name, axis names, and every cell's
/// index, value labels and full resolved configs. Two binaries agree on
/// it iff they would expand the very same grid — the merge-time guard
/// against shard files from a different spec, scale, or code vintage.
uint64_t SpecFingerprint(const std::string& spec_name,
                         const std::vector<std::string>& axis_names,
                         const std::vector<const Cell*>& cells) {
  FnvChain m;
  MixStr(&m, spec_name);
  m.Mix(axis_names.size());
  for (const std::string& a : axis_names) MixStr(&m, a);
  m.Mix(cells.size());
  for (const Cell* cp : cells) {
    const Cell& c = *cp;
    m.Mix(c.index);
    m.Mix(c.values.size());
    for (const std::string& v : c.values) MixStr(&m, v);
    for (uint64_t v : c.trace.Key()) m.Mix(v);
    const harness::ExperimentConfig& ec = c.exp;
    for (uint64_t v :
         {static_cast<uint64_t>(ec.camp), static_cast<uint64_t>(ec.cores),
          ec.l2_bytes, static_cast<uint64_t>(ec.latency),
          static_cast<uint64_t>(ec.topology),
          static_cast<uint64_t>(ec.saturated), ec.measure_instructions,
          ec.warmup_instructions, static_cast<uint64_t>(ec.stream_buffers),
          static_cast<uint64_t>(ec.l2_ports),
          static_cast<uint64_t>(ec.memory_latency),
          static_cast<uint64_t>(ec.fixed_l2_latency),
          static_cast<uint64_t>(ec.smp_bus_model)}) {
      m.Mix(v);
    }
  }
  return m.state;
}

std::string FingerprintHex(uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

// ---------------------------------------------------------------------
// Minimal JSON reader: recursive descent into an ordered DOM. Numbers
// keep their raw literal text, so merge-time comparisons and re-emission
// are exact (%.17g round-trips through strtod bit-for-bit).

struct JVal {
  enum Kind { kNull, kBool, kNum, kStr, kObj, kArr };
  Kind kind = kNull;
  std::string lit;  ///< num: raw literal; bool: true/false; str: decoded
  std::vector<std::pair<std::string, JVal>> obj;  ///< parse order kept
  std::vector<JVal> arr;

  const JVal* Find(const char* key) const {
    for (const auto& kv : obj) {
      if (kv.first == key) return &kv.second;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool Parse(JVal* out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Lit(const char* word, JVal* out, JVal::Kind kind) {
    const size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    out->kind = kind;
    out->lit = word;
    return true;
  }
  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          // \uXXXX etc. never appear in our own writers' output.
          default: return false;
        }
      } else {
        *out += c;
      }
    }
    return false;
  }
  bool ParseValue(JVal* out) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JVal::kObj;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        JVal v;
        if (!ParseValue(&v)) return false;
        out->obj.emplace_back(std::move(key), std::move(v));
        SkipWs();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JVal::kArr;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JVal v;
        if (!ParseValue(&v)) return false;
        out->arr.push_back(std::move(v));
        SkipWs();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JVal::kStr;
      return ParseString(&out->lit);
    }
    if (c == 't') return Lit("true", out, JVal::kBool);
    if (c == 'f') return Lit("false", out, JVal::kBool);
    if (c == 'n') return Lit("null", out, JVal::kNull);
    // Number: capture the raw literal.
    const size_t start = pos_;
    if (s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JVal::kNum;
    out->lit = s_.substr(start, pos_ - start);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// Structural equality with raw-literal number comparison and ordered
/// keys — exactly what two runs of the same serializer produce.
bool JValEquals(const JVal& a, const JVal& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case JVal::kNull: return true;
    case JVal::kBool:
    case JVal::kNum:
    case JVal::kStr: return a.lit == b.lit;
    case JVal::kObj:
      if (a.obj.size() != b.obj.size()) return false;
      for (size_t i = 0; i < a.obj.size(); ++i) {
        if (a.obj[i].first != b.obj[i].first ||
            !JValEquals(a.obj[i].second, b.obj[i].second)) {
          return false;
        }
      }
      return true;
    case JVal::kArr:
      if (a.arr.size() != b.arr.size()) return false;
      for (size_t i = 0; i < a.arr.size(); ++i) {
        if (!JValEquals(a.arr[i], b.arr[i])) return false;
      }
      return true;
  }
  return false;
}

// Typed field access with one-line error reporting.

bool Fail(std::string* error, const std::string& msg) {
  *error = msg;
  return false;
}

bool GetU64(const JVal& o, const char* key, uint64_t* v, std::string* error) {
  const JVal* f = o.Find(key);
  if (f == nullptr || f->kind != JVal::kNum) {
    return Fail(error, std::string("missing integer field '") + key + "'");
  }
  *v = std::strtoull(f->lit.c_str(), nullptr, 10);
  return true;
}

bool GetDouble(const JVal& o, const char* key, double* v,
               std::string* error) {
  const JVal* f = o.Find(key);
  if (f == nullptr) {
    return Fail(error, std::string("missing number field '") + key + "'");
  }
  if (f->kind == JVal::kNull) {
    *v = std::nan("");
    return true;
  }
  if (f->kind != JVal::kNum) {
    return Fail(error, std::string("field '") + key + "' is not a number");
  }
  *v = std::strtod(f->lit.c_str(), nullptr);
  return true;
}

bool GetStr(const JVal& o, const char* key, std::string* v,
            std::string* error) {
  const JVal* f = o.Find(key);
  if (f == nullptr || f->kind != JVal::kStr) {
    return Fail(error, std::string("missing string field '") + key + "'");
  }
  *v = f->lit;
  return true;
}

bool GetU64Array(const JVal& o, const char* key, uint64_t* out, int n,
                 std::string* error) {
  const JVal* f = o.Find(key);
  if (f == nullptr || f->kind != JVal::kArr ||
      f->arr.size() != static_cast<size_t>(n)) {
    return Fail(error, std::string("bad array field '") + key + "'");
  }
  for (int i = 0; i < n; ++i) {
    if (f->arr[static_cast<size_t>(i)].kind != JVal::kNum) {
      return Fail(error, std::string("bad array field '") + key + "'");
    }
    out[i] = std::strtoull(f->arr[static_cast<size_t>(i)].lit.c_str(),
                           nullptr, 10);
  }
  return true;
}

}  // namespace

void WriteShardFile(const SweepReport& report, std::ostream& os) {
  std::vector<const Cell*> all_cells;
  all_cells.reserve(report.cells.size());
  for (const CellResult& cr : report.cells) all_cells.push_back(&cr.cell);
  const uint64_t fp =
      SpecFingerprint(report.spec_name, report.axis_names, all_cells);

  JsonObj top(os, 0);
  top.Int("shard_schema", kShardSchema);
  top.Str("spec", report.spec_name);
  top.Int("shard_index", report.shard_index);
  top.Int("shard_count", report.shard_count);
  top.Int("spec_cell_count", report.cells.size());
  top.Str("spec_fingerprint", FingerprintHex(fp));
  {
    std::ostringstream cells;
    cells << "[";
    bool first = true;
    for (size_t i = 0; i < report.cells.size(); ++i) {
      if (report.shard_count > 1 &&
          i % report.shard_count != report.shard_index) {
        continue;
      }
      const CellResult& cr = report.cells[i];
      cells << (first ? "\n" : ",\n") << JsonObj::Pad(4);
      first = false;
      JsonObj c(cells, 4);
      c.Int("index", cr.cell.index);
      {
        std::ostringstream cfg;
        EmitCellConfigJson(cr, cfg, 6);
        c.Field("config", cfg.str());
      }
      {
        std::ostringstream ts;
        JsonObj t(ts, 6);
        t.Int("total_instructions", cr.trace_total_instructions);
        t.Int("total_events", cr.trace_total_events);
        t.Close();
        c.Field("trace_set", ts.str());
      }
      c.Num("sim_wall_seconds", cr.sim_wall_seconds);
      {
        const coresim::SimResult& r = cr.result;
        std::ostringstream res;
        JsonObj m(res, 6);
        m.Int("instructions", r.instructions);
        m.Int("elapsed_cycles", r.elapsed_cycles);
        {
          std::string b = "[";
          for (int k = 0; k < kNumBuckets; ++k) {
            if (k) b += ", ";
            b += JsonDbl(r.breakdown.cycles[static_cast<size_t>(k)]);
          }
          b += "]";
          m.Field("breakdown_cycles", b);
        }
        m.Int("requests_completed", r.requests_completed);
        m.Num("avg_response_cycles", r.avg_response_cycles);
        m.Int("events_replayed", r.events_replayed);
        m.Num("l1d_hit_rate", r.l1d_hit_rate);
        m.Num("l1i_hit_rate", r.l1i_hit_rate);
        m.Num("l2_hit_rate", r.l2_hit_rate);
        const auto u64_array = [](const uint64_t* p, int n) {
          std::string s = "[";
          for (int k = 0; k < n; ++k) {
            if (k) s += ", ";
            s += std::to_string(p[k]);
          }
          s += "]";
          return s;
        };
        m.Field("data_count", u64_array(r.mem.data_count, kNumClasses));
        m.Field("instr_count", u64_array(r.mem.instr_count, kNumClasses));
        m.Int("l1_to_l1_transfers", r.mem.l1_to_l1_transfers);
        m.Int("invalidations", r.mem.invalidations);
        m.Int("writebacks", r.mem.writebacks);
        m.Int("queue_delay_count", r.mem.queue_delay.count());
        m.Int("queue_delay_sum", r.mem.queue_delay.sum());
        m.Int("bus_transactions", r.mem.bus_transactions);
        m.Int("bus_busy_cycles", r.mem.bus_busy_cycles);
        m.Int("bus_peak_queue", r.mem.bus_peak_queue);
        m.Int("num_tenants", r.num_tenants);
        if (r.num_tenants > 0) {
          std::ostringstream tn;
          tn << "[";
          for (uint32_t t = 0; t < r.num_tenants; ++t) {
            const coresim::TenantStats& ts = r.tenants[t];
            tn << (t ? ",\n" : "\n") << JsonObj::Pad(10);
            JsonObj to(tn, 10);
            to.Int("instructions", ts.instructions);
            to.Int("requests", ts.requests);
            to.Field("data_count", u64_array(ts.data_count, kNumClasses));
            to.Field("instr_count", u64_array(ts.instr_count, kNumClasses));
            to.Close();
          }
          tn << "\n" << JsonObj::Pad(8) << "]";
          m.Field("tenants", tn.str());
        }
        m.Close();
        c.Field("result", res.str());
      }
      c.Close();
    }
    cells << "\n" << JsonObj::Pad(2) << "]";
    top.Field("cells", cells.str());
  }
  top.Close();
  os << "\n";
}

bool PeekShardSpecName(const std::string& text, std::string* name) {
  JVal root;
  if (!JsonParser(text).Parse(&root) || root.kind != JVal::kObj) {
    return false;
  }
  uint64_t schema = 0;
  std::string err;
  if (!GetU64(root, "shard_schema", &schema, &err) ||
      schema != kShardSchema) {
    return false;
  }
  return GetStr(root, "spec", name, &err);
}

bool MergeShardReports(const SweepSpec& spec,
                       const std::vector<std::string>& shard_texts,
                       SweepReport* out, std::string* error) {
  error->clear();
  if (shard_texts.empty()) return Fail(error, "no shard files given");

  const std::vector<Cell> cells = spec.Expand();
  std::vector<const Cell*> cell_ptrs;
  cell_ptrs.reserve(cells.size());
  for (const Cell& c : cells) cell_ptrs.push_back(&c);
  const std::string expect_fp = FingerprintHex(
      SpecFingerprint(spec.name(), spec.axis_names(), cell_ptrs));

  // Parse every file and validate the cross-shard invariants first:
  // same spec identity everywhere, distinct indices, complete coverage.
  std::vector<JVal> roots(shard_texts.size());
  uint64_t shard_count = 0;
  std::vector<char> shard_seen;
  for (size_t s = 0; s < shard_texts.size(); ++s) {
    JVal& root = roots[s];
    if (!JsonParser(shard_texts[s]).Parse(&root) ||
        root.kind != JVal::kObj) {
      return Fail(error,
                  "shard file " + std::to_string(s) + " is not valid JSON");
    }
    uint64_t schema = 0;
    if (!GetU64(root, "shard_schema", &schema, error)) return false;
    if (schema != kShardSchema) {
      return Fail(error, "unsupported shard_schema " +
                             std::to_string(schema));
    }
    std::string name;
    if (!GetStr(root, "spec", &name, error)) return false;
    if (name != spec.name()) {
      return Fail(error, "shard file is for spec '" + name +
                             "', expected '" + spec.name() + "'");
    }
    std::string fp;
    if (!GetStr(root, "spec_fingerprint", &fp, error)) return false;
    if (fp != expect_fp) {
      return Fail(error,
                  "spec fingerprint mismatch (different spec definition, "
                  "scale, or binary): got " + fp + ", expected " +
                      expect_fp);
    }
    uint64_t n = 0, idx = 0, cell_count = 0;
    if (!GetU64(root, "shard_count", &n, error) ||
        !GetU64(root, "shard_index", &idx, error) ||
        !GetU64(root, "spec_cell_count", &cell_count, error)) {
      return false;
    }
    if (n < 2 || idx >= n) {
      return Fail(error, "invalid shard selection " + std::to_string(idx) +
                             "/" + std::to_string(n));
    }
    if (cell_count != cells.size()) {
      return Fail(error, "shard expanded " + std::to_string(cell_count) +
                             " cells, this spec expands to " +
                             std::to_string(cells.size()));
    }
    if (s == 0) {
      shard_count = n;
      shard_seen.assign(n, 0);
    } else if (n != shard_count) {
      return Fail(error, "shard_count disagrees across files");
    }
    if (shard_seen[idx]) {
      return Fail(error,
                  "overlapping shards: index " + std::to_string(idx) +
                      " appears twice");
    }
    shard_seen[idx] = 1;
  }
  if (shard_texts.size() != shard_count) {
    std::string missing;
    for (uint64_t i = 0; i < shard_count; ++i) {
      if (!shard_seen[i]) missing += (missing.empty() ? "" : ",") +
                                     std::to_string(i);
    }
    return Fail(error, "incomplete merge: got " +
                           std::to_string(shard_texts.size()) + " of " +
                           std::to_string(shard_count) +
                           " shards (missing " + missing + ")");
  }

  // Reassemble canonical order.
  *out = SweepReport{};
  out->spec_name = spec.name();
  out->axis_names = spec.axis_names();
  out->cells.resize(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) out->cells[i].cell = cells[i];
  std::vector<char> cell_seen(cells.size(), 0);

  for (size_t s = 0; s < roots.size(); ++s) {
    const JVal& root = roots[s];
    uint64_t shard_idx = 0;
    GetU64(root, "shard_index", &shard_idx, error);
    const JVal* cl = root.Find("cells");
    if (cl == nullptr || cl->kind != JVal::kArr) {
      return Fail(error, "shard file has no cells array");
    }
    for (const JVal& jc : cl->arr) {
      if (jc.kind != JVal::kObj) return Fail(error, "malformed cell entry");
      uint64_t idx = 0;
      if (!GetU64(jc, "index", &idx, error)) return false;
      if (idx >= cells.size()) {
        return Fail(error, "cell index " + std::to_string(idx) +
                               " out of range");
      }
      if (idx % shard_count != shard_idx) {
        return Fail(error, "cell " + std::to_string(idx) +
                               " does not belong to shard " +
                               std::to_string(shard_idx) + "/" +
                               std::to_string(shard_count));
      }
      if (cell_seen[idx]) {
        return Fail(error,
                    "cell " + std::to_string(idx) + " appears twice");
      }
      cell_seen[idx] = 1;
      CellResult& cr = out->cells[idx];

      // Hardware echo first (the resolved-config object embeds it), then
      // validate the whole config echo against the re-expanded cell.
      const JVal* cfg = jc.Find("config");
      if (cfg == nullptr || cfg->kind != JVal::kObj) {
        return Fail(error, "cell " + std::to_string(idx) +
                               " carries no config echo");
      }
      uint64_t l2_hit = 0, ctx = 0;
      if (!GetU64(*cfg, "l2_hit_cycles", &l2_hit, error) ||
          !GetU64(*cfg, "contexts_per_core", &ctx, error)) {
        return false;
      }
      cr.hw.l2_hit_cycles = static_cast<uint32_t>(l2_hit);
      cr.hw.contexts_per_core = static_cast<uint32_t>(ctx);
      cr.hw.cores = cr.cell.exp.cores;
      {
        std::ostringstream expect;
        EmitCellConfigJson(cr, expect, 6);
        JVal expected_echo;
        if (!JsonParser(expect.str()).Parse(&expected_echo) ||
            !JValEquals(expected_echo, *cfg)) {
          return Fail(error, "cell " + std::to_string(idx) +
                                 " config echo does not match the spec's "
                                 "expansion");
        }
      }

      const JVal* ts = jc.Find("trace_set");
      if (ts == nullptr || ts->kind != JVal::kObj ||
          !GetU64(*ts, "total_instructions", &cr.trace_total_instructions,
                  error) ||
          !GetU64(*ts, "total_events", &cr.trace_total_events, error)) {
        return Fail(error, "cell " + std::to_string(idx) +
                               " carries no trace_set totals");
      }
      if (!GetDouble(jc, "sim_wall_seconds", &cr.sim_wall_seconds, error)) {
        return false;
      }

      const JVal* res = jc.Find("result");
      if (res == nullptr || res->kind != JVal::kObj) {
        return Fail(error, "cell " + std::to_string(idx) +
                               " carries no result");
      }
      coresim::SimResult& r = cr.result;
      uint64_t qd_count = 0, qd_sum = 0, num_tenants = 0;
      const JVal* bd = res->Find("breakdown_cycles");
      if (bd == nullptr || bd->kind != JVal::kArr ||
          bd->arr.size() != static_cast<size_t>(kNumBuckets)) {
        return Fail(error, "cell " + std::to_string(idx) +
                               " has a malformed breakdown");
      }
      for (int k = 0; k < kNumBuckets; ++k) {
        const JVal& jv = bd->arr[static_cast<size_t>(k)];
        if (jv.kind != JVal::kNum) {
          return Fail(error, "cell " + std::to_string(idx) +
                                 " has a malformed breakdown");
        }
        r.breakdown.cycles[static_cast<size_t>(k)] =
            std::strtod(jv.lit.c_str(), nullptr);
      }
      if (!GetU64(*res, "instructions", &r.instructions, error) ||
          !GetU64(*res, "elapsed_cycles", &r.elapsed_cycles, error) ||
          !GetU64(*res, "requests_completed", &r.requests_completed,
                  error) ||
          !GetDouble(*res, "avg_response_cycles", &r.avg_response_cycles,
                     error) ||
          !GetU64(*res, "events_replayed", &r.events_replayed, error) ||
          !GetDouble(*res, "l1d_hit_rate", &r.l1d_hit_rate, error) ||
          !GetDouble(*res, "l1i_hit_rate", &r.l1i_hit_rate, error) ||
          !GetDouble(*res, "l2_hit_rate", &r.l2_hit_rate, error) ||
          !GetU64Array(*res, "data_count", r.mem.data_count, kNumClasses,
                       error) ||
          !GetU64Array(*res, "instr_count", r.mem.instr_count, kNumClasses,
                       error) ||
          !GetU64(*res, "l1_to_l1_transfers", &r.mem.l1_to_l1_transfers,
                  error) ||
          !GetU64(*res, "invalidations", &r.mem.invalidations, error) ||
          !GetU64(*res, "writebacks", &r.mem.writebacks, error) ||
          !GetU64(*res, "queue_delay_count", &qd_count, error) ||
          !GetU64(*res, "queue_delay_sum", &qd_sum, error) ||
          !GetU64(*res, "bus_transactions", &r.mem.bus_transactions,
                  error) ||
          !GetU64(*res, "bus_busy_cycles", &r.mem.bus_busy_cycles, error) ||
          !GetU64(*res, "bus_peak_queue", &r.mem.bus_peak_queue, error) ||
          !GetU64(*res, "num_tenants", &num_tenants, error)) {
        return false;
      }
      r.mem.queue_delay.RestoreAggregate(qd_count, qd_sum);
      if (num_tenants > 2) {
        return Fail(error, "cell " + std::to_string(idx) +
                               " has an impossible tenant count");
      }
      r.num_tenants = static_cast<uint32_t>(num_tenants);
      if (num_tenants > 0) {
        const JVal* tn = res->Find("tenants");
        if (tn == nullptr || tn->kind != JVal::kArr ||
            tn->arr.size() != num_tenants) {
          return Fail(error, "cell " + std::to_string(idx) +
                                 " has a malformed tenants array");
        }
        for (uint64_t t = 0; t < num_tenants; ++t) {
          const JVal& jt = tn->arr[t];
          coresim::TenantStats& st = r.tenants[t];
          if (jt.kind != JVal::kObj ||
              !GetU64(jt, "instructions", &st.instructions, error) ||
              !GetU64(jt, "requests", &st.requests, error) ||
              !GetU64Array(jt, "data_count", st.data_count, kNumClasses,
                           error) ||
              !GetU64Array(jt, "instr_count", st.instr_count, kNumClasses,
                           error)) {
            return Fail(error, "cell " + std::to_string(idx) +
                                   " has a malformed tenants array");
          }
        }
      }
    }
  }

  for (size_t i = 0; i < cell_seen.size(); ++i) {
    if (!cell_seen[i]) {
      return Fail(error,
                  "cell " + std::to_string(i) + " missing from its shard");
    }
  }
  return true;
}

}  // namespace stagedcmp::sweep

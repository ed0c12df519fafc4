// Disk persistence for built trace sets — the record-once / replay-many
// half of the paper's trace-driven methodology. Generating a workload
// trace means loading multi-hundred-MB databases and natively executing
// every query/transaction; replaying it is the simulator's job and needs
// only the packed event streams. A bundle captures the *ordered sequence*
// of trace sets one sweep builds so later runs of the same sweep skip
// generation entirely.
//
// Builds are pure functions of (config, scale knobs) — each runs in an
// isolated WorkloadWorld (see harness/world.h), so a set's bytes no
// longer depend on the builds before it. The bundle still persists the
// whole sequence and stays all-or-nothing at the header level: it serves
// sets only when its recorded config sequence exactly matches the
// sweep's canonical build order and the factory's workload scale knobs
// are unchanged, which keeps the match check trivial and the failure
// mode obvious.
//
// Format v3 is built for zero-copy replay. The header carries a full
// index — per-trace byte offsets, event counts, and per-trace payload
// checksums — and every event payload is padded to a 64-byte boundary,
// so OpenTraceBundle maps the file, validates header + index eagerly
// (microseconds), and hands out *non-owning* event views into the
// mapping (ClientTrace::SetView). Payload checksums are then verified
// lazily, one set at a time, via VerifyBundleSet — the sweep runner does
// this on its build pool, overlapped with simulation. The mapping is
// refcounted and pinned through each served TraceSet's `backing`
// handle, so a set's views stay valid for as long as the set lives.
//
// Mapping is the only transport. Anything that keeps a bundle from
// being served — a file that cannot be mapped (missing, empty, a
// directory), a header mismatch, truncation, version skew (a v2 bundle
// read by this code) — demotes to a cold rebuild, which then rewrites
// the bundle; a set whose payload fails VerifyBundleSet rebuilds cold
// alone. Output never changes, only speed.
//
// Staleness caveat: the format records configs and scales, not the
// engine's code. After changing trace generation itself (workloads,
// db substrates, tracer), delete stale bundles — scripts/check.sh
// regenerates its bundle on every run for exactly this reason.
//
// Format is native-endian and version-gated; bundles are a local cache,
// not an interchange format. Padding bytes are not checksummed.
#ifndef STAGEDCMP_SWEEP_TRACE_BUNDLE_H_
#define STAGEDCMP_SWEEP_TRACE_BUNDLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace stagedcmp::sweep {

/// Outcome of OpenTraceBundle. `sets` is parallel to the expected config
/// sequence; `mode` records whether the bundle served them:
///   "mmap" — view-based sets into a shared mapping; header + index
///            validated, payload checksums NOT yet — callers must run
///            VerifyBundleSet(sets[j], checksums[j]) before trusting a
///            set, and on failure rebuild that set cold.
///   "cold" — nothing served (unmappable file or missing/stale/corrupt
///            header); sets empty.
struct BundleOpenResult {
  std::string mode = "cold";
  std::vector<harness::TraceSet> sets;
  std::vector<std::vector<uint64_t>> checksums;  ///< per set, per trace
  uint64_t bytes_mapped = 0;  ///< whole-file mapping size
  uint64_t map_us = 0;        ///< open+validate wall time
};

/// Writes `sets` (in build order) to `path` atomically (temp + rename)
/// in format v3. Returns false on any I/O failure. Reads events through
/// the view accessors, so re-persisting mapped sets works.
bool SaveTraceBundle(const std::string& path,
                     const harness::WorkloadFactory& factory,
                     const std::vector<const harness::TraceSet*>& sets);

/// Opens `path` for the canonical sequence `expected`: maps the file and
/// validates its header, or returns mode "cold" when the file cannot be
/// mapped or its header does not match. Every set is served; a sharded
/// caller only faults in the pages of the sets it replays.
BundleOpenResult OpenTraceBundle(
    const std::string& path, const harness::WorkloadFactory& factory,
    const std::vector<harness::TraceSetConfig>& expected);

/// Verifies one mmap-served set's event payloads against the per-trace
/// checksums recorded in the bundle index. Faults in the set's pages.
/// False on any mismatch — the caller demotes that set to a cold rebuild.
bool VerifyBundleSet(const harness::TraceSet& set,
                     const std::vector<uint64_t>& checksums);

/// Size of `path` in bytes via fseeko/ftello (int64_t end to end), or -1
/// on error. The v2 loader funneled this through a `long`, which
/// truncates at 2 GiB on LP32/Windows ABIs — exactly where out-of-core
/// bundles live. Exposed for the regression test.
int64_t BundleFileBytes(const std::string& path);

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_TRACE_BUNDLE_H_

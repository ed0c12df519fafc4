// Built-in sweep specs reproducing the paper's figure and ablation
// grids, the canonical trace-set configurations they share, and the
// per-figure table views that render a figure spec's report in the
// paper's layout (ratio columns, paper-target footers).
#ifndef STAGEDCMP_SWEEP_BUILTIN_SPECS_H_
#define STAGEDCMP_SWEEP_BUILTIN_SPECS_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/spec.h"

namespace stagedcmp::sweep {

struct SweepReport;

/// Canonical saturated/unsaturated workload trace configs (the exact
/// client counts, request counts and seeds the figure specs use).
harness::TraceSetConfig OltpSaturatedConfig(uint32_t clients = 32);
harness::TraceSetConfig DssSaturatedConfig(uint32_t clients = 24);
harness::TraceSetConfig OltpUnsaturatedConfig();
harness::TraceSetConfig DssUnsaturatedConfig();

/// Names accepted by BuiltinSpec, in presentation order: the smoke
/// grids, the paper's figures (fig2..fig8; fig4's view also prints
/// Table 1 and Figure 5, fig6's Figure 1), the ablations, then the
/// traffic and scale-out grids. `sweep_main --list` prints each with
/// its description.
std::vector<std::string> BuiltinSpecNames();

bool HasBuiltinSpec(const std::string& name);

/// Returns the named spec; aborts on unknown names (check
/// HasBuiltinSpec first when the name is user input).
SweepSpec BuiltinSpec(const std::string& name);

/// Renders a figure spec's report as the paper's table(s). TableSink
/// prints it under the generic per-cell table.
using FigureView = void (*)(const SweepReport& report, std::ostream& os);

/// The named spec's figure view; null for specs without one.
FigureView BuiltinFigureView(const std::string& name);

/// Applies the named spec's workload-scale overrides to `factory` (call
/// between construction and the first Build). Most specs run the default
/// DESIGN.md scale and are a no-op here; the large-n `shootout` grid
/// shrinks the TPC-H tables so a 1024-client DSS set stays CI-sized.
/// Runners that honor this for one spec name reproduce byte-identical
/// traces for it everywhere (bundles echo the factory scale, so a
/// mismatched bundle is detected and rebuilt cold).
void ConfigureFactoryForSpec(const std::string& name,
                             harness::WorkloadFactory* factory);

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_BUILTIN_SPECS_H_

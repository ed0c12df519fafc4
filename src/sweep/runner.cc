#include "sweep/runner.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/threadpool.h"
#include "sweep/trace_bundle.h"
#include "sweep/trace_cache.h"

namespace stagedcmp::sweep {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Human-readable trace-set identity for span names — canonical (built
/// from the config only), so deterministic traces stay byte-stable.
std::string ConfigLabel(const harness::TraceSetConfig& c) {
  std::string s = harness::WorkloadName(c.workload);
  s += "/c" + std::to_string(c.clients);
  s += "/r" + std::to_string(c.requests_per_client);
  s += "/s" + std::to_string(c.seed);
  s += "/e" + std::to_string(static_cast<int>(c.engine));
  // Traffic/tenancy suffixes appear only when non-default, so every
  // pre-existing config keeps its historical label byte-for-byte.
  if (c.traffic.shapes_keys()) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "/k%s:%g",
                  workload::KeyDistName(c.traffic.key_dist),
                  c.traffic.zipf_theta);
    s += buf;
  }
  if (c.traffic.shapes_arrival()) {
    s += std::string("/a") + workload::ArrivalShapeName(c.traffic.arrival);
  }
  if (c.tenant2_clients > 0) {
    s += std::string("/t") + harness::WorkloadName(c.tenant2_workload) +
         std::to_string(c.tenant2_clients);
  }
  return s;
}

/// The distinct trace-set configs of `cells` in canonical (first-use)
/// order — the build-pool submission order and the unit a trace bundle
/// persists. Also fills `cfg_of`: for each cell, the index of its config
/// in the returned vector. Identity is TraceSetCache::MakeKey, the same
/// equivalence Get() dedups by.
std::vector<harness::TraceSetConfig> DistinctConfigs(
    const std::vector<Cell>& cells, std::vector<size_t>* cfg_of) {
  std::vector<harness::TraceSetConfig> out;
  cfg_of->resize(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    size_t found = out.size();
    for (size_t j = 0; j < out.size(); ++j) {
      if (TraceSetCache::MakeKey(out[j]) ==
          TraceSetCache::MakeKey(cells[i].trace)) {
        found = j;
        break;
      }
    }
    if (found == out.size()) out.push_back(cells[i].trace);
    (*cfg_of)[i] = found;
  }
  return out;
}

}  // namespace

SweepReport SweepRunner::Run(const SweepSpec& spec) {
  const auto run_t0 = std::chrono::steady_clock::now();

  SweepReport report;
  report.spec_name = spec.name();
  report.axis_names = spec.axis_names();

  TraceCollector* const tracer = options_.trace;
  if (tracer != nullptr) tracer->NameThisThread("main");
  TraceSpan sweep_span(tracer, "sweep", "sweep:" + report.spec_name);

  // Pipeline metric handles; null when observability is off.
  Counter* cells_simulated = nullptr;
  Counter* build_waits = nullptr;
  Counter* steals = nullptr;
  HistogramMetric* cell_sim_us = nullptr;
  HistogramMetric* build_wait_us = nullptr;
  if (options_.metrics != nullptr) {
    cells_simulated = &options_.metrics->counter("sweep.cells_simulated");
    build_waits = &options_.metrics->counter("sweep.build_waits");
    steals = &options_.metrics->counter("sweep.steals");
    cell_sim_us = &options_.metrics->histogram("sweep.cell_sim_us");
    build_wait_us = &options_.metrics->histogram("sweep.build_wait_us");
  }

  std::vector<Cell> cells = spec.Expand();
  report.cells.resize(cells.size());
  // Every slot carries its cell identity up front — workers fill only
  // the cells they execute, and a sharded run's unassigned slots must
  // still describe their cell (the shard writer fingerprints the whole
  // grid; see sweep/shard.h).
  for (size_t i = 0; i < cells.size(); ++i) report.cells[i].cell = cells[i];

  TraceSetCache private_cache(factory_, options_.metrics);
  TraceSetCache& cache = shared_cache_ ? *shared_cache_ : private_cache;
  const uint64_t builds_before = cache.stats().builds;

  // Sharding: the FULL spec is always expanded and deduplicated, so
  // canonical cell indices and the distinct-config (= bundle build)
  // sequence are identical for every shard and for an unsharded run.
  // A shard then only *executes* its assigned cells, and only
  // builds/loads the trace sets those cells reference.
  const bool sharded = options_.shard_count > 1;
  const auto cell_assigned = [&](size_t i) {
    return !sharded ||
           i % options_.shard_count == options_.shard_index;
  };
  report.shard_index = sharded ? options_.shard_index : 0;
  report.shard_count = sharded ? options_.shard_count : 0;

  std::vector<size_t> cfg_of;  // cell index -> distinct-config index
  std::vector<harness::TraceSetConfig> distinct =
      DistinctConfigs(cells, &cfg_of);
  std::vector<std::string> cfg_labels;
  cfg_labels.reserve(distinct.size());
  for (const harness::TraceSetConfig& c : distinct) {
    cfg_labels.push_back(ConfigLabel(c));
  }
  std::vector<char> needed(distinct.size(), sharded ? 0 : 1);
  size_t assigned_count = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!cell_assigned(i)) continue;
    ++assigned_count;
    needed[cfg_of[i]] = 1;
  }
  if (options_.metrics != nullptr && sharded) {
    options_.metrics->counter("shard.cells_assigned")
        .Add(static_cast<uint64_t>(assigned_count));
    options_.metrics->counter("shard.cells_skipped")
        .Add(static_cast<uint64_t>(cells.size() - assigned_count));
  }

  // Trace bundle: try to serve the whole build sequence from disk. The
  // open returns view-based sets after header validation only
  // (microseconds); their payload checksums are verified lazily below,
  // on the build pool, overlapped with simulation.
  BundleOpenResult bundle_open;
  std::atomic<bool> demoted{false};
  if (!options_.trace_bundle.empty() && !cells.empty()) {
    const auto load_t0 = std::chrono::steady_clock::now();
    TraceSpan load_span(tracer, "io", "bundle.load");
    bundle_open = OpenTraceBundle(options_.trace_bundle, *factory_, distinct);
    report.bundle = bundle_open.mode == "mmap" ? "warm" : "cold";
    if (options_.metrics != nullptr) {
      options_.metrics->gauge("bundle.map_us")
          .Set(static_cast<int64_t>(bundle_open.map_us));
      options_.metrics->gauge("bundle.bytes_mapped")
          .Set(static_cast<int64_t>(bundle_open.bytes_mapped));
    }
    load_span.set_args("{\"result\": " + JsonQuote(report.bundle) +
                       ", \"mode\": " + JsonQuote(bundle_open.mode) + "}");
    load_span.End();
    report.load_wall_seconds = SecondsSince(load_t0);
  }

  uint32_t threads = options_.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > cells.size() && !cells.empty()) {
    threads = static_cast<uint32_t>(cells.size());
  }
  report.threads = cells.empty() ? 0 : threads;

  // Build/sim pipeline. Cold trace sets build on a work pool — one task
  // per distinct config, submitted in canonical order — while sim workers
  // claim cells off an atomic counter (idle workers "steal" the next
  // unclaimed cell, so load imbalance self-corrects). Each build runs in
  // an isolated WorkloadWorld, so builds neither share state with each
  // other nor with the replaying workers; a worker waits only for its own
  // cell's config slot to be published. Results land at their cell's
  // canonical index, so output order never depends on completion order —
  // and since builds are pure functions of their config, sink output is
  // thread-count-invariant (byte-for-byte for golden fields; simulated
  // metrics additionally track heap placement, see sinks.h).
  std::vector<const harness::TraceSet*> built_sets(distinct.size(), nullptr);
  std::vector<char> built_done(distinct.size(), 0);
  std::mutex build_mu;
  std::condition_variable build_cv;

  std::mutex err_mu;
  std::exception_ptr first_error;
  auto record_error = [&] {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!first_error) first_error = std::current_exception();
  };

  auto build_one = [&](size_t j) {
    if (tracer != nullptr) tracer->NameThisThread("builder");
    // One span per distinct config regardless of thread count or cache
    // temperature (a warm Get is a near-instant hit), so the span SET is
    // deterministic even though durations are not.
    TraceSpan build_span(tracer, "build", "build:" + cfg_labels[j]);
    try {
      const harness::TraceSet* ts = nullptr;
      if (!bundle_open.sets.empty()) {
        // Mapped set: pay the payload-checksum pass here, overlapped
        // with other builds and with simulation. A mismatch demotes
        // exactly this set to a cold rebuild; the run is then "partial"
        // and rewrites the bundle afterwards.
        if (VerifyBundleSet(bundle_open.sets[j], bundle_open.checksums[j])) {
          ts = &cache.Insert(std::move(bundle_open.sets[j]));
        } else {
          demoted.store(true, std::memory_order_relaxed);
          ts = &cache.Get(distinct[j]);
        }
      } else {
        ts = &cache.Get(distinct[j]);
      }
      std::lock_guard<std::mutex> lock(build_mu);
      built_sets[j] = ts;
    } catch (...) {
      record_error();
    }
    {
      std::lock_guard<std::mutex> lock(build_mu);
      built_done[j] = 1;  // on failure the slot stays null; waiters drain
    }
    build_cv.notify_all();
  };

  std::atomic<size_t> next{0};
  auto worker = [&](uint32_t wid) {
    if (tracer != nullptr) {
      tracer->NameThisThread("sim-worker-" + std::to_string(wid));
    }
    uint64_t claimed = 0;
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cells.size()) break;
      if (!cell_assigned(i)) continue;  // another shard's cell
      ++claimed;
      const size_t j = cfg_of[i];
      {
        std::unique_lock<std::mutex> lock(build_mu);
        if (built_done[j] == 0) {
          // Contention-dependent: whether a worker waits here depends on
          // scheduling, so the span is skipped under a deterministic
          // tracer (its presence would vary run to run).
          TraceSpan wait_span;
          if (tracer != nullptr && !tracer->deterministic()) {
            wait_span = TraceSpan(tracer, "sweep", "wait:" + cfg_labels[j]);
          }
          const auto w0 = std::chrono::steady_clock::now();
          build_cv.wait(lock, [&] { return built_done[j] != 0; });
          if (build_waits != nullptr) {
            build_waits->Add(1);
            build_wait_us->Record(MicrosSince(w0));
          }
        }
        if (built_sets[j] == nullptr) continue;  // build failed; drain
      }
      try {
        const auto t0 = std::chrono::steady_clock::now();
        // Cell spans ARE deterministic: every cell replays exactly once
        // at its canonical index, whatever claims it.
        TraceSpan cell_span(tracer, "sim", "cell:" + std::to_string(i),
                            "{\"cfg\": " + JsonQuote(cfg_labels[j]) + "}");
        CellResult& out = report.cells[i];
        out.cell = cells[i];
        out.trace_total_instructions = built_sets[j]->total_instructions;
        out.trace_total_events = built_sets[j]->total_events;
        out.result = harness::RunExperiment(cells[i].exp, *built_sets[j],
                                            &out.hw, options_.metrics);
        cell_span.End();
        out.sim_wall_seconds = SecondsSince(t0);
        if (cells_simulated != nullptr) {
          cells_simulated->Add(1);
          cell_sim_us->Record(MicrosSince(t0));
        }
      } catch (...) {
        record_error();
        // Keep draining the counter so siblings can finish cleanly.
      }
    }
    // "Steals": cells this worker claimed beyond the even share — how
    // much the atomic-counter claiming rebalanced versus a static split.
    if (steals != nullptr && threads > 0) {
      const uint64_t share = assigned_count / threads;
      if (claimed > share) steals->Add(claimed - share);
    }
  };

  const auto sim_t0 = std::chrono::steady_clock::now();
  if (!cells.empty()) {
    uint32_t build_threads = threads;
    if (build_threads > distinct.size()) {
      build_threads = static_cast<uint32_t>(distinct.size());
    }
    ThreadPool build_pool(build_threads, options_.metrics, "build_pool");
    std::vector<std::future<void>> build_futures;
    build_futures.reserve(distinct.size());
    for (size_t j = 0; j < distinct.size(); ++j) {
      // Sharded runs submit no build for configs none of their cells
      // reference; no assigned cell waits on those slots either.
      if (!needed[j]) continue;
      build_futures.push_back(build_pool.Submit([&build_one, j] {
        build_one(j);
      }));
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      pool.emplace_back([&worker, t] { worker(t); });
    }
    // build_one traps its own exceptions, so get() only synchronizes.
    for (std::future<void>& f : build_futures) f.get();
    report.build_wall_seconds = SecondsSince(sim_t0);
    for (std::thread& t : pool) t.join();
  }
  report.sim_wall_seconds = SecondsSince(sim_t0);
  report.trace_sets_built = cache.stats().builds - builds_before;
  if (demoted.load(std::memory_order_relaxed)) report.bundle = "partial";

  // A cold run with a bundle path persists what it just built (every
  // Get() below is a cache hit; nothing rebuilds). A "partial" run —
  // mapped sets served but at least one failed lazy verification and
  // rebuilt cold — rewrites too, healing the corrupt file: rename keeps
  // the mapped inode alive, so still-live views are unaffected. Sharded
  // runs never write (they only built a subset of the sequence).
  if ((report.bundle == "cold" || report.bundle == "partial") && !sharded &&
      !first_error) {
    TraceSpan save_span(tracer, "io", "bundle.save");
    std::vector<const harness::TraceSet*> sets;
    sets.reserve(distinct.size());
    for (const harness::TraceSetConfig& c : distinct) {
      sets.push_back(&cache.Get(c));
    }
    if (!SaveTraceBundle(options_.trace_bundle, *factory_, sets)) {
      std::fprintf(stderr, "warning: could not write trace bundle '%s'\n",
                   options_.trace_bundle.c_str());
    }
  }
  report.wall_seconds = SecondsSince(run_t0);
  sweep_span.End();

  if (options_.metrics != nullptr) {
    report.metrics = options_.metrics->Snapshot();
    report.has_metrics = true;
  }

  if (first_error) std::rethrow_exception(first_error);
  return report;
}

}  // namespace stagedcmp::sweep

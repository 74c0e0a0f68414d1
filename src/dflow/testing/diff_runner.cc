#include "dflow/testing/diff_runner.h"

#include <algorithm>
#include <utility>

#include "dflow/cluster/cluster.h"
#include "dflow/cluster/router.h"
#include "dflow/common/string_util.h"
#include "dflow/engine/engine.h"
#include "dflow/exec/test_hooks.h"
#include "dflow/serve/service_loop.h"
#include "dflow/sim/fault.h"

namespace dflow::testing {

namespace {

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL + b;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Arms the flag-guarded operator bug for the lifetime of one dataflow
/// lane. The Volcano reference always runs clean.
class BugGuard {
 public:
  explicit BugGuard(BugKind kind) {
    if (kind == BugKind::kFilterDropFirstRow) {
      test_hooks::g_filter_drop_first_row = true;
    }
  }
  ~BugGuard() { test_hooks::g_filter_drop_first_row = false; }
  BugGuard(const BugGuard&) = delete;
  BugGuard& operator=(const BugGuard&) = delete;
};

sim::FabricConfig MakeConfig() {
  sim::FabricConfig config;
  // Partitioned joins need a second compute node; harmless otherwise.
  config.num_compute_nodes = 2;
  return config;
}

sim::FaultConfig MakeFaultConfig(uint64_t case_seed) {
  sim::FaultConfig fc;
  fc.seed = MixSeed(case_seed, 0xfa17ULL);
  fc.drop_prob = 0.02;
  fc.corrupt_prob = 0.02;
  fc.stall_prob = 0.05;
  fc.storage_error_prob = 0.01;
  return fc;
}

Status RegisterTables(Engine* engine, const GeneratedCase& c) {
  for (const auto& table : c.tables) {
    DFLOW_RETURN_NOT_OK(engine->catalog().Register(table));
  }
  return Status::OK();
}

}  // namespace

std::string_view BugKindToString(BugKind k) {
  switch (k) {
    case BugKind::kNone:
      return "none";
    case BugKind::kFilterDropFirstRow:
      return "filter_drop_first_row";
  }
  return "none";
}

Result<BugKind> BugKindFromString(const std::string& text) {
  if (text.empty() || text == "none") return BugKind::kNone;
  if (text == "filter_drop_first_row") return BugKind::kFilterDropFirstRow;
  return Status::InvalidArgument("unknown bug kind: " + text);
}

DiffRunner::DiffRunner(DiffOptions options) : options_(options) {}

Result<DiffResult> DiffRunner::Run(const GeneratedCase& c) const {
  DiffResult out;

  auto add_lane = [&out](std::string lane, const CanonicalResult& canon,
                         uint64_t sim_ns) -> LaneResult& {
    LaneResult lr;
    lr.lane = std::move(lane);
    lr.fingerprint = canon.fingerprint;
    lr.rows = canon.rows.size();
    lr.sim_ns = sim_ns;
    out.lanes.push_back(std::move(lr));
    return out.lanes.back();
  };
  auto add_failure = [&out](std::string lane, const Status& status) {
    LaneResult lr;
    lr.lane = std::move(lane);
    lr.failed = true;
    lr.error = status.message();
    out.lanes.push_back(std::move(lr));
  };
  auto note_divergence = [&out](const std::string& what) {
    if (!out.diverged) {
      out.diverged = true;
      out.divergence = what;
    }
  };
  auto check_lane = [&](const LaneResult& lane, bool fault_free,
                        const ExecutionReport& report) {
    if (!out.reference_fingerprint.empty() &&
        lane.fingerprint != out.reference_fingerprint) {
      note_divergence("lane '" + lane.lane + "' fingerprint " +
                      lane.fingerprint + " != volcano reference " +
                      out.reference_fingerprint);
    }
    if (report.sim_ns == 0) {
      note_divergence("lane '" + lane.lane + "' reported sim_ns == 0");
    }
    if (report.verify.num_errors() > 0) {
      note_divergence("lane '" + lane.lane + "' had verifier errors");
    }
    if (fault_free && report.fault.Any()) {
      note_divergence("lane '" + lane.lane +
                      "' saw fault activity on a fault-free fabric");
    }
  };

  // --- Cluster lanes: the distributed plan vs. the single-node truth. ----
  // Tables are hash-sharded over N independent fabrics and the query runs
  // through the router's exchange lowering (local fragments, shuffle /
  // broadcast / gather, merge-at-coordinator). The coordinator's result
  // must fingerprint identically to the Volcano reference at every node
  // count — and under lossy inter-node links, where checksummed
  // retransmission has to reconstruct the exact same frames.
  auto run_cluster_lane = [&](int n, bool lossy) {
    const std::string lane_name =
        lossy ? "cluster:faults" : "cluster:n" + std::to_string(n);
    cluster::ClusterConfig cc;
    cc.num_nodes = n;
    cc.seed = MixSeed(c.seed, 0xc105ULL + static_cast<uint64_t>(n));
    if (lossy) {
      cc.fault.xlink_drop_probability = 0.05;
      cc.fault.xlink_corrupt_probability = 0.05;
    }
    cluster::Cluster cl(cc);
    for (const auto& table : c.tables) {
      Status st = cl.RegisterSharded(table);
      if (!st.ok()) {
        add_failure(lane_name, st);
        note_divergence("lane '" + lane_name + "' failed: " + st.message());
        return;
      }
    }
    if (lossy) cl.ArmLinkFaults();
    cluster::RouterOptions ro;
    ro.verify = verify::VerifyMode::kStrict;
    // A seed-derived half of join cases take the broadcast-build path.
    if (c.is_join && MixSeed(c.seed, 0xb40adULL) % 2 == 0) {
      ro.broadcast_build_max_rows = ~0ULL;
    }
    cluster::QueryRouter router(&cl, ro);
    auto r =
        c.is_join ? router.ExecuteJoin(c.join) : router.ExecuteQuery(c.query);
    if (!r.ok()) {
      add_failure(lane_name, r.status());
      note_divergence("lane '" + lane_name +
                      "' failed: " + r.status().message());
      return;
    }
    const cluster::DistributedResult& dr = r.ValueOrDie();
    if (dr.outcome != "DONE") {
      // Lossy links may legitimately exhaust a frame's retry budget; any
      // other non-DONE outcome is a divergence (nothing was scheduled to
      // fail).
      if (!(lossy && dr.outcome == "RETRY_EXHAUSTED")) {
        note_divergence("lane '" + lane_name + "' outcome " + dr.outcome);
      }
      return;
    }
    CanonicalResult canon = c.is_join ? CanonicalizeCount(dr.total_rows)
                                      : CanonicalizeChunks(dr.chunks);
    LaneResult& lane = add_lane(lane_name, canon,
                                static_cast<uint64_t>(dr.makespan_ns));
    if (lane.fingerprint != out.reference_fingerprint) {
      note_divergence("lane '" + lane_name + "' fingerprint " +
                      lane.fingerprint + " != volcano reference " +
                      out.reference_fingerprint);
    }
    if (dr.verify.num_errors() > 0) {
      note_divergence("lane '" + lane_name + "' had exchange-verifier errors");
    }
  };
  auto run_cluster_lanes = [&] {
    if (!options_.cluster || options_.cluster_node_counts.empty()) return;
    for (int n : options_.cluster_node_counts) {
      run_cluster_lane(n, /*lossy=*/false);
    }
    if (options_.sample_faults) {
      run_cluster_lane(*std::max_element(options_.cluster_node_counts.begin(),
                                         options_.cluster_node_counts.end()),
                       /*lossy=*/true);
    }
  };

  const sim::FabricConfig config = MakeConfig();

  // --- Lane 0: the Volcano reference (never sees the injected bug). ------
  Engine engine(config);
  DFLOW_RETURN_NOT_OK(RegisterTables(&engine, c));

  if (c.is_join) {
    VolcanoRunner volcano(config);
    auto ref = volcano.RunJoinCount(engine.catalog(), c.join,
                                    options_.pool_pages);
    if (!ref.ok()) {
      add_failure("volcano", ref.status());
      note_divergence("volcano reference failed: " + ref.status().message());
      return out;
    }
    CanonicalResult canon = CanonicalizeVolcanoRows(ref.ValueOrDie().rows);
    out.reference_fingerprint = canon.fingerprint;
    add_lane("volcano", canon, static_cast<uint64_t>(ref.ValueOrDie().sim_ns));
  } else {
    auto ref = engine.ExecuteOnVolcano(c.query, options_.pool_pages);
    if (!ref.ok()) {
      add_failure("volcano", ref.status());
      note_divergence("volcano reference failed: " + ref.status().message());
      return out;
    }
    CanonicalResult canon = CanonicalizeVolcanoRows(ref.ValueOrDie().rows);
    out.reference_fingerprint = canon.fingerprint;
    add_lane("volcano", canon, static_cast<uint64_t>(ref.ValueOrDie().sim_ns));
  }

  // --- Dataflow lanes (bug-injected when requested). ---------------------
  BugGuard guard(options_.inject_bug);
  ExecOptions strict;
  strict.verify = verify::VerifyMode::kStrict;

  if (c.is_join) {
    std::vector<int64_t> dataflow_counts;  // per-node sinks, dataflow lane
    auto run_join = [&](const std::string& lane_name, Engine* eng,
                        bool fault_free) {
      auto r = eng->ExecutePartitionedJoin(c.join, strict);
      if (!r.ok()) {
        add_failure(lane_name, r.status());
        note_divergence("lane '" + lane_name +
                        "' failed: " + r.status().message());
        return;
      }
      CanonicalResult canon = CanonicalizeCount(r.ValueOrDie().total_rows);
      LaneResult& lane =
          add_lane(lane_name, canon, static_cast<uint64_t>(r.ValueOrDie().report.sim_ns));
      check_lane(lane, fault_free, r.ValueOrDie().report);
      if (eng == &engine) dataflow_counts = r.ValueOrDie().node_counts;
    };
    auto counts_text = [](const std::vector<int64_t>& counts) {
      std::vector<std::string> parts;
      for (int64_t n : counts) parts.push_back(std::to_string(n));
      return "[" + JoinStrings(parts, ",") + "]";
    };

    run_join("dataflow", &engine, /*fault_free=*/true);

    // Real-thread lanes: the same join on the morsel-driven executor.
    // Wall-clock execution has no simulated time and no fabric, so only
    // result equality is checked.
    if (options_.real_parallel) {
      for (uint32_t workers : options_.parallel_worker_counts) {
        ExecOptions par = strict;
        par.mode = ExecMode::kParallel;
        par.parallel_workers = workers;
        par.verify = verify::VerifyMode::kOff;  // no graph to verify
        const std::string lane_name =
            "real-parallel:w" + std::to_string(workers);
        auto r = engine.ExecutePartitionedJoin(c.join, par);
        if (!r.ok()) {
          add_failure(lane_name, r.status());
          note_divergence("lane '" + lane_name +
                          "' failed: " + r.status().message());
          continue;
        }
        CanonicalResult canon = CanonicalizeCount(r.ValueOrDie().total_rows);
        LaneResult& lane = add_lane(lane_name, canon, /*sim_ns=*/0);
        if (lane.fingerprint != out.reference_fingerprint) {
          note_divergence("lane '" + lane_name + "' fingerprint " +
                          lane.fingerprint + " != volcano reference " +
                          out.reference_fingerprint);
        }
        // Same hash routing, so each partition's count is the simulated
        // node's (JoinRunResult::node_counts).
        if (r.ValueOrDie().node_counts != dataflow_counts) {
          note_divergence("lane '" + lane_name + "' partition counts " +
                          counts_text(r.ValueOrDie().node_counts) +
                          " != dataflow per-node counts " +
                          counts_text(dataflow_counts));
        }
      }
    }

    if (options_.sample_faults) {
      Engine faulty(config);
      DFLOW_RETURN_NOT_OK(RegisterTables(&faulty, c));
      faulty.EnableFaultInjection(MakeFaultConfig(c.seed));
      run_join("faults", &faulty, /*fault_free=*/false);
    }
    run_cluster_lanes();
    return out;
  }

  auto run_query = [&](const std::string& lane_name, Engine* eng,
                       const ExecOptions& options, bool fault_free) {
    auto r = eng->Execute(c.query, options);
    if (!r.ok()) {
      add_failure(lane_name, r.status());
      note_divergence("lane '" + lane_name +
                      "' failed: " + r.status().message());
      return;
    }
    CanonicalResult canon = CanonicalizeChunks(r.ValueOrDie().chunks);
    LaneResult& lane =
        add_lane(lane_name, canon, static_cast<uint64_t>(r.ValueOrDie().report.sim_ns));
    if (r.ValueOrDie().report.result_rows != canon.rows.size()) {
      note_divergence("lane '" + lane_name + "' report.result_rows " +
                      std::to_string(r.ValueOrDie().report.result_rows) +
                      " != materialized rows " +
                      std::to_string(canon.rows.size()));
    }
    check_lane(lane, fault_free, r.ValueOrDie().report);
  };

  ExecOptions cpu_only = strict;
  cpu_only.placement = PlacementChoice::kCpuOnly;
  run_query("cpu_only", &engine, cpu_only, /*fault_free=*/true);

  // --- K placement variants, stride-sampled across the ranked list. ------
  if (options_.placement_samples > 0) {
    auto variants = engine.PlanVariants(c.query);
    if (!variants.ok()) {
      add_failure("variants", variants.status());
      note_divergence("PlanVariants failed: " + variants.status().message());
    } else if (!variants.ValueOrDie().empty()) {
      const size_t total = variants.ValueOrDie().size();
      const size_t take = std::min(options_.placement_samples, total);
      for (size_t i = 0; i < take; ++i) {
        const size_t pick = i * total / take;
        const Placement& placement = variants.ValueOrDie()[pick].placement;
        auto r = engine.ExecuteWithPlacement(c.query, placement, strict);
        const std::string lane_name = "variant:" + placement.name;
        if (!r.ok()) {
          add_failure(lane_name, r.status());
          note_divergence("lane '" + lane_name +
                          "' failed: " + r.status().message());
          continue;
        }
        CanonicalResult canon = CanonicalizeChunks(r.ValueOrDie().chunks);
        LaneResult& lane = add_lane(
            lane_name, canon,
            static_cast<uint64_t>(r.ValueOrDie().report.sim_ns));
        check_lane(lane, /*fault_free=*/true, r.ValueOrDie().report);
      }
    }
  }

  // --- Compiled-program lanes: compile once, execute the program. --------
  // The plan is lowered to an immutable DflowProgram (verified at compile
  // time under strict mode) and run through Engine::ExecuteProgram — the
  // admission path repeat queries take in the serving loop. There is one
  // lowering, and it always fuses: the cpu_only and variant:* lanes above
  // run the same fused programs through Execute and ExecuteWithPlacement,
  // so every lane holds a fused program to the Volcano reference. A fused
  // kernel's own reference is its inner operators run one after another
  // (compile_test).
  auto run_compiled = [&](const std::string& lane_name, Engine* eng,
                          PlacementChoice choice, bool fault_free) {
    auto prog = eng->Compile(c.query, choice, verify::VerifyMode::kStrict);
    if (!prog.ok()) {
      add_failure(lane_name, prog.status());
      note_divergence("lane '" + lane_name +
                      "' failed to compile: " + prog.status().message());
      return;
    }
    auto r = eng->ExecuteProgram(*prog.ValueOrDie(), strict);
    if (!r.ok()) {
      add_failure(lane_name, r.status());
      note_divergence("lane '" + lane_name +
                      "' failed: " + r.status().message());
      return;
    }
    CanonicalResult canon = CanonicalizeChunks(r.ValueOrDie().chunks);
    LaneResult& lane = add_lane(
        lane_name, canon, static_cast<uint64_t>(r.ValueOrDie().report.sim_ns));
    if (r.ValueOrDie().report.result_rows != canon.rows.size()) {
      note_divergence("lane '" + lane_name + "' report.result_rows " +
                      std::to_string(r.ValueOrDie().report.result_rows) +
                      " != materialized rows " +
                      std::to_string(canon.rows.size()));
    }
    check_lane(lane, fault_free, r.ValueOrDie().report);
  };

  run_compiled("compiled:auto", &engine, PlacementChoice::kAuto,
               /*fault_free=*/true);
  run_compiled("compiled:cpu_only", &engine, PlacementChoice::kCpuOnly,
               /*fault_free=*/true);
  if (options_.sample_faults) {
    Engine cfaulty(config);
    DFLOW_RETURN_NOT_OK(RegisterTables(&cfaulty, c));
    cfaulty.EnableFaultInjection(MakeFaultConfig(MixSeed(c.seed, 0xcf17ULL)));
    run_compiled("compiled:faults", &cfaulty, PlacementChoice::kAuto,
                 /*fault_free=*/false);
  }

  // --- Real-parallel lanes: the morsel-driven work-stealing executor. ---
  // Run at several worker counts so single-worker (serial shape), the
  // minimal-contention case, and an oversubscribed pool all fingerprint
  // identically to the Volcano reference. No sim_ns / fault checks: this
  // mode runs on the host, not the modeled fabric.
  if (options_.real_parallel) {
    for (uint32_t workers : options_.parallel_worker_counts) {
      ExecOptions par = strict;
      par.mode = ExecMode::kParallel;
      par.parallel_workers = workers;
      par.verify = verify::VerifyMode::kOff;  // no graph to verify
      const std::string lane_name =
          "real-parallel:w" + std::to_string(workers);
      auto r = engine.Execute(c.query, par);
      if (!r.ok()) {
        add_failure(lane_name, r.status());
        note_divergence("lane '" + lane_name +
                        "' failed: " + r.status().message());
        continue;
      }
      CanonicalResult canon = CanonicalizeChunks(r.ValueOrDie().chunks);
      LaneResult& lane = add_lane(lane_name, canon, /*sim_ns=*/0);
      if (lane.fingerprint != out.reference_fingerprint) {
        note_divergence("lane '" + lane_name + "' fingerprint " +
                        lane.fingerprint + " != volcano reference " +
                        out.reference_fingerprint);
      }
      if (r.ValueOrDie().report.result_rows != canon.rows.size()) {
        note_divergence("lane '" + lane_name + "' report.result_rows " +
                        std::to_string(r.ValueOrDie().report.result_rows) +
                        " != materialized rows " +
                        std::to_string(canon.rows.size()));
      }
    }
  }

  // --- Fault-schedule lanes: recovery must reproduce the exact result. ---
  if (options_.sample_faults) {
    Engine faulty(config);
    DFLOW_RETURN_NOT_OK(RegisterTables(&faulty, c));
    faulty.EnableFaultInjection(MakeFaultConfig(c.seed));
    run_query("faults", &faulty, strict, /*fault_free=*/false);

    // A quarter of cases also lose an accelerator mid-query; degradation
    // to the CPU-only plan must still be exact.
    if (MixSeed(c.seed, 0xc8a54ULL) % 4 == 0) {
      Engine crashed(config);
      DFLOW_RETURN_NOT_OK(RegisterTables(&crashed, c));
      sim::FaultConfig quiet;
      quiet.seed = MixSeed(c.seed, 0xc8a55ULL);
      crashed.EnableFaultInjection(quiet);
      crashed.fault_injector()->CrashDeviceAt("storage_proc", 300'000);
      run_query("crash", &crashed, strict, /*fault_free=*/false);
    }
  }

  run_cluster_lanes();

  // --- Chaos-serve lane: the full lifecycle under fire. ------------------
  // The same query is served repeatedly through the service loop while a
  // flapping accelerator, random link faults, deadlines, an explicit
  // cancellation, breakers, and retries are all active. Completed queries
  // (retried or not) are held to the fault-free Volcano reference; other
  // terminal outcomes are legal, but every completion must be exact.
  if (options_.chaos_serve) {
    Engine chaotic(config);
    DFLOW_RETURN_NOT_OK(RegisterTables(&chaotic, c));
    sim::FaultConfig fc;
    fc.seed = MixSeed(c.seed, 0xc4a05ULL);
    fc.drop_prob = 0.01;
    fc.corrupt_prob = 0.01;
    fc.stall_prob = 0.02;
    chaotic.EnableFaultInjection(fc);
    chaotic.fault_injector()->CrashDeviceAt("storage_proc", 2'000'000);
    chaotic.fault_injector()->RestoreDeviceAt("storage_proc", 12'000'000);

    serve::TenantConfig tenant;
    tenant.name = "chaos";
    tenant.queue_capacity = 8;
    tenant.slot_ns = 1'500'000;
    tenant.arrival_probability = 0.6;
    tenant.deadline_ns = 25'000'000;
    tenant.templates = {{c.query, "case", 1}};

    serve::ServiceConfig sc;
    sc.seed = MixSeed(c.seed, 0x5e7eULL);
    sc.horizon_ns = 30'000'000;
    sc.placement = PlacementChoice::kAuto;
    sc.admission.global_max_in_flight = 2;
    sc.admission.global_queue_capacity = 8;
    sc.collect_results = true;
    sc.lifecycle.quarantine_on_crash = false;
    sc.lifecycle.breaker.enabled = true;
    sc.lifecycle.breaker.failure_threshold = 1;
    sc.lifecycle.breaker.cooldown_ns = 4'000'000;
    sc.lifecycle.retry.max_attempts = 2;
    sc.lifecycle.retry.retry_delivery_exhausted = true;
    sc.lifecycle.retry.backoff_base_ns = 250'000;
    sc.lifecycle.retry.jitter_seed = sc.seed;
    sc.lifecycle.retry.fallback_chain = {PlacementChoice::kCpuOnly,
                                         PlacementChoice::kCpuOnly};
    sc.cancel_schedule.push_back(serve::CancelRequest{8'000'000, 2});

    serve::ServiceLoop loop(&chaotic, {tenant}, sc);
    auto served = loop.Run();
    if (!served.ok()) {
      add_failure("chaos-serve", served.status());
      note_divergence("lane 'chaos-serve' failed: " +
                      served.status().message());
      return out;
    }
    const serve::ServiceResult& sr = served.ValueOrDie();
    uint64_t completions = 0;
    uint64_t retried_completions = 0;
    for (const serve::ServiceResult::QueryOutcome& q : sr.outcomes) {
      if (q.outcome != lifecycle::OutcomeCode::kDone) continue;
      ++completions;
      if (q.attempts > 1) ++retried_completions;
      CanonicalResult canon = CanonicalizeChunks(q.chunks);
      if (canon.fingerprint != out.reference_fingerprint) {
        note_divergence("lane 'chaos-serve' query " +
                        std::to_string(q.query_id) + " (attempts " +
                        std::to_string(q.attempts) + ") fingerprint " +
                        canon.fingerprint + " != volcano reference " +
                        out.reference_fingerprint);
      }
    }
    LaneResult lane;
    lane.lane = "chaos-serve";
    lane.fingerprint = out.reference_fingerprint;
    lane.rows = completions;
    lane.sim_ns = sr.service.makespan_ns;
    if (completions == 0 && sr.service.admitted_total > 0) {
      note_divergence("lane 'chaos-serve' admitted " +
                      std::to_string(sr.service.admitted_total) +
                      " queries but completed none");
    }
    (void)retried_completions;  // retried-exactness is the per-query check
    out.lanes.push_back(std::move(lane));
  }

  return out;
}

}  // namespace dflow::testing

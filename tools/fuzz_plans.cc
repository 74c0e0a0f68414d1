// Differential plan fuzzer driver.
//
// Generates seed-derived random plans (PlanGen), runs each on the Volcano
// reference, the dataflow engine CPU-only, K sampled placement variants,
// and — by default — under a seed-derived fault schedule with recovery
// armed (DiffRunner), and demands canonicalized result equality everywhere.
// On divergence the case is shrunk to a minimal failing plan and written as
// replayable "dflow.repro.v1" JSON.
//
// Usage: fuzz_plans [--seeds=N] [--seed_base=S] [--variants=K] [--faults=0|1]
//                   [--parallel=0|1] [--deadlines] [--cluster=0|1]
//                   [--inject_bug=none|filter_drop_first_row]
//                   [--repro_dir=DIR] [--replay=FILE] [--verbose]
//
// --parallel (default on) adds the real-parallel lanes: every case also
// runs on the morsel-driven work-stealing executor (ExecMode::kParallel)
// at 1, 2, and 8 workers, and each run's canonical fingerprint must be
// byte-identical to the Volcano reference.
//
// --deadlines adds the chaos-serve lane: every non-join case is also served
// through a ServiceLoop with deadlines, a scheduled cancellation, circuit
// breakers, retries, and a flapping accelerator; each completed (possibly
// retried) query must fingerprint identically to the Volcano reference.
//
// --cluster (default on) adds the cluster lanes: the case's tables are
// hash-sharded across 1-, 2-, and 4-node clusters and the query runs
// distributed (exchange shuffle/broadcast/gather, merge-at-coordinator),
// plus a lossy-inter-node-link lane; every DONE distributed run must
// fingerprint identically to the single-node Volcano reference.
//   exit 0  all seeds agree (or the replay reproduced its recorded repro)
//   exit 1  at least one divergence (repro JSON written when --repro_dir set)
//   exit 2  harness/setup failure
//
// The corpus is pure-deterministic: the same --seed_base and --seeds always
// exercise byte-identical tables, plans, placements, and fault schedules.
// CI runs `fuzz_plans --seeds=64` in the fuzz-smoke job; run a bigger sweep
// (`--seeds=256` is the release bar) after touching operators, the pipeline
// builder, or the recovery layer.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dflow/testing/diff_runner.h"
#include "dflow/testing/plan_gen.h"
#include "dflow/testing/repro.h"
#include "dflow/testing/shrink.h"

namespace dflow {
namespace {

struct Args {
  uint64_t seeds = 64;
  uint64_t seed_base = 0;
  size_t variants = 2;
  bool faults = true;
  bool parallel = true;
  bool deadlines = false;
  bool cluster = true;
  testing::BugKind inject_bug = testing::BugKind::kNone;
  std::string repro_dir;
  std::string replay;
  bool verbose = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

int Replay(const Args& args) {
  std::ifstream in(args.replay);
  if (!in) {
    std::fprintf(stderr, "fuzz_plans: cannot read %s\n", args.replay.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<testing::Repro> repro = testing::ReproFromJson(buffer.str());
  if (!repro.ok()) {
    std::fprintf(stderr, "fuzz_plans: bad repro: %s\n",
                 repro.status().message().c_str());
    return 2;
  }
  Result<testing::ReplayOutcome> outcome =
      testing::ReplayRepro(repro.ValueOrDie());
  if (!outcome.ok()) {
    std::fprintf(stderr, "fuzz_plans: replay failed: %s\n",
                 outcome.status().message().c_str());
    return 2;
  }
  const testing::ReplayOutcome& o = outcome.ValueOrDie();
  std::printf("replay %s: case_seed=%llu stages=%zu diverged=%s\n",
              args.replay.c_str(),
              static_cast<unsigned long long>(repro.ValueOrDie().case_seed),
              testing::CountStages(o.minimized),
              o.diff.diverged ? "yes" : "no");
  if (o.diff.diverged) std::printf("  %s\n", o.diff.divergence.c_str());
  for (const testing::LaneResult& lane : o.diff.lanes) {
    std::printf("  lane %-24s %s rows=%llu%s\n", lane.lane.c_str(),
                lane.failed ? "FAILED" : lane.fingerprint.c_str(),
                static_cast<unsigned long long>(lane.rows),
                lane.failed ? (" (" + lane.error + ")").c_str() : "");
  }
  // A replay "succeeds" when it reproduces what the JSON recorded.
  return o.reproduced ? 0 : 1;
}

}  // namespace
}  // namespace dflow

int main(int argc, char** argv) {
  using dflow::testing::BugKind;
  dflow::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (dflow::ParseFlag(argv[i], "--seeds", &value)) {
      args.seeds = std::stoull(value);
    } else if (dflow::ParseFlag(argv[i], "--seed_base", &value)) {
      args.seed_base = std::stoull(value);
    } else if (dflow::ParseFlag(argv[i], "--variants", &value)) {
      args.variants = std::stoull(value);
    } else if (dflow::ParseFlag(argv[i], "--faults", &value)) {
      args.faults = value != "0";
    } else if (dflow::ParseFlag(argv[i], "--parallel", &value)) {
      args.parallel = value != "0";
    } else if (dflow::ParseFlag(argv[i], "--deadlines", &value)) {
      args.deadlines = value != "0";
    } else if (std::strcmp(argv[i], "--deadlines") == 0) {
      args.deadlines = true;
    } else if (dflow::ParseFlag(argv[i], "--cluster", &value)) {
      args.cluster = value != "0";
    } else if (std::strcmp(argv[i], "--cluster") == 0) {
      args.cluster = true;
    } else if (dflow::ParseFlag(argv[i], "--inject_bug", &value)) {
      auto bug = dflow::testing::BugKindFromString(value);
      if (!bug.ok()) {
        std::fprintf(stderr, "fuzz_plans: %s\n",
                     bug.status().message().c_str());
        return 2;
      }
      args.inject_bug = bug.ValueOrDie();
    } else if (dflow::ParseFlag(argv[i], "--repro_dir", &value)) {
      args.repro_dir = value;
    } else if (dflow::ParseFlag(argv[i], "--replay", &value)) {
      args.replay = value;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      args.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: fuzz_plans [--seeds=N] [--seed_base=S] "
                   "[--variants=K] [--faults=0|1] [--parallel=0|1] "
                   "[--deadlines] [--cluster=0|1] "
                   "[--inject_bug=KIND] "
                   "[--repro_dir=DIR] [--replay=FILE] [--verbose]\n");
      return 2;
    }
  }

  if (!args.replay.empty()) return dflow::Replay(args);

  dflow::testing::PlanGenOptions gen_options;
  gen_options.base_seed = args.seed_base;
  dflow::testing::PlanGen gen(gen_options);

  dflow::testing::DiffOptions diff_options;
  diff_options.placement_samples = args.variants;
  diff_options.sample_faults = args.faults;
  diff_options.real_parallel = args.parallel;
  diff_options.chaos_serve = args.deadlines;
  diff_options.cluster = args.cluster;
  diff_options.inject_bug = args.inject_bug;
  dflow::testing::DiffRunner runner(diff_options);

  uint64_t divergences = 0;
  for (uint64_t seed = 0; seed < args.seeds; ++seed) {
    dflow::testing::GeneratedCase c = gen.Generate(seed);
    dflow::Result<dflow::testing::DiffResult> result = runner.Run(c);
    if (!result.ok()) {
      std::fprintf(stderr, "fuzz_plans: %s: harness error: %s\n",
                   c.name.c_str(), result.status().message().c_str());
      return 2;
    }
    const dflow::testing::DiffResult& diff = result.ValueOrDie();
    if (args.verbose) {
      std::printf("%s: %s lanes=%zu stages=%zu ref=%s\n", c.name.c_str(),
                  diff.diverged ? "DIVERGED" : "ok", diff.lanes.size(),
                  dflow::testing::CountStages(c),
                  diff.reference_fingerprint.c_str());
    }
    if (!diff.diverged) continue;

    ++divergences;
    std::printf("%s: DIVERGED: %s\n", c.name.c_str(),
                diff.divergence.c_str());

    // Minimize, then record a replayable repro.
    dflow::testing::ShrinkResult shrunk = dflow::testing::Shrink(
        c, [&runner](const dflow::testing::GeneratedCase& candidate) {
          dflow::Result<dflow::testing::DiffResult> r = runner.Run(candidate);
          return r.ok() && r.ValueOrDie().diverged;
        });
    dflow::Result<dflow::testing::DiffResult> final_diff =
        runner.Run(shrunk.minimized);

    dflow::testing::Repro repro;
    repro.gen = gen_options;
    repro.case_seed = seed;
    repro.diff = diff_options;
    repro.steps = shrunk.applied_steps;
    repro.num_stages = dflow::testing::CountStages(shrunk.minimized);
    if (final_diff.ok()) {
      repro.divergence = final_diff.ValueOrDie().divergence;
      repro.expected_fingerprint =
          final_diff.ValueOrDie().reference_fingerprint;
    }
    std::printf("%s: shrunk to %llu stages in %zu steps (%zu oracle runs)\n",
                c.name.c_str(),
                static_cast<unsigned long long>(repro.num_stages),
                shrunk.applied_steps.size(), shrunk.oracle_runs);

    if (!args.repro_dir.empty()) {
      const std::string path =
          args.repro_dir + "/" + c.name + ".repro.json";
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "fuzz_plans: cannot write %s\n", path.c_str());
        return 2;
      }
      out << dflow::testing::ReproToJson(repro);
      std::printf("%s: repro written to %s\n", c.name.c_str(), path.c_str());
    }
  }

  std::printf("fuzz_plans: %llu/%llu seeds diverged (seed_base=%llu)\n",
              static_cast<unsigned long long>(divergences),
              static_cast<unsigned long long>(args.seeds),
              static_cast<unsigned long long>(args.seed_base));
  return divergences == 0 ? 0 : 1;
}

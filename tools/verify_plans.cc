// Static analysis gate over the repo's plan catalogue.
//
// Builds the standard single-node engine with a small lineitem table,
// enumerates every placement variant of each catalogued query shape (the
// shapes the benches and examples run), and pushes each (plan, placement)
// pair through Engine::Verify — the same structure / schema-flow / credit /
// placement checks Execute applies before running. Nothing is executed: the
// tool proves the shipped plans are statically clean without spending any
// simulated (or much real) time.
//
// Usage: verify_plans [--verbose | --fingerprints]
//   exit 0  every variant of every plan verifies without errors
//   exit 1  at least one verifier error (all issues are printed)
//   exit 2  setup failure (catalog, parser, planner, compiler)
//
// --fingerprints verifies nothing: it compiles every variant through
// Engine::CompilePlan / Engine::CompileVariant and prints one
// `plan variant fingerprint` line per variant (the program's fingerprint,
// a hash of its serialized artifact). CI diffs that list against
// bench/expectations/program_fingerprints.txt, so any change to a
// lowering shows up as a reviewed diff of that file.
//
// CI runs this in the analysis job; run it locally after touching the
// pipeline builder, the operators' schema declarations, or the verifier.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dflow/compile/program_cache.h"
#include "dflow/engine/engine.h"
#include "dflow/plan/parser.h"
#include "dflow/workload/tpch_like.h"

namespace dflow {
namespace {

struct CataloguedPlan {
  std::string name;
  QuerySpec spec;
};

Result<std::vector<CataloguedPlan>> BuildCatalogue() {
  std::vector<CataloguedPlan> plans;

  // Q6-flavoured scan-filter-project-aggregate (the aggregate input is a
  // computed projection, which the SQL subset cannot express).
  {
    QuerySpec q6;
    q6.table = "lineitem";
    q6.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                          Expr::Lit(Value::Date32(8400)));
    q6.projections = {Expr::Arith(ArithOp::kMul, Expr::Col("l_extendedprice"),
                                  Expr::Col("l_discount"))};
    q6.projection_names = {"revenue"};
    q6.aggregates = {{AggFunc::kSum, "revenue", "revenue"}};
    plans.push_back({"q6", std::move(q6)});
  }

  // Q1-flavoured group-by, via the SQL front end.
  DFLOW_ASSIGN_OR_RETURN(
      QuerySpec q1,
      ParseQuery("SELECT l_returnflag, l_linestatus, "
                 "SUM(l_quantity) AS sum_qty, "
                 "SUM(l_extendedprice) AS sum_price, COUNT(*) AS n "
                 "FROM lineitem GROUP BY l_returnflag, l_linestatus"));
  plans.push_back({"q1_sql", std::move(q1)});

  // §4.4's COUNT(*)-on-the-NIC query.
  {
    QuerySpec count;
    count.table = "lineitem";
    count.count_only = true;
    count.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                             Expr::Lit(Value::Date32(8400)));
    plans.push_back({"count_only", std::move(count)});
  }

  // ORDER BY ... LIMIT pipeline (blocking sort stays on the CPU).
  DFLOW_ASSIGN_OR_RETURN(
      QuerySpec topk,
      ParseQuery("SELECT l_orderkey, l_extendedprice FROM lineitem "
                 "WHERE l_discount > 0.05 "
                 "ORDER BY l_extendedprice DESC LIMIT 10"));
  plans.push_back({"sort_limit_sql", std::move(topk)});

  // The compressed-uplink ablation adds an encode stage to the path.
  {
    QuerySpec compress;
    compress.table = "lineitem";
    compress.filter = Expr::Cmp(CompareOp::kLt, Expr::Col("l_shipdate"),
                                Expr::Lit(Value::Date32(8400)));
    compress.projections = {Expr::Col("l_extendedprice"),
                            Expr::Col("l_discount")};
    compress.projection_names = {"price", "discount"};
    compress.compress_uplink = true;
    plans.push_back({"compress_uplink", std::move(compress)});
  }

  // Plain projection (no aggregation): rows stream all the way to the sink.
  DFLOW_ASSIGN_OR_RETURN(
      QuerySpec select,
      ParseQuery("SELECT l_orderkey, l_quantity FROM lineitem "
                 "WHERE l_quantity >= 10"));
  plans.push_back({"select_sql", std::move(select)});

  return plans;
}

// Prints `plan variant fingerprint` for every variant of every plan.
int PrintFingerprints(Engine& engine,
                      const std::vector<CataloguedPlan>& catalogue) {
  for (const CataloguedPlan& plan : catalogue) {
    auto compiled = engine.CompilePlan(plan.spec);
    if (!compiled.ok()) {
      std::fprintf(stderr, "verify_plans: %s: planner failed: %s\n",
                   plan.name.c_str(), compiled.status().ToString().c_str());
      return 2;
    }
    compile::CompiledQuery* cq = compiled.ValueOrDie().get();
    for (const RankedPlacement& variant : cq->variants) {
      auto program = engine.CompileVariant(cq, variant.placement,
                                           verify::VerifyMode::kWarn);
      if (!program.ok()) {
        std::fprintf(stderr, "verify_plans: %s [%s]: compile failed: %s\n",
                     plan.name.c_str(), variant.placement.name.c_str(),
                     program.status().ToString().c_str());
        return 2;
      }
      std::printf("%s %s %016" PRIx64 "\n", plan.name.c_str(),
                  variant.placement.name.c_str(),
                  program.ValueOrDie()->fingerprint());
    }
  }
  return 0;
}

int Run(bool verbose, bool fingerprints) {
  Engine engine;
  LineitemSpec lineitem;
  lineitem.rows = 20'000;  // enough for multi-batch plans; cheap to build
  auto table = MakeLineitemTable(lineitem);
  if (!table.ok()) {
    std::fprintf(stderr, "verify_plans: catalog setup failed: %s\n",
                 table.status().ToString().c_str());
    return 2;
  }
  if (Status s = engine.catalog().Register(table.ValueOrDie()); !s.ok()) {
    std::fprintf(stderr, "verify_plans: catalog setup failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }

  auto catalogue = BuildCatalogue();
  if (!catalogue.ok()) {
    std::fprintf(stderr, "verify_plans: plan catalogue failed: %s\n",
                 catalogue.status().ToString().c_str());
    return 2;
  }
  if (fingerprints) return PrintFingerprints(engine, catalogue.ValueOrDie());

  size_t variants_checked = 0;
  size_t errors = 0;
  size_t warnings = 0;
  for (const CataloguedPlan& plan : catalogue.ValueOrDie()) {
    auto variants = engine.PlanVariants(plan.spec);
    if (!variants.ok()) {
      std::fprintf(stderr, "verify_plans: %s: planner failed: %s\n",
                   plan.name.c_str(),
                   variants.status().ToString().c_str());
      return 2;
    }
    for (const RankedPlacement& variant : variants.ValueOrDie()) {
      auto report = engine.Verify(plan.spec, variant.placement);
      if (!report.ok()) {
        std::fprintf(stderr, "verify_plans: %s [%s]: verify failed: %s\n",
                     plan.name.c_str(), variant.placement.name.c_str(),
                     report.status().ToString().c_str());
        return 2;
      }
      const verify::VerifyReport& r = report.ValueOrDie();
      ++variants_checked;
      errors += r.num_errors();
      warnings += r.num_warnings();
      if (verbose || !r.issues.empty()) {
        std::printf("%-16s %-24s %s\n", plan.name.c_str(),
                    variant.placement.name.c_str(), r.ToString().c_str());
      }
    }
  }

  std::printf("verify_plans: %zu plan variants checked, %zu error(s), "
              "%zu warning(s)\n",
              variants_checked, errors, warnings);
  return errors > 0 ? 1 : 0;
}

}  // namespace
}  // namespace dflow

int main(int argc, char** argv) {
  bool verbose = false;
  bool fingerprints = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--fingerprints") == 0) {
      fingerprints = true;
    } else {
      std::fprintf(stderr,
                   "usage: verify_plans [--verbose | --fingerprints]\n");
      return 2;
    }
  }
  return dflow::Run(verbose, fingerprints);
}

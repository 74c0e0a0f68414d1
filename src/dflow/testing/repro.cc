#include "dflow/testing/repro.h"

#include <cstdio>

#include "dflow/testing/shrink.h"
#include "dflow/trace/json.h"

namespace dflow::testing {

namespace {

std::string FormatDouble(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

Status MissingField(const std::string& name) {
  return Status::InvalidArgument("repro JSON missing field: " + name);
}

}  // namespace

std::string ReproToJson(const Repro& repro) {
  std::string out = "{\n";
  out += "  \"schema\": " + trace::JsonQuote(repro.schema) + ",\n";
  out += "  \"gen\": {\n";
  out += "    \"base_seed\": " + std::to_string(repro.gen.base_seed) + ",\n";
  out += "    \"min_rows\": " + std::to_string(repro.gen.min_rows) + ",\n";
  out += "    \"max_rows\": " + std::to_string(repro.gen.max_rows) + ",\n";
  out += "    \"max_extra_columns\": " +
         std::to_string(repro.gen.max_extra_columns) + ",\n";
  out += "    \"join_probability\": " +
         FormatDouble(repro.gen.join_probability) + ",\n";
  out += "    \"count_only_probability\": " +
         FormatDouble(repro.gen.count_only_probability) + "\n";
  out += "  },\n";
  out += "  \"case_seed\": " + std::to_string(repro.case_seed) + ",\n";
  out += "  \"diff\": {\n";
  out += "    \"placement_samples\": " +
         std::to_string(repro.diff.placement_samples) + ",\n";
  out += std::string("    \"sample_faults\": ") +
         (repro.diff.sample_faults ? "true" : "false") + ",\n";
  out += "    \"inject_bug\": " +
         trace::JsonQuote(std::string(BugKindToString(repro.diff.inject_bug))) +
         ",\n";
  out += "    \"pool_pages\": " + std::to_string(repro.diff.pool_pages) + ",\n";
  out += std::string("    \"chaos_serve\": ") +
         (repro.diff.chaos_serve ? "true" : "false") + ",\n";
  out += std::string("    \"real_parallel\": ") +
         (repro.diff.real_parallel ? "true" : "false") + ",\n";
  out += std::string("    \"cluster\": ") +
         (repro.diff.cluster ? "true" : "false") + ",\n";
  out += "    \"cluster_node_counts\": [";
  for (size_t i = 0; i < repro.diff.cluster_node_counts.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(repro.diff.cluster_node_counts[i]);
  }
  out += "]\n";
  out += "  },\n";
  out += "  \"steps\": [";
  for (size_t i = 0; i < repro.steps.size(); ++i) {
    if (i > 0) out += ", ";
    out += trace::JsonQuote(repro.steps[i]);
  }
  out += "],\n";
  out += "  \"divergence\": " + trace::JsonQuote(repro.divergence) + ",\n";
  out += "  \"expected_fingerprint\": " +
         trace::JsonQuote(repro.expected_fingerprint) + ",\n";
  out += "  \"num_stages\": " + std::to_string(repro.num_stages) + "\n";
  out += "}\n";
  return out;
}

Result<Repro> ReproFromJson(const std::string& json) {
  DFLOW_ASSIGN_OR_RETURN(trace::JsonValue root, trace::ParseJson(json));
  Repro repro;

  const trace::JsonValue* schema = root.Find("schema");
  if (schema == nullptr) return MissingField("schema");
  repro.schema = schema->AsString();
  if (repro.schema != "dflow.repro.v1") {
    return Status::InvalidArgument("unsupported repro schema: " + repro.schema);
  }

  const trace::JsonValue* gen = root.Find("gen");
  if (gen == nullptr) return MissingField("gen");
  auto read_u64 = [](const trace::JsonValue& obj, const std::string& key,
                     uint64_t* out) -> Status {
    const trace::JsonValue* v = obj.Find(key);
    if (v == nullptr) return MissingField(key);
    *out = v->AsUInt64();
    return Status::OK();
  };
  uint64_t u = 0;
  DFLOW_RETURN_NOT_OK(read_u64(*gen, "base_seed", &repro.gen.base_seed));
  DFLOW_RETURN_NOT_OK(read_u64(*gen, "min_rows", &u));
  repro.gen.min_rows = u;
  DFLOW_RETURN_NOT_OK(read_u64(*gen, "max_rows", &u));
  repro.gen.max_rows = u;
  DFLOW_RETURN_NOT_OK(read_u64(*gen, "max_extra_columns", &u));
  repro.gen.max_extra_columns = u;
  const trace::JsonValue* jp = gen->Find("join_probability");
  if (jp == nullptr) return MissingField("join_probability");
  repro.gen.join_probability = jp->AsDouble();
  const trace::JsonValue* cp = gen->Find("count_only_probability");
  if (cp == nullptr) return MissingField("count_only_probability");
  repro.gen.count_only_probability = cp->AsDouble();

  DFLOW_RETURN_NOT_OK(read_u64(root, "case_seed", &repro.case_seed));

  const trace::JsonValue* diff = root.Find("diff");
  if (diff == nullptr) return MissingField("diff");
  DFLOW_RETURN_NOT_OK(read_u64(*diff, "placement_samples", &u));
  repro.diff.placement_samples = u;
  const trace::JsonValue* sf = diff->Find("sample_faults");
  if (sf == nullptr) return MissingField("sample_faults");
  repro.diff.sample_faults = sf->AsBool();
  const trace::JsonValue* bug = diff->Find("inject_bug");
  if (bug == nullptr) return MissingField("inject_bug");
  DFLOW_ASSIGN_OR_RETURN(repro.diff.inject_bug,
                         BugKindFromString(bug->AsString()));
  DFLOW_RETURN_NOT_OK(read_u64(*diff, "pool_pages", &u));
  repro.diff.pool_pages = u;
  // Optional (added with the chaos-serve lane): absent in older repro
  // files, which must stay replayable.
  const trace::JsonValue* chaos = diff->Find("chaos_serve");
  if (chaos != nullptr) repro.diff.chaos_serve = chaos->AsBool();
  // Optional (added with the real-parallel lanes): same compatibility rule.
  const trace::JsonValue* par = diff->Find("real_parallel");
  if (par != nullptr) repro.diff.real_parallel = par->AsBool();
  // Older repro files may carry a "compiled" key from when the
  // compiled-program lanes were optional; they always run now, so the key
  // is accepted and ignored.
  // Optional (added with the cluster lanes): same rule; the node-count
  // list round-trips so a distributed divergence replays at the exact
  // cluster shape that caught it.
  const trace::JsonValue* cl = diff->Find("cluster");
  if (cl != nullptr) repro.diff.cluster = cl->AsBool();
  const trace::JsonValue* cnc = diff->Find("cluster_node_counts");
  if (cnc != nullptr) {
    repro.diff.cluster_node_counts.clear();
    for (const trace::JsonValue& v : cnc->AsArray()) {
      repro.diff.cluster_node_counts.push_back(
          static_cast<int>(v.AsUInt64()));
    }
  }

  const trace::JsonValue* steps = root.Find("steps");
  if (steps == nullptr) return MissingField("steps");
  for (const trace::JsonValue& s : steps->AsArray()) {
    repro.steps.push_back(s.AsString());
  }

  const trace::JsonValue* divergence = root.Find("divergence");
  if (divergence != nullptr) repro.divergence = divergence->AsString();
  const trace::JsonValue* fp = root.Find("expected_fingerprint");
  if (fp != nullptr) repro.expected_fingerprint = fp->AsString();
  const trace::JsonValue* ns = root.Find("num_stages");
  if (ns != nullptr) repro.num_stages = ns->AsUInt64();

  return repro;
}

Result<ReplayOutcome> ReplayRepro(const Repro& repro) {
  ReplayOutcome outcome;
  PlanGen gen(repro.gen);
  outcome.minimized = gen.Generate(repro.case_seed);
  for (const std::string& step : repro.steps) {
    DFLOW_ASSIGN_OR_RETURN(outcome.minimized,
                           ApplyShrinkStep(outcome.minimized, step));
  }
  DiffRunner runner(repro.diff);
  DFLOW_ASSIGN_OR_RETURN(outcome.diff, runner.Run(outcome.minimized));
  outcome.reproduced =
      outcome.diff.diverged &&
      (repro.expected_fingerprint.empty() ||
       outcome.diff.reference_fingerprint == repro.expected_fingerprint);
  return outcome;
}

}  // namespace dflow::testing

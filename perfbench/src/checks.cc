#include "checks.h"

#include <algorithm>
#include <cmath>

#include "common/annotations.h"
#include "common/string_util.h"
#include "query/query_engine.h"

namespace perfbench {

using pcqe::StrFormat;

namespace {

std::string RenderValues(const std::vector<pcqe::Value>& values) {
  std::string out;
  for (const pcqe::Value& v : values) {
    out += v.ToString();
    out += '|';
  }
  return out;
}

}  // namespace

ReleasedRows ReleasedOf(const pcqe::QueryOutcome& outcome) {
  ReleasedRows rows;
  rows.reserve(outcome.released.size());
  for (size_t i : outcome.released) {
    rows.emplace_back(RenderValues(outcome.intermediate.ValuesOfRow(i)),
                      outcome.intermediate.rows[i].confidence);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string CheckRelease(const pcqe::PcqeEngine& engine, const ReadSample& sample) {
  for (const auto& [values, confidence] : sample.released) {
    if (!(confidence > sample.beta)) {
      return StrFormat("released row %s has confidence %.17g <= beta %.17g", values.c_str(),
                       confidence, sample.beta);
    }
  }
  pcqe::Result<pcqe::QueryResult> oracle =
      pcqe::RunQuery(engine.catalog(), sample.op.sql, nullptr, pcqe::ExecutionMode::kRow);
  if (!oracle.ok()) return "oracle evaluation failed: " + oracle.status().ToString();
  const SessionSpec& session = Sessions()[sample.op.session];
  pcqe::Result<pcqe::PolicyDecision> decision =
      engine.policies().Resolve(engine.roles(), session.user, session.purpose, oracle->tables);
  if (!decision.ok()) return "oracle policy resolution failed: " + decision.status().ToString();
  ReleasedRows expected;
  for (const pcqe::QueryResult::Row& row : oracle->rows) {
    if (decision->Allows(row.confidence)) {
      expected.emplace_back(RenderValues(row.values), row.confidence);
    }
  }
  std::sort(expected.begin(), expected.end());
  if (expected.size() != sample.released.size()) {
    return StrFormat("released %zu rows, the row-engine oracle releases %zu",
                     sample.released.size(), expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != sample.released[i]) {
      return StrFormat("released row %s (%.17g) differs from oracle row %s (%.17g)",
                       sample.released[i].first.c_str(), sample.released[i].second,
                       expected[i].first.c_str(), expected[i].second);
    }
  }
  return "";
}

std::string CheckProposalFlags(const pcqe::StrategyProposal& proposal) {
  if (proposal.needed && !proposal.feasible && !proposal.partial) {
    return "infeasible proposal not tagged partial (" + proposal.algorithm + ")";
  }
  return "";
}

std::string CheckProposalApplied(const CatalogSizes& sizes, uint64_t seed,
                                 const SolveSample& sample) {
  std::unique_ptr<pcqe::Catalog> twin = BuildCatalog(sizes, seed);
  std::unique_ptr<pcqe::PcqeEngine> engine = BuildEngine(twin.get());
  {
    pcqe::WriterLock lock(engine->catalog_mu());
    pcqe::Status applied = engine->AcceptProposal(sample.proposal);
    if (!applied.ok()) return "proposal does not apply: " + applied.ToString();
  }
  const SessionSpec& session = Sessions()[sample.op.session];
  pcqe::QueryRequest request;
  request.sql = sample.op.sql;
  request.user = session.user;
  request.purpose = session.purpose;
  request.required_fraction = 0.0;
  request.pushdown = false;
  pcqe::ReaderLock lock(engine->catalog_mu());
  pcqe::Result<pcqe::QueryOutcome> outcome = engine->Submit(request);
  if (!outcome.ok()) return "re-evaluation failed: " + outcome.status().ToString();
  size_t n = outcome->intermediate.rows.size();
  auto need = static_cast<size_t>(std::ceil(sample.op.theta * static_cast<double>(n)));
  if (n != sample.result_rows) {
    return StrFormat("query returned %zu rows, the served answer had %zu", n, sample.result_rows);
  }
  if (outcome->released.size() < need) {
    return StrFormat("after the proposal %zu of %zu rows are released, theta %.2f needs %zu",
                     outcome->released.size(), n, sample.op.theta, need);
  }
  return "";
}

std::string CheckRecovered(const pcqe::Catalog& live, const pcqe::Catalog& recovered,
                           uint64_t recovered_version) {
  if (recovered_version != live.confidence_version()) {
    return StrFormat("recovered confidence version %llu, live %llu",
                     static_cast<unsigned long long>(recovered_version),
                     static_cast<unsigned long long>(live.confidence_version()));
  }
  for (const std::string& name : live.TableNames()) {
    const pcqe::Table* a = *live.GetTable(name);
    pcqe::Result<const pcqe::Table*> b = recovered.GetTable(name);
    if (!b.ok()) return "table " + name + " missing after recovery";
    if (a->num_tuples() != (*b)->num_tuples()) return "table " + name + " changed size";
    for (size_t i = 0; i < a->num_tuples(); ++i) {
      const pcqe::Tuple& x = a->tuples()[i];
      const pcqe::Tuple& y = (*b)->tuples()[i];
      if (x.id() != y.id() || x.confidence() != y.confidence()) {
        return StrFormat("tuple %llu of %s: live confidence %.17g, recovered %.17g",
                         static_cast<unsigned long long>(x.id()), name.c_str(), x.confidence(),
                         y.confidence());
      }
    }
  }
  return "";
}

std::vector<std::string> RunSelfTests(const pcqe::PcqeEngine& engine,
                                      const std::vector<ReadSample>& reads,
                                      const CatalogSizes& sizes, uint64_t seed,
                                      const std::vector<SolveSample>& solves,
                                      const pcqe::Catalog* live, pcqe::Catalog* recovered) {
  std::vector<std::string> failures;
  if (!reads.empty()) {
    auto sample = std::find_if(reads.begin(), reads.end(),
                               [](const ReadSample& s) { return !s.released.empty(); });
    if (sample == reads.end()) {
      failures.push_back("release check self-test: no sampled read released a row");
    } else {
      ReadSample shifted = *sample;
      shifted.released[0].second = std::nextafter(shifted.released[0].second, 2.0);
      if (CheckRelease(engine, shifted).empty()) {
        failures.push_back("release check accepted a confidence off by one ulp");
      }
      ReadSample leaked = *sample;
      leaked.released.emplace_back("leaked|", leaked.beta);
      if (CheckRelease(engine, leaked).empty()) {
        failures.push_back("release check accepted a row released at beta");
      }
      ReadSample dropped = *sample;
      dropped.released.pop_back();
      if (CheckRelease(engine, dropped).empty()) {
        failures.push_back("release check accepted a missing row");
      }
    }
  }
  if (!solves.empty()) {
    auto sample = std::find_if(solves.begin(), solves.end(), [](const SolveSample& s) {
      return s.proposal.feasible && !s.proposal.actions.empty();
    });
    if (sample == solves.end()) {
      failures.push_back("proposal check self-test: no feasible proposal sampled");
    } else {
      SolveSample emptied = *sample;
      emptied.proposal.actions.clear();
      if (CheckProposalApplied(sizes, seed, emptied).empty()) {
        failures.push_back("proposal check accepted a proposal with its actions removed");
      }
      pcqe::StrategyProposal untagged = sample->proposal;
      untagged.feasible = false;
      untagged.partial = false;
      if (CheckProposalFlags(untagged).empty()) {
        failures.push_back("proposal check accepted an untagged infeasible proposal");
      }
    }
  }
  if (live != nullptr && recovered != nullptr) {
    uint64_t version = live->confidence_version();
    if (CheckRecovered(*live, *recovered, version + 1).empty()) {
      failures.push_back("recovery check accepted a wrong confidence version");
    }
    pcqe::Table* table = *recovered->GetTable("parts");
    const pcqe::Tuple& t = table->tuples()[0];
    double original = t.confidence();
    pcqe::BaseTupleId id = t.id();
    if (!recovered->SetConfidence(id, original == 0.5 ? 0.25 : 0.5).ok() ||
        CheckRecovered(*live, *recovered, version).empty()) {
      failures.push_back("recovery check accepted a changed tuple confidence");
    }
  }
  return failures;
}

}  // namespace perfbench

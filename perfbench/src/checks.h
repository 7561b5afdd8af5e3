// Answer checks, run outside the timed window. Each returns an empty string
// when the answer is correct and a reason otherwise. `RunSelfTests` feeds
// each check a corrupted answer and expects a rejection.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "catalogs.h"
#include "engine/pcqe_engine.h"
#include "relational/catalog.h"

namespace perfbench {

/// Released rows of one answer as (rendered values, confidence), sorted.
using ReleasedRows = std::vector<std::pair<std::string, double>>;

ReleasedRows ReleasedOf(const pcqe::QueryOutcome& outcome);

/// A served θ = 0 read: what the service released under `beta`.
struct ReadSample {
  Op op;
  double beta = 0.0;
  ReleasedRows released;
};

/// Differential oracle: re-evaluates on the row engine with pushdown off and
/// filters by the session's policy; the released rows and confidences must
/// be identical, and none may sit at or below β.
std::string CheckRelease(const pcqe::PcqeEngine& engine, const ReadSample& sample);

/// A served shortfall query and its proposal.
struct SolveSample {
  Op op;
  size_t result_rows = 0;
  pcqe::StrategyProposal proposal;
};

/// Every proposal must be feasible or tagged partial.
std::string CheckProposalFlags(const pcqe::StrategyProposal& proposal);

/// Applies the proposal to a fresh copy of the catalog (same sizes and seed);
/// the query must then release at least ceil(θ·n) rows.
std::string CheckProposalApplied(const CatalogSizes& sizes, uint64_t seed,
                                 const SolveSample& sample);

/// Every tuple's confidence and the confidence version of `recovered` must
/// equal those of `live`.
std::string CheckRecovered(const pcqe::Catalog& live, const pcqe::Catalog& recovered,
                           uint64_t recovered_version);

/// Runs each check once on a corrupted copy of a real answer; returns one
/// failure line per check that accepted it.
std::vector<std::string> RunSelfTests(const pcqe::PcqeEngine& engine,
                                      const std::vector<ReadSample>& reads,
                                      const CatalogSizes& sizes, uint64_t seed,
                                      const std::vector<SolveSample>& solves,
                                      const pcqe::Catalog* live, pcqe::Catalog* recovered);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

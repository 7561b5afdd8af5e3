#include "improve/improver.h"

#include "common/string_util.h"

namespace pcqe {

Status QualityImprover::Validate(const std::vector<IncrementAction>& actions) const {
  // Nothing is written unless every action is applicable.
  for (const IncrementAction& a : actions) {
    PCQE_ASSIGN_OR_RETURN(Tuple t, catalog_->FindTuple(a.base_tuple));
    if (a.to <= t.confidence() + kEpsilon) {
      return Status::InvalidArgument(StrFormat(
          "improvement for tuple %llu targets %g but confidence is already %g",
          static_cast<unsigned long long>(a.base_tuple), a.to, t.confidence()));
    }
    if (a.to > t.max_confidence() + kEpsilon) {
      return Status::InvalidArgument(StrFormat(
          "improvement for tuple %llu targets %g above its ceiling %g",
          static_cast<unsigned long long>(a.base_tuple), a.to, t.max_confidence()));
    }
  }
  return Status::OK();
}

Status QualityImprover::Apply(const std::vector<IncrementAction>& actions) {
  PCQE_RETURN_NOT_OK(Validate(actions));
  // Commit pass.
  for (const IncrementAction& a : actions) {
    PCQE_ASSIGN_OR_RETURN(Tuple t, catalog_->FindTuple(a.base_tuple));
    double cost = t.cost_function()->Increment(t.confidence(), a.to);
    PCQE_RETURN_NOT_OK(catalog_->SetConfidence(a.base_tuple, a.to));
    total_cost_ += cost;
  }
  return Status::OK();
}

}  // namespace pcqe

#include "assign/assigner.h"

#include <algorithm>

#include "common/string_util.h"

namespace pcqe {

Result<AssignmentReport> AssignConfidences(Catalog* catalog,
                                           const ProvenanceGraph& graph,
                                           const std::vector<TupleProvenance>& mapping,
                                           const TrustModelOptions& options) {
  // Validate the whole mapping before writing anything.
  for (const TupleProvenance& m : mapping) {
    PCQE_RETURN_NOT_OK(catalog->FindTuple(m.tuple).status());
    if (m.item >= graph.num_items()) {
      return Status::NotFound(StrFormat("provenance item %u not found", m.item));
    }
  }

  AssignmentReport report;
  PCQE_ASSIGN_OR_RETURN(report.trust, ComputeTrust(graph, options));

  for (const TupleProvenance& m : mapping) {
    PCQE_ASSIGN_OR_RETURN(Tuple t, catalog->FindTuple(m.tuple));
    double confidence =
        std::min(report.trust.item_trust[m.item], t.max_confidence());
    // Bulk out-of-band assignment rewrites the whole confidence baseline;
    // durable deployments must checkpoint right after (the WAL only logs
    // accepts).
    PCQE_RETURN_NOT_OK(catalog->SetConfidence(  // pcqe-lint: allow(durability)
        m.tuple, confidence));
    report.applied.push_back(m);
  }
  return report;
}

}  // namespace pcqe

// Copyright (c) PCQE contributors.
// Base-tuple identifiers. The `Tuple` row view itself lives in
// relational/table.h, next to the table whose column chunks it reads.

#ifndef PCQE_RELATIONAL_TUPLE_H_
#define PCQE_RELATIONAL_TUPLE_H_

#include <cstdint>

namespace pcqe {

/// Catalog-wide identifier of a base tuple. The lineage layer uses these ids
/// as boolean variables ("p02", "p13" in the paper's running example).
using BaseTupleId = uint64_t;

}  // namespace pcqe

#endif  // PCQE_RELATIONAL_TUPLE_H_

#include "relational/schema.h"

#include "common/string_util.h"

namespace pcqe {

Result<size_t> Schema::IndexOf(const std::string& name) const {
  // Split an optional qualifier.
  std::string qualifier;
  std::string column = name;
  size_t dot = name.find('.');
  if (dot != std::string::npos) {
    qualifier = name.substr(0, dot);
    column = name.substr(dot + 1);
  }

  size_t found = columns_.size();
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& c = columns_[i];
    if (!EqualsIgnoreCaseAscii(c.name, column)) continue;
    if (!qualifier.empty() && !EqualsIgnoreCaseAscii(c.qualifier, qualifier)) continue;
    if (found != columns_.size()) {
      return Status::BindError(StrFormat("column reference '%s' is ambiguous (%s vs %s)",
                                         name.c_str(),
                                         columns_[found].QualifiedName().c_str(),
                                         c.QualifiedName().c_str()));
    }
    found = i;
  }
  if (found == columns_.size()) {
    return Status::NotFound(StrFormat("column '%s' not found in schema %s", name.c_str(),
                                      ToString().c_str()));
  }
  return found;
}

Schema Schema::WithQualifier(const std::string& qualifier) const {
  Schema out;
  for (Column c : columns_) {
    c.qualifier = qualifier;
    out.AddColumn(std::move(c));
  }
  return out;
}

Schema Schema::Concat(const Schema& right) const {
  Schema out = *this;
  for (const Column& c : right.columns_) out.AddColumn(c);
  return out;
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const Column& c : columns_) {
    parts.push_back(c.QualifiedName() + " " + DataTypeToString(c.type));
  }
  return StrCat({"(", JoinStrings(parts, ", "), ")"});
}

}  // namespace pcqe

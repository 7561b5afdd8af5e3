#include "service/session.h"

#include <utility>

#include "common/string_util.h"

namespace pcqe {

std::string SessionHandle::ToString() const {
  return StrFormat("session %llu: %s/%s (beta=%s)",
                   static_cast<unsigned long long>(id), user.c_str(),
                   purpose.c_str(), FormatDouble(base_decision.threshold).c_str());
}

Result<SessionHandle> SessionManager::Open(const RoleGraph& roles,
                                           const PolicyStore& policies,
                                           const std::string& user,
                                           const std::string& purpose) {
  SessionHandle handle;
  handle.user = user;
  handle.purpose = purpose;
  PCQE_ASSIGN_OR_RETURN(handle.base_decision, policies.Resolve(roles, user, purpose));

  MutexLock guard(mu_);
  handle.id = next_id_++;
  sessions_.emplace(handle.id, handle);
  return handle;
}

Status SessionManager::Close(uint64_t id) {
  MutexLock guard(mu_);
  if (sessions_.erase(id) == 0) {
    return Status::NotFound(StrFormat("session %llu is not open",
                                      static_cast<unsigned long long>(id)));
  }
  return Status::OK();
}

size_t SessionManager::active_count() const {
  MutexLock guard(mu_);
  return sessions_.size();
}

}  // namespace pcqe

// Copyright (c) PCQE contributors.
// Sessions: authenticate a ⟨user, purpose⟩ pair once, pin the resolved
// confidence threshold, and hand out a handle for later requests.
//
// Controlled Query Evaluation systems enforce per-subject censoring at the
// service boundary; the session is that boundary here. Opening a session
// fails fast (`kNotFound`) for unknown users, so per-request submission
// never has to re-authenticate.

#ifndef PCQE_SERVICE_SESSION_H_
#define PCQE_SERVICE_SESSION_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "policy/confidence_policy.h"
#include "policy/rbac.h"

namespace pcqe {

/// \brief An authenticated ⟨user, purpose⟩ binding. Cheap to copy; requests
/// carry it by value so the session registry is never touched on the hot
/// path.
///
/// `base_decision` is the *unscoped* policy resolution (no table context)
/// pinned at open time — the threshold β a subject sees before any
/// table-scoped policy tightens it. Per-query enforcement still resolves
/// against the tables the query actually touched, so a stricter table-scoped
/// policy is never bypassed by pinning.
struct SessionHandle {
  uint64_t id = 0;
  std::string user;
  std::string purpose;
  /// Unscoped policy decision: pinned β and the policies behind it.
  PolicyDecision base_decision;

  /// "session 3: mary/investment (beta=0.06)".
  std::string ToString() const;
};

/// \brief Thread-safe registry of open sessions.
class SessionManager {
 public:
  SessionManager() = default;

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Resolves the unscoped policy for (user, purpose) in `policies` against
  /// `roles` and registers a new session. Resolution authenticates: unknown
  /// users yield `kNotFound`.
  [[nodiscard]] Result<SessionHandle> Open(const RoleGraph& roles,
                                           const PolicyStore& policies,
                                           const std::string& user,
                                           const std::string& purpose);

  /// Unregisters a session; `kNotFound` when the id is not open.
  [[nodiscard]] Status Close(uint64_t id);

  /// Number of currently open sessions.
  size_t active_count() const;

 private:
  mutable Mutex mu_;
  uint64_t next_id_ PCQE_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, SessionHandle> sessions_ PCQE_GUARDED_BY(mu_);
};

}  // namespace pcqe

#endif  // PCQE_SERVICE_SESSION_H_

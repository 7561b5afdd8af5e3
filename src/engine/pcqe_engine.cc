#include "engine/pcqe_engine.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/vec_executor.h"
#include "storage/storage_manager.h"
#include "strategy/brute_force.h"
#include "strategy/dnc.h"
#include "strategy/greedy.h"
#include "strategy/heuristic.h"

namespace pcqe {

std::string QueryOutcome::ReleasedTable(size_t max_rows) const {
  QueryResult view;
  view.schema = intermediate.schema;
  view.arena = intermediate.arena;
  view.rows.reserve(released.size());
  for (size_t i : released) {
    QueryResult::Row row = intermediate.rows[i];
    // Deferred vectorized results box values on demand; only the rows the
    // table will actually show pay for boxing.
    if (row.values.empty() && view.rows.size() < max_rows) {
      row.values = intermediate.ValuesOfRow(i);
    }
    view.rows.push_back(std::move(row));
  }
  return view.ToTable(max_rows);
}

void PcqeEngine::AttachTelemetry(TelemetryRegistry* registry, Tracer* tracer) {
  registry_ = registry;
  tracer_ = tracer;
  if (registry_ == nullptr) {
    metrics_ = EngineMetrics{};
    return;
  }
  metrics_.queries = registry_->GetCounter("pcqe_engine_queries_total",
                                           "Queries evaluated by the engine");
  metrics_.rows_released = registry_->GetCounter(
      "pcqe_engine_rows_released_total", "Result rows released by policy filtering");
  metrics_.rows_blocked = registry_->GetCounter(
      "pcqe_engine_rows_blocked_total", "Result rows blocked by policy filtering");
  metrics_.proposals = registry_->GetCounter(
      "pcqe_engine_proposals_total", "Strategy proposals computed for shortfalls");
  metrics_.deadline_exceeded = registry_->GetCounter(
      "pcqe_engine_deadline_exceeded_total",
      "Strategy solves stopped by the request deadline");
  metrics_.partial = registry_->GetCounter(
      "pcqe_engine_partial_total",
      "Proposals carrying an anytime (partial) plan: deadline, cancellation "
      "or node-budget stop");
  metrics_.vec_chunks = registry_->GetCounter(
      "pcqe_engine_vec_chunks_total",
      "Column chunks scanned by the vectorized interpreter");
  metrics_.vec_rows = registry_->GetCounter(
      "pcqe_engine_vec_rows_total",
      "Base rows scanned by the vectorized interpreter");
  metrics_.vec_join_groups = registry_->GetCounter(
      "pcqe_engine_vec_join_groups_total",
      "Factorized join match groups built by the vectorized interpreter");
  metrics_.vec_fallback_rows = registry_->GetCounter(
      "pcqe_engine_vec_fallback_rows_total",
      "Rows the vectorized interpreter evaluated row-at-a-time (no kernel)");
  metrics_.pushdown_chunks_pruned = registry_->GetCounter(
      "pcqe_engine_pushdown_chunks_pruned_total",
      "Whole column chunks skipped by beta pushdown via the confidence index");
  metrics_.pushdown_rows_pruned = registry_->GetCounter(
      "pcqe_engine_pushdown_rows_pruned_total",
      "Base rows pruned under scans by beta pushdown");
  metrics_.index_rebuilds = registry_->GetCounter(
      "pcqe_engine_index_rebuilds_total",
      "Per-table confidence zone-map (re)builds for beta pushdown");
  metrics_.solve_seconds = registry_->GetHistogram(
      "pcqe_engine_solve_seconds", {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0},
      "Strategy solve wall-clock seconds");
  metrics_.solver_effort.clear();
  for (const auto& [name, value] : SolverEffort{}.Items()) {
    (void)value;
    metrics_.solver_effort.push_back(registry_->GetCounter(
        StrFormat("pcqe_solver_%s_total", name), "Solver search effort; see SolverEffort"));
  }
  metrics_.operator_seconds.clear();
  for (PlanKind kind :
       {PlanKind::kScan, PlanKind::kFilter, PlanKind::kProject, PlanKind::kJoin,
        PlanKind::kDistinct, PlanKind::kUnionAll, PlanKind::kUnion,
        PlanKind::kExcept, PlanKind::kIntersect, PlanKind::kSort, PlanKind::kLimit,
        PlanKind::kAggregate, PlanKind::kConfidencePrune}) {
    std::string key = ToLowerAscii(PlanKindToString(kind));
    metrics_.operator_seconds[key] = registry_->GetHistogram(
        StrFormat("pcqe_query_operator_seconds_%s", key.c_str()),
        {0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0},
        "Per-operator wall seconds from profiled (EXPLAIN ANALYZE) queries");
  }
}

void PcqeEngine::ObserveOperatorSeconds(const OperatorProfile& profile) const {
  if (metrics_.operator_seconds.empty()) return;
  for (const OperatorProfile::Node& node : profile.nodes) {
    std::string kind = ToLowerAscii(node.label.substr(0, node.label.find(' ')));
    auto it = metrics_.operator_seconds.find(kind);
    if (it == metrics_.operator_seconds.end()) continue;
    it->second->Observe(static_cast<double>(node.wall_ns) / 1e9);
  }
}

Result<QueryOutcome> PcqeEngine::Submit(const QueryRequest& request) const {
  PCQE_ASSIGN_OR_RETURN(std::vector<QueryOutcome> outcomes, SubmitBatch({request}));
  return std::move(outcomes[0]);
}

Result<std::vector<QueryOutcome>> PcqeEngine::SubmitBatch(
    const std::vector<QueryRequest>& requests) const {
  if (requests.empty()) return Status::InvalidArgument("empty request batch");
  std::optional<TraceBuilder> trace;
  if (tracer_ != nullptr && tracer_->enabled()) trace.emplace("submit");
  TraceBuilder* tb = trace.has_value() ? &*trace : nullptr;
  std::vector<std::shared_ptr<OperatorProfile>> profiles(requests.size());
  auto evaluate_and_complete = [&]() -> Result<std::vector<QueryOutcome>> {
    std::vector<QueryResult> intermediates(requests.size());
    for (size_t q = 0; q < requests.size(); ++q) {
      if (requests[q].profile) profiles[q] = std::make_shared<OperatorProfile>();
      PCQE_ASSIGN_OR_RETURN(intermediates[q],
                            Evaluate(requests[q].sql, tb, profiles[q].get(),
                                     ResolvePushdownBeta(requests[q])));
    }
    return Complete(requests, std::move(intermediates), tb);
  };
  Result<std::vector<QueryOutcome>> outcomes = evaluate_and_complete();
  uint64_t trace_id = trace.has_value() ? tracer_->Record(trace->Finish()) : 0;
  if (outcomes.ok()) {
    for (size_t q = 0; q < outcomes->size(); ++q) {
      (*outcomes)[q].trace_id = trace_id;
      (*outcomes)[q].profile = std::move(profiles[q]);
    }
  }
  return outcomes;
}

Result<QueryResult> PcqeEngine::Evaluate(const std::string& sql,
                                         TraceBuilder* trace,
                                         OperatorProfile* profile,
                                         std::optional<double> pushdown_beta) const {
  // (1)-(4): evaluate the query and compute result confidences.
  ScopedSpan span(trace, "evaluate");
  PCQE_INJECT_FAULT(fault_sites::kEngineEvaluate);
  if (metrics_.queries != nullptr) metrics_.queries->Increment();
  ConfidencePushdown pushdown;
  const ConfidencePushdown* pd = nullptr;
  if (pushdown_beta.has_value()) {
    pushdown.beta = *pushdown_beta;
    pushdown.index = &index_cache_;
    pd = &pushdown;
  }
  // The policy filter and the solvers consume confidences and lineage only;
  // value boxing is deferred until something displays rows (ReleasedTable /
  // ToTable / MaterializeValues) — the factorized engine's late
  // materialization.
  Result<QueryResult> result = RunQuery(*catalog_, sql, trace, execution_mode,
                                        /*materialize_values=*/false, profile, pd);
  if (result.ok() && profile != nullptr) ObserveOperatorSeconds(*profile);
  if (result.ok() && metrics_.vec_chunks != nullptr) {
    const VecExecStats& s = result->vec_stats;
    metrics_.vec_chunks->Increment(s.chunks_scanned);
    metrics_.vec_rows->Increment(s.rows_scanned);
    metrics_.vec_join_groups->Increment(s.join_groups);
    metrics_.vec_fallback_rows->Increment(s.fallback_rows);
    metrics_.pushdown_chunks_pruned->Increment(s.pruned_chunks);
    metrics_.pushdown_rows_pruned->Increment(s.pruned_rows);
  }
  return result;
}

std::optional<double> PcqeEngine::ResolvePushdownBeta(
    const QueryRequest& request) const {
  // Pushdown is only provably result-identical when the request releases by
  // β alone: with required_fraction == 0 the needed-rows target is always 0,
  // so the strategy solver never runs in either mode and pruned blocked rows
  // cannot surface through proposals or released fractions.
  if (!request.pushdown || request.required_fraction != 0.0) return std::nullopt;
  Result<std::unique_ptr<SelectStatement>> stmt = ParseSelect(request.sql);
  if (!stmt.ok()) return std::nullopt;
  Result<std::unique_ptr<PlanNode>> plan = PlanQuery(*catalog_, **stmt);
  if (!plan.ok() || !IsConfidencePushdownSafe(**plan)) return std::nullopt;
  std::vector<std::string> tables = CollectScannedTables(**plan);
  Result<PolicyDecision> decision =
      policies_.Resolve(roles_, request.user, request.purpose, tables);
  // β ≤ 0 prunes nothing (every confidence clears it) — evaluating unpushed
  // keeps policy-less queries bit-identical and cache-shareable.
  if (!decision.ok() || decision->threshold <= 0.0) return std::nullopt;
  // Pre-warm the per-table confidence indexes here so rebuilds are counted
  // once per version bump; a failed rebuild (fault injection, see
  // fault_sites::kIndexRebuild) degrades the plan to row-exact pruning.
  for (const std::string& name : tables) {
    Result<const Table*> table =
        static_cast<const Catalog*>(catalog_)->GetTable(name);
    if (!table.ok()) continue;
    bool rebuilt = false;
    (void)index_cache_.Get(*catalog_, **table, &rebuilt);
    if (rebuilt && metrics_.index_rebuilds != nullptr) {
      metrics_.index_rebuilds->Increment();
    }
  }
  return decision->threshold;
}

Result<size_t> PcqeEngine::FilterOne(const QueryRequest& request, QueryOutcome* outcome,
                                     std::vector<size_t>* blocked) const {
  if (!std::isfinite(request.required_fraction) || request.required_fraction < 0.0 ||
      request.required_fraction > 1.0) {
    return Status::InvalidArgument(
        StrFormat("required_fraction %g outside [0, 1]", request.required_fraction));
  }

  // (5)-(6): resolve and enforce the confidence policy for this user,
  // purpose and the data (tables) the query touched.
  PCQE_ASSIGN_OR_RETURN(outcome->policy,
                        policies_.Resolve(roles_, request.user, request.purpose,
                                          outcome->intermediate.tables));
  size_t n = outcome->intermediate.rows.size();
  for (size_t i = 0; i < n; ++i) {
    if (outcome->policy.Allows(outcome->intermediate.rows[i].confidence)) {
      outcome->released.push_back(i);
    } else {
      blocked->push_back(i);
    }
  }
  outcome->released_fraction =
      n == 0 ? 1.0
             : static_cast<double>(outcome->released.size()) / static_cast<double>(n);

  size_t target = static_cast<size_t>(
      std::ceil(request.required_fraction * static_cast<double>(n)));
  return target > outcome->released.size() ? target - outcome->released.size() : 0;
}

Result<std::vector<QueryOutcome>> PcqeEngine::Complete(
    const std::vector<QueryRequest>& requests, std::vector<QueryResult> intermediates,
    TraceBuilder* trace) const {
  if (requests.empty() || intermediates.size() != requests.size()) {
    return Status::InvalidArgument("a batch needs one evaluated result per request");
  }
  ScopedSpan span(trace, "complete");
  std::vector<QueryOutcome> outcomes(requests.size());
  // The requests that came up short, in request order: one strategy problem
  // spans all of their blocked rows.
  std::vector<bool> is_short(requests.size(), false);
  std::vector<const QueryOutcome*> short_outcomes;
  std::vector<std::vector<size_t>> short_blocked;
  std::vector<size_t> short_needed;
  size_t first_short = 0;
  for (size_t q = 0; q < requests.size(); ++q) {
    QueryOutcome& outcome = outcomes[q];
    outcome.intermediate = std::move(intermediates[q]);
    std::vector<size_t> blocked;
    size_t needed = 0;
    {
      // The audit trail: which β applied and how many rows it released/
      // dropped for this subject.
      ScopedSpan filter_span(trace, "policy-filter");
      PCQE_ASSIGN_OR_RETURN(needed, FilterOne(requests[q], &outcome, &blocked));
      filter_span.Annotate("beta", FormatDouble(outcome.policy.threshold, 4));
      filter_span.Annotate("released", std::to_string(outcome.released.size()));
      filter_span.Annotate("blocked", std::to_string(blocked.size()));
    }
    if (metrics_.rows_released != nullptr) {
      metrics_.rows_released->Increment(outcome.released.size());
      metrics_.rows_blocked->Increment(blocked.size());
    }
    if (needed == 0) continue;
    if (short_outcomes.empty()) {
      first_short = q;
    } else if (!ApproxEqual(outcomes[first_short].policy.threshold,
                            outcome.policy.threshold)) {
      return Status::InvalidArgument(
          "batched requests that need improvement must share one confidence "
          "threshold (same role/purpose policy)");
    }
    // The solvers pool per-row formulas; a deferred result interns them
    // only now — compliant queries (no shortfall) never build a single
    // per-row lineage node.
    if (outcome.intermediate.lineage_deferred()) {
      ScopedSpan box_span(trace, "lineage-box");
      outcome.intermediate.MaterializeLineage();
    }
    is_short[q] = true;
    short_outcomes.push_back(&outcome);
    short_blocked.push_back(std::move(blocked));
    short_needed.push_back(needed);
  }

  // (7): strategy finding across every request that came up short.
  StrategyProposal plan;
  if (!short_outcomes.empty()) {
    const QueryRequest& lead = requests[first_short];
    PCQE_ASSIGN_OR_RETURN(
        plan, FindStrategy(short_outcomes, short_blocked, short_needed,
                           outcomes[first_short].policy.threshold, lead.solver,
                           lead.solver_lanes.value_or(solver_parallelism),
                           lead.deadline, lead.cancel, trace));
  }
  for (size_t q = 0; q < requests.size(); ++q) {
    outcomes[q].audit_id =
        RecordQueryAudit(requests[q], outcomes[q], is_short[q] ? &plan : nullptr);
  }
  if (!short_outcomes.empty()) outcomes[first_short].proposal = std::move(plan);
  return outcomes;
}

Result<QueryOutcome> PcqeEngine::Complete(const QueryRequest& request,
                                          QueryResult intermediate,
                                          TraceBuilder* trace) const {
  std::vector<QueryResult> intermediates;
  intermediates.push_back(std::move(intermediate));
  PCQE_ASSIGN_OR_RETURN(std::vector<QueryOutcome> outcomes,
                        Complete({request}, std::move(intermediates), trace));
  return std::move(outcomes[0]);
}

namespace {

/// Privacy-safe per-row lineage summary for the audit log: the contributing
/// base tuples as `table#row` identifiers joined with " * " (conjunction).
/// Never renders tuple values — see telemetry/audit.h.
std::string BlockedRowLineageSummary(
    const QueryResult& qr, size_t row,
    const std::map<uint32_t, std::string>& table_names) {
  std::vector<std::string> parts;
  if (!qr.lineage_deferred() && qr.rows[row].lineage != kNullLineage) {
    for (LineageVarId id : qr.arena->Variables(qr.rows[row].lineage)) {
      auto table_id = static_cast<uint32_t>(id >> 32);
      auto base_row = static_cast<uint32_t>(id & 0xffffffffU);
      auto it = table_names.find(table_id);
      std::string table =
          it != table_names.end() ? it->second : StrFormat("t%u", table_id);
      parts.push_back(StrFormat("%s#%u", table.c_str(), base_row));
    }
  } else if (qr.columnar != nullptr) {
    // Deferred factorized result: the factors name the base tuples directly,
    // no lineage interning needed.
    for (const VecFactor& f : qr.columnar->factors) {
      if (f.table == nullptr) continue;
      parts.push_back(StrFormat("%s#%u", f.table->name().c_str(), f.sel[row]));
    }
  }
  return JoinStrings(parts, " * ");
}

}  // namespace

uint64_t PcqeEngine::RecordQueryAudit(const QueryRequest& request,
                                      const QueryOutcome& outcome,
                                      const StrategyProposal* plan) const {
  if (audit_ == nullptr || !audit_->enabled()) return 0;
  const QueryResult& qr = outcome.intermediate;
  AuditRecord rec;
  rec.kind = AuditRecord::Kind::kQuery;
  rec.user = request.user;
  rec.purpose = request.purpose;
  rec.sql = request.sql;
  rec.beta = outcome.policy.threshold;
  rec.confidence_version = catalog_->confidence_version();
  rec.required_fraction = request.required_fraction;
  rec.released_fraction = outcome.released_fraction;
  rec.rows_total = qr.rows.size();
  rec.rows_released = outcome.released.size();
  rec.rows_blocked = qr.rows.size() - outcome.released.size();
  rec.pushed_down = qr.pushed_down;
  rec.pruned_chunks = qr.vec_stats.pruned_chunks;
  rec.pruned_rows = qr.vec_stats.pruned_rows;

  std::map<uint32_t, std::string> table_names;
  for (const std::string& name : qr.tables) {
    Result<const Table*> table =
        static_cast<const Catalog*>(catalog_)->GetTable(name);
    if (table.ok()) table_names[(*table)->table_id()] = name;
  }
  std::vector<bool> released(qr.rows.size(), false);
  for (size_t i : outcome.released) released[i] = true;
  size_t cap = audit_->max_rows_per_record();
  for (size_t i = 0; i < qr.rows.size(); ++i) {
    if (rec.rows.size() >= cap) {
      rec.rows_truncated = qr.rows.size() - rec.rows.size();
      break;
    }
    AuditRowDecision decision;
    decision.row = i;
    decision.confidence = qr.rows[i].confidence;
    decision.released = released[i];
    if (!released[i]) {
      decision.lineage = BlockedRowLineageSummary(qr, i, table_names);
    }
    rec.rows.push_back(std::move(decision));
  }
  if (plan != nullptr) {
    rec.proposal_needed = true;
    rec.proposal_feasible = plan->feasible;
    rec.proposal_partial = plan->partial;
    rec.proposal_cost = plan->total_cost;
    rec.proposal_algorithm = plan->algorithm;
  }
  return audit_->Record(std::move(rec));
}

Result<StrategyProposal> PcqeEngine::FindStrategy(
    const std::vector<const QueryOutcome*>& outcomes,
    const std::vector<std::vector<size_t>>& blocked, const std::vector<size_t>& needed,
    double beta, SolverKind solver, SolverParallelism lanes, Deadline deadline,
    const CancelToken* cancel, TraceBuilder* trace) const {
  ScopedSpan span(trace, "solve");
  // Pool the blocked rows' lineages into one arena.
  auto arena = std::make_shared<LineageArena>();
  std::vector<LineageRef> lineages;
  std::vector<uint32_t> query_of;
  std::set<LineageVarId> var_ids;
  for (size_t q = 0; q < outcomes.size(); ++q) {
    const QueryResult& qr = outcomes[q]->intermediate;
    for (size_t row : blocked[q]) {
      LineageRef copied = arena->CopyFrom(*qr.arena, qr.rows[row].lineage);
      lineages.push_back(copied);
      query_of.push_back(static_cast<uint32_t>(q));
      for (LineageVarId id : arena->Variables(copied)) var_ids.insert(id);
    }
  }

  // Base-tuple specs straight from the stored tuples.
  std::vector<BaseTupleSpec> specs;
  specs.reserve(var_ids.size());
  for (LineageVarId id : var_ids) {
    PCQE_ASSIGN_OR_RETURN(Tuple t, catalog_->FindTuple(id));
    BaseTupleSpec spec;
    spec.id = id;
    spec.confidence = t.confidence();
    spec.max_confidence = t.max_confidence();
    spec.cost = t.cost_function();
    specs.push_back(std::move(spec));
  }

  ProblemOptions options;
  options.beta = beta;
  options.delta = improvement_delta;
  PCQE_ASSIGN_OR_RETURN(
      IncrementProblem problem,
      IncrementProblem::Build(arena, lineages, query_of,
                              std::vector<size_t>(needed.begin(), needed.end()),
                              std::move(specs), options));

  SolverKind effective = solver;
  if (effective == SolverKind::kAuto) {
    effective = (problem.num_base_tuples() <= auto_heuristic_limit && problem.is_monotone())
                    ? SolverKind::kHeuristic
                    : SolverKind::kDnc;
  }
  // The engine times the solver call; solvers themselves read no clock.
  Stopwatch solve_timer;
  Result<IncrementSolution> solved = [&]() -> Result<IncrementSolution> {
    switch (effective) {
      case SolverKind::kHeuristic: {
        HeuristicOptions heuristic_options;
        heuristic_options.parallelism = lanes;
        heuristic_options.deadline = deadline;
        heuristic_options.cancel = cancel;
        return SolveHeuristic(problem, heuristic_options);
      }
      case SolverKind::kGreedy: {
        GreedyOptions greedy_options;
        greedy_options.parallelism = lanes;
        greedy_options.deadline = deadline;
        greedy_options.cancel = cancel;
        return SolveGreedy(problem, greedy_options);
      }
      case SolverKind::kDnc: {
        DncOptions dnc_options;
        dnc_options.parallelism = lanes;
        dnc_options.deadline = deadline;
        dnc_options.cancel = cancel;
        return SolveDnc(problem, dnc_options);
      }
      case SolverKind::kBruteForce:
        // The reference solver stays un-deadlined: it is the ground truth
        // the differential harness compares against, never a serving path.
        return SolveBruteForce(problem);
      case SolverKind::kAuto:
        break;
    }
    return Status::Internal("unresolved solver kind");
  }();
  const double solve_seconds = solve_timer.ElapsedSeconds();
  if (!solved.ok()) return solved.status();
  const IncrementSolution& solution = *solved;
  PCQE_RETURN_NOT_OK(ValidateSolution(problem, solution));

  const auto effort_items = solution.effort.Items();
  if (metrics_.proposals != nullptr) {
    metrics_.proposals->Increment();
    metrics_.solve_seconds->Observe(solve_seconds);
    if (solution.partial()) metrics_.partial->Increment();
    if (solution.stop == SolveStop::kDeadline) metrics_.deadline_exceeded->Increment();
    for (size_t i = 0; i < effort_items.size() && i < metrics_.solver_effort.size(); ++i) {
      metrics_.solver_effort[i]->Increment(effort_items[i].second);
    }
  }
  span.Annotate("algorithm", solution.algorithm);
  span.Annotate("cost", FormatDouble(solution.total_cost, 4));
  span.Annotate("feasible", solution.feasible ? "yes" : "no");
  for (const auto& [name, value] : effort_items) {
    if (value != 0) span.Annotate(name, std::to_string(value));
  }
  if (solution.partial()) {
    span.Annotate("partial", "yes");
    span.Annotate("stop", std::string(SolveStopToString(solution.stop)));
  }

  StrategyProposal proposal;
  proposal.needed = true;
  proposal.feasible = solution.feasible;
  proposal.total_cost = solution.total_cost;
  proposal.actions = solution.Actions(problem);
  proposal.algorithm = solution.algorithm;
  proposal.solve_seconds = solve_seconds;
  proposal.effort = solution.effort;
  proposal.partial = solution.partial();
  proposal.stop = solution.stop;
  return proposal;
}

Status PcqeEngine::AcceptProposal(const StrategyProposal& proposal) {
  if (!proposal.needed) {
    return Status::InvalidArgument("proposal carries no improvement actions");
  }
  PCQE_INJECT_FAULT(fault_sites::kCatalogAccept);
  // Write-ahead discipline: validate first (a doomed accept must not reach
  // the log), then append + sync the transaction, and only then mutate the
  // catalog. A logging failure leaves the catalog untouched — version
  // included — so callers and caches never observe an unlogged accept.
  PCQE_RETURN_NOT_OK(improver_.Validate(proposal.actions));
  if (storage_ != nullptr) {
    std::vector<WalAction> logged;
    logged.reserve(proposal.actions.size());
    for (const IncrementAction& a : proposal.actions) {
      PCQE_ASSIGN_OR_RETURN(Tuple t, catalog_->FindTuple(a.base_tuple));
      logged.push_back({a.base_tuple, t.confidence(), a.to,
                        t.cost_function()->Increment(t.confidence(), a.to)});
    }
    PCQE_RETURN_NOT_OK(storage_->LogAccept(catalog_->confidence_version(),
                                           logged));
  }
  Status applied = improver_.Apply(proposal.actions);
  if (audit_ != nullptr && audit_->enabled()) {
    AuditRecord rec;
    rec.kind = AuditRecord::Kind::kAccept;
    rec.accept_actions = proposal.actions.size();
    rec.accept_cost = proposal.total_cost;
    rec.accept_ok = applied.ok();
    if (!applied.ok()) rec.accept_error = applied.message();
    // Post-apply version: a successful accept bumped it, so the record pins
    // which catalog state subsequent query decisions read.
    rec.confidence_version = catalog_->confidence_version();
    audit_->Record(std::move(rec));
  }
  return applied;
}

}  // namespace pcqe

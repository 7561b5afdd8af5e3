#include "tools/shell.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "common/annotations.h"
#include "common/string_util.h"
#include "lineage/sensitivity.h"
#include "policy/policy_io.h"
#include "query/parser.h"
#include "query/planner.h"
#include "relational/csv.h"
#include "relational/database_io.h"

namespace pcqe {

namespace {

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  std::string word;
  while (in >> word) words.push_back(word);
  return words;
}

/// Parses a whole word as a finite double; nullopt on any trailing junk.
std::optional<double> ParseFiniteDouble(const std::string& word) {
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(word.c_str(), &end);
  if (end == word.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// Parses a whole word as a non-negative int64; nullopt otherwise.
std::optional<int64_t> ParseNonNegativeInt(const std::string& word) {
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(word.c_str(), &end, 10);
  if (end == word.c_str() || *end != '\0' || errno == ERANGE || value < 0) {
    return std::nullopt;
  }
  return static_cast<int64_t>(value);
}

}  // namespace

Shell::Shell(std::ostream* out) : out_(out) {
  engine_ = std::make_unique<PcqeEngine>(&catalog_, RoleGraph(), PolicyStore());
  engine_->AttachTelemetry(&registry_, &tracer_);
  engine_->AttachAudit(&audit_);
  tracer_.AttachTelemetry(&registry_);
  audit_.AttachTelemetry(&registry_);
}

bool Shell::HandleLine(const std::string& line) {
  std::string trimmed(TrimAscii(line));
  if (trimmed.empty()) return true;

  if (pending_sql_.empty() && trimmed[0] == '.') {
    if (trimmed == ".quit" || trimmed == ".exit") return false;
    RunCommand(trimmed);
    return true;
  }

  // Accumulate SQL until ';'.
  if (!pending_sql_.empty()) pending_sql_ += ' ';
  pending_sql_ += trimmed;
  if (pending_sql_.back() == ';') {
    std::string sql;
    sql.swap(pending_sql_);
    RunSql(sql);
  }
  return true;
}

void Shell::RunCommand(const std::string& line) {
  std::vector<std::string> words = SplitWords(line);
  const std::string& cmd = words[0];
  std::vector<std::string> args(words.begin() + 1, words.end());
  if (cmd == ".help") {
    CmdHelp();
  } else if (cmd == ".tables") {
    CmdTables();
  } else if (cmd == ".schema") {
    CmdSchema(args);
  } else if (cmd == ".load") {
    CmdLoad(args);
  } else if (cmd == ".save") {
    CmdSave(args);
  } else if (cmd == ".role") {
    CmdRole(args);
  } else if (cmd == ".user") {
    CmdUser(args);
  } else if (cmd == ".purpose") {
    if (args.size() != 1) {
      out() << "usage: .purpose <name>\n";
    } else {
      purpose_ = args[0];
      out() << "purpose = " << purpose_ << "\n";
    }
  } else if (cmd == ".fraction") {
    std::optional<double> fraction =
        args.size() == 1 ? ParseFiniteDouble(args[0]) : std::nullopt;
    if (!fraction.has_value() || *fraction < 0.0 || *fraction > 1.0) {
      out() << "usage: .fraction <0..1>\n";
    } else {
      fraction_ = *fraction;
      out() << "required fraction = " << FormatDouble(fraction_) << "\n";
    }
  } else if (cmd == ".timeout") {
    std::optional<int64_t> timeout =
        args.size() == 1 ? ParseNonNegativeInt(args[0]) : std::nullopt;
    if (!timeout.has_value()) {
      out() << "usage: .timeout <ms>  (0 = unlimited)\n";
    } else {
      timeout_ms_ = *timeout;
      if (timeout_ms_ == 0) {
        out() << "query timeout off\n";
      } else {
        out() << "query timeout = " << timeout_ms_
              << "ms (expired solves return a partial proposal)\n";
      }
    }
  } else if (cmd == ".exec") {
    if (args.empty()) {
      out() << "execution mode = " << ExecutionModeToString(engine_->execution_mode) << "\n";
    } else if (args.size() == 1) {
      auto mode = ParseExecutionMode(args[0]);
      if (!mode.ok()) {
        out() << mode.status().ToString() << "\n";
      } else {
        engine_->execution_mode = *mode;
        // Cached results are bit-identical across modes, but drop them so a
        // mode switch observably re-executes (differential smoke tests rely
        // on this).
        if (service_ != nullptr) service_->InvalidateCache();
        out() << "execution mode = " << ExecutionModeToString(engine_->execution_mode) << "\n";
      }
    } else {
      out() << "usage: .exec [row|vec]\n";
    }
  } else if (cmd == ".pushdown") {
    if (args.empty()) {
      out() << "beta pushdown = " << (pushdown_ ? "on" : "off") << "\n";
    } else if (args.size() == 1 && (args[0] == "on" || args[0] == "off")) {
      pushdown_ = args[0] == "on";
      // Pushed and unpushed evaluations are keyed apart in the cache, but
      // drop it anyway so a mode switch observably re-executes (the
      // differential smoke tests rely on this, as with .exec).
      if (service_ != nullptr) service_->InvalidateCache();
      out() << "beta pushdown = " << (pushdown_ ? "on" : "off") << "\n";
    } else {
      out() << "usage: .pushdown [on|off]\n";
    }
  } else if (cmd == ".policy") {
    CmdPolicy(args);
  } else if (cmd == ".proposal") {
    CmdProposal();
  } else if (cmd == ".accept") {
    CmdAccept();
  } else if (cmd == ".why") {
    CmdWhy(args);
  } else if (cmd == ".serve") {
    CmdServe(args);
  } else if (cmd == ".session") {
    CmdSession(args);
  } else if (cmd == ".stats") {
    CmdStats();
  } else if (cmd == ".metrics") {
    CmdMetrics(args);
  } else if (cmd == ".trace") {
    CmdTrace(args);
  } else if (cmd == ".audit") {
    CmdAudit(args);
  } else if (cmd == ".durable") {
    CmdDurable(args);
  } else if (cmd == ".checkpoint") {
    CmdCheckpoint();
  } else if (cmd == ".recover") {
    CmdRecover();
  } else if (cmd == ".wal") {
    CmdWal();
  } else if (cmd == ".savedb") {
    if (args.size() != 1) {
      out() << "usage: .savedb <directory>\n";
    } else {
      Status s = SaveDatabase(catalog_, args[0]);
      out() << (s.ok() ? "database saved to " + args[0] : s.ToString()) << "\n";
    }
  } else if (cmd == ".opendb") {
    if (args.size() != 1) {
      out() << "usage: .opendb <directory>\n";
    } else {
      Status s = LoadDatabase(args[0], &catalog_);
      if (s.ok()) {
        // Wholesale restore: table ids (and possibly row counts) can repeat
        // under different confidences, which version-validated zone maps
        // cannot detect.
        engine_->confidence_index()->Invalidate();
        if (service_ != nullptr) service_->InvalidateCache();
      }
      out() << (s.ok() ? "database loaded from " + args[0] : s.ToString()) << "\n";
    }
  } else if (cmd == ".saveconfig") {
    if (args.size() != 1) {
      out() << "usage: .saveconfig <file>\n";
    } else {
      Status s = SaveAccessConfig(*engine_->roles(), *engine_->policies(), args[0]);
      out() << (s.ok() ? "access config saved to " + args[0] : s.ToString()) << "\n";
    }
  } else if (cmd == ".loadconfig") {
    if (args.size() != 1) {
      out() << "usage: .loadconfig <file>\n";
    } else {
      Status s = LoadAccessConfig(args[0], engine_->roles(), engine_->policies());
      out() << (s.ok() ? "access config loaded from " + args[0] : s.ToString()) << "\n";
    }
  } else if (cmd == ".explain") {
    CmdExplain(line);
  } else {
    out() << "unknown command '" << cmd << "' (try .help)\n";
  }
}

void Shell::CmdHelp() {
  out() << "PCQE shell — SQL statements end with ';'. Commands:\n"
           "  .tables                       list tables\n"
           "  .schema <table>               show a table's columns\n"
           "  .load <table> <file.csv> [confidence_column]\n"
           "  .save <table> <file.csv>      export with a confidence column\n"
           "  .role add <role>              declare a role\n"
           "  .role grant <user> <role>     assign a role\n"
           "  .user add <name>              declare a user\n"
           "  .user use <name>              query as this user\n"
           "  .purpose <name>               set the query purpose\n"
           "  .fraction <0..1>              required released fraction\n"
           "  .timeout <ms>                 solve budget per query (0 = unlimited);\n"
           "                                expired solves return a partial proposal\n"
           "  .exec [row|vec]               show/set the query interpreter\n"
           "                                (vectorized by default; bit-identical results)\n"
           "  .pushdown [on|off]            show/set beta pushdown (on by default;\n"
           "                                prunes sub-beta tuples below joins via\n"
           "                                per-table confidence indexes; released\n"
           "                                rows are provably identical either way)\n"
           "  .policy add <role> <purpose> <beta>\n"
           "  .policy list\n"
           "  .proposal                     show the last improvement proposal\n"
           "  .accept                       apply it to the database\n"
           "  .why <row>                    most influential base tuples of a row\n"
           "  .serve [workers]              start the concurrent query service\n"
           "  .session <user> [purpose]     open a service session (SQL runs through it)\n"
           "  .session off                  drop back to direct engine submission\n"
           "  .stats                        service cache, queue and sessions\n"
           "  .metrics [json]               telemetry registry (Prometheus text / JSON)\n"
           "  .trace [<id>]                 recorded query traces (latest, or by id)\n"
           "  .audit [json|<id>]            policy-compliance audit log (latest, JSON,\n"
           "                                or one record by id)\n"
           "  .durable <dir>                open a durable catalog: recover from <dir>\n"
           "                                if it holds one, then WAL-log every .accept\n"
           "  .checkpoint                   snapshot the catalog and rotate the WAL\n"
           "  .recover                      drop in-memory state, replay checkpoint+WAL\n"
           "  .wal                          durable-storage status (segment, LSNs, counters)\n"
           "  .savedb <dir> | .opendb <dir> persist / restore every table\n"
           "  .saveconfig <file> | .loadconfig <file>  roles + policies\n"
           "  .explain <select>             show the query plan\n"
           "  .explain analyze [json] <select>  execute and show the profiled\n"
           "                                operator tree (rows, chunks, time)\n"
           "  .quit\n";
}

void Shell::CmdTables() {
  for (const std::string& name : catalog_.TableNames()) {
    const Table* t = *catalog_.GetTable(name);
    out() << name << " (" << t->num_tuples() << " rows)\n";
  }
}

void Shell::CmdSchema(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    out() << "usage: .schema <table>\n";
    return;
  }
  auto table = catalog_.GetTable(args[0]);
  if (!table.ok()) {
    out() << table.status().ToString() << "\n";
    return;
  }
  out() << (*table)->schema().ToString() << "\n";
}

void Shell::CmdLoad(const std::vector<std::string>& args) {
  if (args.size() < 2 || args.size() > 3) {
    out() << "usage: .load <table> <file.csv> [confidence_column]\n";
    return;
  }
  CsvOptions options;
  if (args.size() == 3) options.confidence_column = args[2];
  auto table = ImportCsvFile(&catalog_, args[0], args[1], options);
  if (!table.ok()) {
    out() << table.status().ToString() << "\n";
    return;
  }
  // Bulk loads bypass the confidence-version counter; drop stale entries
  // (cached evaluations and confidence zone maps alike).
  engine_->confidence_index()->Invalidate();
  if (service_ != nullptr) service_->InvalidateCache();
  out() << "loaded " << (*table)->num_tuples() << " rows into " << args[0] << "\n";
}

void Shell::CmdSave(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    out() << "usage: .save <table> <file.csv>\n";
    return;
  }
  auto table = catalog_.GetTable(args[0]);
  if (!table.ok()) {
    out() << table.status().ToString() << "\n";
    return;
  }
  CsvOptions options;
  options.confidence_column = "confidence";
  Status s = ExportCsvFile(**table, args[1], options);
  out() << (s.ok() ? "saved " + args[1] : s.ToString()) << "\n";
}

void Shell::CmdRole(const std::vector<std::string>& args) {
  if (args.size() == 2 && args[0] == "add") {
    Status s = engine_->roles()->AddRole(args[1]);
    out() << (s.ok() ? "role " + args[1] + " added" : s.ToString()) << "\n";
    return;
  }
  if (args.size() == 3 && args[0] == "grant") {
    Status s = engine_->roles()->AssignRole(args[1], args[2]);
    out() << (s.ok() ? args[2] + " granted to " + args[1] : s.ToString()) << "\n";
    return;
  }
  out() << "usage: .role add <role> | .role grant <user> <role>\n";
}

void Shell::CmdUser(const std::vector<std::string>& args) {
  if (args.size() == 2 && args[0] == "add") {
    Status s = engine_->roles()->AddUser(args[1]);
    out() << (s.ok() ? "user " + args[1] + " added" : s.ToString()) << "\n";
    return;
  }
  if (args.size() == 2 && args[0] == "use") {
    if (!engine_->roles()->HasUser(args[1])) {
      out() << "unknown user '" << args[1] << "' (use .user add first)\n";
      return;
    }
    user_ = args[1];
    out() << "querying as " << user_ << "\n";
    return;
  }
  out() << "usage: .user add <name> | .user use <name>\n";
}

void Shell::CmdPolicy(const std::vector<std::string>& args) {
  if (args.size() == 1 && args[0] == "list") {
    for (const ConfidencePolicy& p : engine_->policies()->policies()) {
      out() << p.ToString() << "\n";
    }
    return;
  }
  if (args.size() == 4 && args[0] == "add") {
    ConfidencePolicy policy{args[1], args[2], std::strtod(args[3].c_str(), nullptr)};
    Status s = engine_->policies()->AddPolicy(*engine_->roles(), policy);
    out() << (s.ok() ? "policy " + policy.ToString() + " added" : s.ToString()) << "\n";
    return;
  }
  out() << "usage: .policy add <role> <purpose> <beta> | .policy list\n";
}

void Shell::CmdWhy(const std::vector<std::string>& args) {
  if (!last_result_.has_value()) {
    out() << "no query result yet (run a SELECT first)\n";
    return;
  }
  if (args.size() != 1) {
    out() << "usage: .why <row number, 1-based>\n";
    return;
  }
  size_t row = static_cast<size_t>(std::strtoull(args[0].c_str(), nullptr, 10));
  if (row == 0 || row > last_result_->rows.size()) {
    out() << "row " << args[0] << " out of range (result has "
          << last_result_->rows.size() << " rows)\n";
    return;
  }
  // Deferred results carry no formulas yet; the explanation needs them.
  last_result_->MaterializeLineage();
  const QueryResult::Row& result_row = last_result_->rows[row - 1];
  auto probs = SnapshotConfidences(catalog_, *last_result_);
  if (!probs.ok()) {
    out() << probs.status().ToString() << "\n";
    return;
  }
  out() << "row " << row << " confidence " << FormatDouble(result_row.confidence, 6)
        << "; most influential base tuples:\n";
  for (const InfluenceEntry& e :
       RankInfluence(*last_result_->arena, result_row.lineage, *probs, 5)) {
    std::string label = "tuple " + std::to_string(e.var);
    if (auto tuple = catalog_.FindTuple(e.var); tuple.ok()) {
      label = tuple->ToString();
    }
    out() << "  " << label << ": sensitivity " << FormatDouble(e.sensitivity, 4)
          << ", headroom " << FormatDouble(e.headroom, 4) << ", potential "
          << FormatDouble(e.potential(), 4) << "\n";
  }
}

void Shell::CmdServe(const std::vector<std::string>& args) {
  if (args.size() > 1) {
    out() << "usage: .serve [workers]\n";
    return;
  }
  if (service_ != nullptr) {
    out() << "already serving with " << service_->num_workers() << " worker(s)\n";
    return;
  }
  ServiceOptions options;
  // The service publishes to the shell's registry/ring, so `.metrics` and
  // `.trace` show one continuous view across direct and served queries.
  options.registry = &registry_;
  options.tracer = &tracer_;
  options.audit = &audit_;
  if (!args.empty()) {
    options.num_workers = static_cast<size_t>(std::strtoull(args[0].c_str(), nullptr, 10));
    if (options.num_workers == 0 || options.num_workers > 64) {
      out() << "workers must be in 1..64\n";
      return;
    }
  }
  service_ = std::make_unique<QueryService>(engine_.get(), options);
  out() << "serving with " << service_->num_workers() << " worker(s), queue capacity "
        << options.queue_capacity << ", cache capacity " << options.cache_capacity
        << " (.session <user> [purpose] to begin)\n";
}

void Shell::CmdSession(const std::vector<std::string>& args) {
  if (args.size() == 1 && args[0] == "off") {
    if (session_.has_value() && service_ != nullptr) {
      Status s = service_->CloseSession(session_->id);
      if (!s.ok()) out() << s.ToString() << "\n";
    }
    session_.reset();
    out() << "session closed; SQL goes directly to the engine again\n";
    return;
  }
  if (args.empty() || args.size() > 2) {
    out() << "usage: .session <user> [purpose] | .session off\n";
    return;
  }
  if (service_ == nullptr) {
    out() << "no service running (use .serve first)\n";
    return;
  }
  std::string purpose = args.size() == 2 ? args[1] : purpose_;
  auto session = service_->OpenSession(args[0], purpose);
  if (!session.ok()) {
    out() << session.status().ToString() << "\n";
    return;
  }
  if (session_.has_value()) {
    // Best-effort close of the previous session; the new one supersedes it.
    Status closed = service_->CloseSession(session_->id);
    if (!closed.ok()) out() << closed.ToString() << "\n";
  }
  session_ = *session;
  purpose_ = purpose;
  out() << session_->ToString() << " opened; SQL now runs through the service\n";
}

void Shell::CmdStats() {
  if (service_ == nullptr) {
    out() << "no service running (use .serve first)\n";
    return;
  }
  out() << service_->stats().ToString();
}

void Shell::CmdMetrics(const std::vector<std::string>& args) {
  if (args.size() > 1 || (args.size() == 1 && args[0] != "json")) {
    out() << "usage: .metrics [json]\n";
    return;
  }
  bool json = !args.empty();
  // With a service running, let it refresh its point-in-time gauges first.
  if (service_ != nullptr) {
    out() << (json ? service_->MetricsJson() : service_->RenderMetricsText());
  } else {
    out() << (json ? registry_.RenderJson() : registry_.RenderText());
  }
  if (json) out() << "\n";
}

void Shell::CmdTrace(const std::vector<std::string>& args) {
  if (args.size() > 1) {
    out() << "usage: .trace [<id>]\n";
    return;
  }
  if (!tracer_.enabled()) {
    out() << "tracing is disabled (PCQE_TELEMETRY=off)\n";
    return;
  }
  if (args.empty()) {
    std::vector<Trace> traces = tracer_.Snapshot();
    if (traces.empty()) {
      out() << "no traces recorded yet (run a query)\n";
      return;
    }
    out() << traces.front().ToString();
    if (traces.size() > 1) {
      out() << "-- " << traces.size() << " trace(s) retained; .trace <id> for older:";
      for (const Trace& t : traces) out() << " " << t.id;
      out() << "\n";
    }
    return;
  }
  uint64_t id = std::strtoull(args[0].c_str(), nullptr, 10);
  std::optional<Trace> trace = tracer_.Get(id);
  if (!trace.has_value()) {
    out() << "no trace with id " << args[0] << " (ring keeps the last "
          << tracer_.Snapshot().size() << ")\n";
    return;
  }
  out() << trace->ToString();
}

void Shell::CmdExplain(const std::string& line) {
  // Everything after ".explain" is the SQL (no ';' needed). An optional
  // "analyze [json]" prefix executes the statement and prints the profiled
  // operator tree instead of the static plan.
  std::string rest(TrimAscii(line.substr(std::string(".explain").size())));
  bool analyze = false;
  bool json = false;
  if (StartsWith(rest, "analyze ") || rest == "analyze") {
    analyze = true;
    rest = std::string(TrimAscii(rest.substr(std::string("analyze").size())));
    if (StartsWith(rest, "json ")) {
      json = true;
      rest = std::string(TrimAscii(rest.substr(std::string("json").size())));
    }
  }
  if (!rest.empty() && rest.back() == ';') rest.pop_back();
  if (rest.empty()) {
    out() << "usage: .explain [analyze [json]] <select statement>\n";
    return;
  }
  if (!analyze) {
    auto stmt = ParseSelect(rest);
    if (!stmt.ok()) {
      out() << stmt.status().ToString() << "\n";
      return;
    }
    auto plan = PlanQuery(catalog_, **stmt);
    if (!plan.ok()) {
      out() << plan.status().ToString() << "\n";
      return;
    }
    out() << (*plan)->ToString() << "\n";
    return;
  }
  // `analyze` executes the statement and prints the profiled operator tree;
  // results are discarded. With an active user the evaluation mirrors a
  // real submission — same qualification through ResolvePushdownBeta — so
  // the tree shows the ConfidencePrune operator (and its pruned counters)
  // exactly as the user's queries run it. Without a user it runs
  // unfiltered in the current interpreter mode.
  OperatorProfile profile;
  auto result = [&]() -> Result<QueryResult> {
    ReaderLock lock(engine_->catalog_mu());
    if (!user_.empty()) {
      QueryRequest request;
      request.sql = rest;
      request.user = user_;
      request.purpose = purpose_;
      request.required_fraction = fraction_;
      request.pushdown = pushdown_;
      return engine_->Evaluate(rest, nullptr, &profile,
                               engine_->ResolvePushdownBeta(request));
    }
    return RunQuery(catalog_, rest, nullptr, engine_->execution_mode,
                    /*materialize_values=*/false, &profile);
  }();
  if (!result.ok()) {
    out() << result.status().ToString() << "\n";
    return;
  }
  out() << (json ? profile.RenderJson() + "\n" : profile.RenderText());
}

void Shell::CmdAudit(const std::vector<std::string>& args) {
  if (args.size() > 1) {
    out() << "usage: .audit [json|<id>]\n";
    return;
  }
  if (!audit_.enabled()) {
    out() << "audit log disabled (capacity 0)\n";
    return;
  }
  if (args.size() == 1 && args[0] == "json") {
    out() << audit_.RenderJson() << "\n";
    return;
  }
  if (args.size() == 1) {
    uint64_t id = std::strtoull(args[0].c_str(), nullptr, 10);
    std::optional<AuditRecord> record = audit_.Get(id);
    if (!record.has_value()) {
      out() << "no audit record with id " << args[0] << " (ring keeps the last "
            << audit_.Snapshot().size() << ")\n";
      return;
    }
    out() << record->ToString();
    return;
  }
  std::vector<AuditRecord> records = audit_.Snapshot();
  if (records.empty()) {
    out() << "no audit records yet (run a query as a user)\n";
    return;
  }
  out() << records.front().ToString();
  if (records.size() > 1) {
    out() << "-- " << records.size() << " record(s) retained ("
          << audit_.total_recorded() << " total); .audit <id> for older:";
    for (const AuditRecord& r : records) out() << " " << r.id;
    out() << "\n";
  }
}

void Shell::CmdDurable(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    out() << "usage: .durable <directory>\n";
    return;
  }
  if (storage_ != nullptr) {
    out() << "durable storage already open at " << storage_->snapshot().dir
          << " (one directory per shell)\n";
    return;
  }
  auto storage = std::make_unique<StorageManager>();
  DurabilityOptions options;
  options.dir = args[0];
  Status opened;
  {
    // Exclusive: opening an existing directory recovers, rewriting the
    // catalog wholesale.
    WriterLock lock(engine_->catalog_mu());
    opened = storage->Open(options, &catalog_);
  }
  if (!opened.ok()) {
    out() << opened.ToString() << "\n";
    return;
  }
  storage_ = std::move(storage);
  storage_->AttachTelemetry(&registry_);
  engine_->AttachStorage(storage_.get());
  // Opening an existing directory recovered the catalog wholesale.
  engine_->confidence_index()->Invalidate();
  if (service_ != nullptr) service_->InvalidateCache();
  StorageSnapshot snap = storage_->snapshot();
  out() << "durable catalog at " << snap.dir << ": checkpoint " << snap.checkpoint
        << ", segment " << snap.wal << ", " << snap.recovered_records
        << " record(s) recovered, next lsn " << snap.next_lsn
        << " (.accept is now WAL-logged)\n";
}

void Shell::CmdCheckpoint() {
  if (storage_ == nullptr) {
    out() << "no durable storage (.durable <dir> first)\n";
    return;
  }
  Status s;
  {
    ReaderLock lock(engine_->catalog_mu());
    s = storage_->Checkpoint(catalog_);
  }
  if (!s.ok()) {
    out() << s.ToString() << "\n";
    return;
  }
  StorageSnapshot snap = storage_->snapshot();
  out() << "checkpoint " << snap.checkpoint << " published (segment " << snap.wal
        << ", truncate lsn " << snap.truncate_lsn << ")\n";
}

void Shell::CmdRecover() {
  if (storage_ == nullptr) {
    out() << "no durable storage (.durable <dir> first)\n";
    return;
  }
  Status s;
  {
    WriterLock lock(engine_->catalog_mu());
    s = storage_->Recover();
  }
  // Pre-recovery evaluations and confidence zone maps must not be served
  // against replayed state: replay keeps the confidence version monotone,
  // so a map built over unlogged pre-crash mutations could still validate.
  engine_->confidence_index()->Invalidate();
  if (service_ != nullptr) service_->InvalidateCache();
  if (!s.ok()) {
    out() << s.ToString() << "\n";
    return;
  }
  StorageSnapshot snap = storage_->snapshot();
  out() << "recovered from " << snap.dir << ": checkpoint " << snap.checkpoint
        << " + WAL replay to version " << snap.recovered_version << " (next lsn "
        << snap.next_lsn << ")\n";
}

void Shell::CmdWal() {
  if (storage_ == nullptr) {
    out() << "no durable storage (.durable <dir> first)\n";
    return;
  }
  StorageSnapshot snap = storage_->snapshot();
  out() << "dir            " << snap.dir << "\n"
        << "checkpoint     " << snap.checkpoint << "\n"
        << "segment        " << snap.wal << " (" << snap.wal_file_bytes
        << " bytes durable, " << snap.wal_buffered_bytes << " buffered)\n"
        << "truncate lsn   " << snap.truncate_lsn << "\n"
        << "next lsn       " << snap.next_lsn << "\n"
        << "appends        " << snap.wal_appends << " (" << snap.wal_bytes
        << " bytes)\n"
        << "syncs          " << snap.syncs << "\n"
        << "checkpoints    " << snap.checkpoints << "\n"
        << "recovered      " << snap.recovered_records << " record(s), version "
        << snap.recovered_version << "\n";
}

void Shell::CmdProposal() {
  if (!has_proposal_) {
    out() << "no pending proposal\n";
    return;
  }
  out() << "algorithm " << last_proposal_.algorithm << ", total cost "
        << FormatDouble(last_proposal_.total_cost, 4)
        << (last_proposal_.feasible ? "" : " (infeasible: best effort)");
  if (last_proposal_.partial) {
    out() << " [partial: " << SolveStopToString(last_proposal_.stop)
          << " — anytime plan, not proven optimal]";
  }
  out() << "\n";
  for (const IncrementAction& a : last_proposal_.actions) {
    std::string row = "tuple " + std::to_string(a.base_tuple);
    if (auto tuple = catalog_.FindTuple(a.base_tuple); tuple.ok()) {
      row = tuple->ToString();
    }
    out() << "  " << row << ": " << FormatDouble(a.from, 4) << " -> "
          << FormatDouble(a.to, 4) << " (cost " << FormatDouble(a.cost, 4) << ")\n";
  }
}

void Shell::CmdAccept() {
  if (!has_proposal_) {
    out() << "no pending proposal\n";
    return;
  }
  // With a service running, route through it so the write takes the
  // exclusive catalog lock against in-flight requests.
  Status s;
  if (service_ != nullptr) {
    s = service_->Accept(last_proposal_);
  } else {
    // Direct mode is single-threaded, but the engine's lock contract is
    // unconditional: AcceptProposal requires the exclusive catalog lock.
    WriterLock lock(engine_->catalog_mu());
    s = engine_->AcceptProposal(last_proposal_);
  }
  if (!s.ok()) {
    out() << s.ToString() << "\n";
    return;
  }
  has_proposal_ = false;
  out() << "applied; re-run your query to see the enlarged result\n";
}

void Shell::RunSql(const std::string& sql) {
  if (service_ != nullptr && session_.has_value()) {
    ServiceRequest request;
    request.sql = sql;
    request.required_fraction = fraction_;
    request.timeout_ms = timeout_ms_;
    request.pushdown = pushdown_;
    auto outcome = service_->Submit(*session_, std::move(request));
    if (!outcome.ok()) {
      out() << outcome.status().ToString() << "\n";
      return;
    }
    out() << outcome->ReleasedTable();
    out() << outcome->released.size() << " of " << outcome->intermediate.rows.size()
          << " row(s) released (beta=" << FormatDouble(outcome->policy.threshold)
          << ", via service)\n";
    if (outcome->proposal.needed) {
      last_proposal_ = outcome->proposal;
      has_proposal_ = true;
      out() << "improvement available: cost "
            << FormatDouble(last_proposal_.total_cost, 4) << " via "
            << last_proposal_.algorithm
            << (last_proposal_.partial ? " [partial]" : "")
            << " (.proposal to inspect, .accept to apply)\n";
    }
    last_result_ = std::move(outcome->intermediate);
    return;
  }

  if (user_.empty()) {
    // No session user: run unfiltered, showing raw confidences. Still honor
    // the .exec interpreter choice so differential smokes can compare modes.
    auto result = RunQuery(catalog_, sql, nullptr, engine_->execution_mode);
    if (!result.ok()) {
      out() << result.status().ToString() << "\n";
      return;
    }
    out() << result->ToTable();
    out() << result->rows.size() << " row(s), no policy applied (use .user use)\n";
    last_result_ = std::move(*result);
    return;
  }

  QueryRequest request;
  request.sql = sql;
  request.user = user_;
  request.purpose = purpose_;
  request.required_fraction = fraction_;
  request.pushdown = pushdown_;
  if (timeout_ms_ > 0) request.deadline = Deadline::AfterMillis(timeout_ms_);
  auto outcome = [&] {
    // Direct submission bypasses the service, so it takes the engine's
    // shared catalog lock itself (the REPL is sequential; this is for the
    // lock contract, not contention).
    ReaderLock lock(engine_->catalog_mu());
    return engine_->Submit(request);
  }();
  if (!outcome.ok()) {
    out() << outcome.status().ToString() << "\n";
    return;
  }
  out() << outcome->ReleasedTable();
  out() << outcome->released.size() << " of " << outcome->intermediate.rows.size()
        << " row(s) released (beta=" << FormatDouble(outcome->policy.threshold)
        << ")\n";
  if (outcome->proposal.needed) {
    last_proposal_ = outcome->proposal;
    has_proposal_ = true;
    out() << "improvement available: cost "
          << FormatDouble(last_proposal_.total_cost, 4) << " via "
          << last_proposal_.algorithm
          << (last_proposal_.partial ? " [partial]" : "")
          << " (.proposal to inspect, .accept to apply)\n";
  }
  last_result_ = std::move(outcome->intermediate);
}

}  // namespace pcqe

// Tests for the interactive shell's command dispatcher.

#include "tools/shell.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace pcqe {
namespace {

class ShellTest : public ::testing::Test {
 protected:
  /// Feeds a line; returns the output it produced.
  std::string Feed(const std::string& line) {
    out_.str("");
    alive_ = shell_.HandleLine(line);
    return out_.str();
  }

  std::ostringstream out_;
  Shell shell_{&out_};
  bool alive_ = true;
};

TEST_F(ShellTest, QuitEndsSession) {
  Feed(".quit");
  EXPECT_FALSE(alive_);
}

TEST_F(ShellTest, HelpListsCommands) {
  std::string help = Feed(".help");
  EXPECT_NE(help.find(".load"), std::string::npos);
  EXPECT_NE(help.find(".policy add"), std::string::npos);
}

TEST_F(ShellTest, UnknownCommandReported) {
  EXPECT_NE(Feed(".bogus").find("unknown command"), std::string::npos);
}

TEST_F(ShellTest, EmptyLinesIgnored) {
  EXPECT_EQ(Feed("   "), "");
  EXPECT_TRUE(alive_);
}

TEST_F(ShellTest, LoadAndQueryCsv) {
  std::string path = ::testing::TempDir() + "/shell_test.csv";
  {
    std::ofstream f(path);
    f << "site,reading,conf\nnorth,42,0.9\nsouth,17,0.4\n";
  }
  std::string loaded = Feed(".load sensors " + path + " conf");
  EXPECT_NE(loaded.find("loaded 2 rows"), std::string::npos);

  EXPECT_NE(Feed(".tables").find("sensors (2 rows)"), std::string::npos);
  EXPECT_NE(Feed(".schema sensors").find("reading"), std::string::npos);

  // Raw query (no session user): all rows with confidences.
  std::string result = Feed("SELECT site FROM sensors;");
  EXPECT_NE(result.find("north"), std::string::npos);
  EXPECT_NE(result.find("no policy applied"), std::string::npos);
}

TEST_F(ShellTest, MultiLineSqlAccumulates) {
  std::string path = ::testing::TempDir() + "/shell_test2.csv";
  {
    std::ofstream f(path);
    f << "x\n1\n";
  }
  Feed(".load t " + path);
  EXPECT_EQ(Feed("SELECT x"), "");  // incomplete: buffered
  EXPECT_TRUE(shell_.in_statement());
  std::string result = Feed("FROM t;");
  EXPECT_FALSE(shell_.in_statement());
  EXPECT_NE(result.find("1 row(s)"), std::string::npos);
}

TEST_F(ShellTest, FullPolicyWorkflow) {
  std::string path = ::testing::TempDir() + "/shell_test3.csv";
  {
    std::ofstream f(path);
    f << "site,reading,conf\nnorth,42,0.9\nsouth,17,0.4\n";
  }
  Feed(".load sensors " + path + " conf");
  EXPECT_NE(Feed(".role add Analyst").find("added"), std::string::npos);
  EXPECT_NE(Feed(".user add alice").find("added"), std::string::npos);
  EXPECT_NE(Feed(".role grant alice Analyst").find("granted"), std::string::npos);
  EXPECT_NE(Feed(".policy add Analyst reporting 0.5").find("added"), std::string::npos);
  EXPECT_NE(Feed(".policy list").find("<Analyst, reporting, 0.5>"), std::string::npos);
  Feed(".user use alice");
  Feed(".purpose reporting");
  Feed(".fraction 1.0");

  std::string result = Feed("SELECT site, reading FROM sensors;");
  EXPECT_NE(result.find("1 of 2 row(s) released"), std::string::npos);
  EXPECT_NE(result.find("improvement available"), std::string::npos);

  std::string proposal = Feed(".proposal");
  EXPECT_NE(proposal.find("total cost"), std::string::npos);

  EXPECT_NE(Feed(".accept").find("applied"), std::string::npos);
  std::string after = Feed("SELECT site, reading FROM sensors;");
  EXPECT_NE(after.find("2 of 2 row(s) released"), std::string::npos);
  // Proposal consumed.
  EXPECT_NE(Feed(".accept").find("no pending proposal"), std::string::npos);
}

TEST_F(ShellTest, ErrorsAreShownNotFatal) {
  EXPECT_NE(Feed(".schema ghost").find("not_found"), std::string::npos);
  EXPECT_NE(Feed(".load t /nonexistent.csv").find("not_found"), std::string::npos);
  EXPECT_NE(Feed("SELECT broken FROM nowhere;").find("bind_error"), std::string::npos);
  EXPECT_NE(Feed(".user use ghost").find("unknown user"), std::string::npos);
  EXPECT_NE(Feed(".role grant ghost Role").find("not_found"), std::string::npos);
  EXPECT_TRUE(alive_);
}

TEST_F(ShellTest, UsageMessagesForBadArity) {
  EXPECT_NE(Feed(".schema").find("usage:"), std::string::npos);
  EXPECT_NE(Feed(".load onlyone").find("usage:"), std::string::npos);
  EXPECT_NE(Feed(".policy add Role").find("usage:"), std::string::npos);
  EXPECT_NE(Feed(".fraction").find("usage:"), std::string::npos);
  // Non-numeric, non-finite and out-of-range values leave the setting as is.
  for (const char* bad : {"abc", "nan", "inf", "1.5", "-0.1", "0.5x"}) {
    EXPECT_NE(Feed(std::string(".fraction ") + bad).find("usage:"), std::string::npos)
        << bad;
  }
  EXPECT_DOUBLE_EQ(shell_.fraction(), 1.0);
  for (const char* bad : {"abc", "-5", "10ms", "99999999999999999999"}) {
    EXPECT_NE(Feed(std::string(".timeout ") + bad).find("usage:"), std::string::npos)
        << bad;
  }
  EXPECT_EQ(shell_.timeout_ms(), 0);
  EXPECT_NE(Feed(".fraction 0.25").find("required fraction = 0.25"), std::string::npos);
  EXPECT_NE(Feed(".timeout 50").find("query timeout = 50ms"), std::string::npos);
}

TEST_F(ShellTest, SaveAndOpenDatabase) {
  std::string csv_path = ::testing::TempDir() + "/shell_db.csv";
  std::string db_dir = ::testing::TempDir() + "/shell_dbdir";
  std::filesystem::remove_all(db_dir);
  std::filesystem::create_directories(db_dir);
  {
    std::ofstream f(csv_path);
    f << "x,conf\n5,0.7\n";
  }
  Feed(".load nums " + csv_path + " conf");
  EXPECT_NE(Feed(".savedb " + db_dir).find("database saved"), std::string::npos);

  // A fresh shell restores the table with its confidence.
  std::ostringstream out2;
  Shell shell2(&out2);
  shell2.HandleLine(".opendb " + db_dir);
  EXPECT_NE(out2.str().find("database loaded"), std::string::npos);
  out2.str("");
  shell2.HandleLine("SELECT x FROM nums;");
  EXPECT_NE(out2.str().find("0.7"), std::string::npos);
}

TEST_F(ShellTest, WhyExplainsRowInfluence) {
  std::string path = ::testing::TempDir() + "/shell_why.csv";
  {
    std::ofstream f(path);
    f << "site,reading,conf\nnorth,42,0.9\nsouth,17,0.4\n";
  }
  EXPECT_NE(Feed(".why 1").find("no query result"), std::string::npos);
  Feed(".load sensors " + path + " conf");
  Feed("SELECT site FROM sensors;");
  std::string why = Feed(".why 2");
  EXPECT_NE(why.find("confidence 0.4"), std::string::npos);
  EXPECT_NE(why.find("sensitivity 1"), std::string::npos);  // single-var lineage
  EXPECT_NE(why.find("headroom 0.6"), std::string::npos);
  EXPECT_NE(Feed(".why 9").find("out of range"), std::string::npos);
  EXPECT_NE(Feed(".why").find("usage:"), std::string::npos);
}

TEST_F(ShellTest, ExplainPrintsPlan) {
  std::string path = ::testing::TempDir() + "/shell_explain.csv";
  {
    std::ofstream f(path);
    f << "x\n1\n";
  }
  Feed(".load t " + path);
  std::string plan = Feed(".explain SELECT x FROM t WHERE x > 0;");
  EXPECT_NE(plan.find("Scan t"), std::string::npos);
  EXPECT_NE(plan.find("Filter"), std::string::npos);
  EXPECT_NE(Feed(".explain").find("usage:"), std::string::npos);
  EXPECT_NE(Feed(".explain SELEC nope").find("parse_error"), std::string::npos);
}

TEST_F(ShellTest, AccessConfigRoundTrip) {
  std::string path = ::testing::TempDir() + "/shell_access.conf";
  Feed(".role add Analyst");
  Feed(".user add alice");
  Feed(".role grant alice Analyst");
  Feed(".policy add Analyst reporting 0.5");
  EXPECT_NE(Feed(".saveconfig " + path).find("saved"), std::string::npos);

  std::ostringstream out2;
  Shell shell2(&out2);
  shell2.HandleLine(".loadconfig " + path);
  EXPECT_NE(out2.str().find("loaded"), std::string::npos);
  out2.str("");
  shell2.HandleLine(".policy list");
  EXPECT_NE(out2.str().find("<Analyst, reporting, 0.5>"), std::string::npos);
}

TEST_F(ShellTest, ServeSessionWorkflow) {
  std::string path = ::testing::TempDir() + "/shell_serve.csv";
  {
    std::ofstream f(path);
    f << "site,reading,conf\nnorth,42,0.9\nsouth,17,0.4\n";
  }
  Feed(".load sensors " + path + " conf");
  Feed(".role add Analyst");
  Feed(".user add alice");
  Feed(".role grant alice Analyst");
  Feed(".policy add Analyst reporting 0.5");

  // A session requires a running service.
  EXPECT_NE(Feed(".session alice reporting").find("no service running"),
            std::string::npos);
  EXPECT_NE(Feed(".stats").find("no service running"), std::string::npos);

  std::string serving = Feed(".serve 2");
  EXPECT_NE(serving.find("serving with 2 worker(s)"), std::string::npos);
  EXPECT_NE(Feed(".serve").find("already serving"), std::string::npos);
  EXPECT_TRUE(shell_.service() != nullptr);
  EXPECT_FALSE(shell_.in_session());

  // Unknown users cannot open sessions; known ones pin the threshold.
  EXPECT_NE(Feed(".session ghost reporting").find("not_found"), std::string::npos);
  std::string opened = Feed(".session alice reporting");
  EXPECT_NE(opened.find("alice/reporting"), std::string::npos);
  EXPECT_NE(opened.find("beta=0.5"), std::string::npos);
  EXPECT_TRUE(shell_.in_session());

  // SQL is routed through the service and filtered by the session policy.
  std::string result = Feed("SELECT site, reading FROM sensors;");
  EXPECT_NE(result.find("1 of 2 row(s) released"), std::string::npos);
  EXPECT_NE(result.find("via service"), std::string::npos);

  // The same query again is a cache hit; .stats reports the cache and
  // .metrics the request counters.
  Feed("SELECT site, reading FROM sensors;");
  std::string stats = Feed(".stats");
  EXPECT_NE(stats.find("cache: 1 hits"), std::string::npos);
  std::string metrics = Feed(".metrics");
  EXPECT_NE(metrics.find("pcqe_service_requests_served_total 2"), std::string::npos);

  // .accept routes through the service so the catalog write is serialized
  // against in-flight queries, and the cache is invalidated by version bump.
  Feed(".fraction 1.0");
  Feed("SELECT site, reading FROM sensors;");
  EXPECT_NE(Feed(".accept").find("applied"), std::string::npos);
  std::string after = Feed("SELECT site, reading FROM sensors;");
  EXPECT_NE(after.find("2 of 2 row(s) released"), std::string::npos);

  // Dropping the session reverts to direct engine submission.
  EXPECT_NE(Feed(".session off").find("session closed"), std::string::npos);
  EXPECT_FALSE(shell_.in_session());
  std::string direct = Feed("SELECT site, reading FROM sensors;");
  EXPECT_EQ(direct.find("via service"), std::string::npos);
}

TEST_F(ShellTest, SaveExportsCsv) {
  std::string in_path = ::testing::TempDir() + "/shell_save_in.csv";
  std::string out_path = ::testing::TempDir() + "/shell_save_out.csv";
  {
    std::ofstream f(in_path);
    f << "x\n7\n";
  }
  Feed(".load t " + in_path);
  EXPECT_NE(Feed(".save t " + out_path).find("saved"), std::string::npos);
  std::ifstream saved(out_path);
  std::string header;
  std::getline(saved, header);
  EXPECT_EQ(header, "x,confidence");
}

}  // namespace
}  // namespace pcqe

// Tests for the provenance-based confidence-assignment substrate.

#include <gtest/gtest.h>

#include <cmath>

#include "assign/assigner.h"
#include "assign/provenance.h"
#include "assign/trust_model.h"

namespace pcqe {
namespace {

TEST(ProvenanceGraphTest, AddAgentValidates) {
  ProvenanceGraph g;
  EXPECT_TRUE(g.AddAgent({"", 0.5, true}).status().IsInvalidArgument());
  EXPECT_TRUE(g.AddAgent({"s", 1.5, true}).status().IsInvalidArgument());
  AgentId a = *g.AddAgent({"s", 0.7, true});
  EXPECT_EQ(g.agent(a).name, "s");
  EXPECT_EQ(g.num_agents(), 1u);
}

TEST(ProvenanceGraphTest, AddItemValidatesAgents) {
  ProvenanceGraph g;
  AgentId src = *g.AddAgent({"source", 0.8, true});
  AgentId mid = *g.AddAgent({"relay", 0.9, false});
  // Unknown agents.
  EXPECT_TRUE(g.AddItem({"e", 1.0, 99, {}}).status().IsNotFound());
  EXPECT_TRUE(g.AddItem({"e", 1.0, src, {99}}).status().IsNotFound());
  // Role mismatches.
  EXPECT_TRUE(g.AddItem({"e", 1.0, mid, {}}).status().IsInvalidArgument());
  EXPECT_TRUE(g.AddItem({"e", 1.0, src, {src}}).status().IsInvalidArgument());
  // Empty entity.
  EXPECT_TRUE(g.AddItem({"", 1.0, src, {}}).status().IsInvalidArgument());
  EXPECT_TRUE(g.AddItem({"e", 1.0, src, {mid}}).ok());
}

TEST(ProvenanceGraphTest, EntityGroupsPartitionItems) {
  ProvenanceGraph g;
  AgentId s = *g.AddAgent({"s", 0.5, true});
  (void)*g.AddItem({"alpha", 1.0, s, {}});
  (void)*g.AddItem({"beta", 2.0, s, {}});
  (void)*g.AddItem({"alpha", 1.1, s, {}});
  ASSERT_EQ(g.entity_groups().size(), 2u);
  EXPECT_EQ(g.entity_groups()[0].size(), 2u);
  EXPECT_EQ(g.entity_groups()[1].size(), 1u);
}

TEST(TrustModelTest, SimilarityKernel) {
  EXPECT_DOUBLE_EQ(ValueSimilarity(3.0, 3.0, 1.0), 1.0);
  EXPECT_NEAR(ValueSimilarity(0.0, 1.0, 1.0), std::exp(-1.0), 1e-12);
  EXPECT_LT(ValueSimilarity(0.0, 10.0, 1.0), 1e-6);
  // Wider sigma forgives larger gaps.
  EXPECT_GT(ValueSimilarity(0.0, 2.0, 5.0), ValueSimilarity(0.0, 2.0, 1.0));
}

TEST(TrustModelTest, OptionsValidated) {
  ProvenanceGraph g;
  TrustModelOptions bad;
  bad.similarity_sigma = 0.0;
  EXPECT_TRUE(ComputeTrust(g, bad).status().IsInvalidArgument());
  bad = {};
  bad.source_damping = 1.5;
  EXPECT_TRUE(ComputeTrust(g, bad).status().IsInvalidArgument());
  bad = {};
  bad.max_iterations = 0;
  EXPECT_TRUE(ComputeTrust(g, bad).status().IsInvalidArgument());
  bad = {};
  bad.weight_path = 0.0;
  EXPECT_TRUE(ComputeTrust(g, bad).status().IsInvalidArgument());
}

TEST(TrustModelTest, LoneItemGetsPathTrust) {
  ProvenanceGraph g;
  AgentId s = *g.AddAgent({"s", 0.8, true});
  AgentId relay = *g.AddAgent({"relay", 0.5, false});
  ItemId direct = *g.AddItem({"a", 1.0, s, {}});
  ItemId relayed = *g.AddItem({"b", 1.0, s, {relay}});
  TrustReport r = *ComputeTrust(g);
  EXPECT_TRUE(r.converged);
  // No peers: trust equals source x attenuation throughout.
  EXPECT_NEAR(r.item_trust[direct], 0.8, 1e-6);
  EXPECT_NEAR(r.item_trust[relayed], 0.4, 1e-6);
}

TEST(TrustModelTest, CorroborationRaisesTrust) {
  // Two independent sources reporting the same value about one entity.
  ProvenanceGraph lone_graph;
  AgentId ls = *lone_graph.AddAgent({"s1", 0.6, true});
  ItemId lone = *lone_graph.AddItem({"e", 5.0, ls, {}});
  double lone_trust = (*ComputeTrust(lone_graph)).item_trust[lone];

  ProvenanceGraph pair_graph;
  AgentId s1 = *pair_graph.AddAgent({"s1", 0.6, true});
  AgentId s2 = *pair_graph.AddAgent({"s2", 0.6, true});
  ItemId i1 = *pair_graph.AddItem({"e", 5.0, s1, {}});
  ItemId i2 = *pair_graph.AddItem({"e", 5.0, s2, {}});
  TrustReport r = *ComputeTrust(pair_graph);
  EXPECT_GT(r.item_trust[i1], lone_trust);
  EXPECT_GT(r.item_trust[i2], lone_trust);
}

TEST(TrustModelTest, ConflictLowersTrust) {
  ProvenanceGraph g;
  AgentId s1 = *g.AddAgent({"s1", 0.6, true});
  AgentId s2 = *g.AddAgent({"s2", 0.6, true});
  ItemId i1 = *g.AddItem({"e", 5.0, s1, {}});
  (void)*g.AddItem({"e", 50.0, s2, {}});  // wildly different claim
  TrustReport r = *ComputeTrust(g);
  EXPECT_LT(r.item_trust[i1], 0.6);
}

TEST(TrustModelTest, SelfRepetitionDoesNotCorroborate) {
  // One source repeating itself must not gain support.
  ProvenanceGraph g;
  AgentId s = *g.AddAgent({"s", 0.6, true});
  ItemId i1 = *g.AddItem({"e", 5.0, s, {}});
  (void)*g.AddItem({"e", 5.0, s, {}});
  (void)*g.AddItem({"e", 5.0, s, {}});
  TrustReport r = *ComputeTrust(g);
  EXPECT_NEAR(r.item_trust[i1], 0.6, 1e-6);
}

TEST(TrustModelTest, SourceTrustRevisedTowardItemTrust) {
  // A source whose claims conflict with two agreeing peers loses trust.
  ProvenanceGraph g;
  AgentId liar = *g.AddAgent({"liar", 0.8, true});
  AgentId s1 = *g.AddAgent({"s1", 0.7, true});
  AgentId s2 = *g.AddAgent({"s2", 0.7, true});
  for (int e = 0; e < 3; ++e) {
    std::string entity = "fact" + std::to_string(e);
    (void)*g.AddItem({entity, 100.0 + e, liar, {}});
    (void)*g.AddItem({entity, 1.0 + e, s1, {}});
    (void)*g.AddItem({entity, 1.0 + e, s2, {}});
  }
  TrustReport r = *ComputeTrust(g);
  EXPECT_LT(r.agent_trust[liar], 0.8);
  EXPECT_GT(r.agent_trust[s1], r.agent_trust[liar]);
  EXPECT_GE(r.agent_trust[s2], r.agent_trust[liar]);
}

TEST(TrustModelTest, TrustStaysInUnitInterval) {
  ProvenanceGraph g;
  AgentId s1 = *g.AddAgent({"s1", 1.0, true});
  AgentId s2 = *g.AddAgent({"s2", 1.0, true});
  AgentId s3 = *g.AddAgent({"s3", 0.0, true});
  (void)*g.AddItem({"e", 5.0, s1, {}});
  (void)*g.AddItem({"e", 5.0, s2, {}});
  (void)*g.AddItem({"e", -40.0, s3, {}});
  TrustReport r = *ComputeTrust(g);
  for (double t : r.item_trust) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
  for (double t : r.agent_trust) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
}

TEST(TrustModelTest, ConvergesAndIsDeterministic) {
  ProvenanceGraph g;
  AgentId s1 = *g.AddAgent({"s1", 0.5, true});
  AgentId s2 = *g.AddAgent({"s2", 0.7, true});
  AgentId relay = *g.AddAgent({"relay", 0.9, false});
  (void)*g.AddItem({"e1", 5.0, s1, {}});
  (void)*g.AddItem({"e1", 5.2, s2, {relay}});
  (void)*g.AddItem({"e2", 1.0, s1, {}});
  (void)*g.AddItem({"e2", 9.0, s2, {}});
  TrustReport a = *ComputeTrust(g);
  TrustReport b = *ComputeTrust(g);
  EXPECT_TRUE(a.converged);
  ASSERT_EQ(a.item_trust.size(), b.item_trust.size());
  for (size_t i = 0; i < a.item_trust.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.item_trust[i], b.item_trust[i]);
  }
}

TEST(TrustModelTest, IterationCapReportsNonConverged) {
  ProvenanceGraph g;
  AgentId s1 = *g.AddAgent({"s1", 0.5, true});
  AgentId s2 = *g.AddAgent({"s2", 0.9, true});
  (void)*g.AddItem({"e", 1.0, s1, {}});
  (void)*g.AddItem({"e", 100.0, s2, {}});
  TrustModelOptions options;
  options.max_iterations = 1;
  options.tolerance = 0.0;
  TrustReport r = *ComputeTrust(g, options);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1u);
}

class AssignerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = *catalog_.CreateTable(
        "readings", Schema({{"entity", DataType::kString, ""},
                            {"value", DataType::kDouble, ""}}));
    id_a_ = *table_->Insert({Value::String("e"), Value::Double(5.0)}, 0.0);
    id_b_ = *table_->Insert({Value::String("e"), Value::Double(5.1)}, 0.0, nullptr,
                            /*max_confidence=*/0.3);

    src1_ = *graph_.AddAgent({"s1", 0.7, true});
    src2_ = *graph_.AddAgent({"s2", 0.7, true});
    item_a_ = *graph_.AddItem({"e", 5.0, src1_, {}});
    item_b_ = *graph_.AddItem({"e", 5.1, src2_, {}});
  }

  Catalog catalog_;
  Table* table_ = nullptr;
  ProvenanceGraph graph_;
  BaseTupleId id_a_ = 0, id_b_ = 0;
  AgentId src1_ = 0, src2_ = 0;
  ItemId item_a_ = 0, item_b_ = 0;
};

TEST_F(AssignerTest, WritesComputedConfidences) {
  AssignmentReport report = *AssignConfidences(
      &catalog_, graph_, {{id_a_, item_a_}, {id_b_, item_b_}});
  EXPECT_TRUE(report.trust.converged);
  Tuple a = *catalog_.FindTuple(id_a_);
  EXPECT_NEAR(a.confidence(), report.trust.item_trust[item_a_], 1e-12);
  EXPECT_GT(a.confidence(), 0.7);  // corroborated by the agreeing peer
}

TEST_F(AssignerTest, RespectsTupleCeiling) {
  (void)*AssignConfidences(&catalog_, graph_, {{id_b_, item_b_}});
  Tuple b = *catalog_.FindTuple(id_b_);
  EXPECT_DOUBLE_EQ(b.confidence(), 0.3);  // capped despite higher trust
}

TEST_F(AssignerTest, ValidatesBeforeWriting) {
  // Second mapping entry is bad: nothing may be written.
  auto r = AssignConfidences(&catalog_, graph_,
                             {{id_a_, item_a_}, {id_a_ + 12345, item_b_}});
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_DOUBLE_EQ(catalog_.FindTuple(id_a_)->confidence(), 0.0);

  auto r2 = AssignConfidences(&catalog_, graph_, {{id_a_, 999}});
  EXPECT_TRUE(r2.status().IsNotFound());
}

}  // namespace
}  // namespace pcqe

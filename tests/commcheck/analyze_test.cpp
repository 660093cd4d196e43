/// The happens-before analyzer against the seeded protocol-bug fixtures:
/// each canonical bug must be flagged with its stable code, naming the ranks
/// and operations involved, and the clean control must stay clean.

#include <gtest/gtest.h>

#include "commcheck/analyze.hpp"
#include "commcheck/fixtures.hpp"
#include "common/json.hpp"

namespace {

using namespace bladed;
using commcheck::analyze;
using commcheck::Verdict;
using bladed::Json;

TEST(AnalyzeTest, DeadlockCycleNamesRanksAndOps) {
  const Verdict v = analyze(commcheck::deadlock_trace());
  ASSERT_TRUE(v.has("deadlock-cycle")) << v.to_string();
  const auto& findings = v.findings();
  const auto it =
      std::find_if(findings.begin(), findings.end(),
                   [](const auto& f) { return f.code == "deadlock-cycle"; });
  EXPECT_EQ(it->ranks, (std::vector<int>{0, 1}));
  // The report must name each rank and the exact operation it is stuck in.
  EXPECT_NE(it->message.find("rank 0 blocked in recv(src=1, tag=7)"),
            std::string::npos)
      << it->message;
  EXPECT_NE(it->message.find("rank 1 blocked in recv(src=0, tag=9)"),
            std::string::npos)
      << it->message;
}

TEST(AnalyzeTest, OrphanedSendIsReportedWithTagAndDestination) {
  const Verdict v = analyze(commcheck::orphan_send_trace());
  ASSERT_TRUE(v.has("orphan-send")) << v.to_string();
  EXPECT_EQ(v.count("orphan-send"), 1U);  // only the tag-2 message leaks
  const auto& findings = v.findings();
  const auto it =
      std::find_if(findings.begin(), findings.end(),
                   [](const auto& f) { return f.code == "orphan-send"; });
  EXPECT_EQ(it->ranks, (std::vector<int>{0, 1}));
  EXPECT_NE(it->message.find("tag 2"), std::string::npos) << it->message;
}

TEST(AnalyzeTest, OrphanSendsCanBeSuppressedForFaultDrivers) {
  commcheck::AnalyzeOptions opt;
  opt.orphan_sends = false;
  EXPECT_TRUE(analyze(commcheck::orphan_send_trace(), opt).clean());
}

TEST(AnalyzeTest, WildcardRaceIsFlaggedWithBothCandidates) {
  const Verdict v = analyze(commcheck::wildcard_race_trace());
  ASSERT_TRUE(v.has("wildcard-race")) << v.to_string();
  const auto& findings = v.findings();
  const auto it =
      std::find_if(findings.begin(), findings.end(),
                   [](const auto& f) { return f.code == "wildcard-race"; });
  // Receiver plus both racing senders.
  EXPECT_EQ(it->ranks, (std::vector<int>{0, 1, 2}));
}

TEST(AnalyzeTest, BcastRootDisagreementIsFlagged) {
  const Verdict v = analyze(commcheck::bcast_root_mismatch_trace());
  ASSERT_TRUE(v.has("collective-root")) << v.to_string();
  const auto& findings = v.findings();
  const auto it =
      std::find_if(findings.begin(), findings.end(),
                   [](const auto& f) { return f.code == "collective-root"; });
  EXPECT_NE(std::find(it->ranks.begin(), it->ranks.end(), 3),
            it->ranks.end());
  // The disagreeing tree also strands messages: both defects surface.
  EXPECT_TRUE(v.has("orphan-send")) << v.to_string();
}

TEST(AnalyzeTest, TypedSizeMismatchIsFlagged) {
  const Verdict v = analyze(commcheck::size_mismatch_trace());
  ASSERT_TRUE(v.has("size-mismatch")) << v.to_string();
}

TEST(AnalyzeTest, CleanExchangeProducesCleanVerdict) {
  const Verdict v = analyze(commcheck::clean_trace());
  EXPECT_TRUE(v.clean()) << v.to_string();
}

TEST(AnalyzeTest, JsonVerdictIsMachineReadable) {
  const Verdict dirty = analyze(commcheck::deadlock_trace());
  EXPECT_NE(dirty.to_json().find("\"clean\":false"), std::string::npos);
  EXPECT_NE(dirty.to_json().find("\"code\":\"deadlock-cycle\""),
            std::string::npos);
  const Verdict clean = analyze(commcheck::clean_trace());
  EXPECT_EQ(clean.to_json(), "{\"clean\":true,\"findings\":[]}");
}

TEST(AnalyzeTest, HostileFindingMessageRoundTrips) {
  const std::string hostile =
      std::string("q\"b\\s\nn\tt") + '\x01' + "end";
  Verdict v;
  v.add("orphan-send", hostile, {2, 0});
  const Json doc = Json::parse(v.to_json());
  EXPECT_FALSE(doc.get("clean").as_bool());
  const Json& f = doc.get("findings").as_array().at(0);
  EXPECT_EQ(f.get("code").as_string(), "orphan-send");
  EXPECT_EQ(f.get("message").as_string(), hostile);
  EXPECT_EQ(f.get("ranks").dump(), "[0,2]");
}

TEST(AnalyzeTest, EmptyTraceIsClean) {
  EXPECT_TRUE(analyze(commcheck::Trace{}).clean());
}

}  // namespace

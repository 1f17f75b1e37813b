// OpTable state machine, driven by a fake issuer on a bare Engine: no
// fabric, no worker. Every post the table asks for is logged with its time,
// and the test plays the completions.

#include "src/rdma/op_table.h"

#include <gtest/gtest.h>

#include <vector>

namespace adios {
namespace {

struct Post {
  SimTime at;
  uint64_t wr_id;
  uint32_t node;
  uint32_t attempts;
};

struct SpentCall {
  SimTime at;
  uint64_t wr_id;
  bool exhausted;
};

class FakeIssuer : public OpTable::Issuer {
 public:
  explicit FakeIssuer(Engine* engine) : engine_(engine) {}

  bool PostOp(const OpTable::Op& op) override {
    posts.push_back({engine_->now(), op.wr_id, op.node, op.attempts});
    if (full_posts > 0) {
      --full_posts;
      return false;
    }
    return true;
  }

  bool OnBudgetSpent(OpTable::Op& op, bool exhausted) override {
    spent.push_back({engine_->now(), op.wr_id, exhausted});
    if (redirects > 0) {
      --redirects;
      op.node = redirect_node;
      ++op.failovers;
      return true;
    }
    return false;
  }

  std::vector<Post> posts;
  std::vector<SpentCall> spent;
  int full_posts = 0;  // The next this-many posts find the QP full.
  int redirects = 0;   // The next this-many spent calls move the op.
  uint32_t redirect_node = 1;

 private:
  Engine* engine_;
};

RetryPolicy Policy() {
  RetryPolicy p;
  p.enabled = true;
  p.timeout_ns = 25000;
  p.max_retries = 6;
  p.backoff_base_ns = 4000;
  p.backoff_multiplier = 2.0;
  p.backoff_cap_ns = 16000;
  return p;
}

Completion Cqe(uint64_t wr_id, bool ok, uint32_t node = 0) {
  Completion c;
  c.wr_id = wr_id;
  c.node = node;
  c.status = ok ? CompletionStatus::kSuccess : CompletionStatus::kRetryExceeded;
  return c;
}

TEST(OpTable, BackoffDoublesFromBaseThenStopsAtCap) {
  Engine e;
  FakeIssuer issuer(&e);
  OpTable table(&e, &issuer, Policy());
  table.Track(7, 0, TrafficClass::kDemand);
  e.Run();  // No completion ever arrives: every post times out.
  // Each repost lands one backoff after the deadline that preceded it; the
  // deadline is armed at each post.
  ASSERT_EQ(issuer.posts.size(), 6u);
  const SimDuration expected_backoff[] = {4000, 8000, 16000, 16000, 16000, 16000};
  SimTime last_post = 0;
  for (size_t i = 0; i < issuer.posts.size(); ++i) {
    EXPECT_EQ(issuer.posts[i].at, last_post + 25000 + expected_backoff[i]) << i;
    EXPECT_EQ(issuer.posts[i].attempts, i + 2) << i;
    last_post = issuer.posts[i].at;
  }
  EXPECT_EQ(table.retries(), 6u);
  EXPECT_EQ(table.timeouts(), 7u);
  ASSERT_EQ(issuer.spent.size(), 1u);
  EXPECT_EQ(issuer.spent[0].at, last_post + 25000);
  EXPECT_TRUE(issuer.spent[0].exhausted);
  EXPECT_EQ(table.Find(7), nullptr);
}

TEST(OpTable, ErrorDuringBackoffSchedulesNoSecondRepost) {
  Engine e;
  FakeIssuer issuer(&e);
  OpTable table(&e, &issuer, Policy());
  table.Track(7, 0, TrafficClass::kDemand);
  e.Schedule(1000, [&] { EXPECT_EQ(table.OnCompletion(Cqe(7, false)), nullptr); });
  // Inside the 4 us backoff the first error started: a duplicate error.
  e.Schedule(2000, [&] { EXPECT_EQ(table.OnCompletion(Cqe(7, false)), nullptr); });
  e.Schedule(6000, [&] {
    ASSERT_NE(table.OnCompletion(Cqe(7, true)), nullptr);
    table.Settle(7);
  });
  e.Run();
  ASSERT_EQ(issuer.posts.size(), 1u);
  EXPECT_EQ(issuer.posts[0].at, 5000u);
  EXPECT_EQ(table.retries(), 1u);
  EXPECT_EQ(table.timeouts(), 0u);
  EXPECT_TRUE(issuer.spent.empty());
}

TEST(OpTable, CompletionForSettledIdIsLateAndChangesNothing) {
  Engine e;
  FakeIssuer issuer(&e);
  OpTable table(&e, &issuer, Policy());
  table.Track(7, 0, TrafficClass::kDemand);
  e.Schedule(1000, [&] {
    ASSERT_NE(table.OnCompletion(Cqe(7, true)), nullptr);
    table.Settle(7);
  });
  e.Schedule(2000, [&] {
    EXPECT_EQ(table.OnCompletion(Cqe(7, true)), nullptr);
    EXPECT_EQ(table.OnCompletion(Cqe(7, false)), nullptr);
    EXPECT_EQ(table.OnCompletion(Cqe(8, false)), nullptr);  // Never tracked.
  });
  e.Run();
  EXPECT_TRUE(issuer.posts.empty());
  EXPECT_TRUE(issuer.spent.empty());
  EXPECT_EQ(table.retries(), 0u);
  EXPECT_EQ(table.timeouts(), 0u);
  EXPECT_EQ(table.Find(7), nullptr);
}

TEST(OpTable, ExhaustionSpendsOnceAndBackgroundClassesGetTheirOwnBudget) {
  RetryPolicy p = Policy();
  p.max_retries = 3;
  p.background_max_retries = 1;
  Engine e;
  FakeIssuer issuer(&e);
  OpTable table(&e, &issuer, p);
  table.Track(1, 0, TrafficClass::kDemand);
  table.Track(2, 0, TrafficClass::kPrefetch);
  table.Track(3, 0, TrafficClass::kBackground);
  e.Run();
  uint32_t reposts[4] = {0, 0, 0, 0};
  for (const Post& post : issuer.posts) {
    ++reposts[post.wr_id];
  }
  EXPECT_EQ(reposts[1], 3u);
  EXPECT_EQ(reposts[2], 1u);
  EXPECT_EQ(reposts[3], 1u);
  ASSERT_EQ(issuer.spent.size(), 3u);
  uint32_t spent_calls[4] = {0, 0, 0, 0};
  for (const SpentCall& s : issuer.spent) {
    EXPECT_TRUE(s.exhausted);
    ++spent_calls[s.wr_id];
  }
  EXPECT_EQ(spent_calls[1], 1u);
  EXPECT_EQ(spent_calls[2], 1u);
  EXPECT_EQ(spent_calls[3], 1u);
  for (uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(table.Find(id), nullptr);
  }
}

TEST(OpTable, FullQpRepostsOneMicrosecondLaterWithoutSpendingAnAttempt) {
  RetryPolicy p = Policy();
  p.max_retries = 1;
  Engine e;
  FakeIssuer issuer(&e);
  OpTable table(&e, &issuer, p);
  table.Track(7, 0, TrafficClass::kDemand);
  issuer.full_posts = 3;
  e.Run();
  // Deadline at 25 us, backoff 4 us, then three full-QP tries 1 us apart.
  ASSERT_EQ(issuer.posts.size(), 4u);
  for (size_t i = 0; i < issuer.posts.size(); ++i) {
    EXPECT_EQ(issuer.posts[i].at, 29000 + 1000 * i) << i;
    EXPECT_EQ(issuer.posts[i].attempts, 2u) << i;
  }
  EXPECT_EQ(table.retries(), 1u);
  // The deadline is armed by the post that got through.
  ASSERT_EQ(issuer.spent.size(), 1u);
  EXPECT_EQ(issuer.spent[0].at, 32000u + 25000u);
}

TEST(OpTable, SettlingCancelsTheDeadline) {
  Engine e;
  FakeIssuer issuer(&e);
  OpTable table(&e, &issuer, Policy());
  table.Track(7, 0, TrafficClass::kDemand);
  const Engine::EventHandle deadline = table.Find(7)->deadline;
  EXPECT_TRUE(deadline.pending());
  table.Settle(7);
  EXPECT_FALSE(deadline.pending());
  e.Run();
  EXPECT_EQ(e.events_processed(), 0u);
  EXPECT_EQ(table.timeouts(), 0u);
  EXPECT_TRUE(issuer.spent.empty());
}

TEST(OpTable, RedirectRepostsAtOnceWithAFreshBudget) {
  RetryPolicy p = Policy();
  p.max_retries = 1;
  Engine e;
  FakeIssuer issuer(&e);
  OpTable table(&e, &issuer, p);
  table.Track(7, 0, TrafficClass::kDemand, /*req_id=*/42);
  issuer.redirects = 1;
  e.Run();
  // Deadline (25 us), retry after 4 us on node 0, deadline at 54 us spends
  // the budget; the issuer moves the op to node 1, reposted at once with
  // attempts back at 1, then a full budget there before giving up.
  ASSERT_EQ(issuer.posts.size(), 3u);
  EXPECT_EQ(issuer.posts[0].at, 29000u);
  EXPECT_EQ(issuer.posts[0].node, 0u);
  EXPECT_EQ(issuer.posts[1].at, 54000u);
  EXPECT_EQ(issuer.posts[1].node, 1u);
  EXPECT_EQ(issuer.posts[1].attempts, 1u);
  EXPECT_EQ(issuer.posts[2].at, 54000u + 25000u + 4000u);
  EXPECT_EQ(issuer.posts[2].node, 1u);
  ASSERT_EQ(issuer.spent.size(), 2u);
  EXPECT_EQ(issuer.spent[1].at, 83000u + 25000u);
  EXPECT_EQ(table.Find(7), nullptr);
}

TEST(OpTable, FailSpendsAtOnceWhateverTheBudget) {
  Engine e;
  FakeIssuer issuer(&e);
  OpTable table(&e, &issuer, Policy());
  table.Track(7, 0, TrafficClass::kDemand);
  e.Schedule(1000, [&] {
    ASSERT_NE(table.OnCompletion(Cqe(7, true)), nullptr);
    table.Fail(7);
  });
  e.Run();
  ASSERT_EQ(issuer.spent.size(), 1u);
  EXPECT_EQ(issuer.spent[0].at, 1000u);
  EXPECT_TRUE(issuer.spent[0].exhausted);
  EXPECT_TRUE(issuer.posts.empty());
  EXPECT_EQ(table.timeouts(), 0u);  // The deadline was cancelled.
  EXPECT_EQ(table.Find(7), nullptr);
}

TEST(OpTable, SingleShotOpSpendsOnItsFirstExpiryUncounted) {
  Engine e;
  FakeIssuer issuer(&e);
  OpTable table(&e, &issuer, Policy());
  table.TrackOnce(7, 1, TrafficClass::kBackground, 50000);
  e.Run();
  EXPECT_TRUE(issuer.posts.empty());
  ASSERT_EQ(issuer.spent.size(), 1u);
  EXPECT_EQ(issuer.spent[0].at, 50000u);
  EXPECT_TRUE(issuer.spent[0].exhausted);
  EXPECT_EQ(table.timeouts(), 0u);
  EXPECT_EQ(table.retries(), 0u);
}

// Errors and expiries are node-health evidence; once the op's node turns
// suspect the issuer is offered a redirect before the budget is spent, and
// declining it keeps the op retrying on the same node.
TEST(OpTable, FilesEvidenceAndOffersRedirectOffASuspectNode) {
  ReplicationConfig rc;
  rc.num_nodes = 2;
  rc.replicas = 2;
  rc.suspect_threshold = 1.5;
  Engine e;
  NodeHealthMonitor health(&e, rc);
  health.set_probe_fn([](uint32_t, SimTime) { return true; });
  FakeIssuer issuer(&e);
  OpTable table(&e, &issuer, Policy());
  table.set_node_health(&health);
  table.Track(7, 0, TrafficClass::kDemand);
  e.Schedule(1000, [&] { table.OnCompletion(Cqe(7, false, 0)); });
  e.RunUntil(2000);
  EXPECT_GT(health.EvidenceScore(0, e.now()), 0.0);
  EXPECT_TRUE(issuer.spent.empty());  // Healthy node, budget left: plain retry.
  // After the 5 us repost, so no repost is pending: the retry decision runs.
  e.ScheduleAt(6000, [&] { table.OnCompletion(Cqe(7, false, 0)); });
  e.RunUntil(7000);
  EXPECT_TRUE(health.SuspectOrWorse(0));
  ASSERT_EQ(issuer.spent.size(), 1u);
  EXPECT_FALSE(issuer.spent[0].exhausted);
  EXPECT_NE(table.Find(7), nullptr);  // Declined: still retrying on node 0.
  EXPECT_EQ(table.Find(7)->node, 0u);
}

}  // namespace
}  // namespace adios

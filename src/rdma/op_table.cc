#include "src/rdma/op_table.h"

namespace adios {

namespace {
constexpr SimDuration kQpFullRepostNs = 1000;
}  // namespace

OpTable::Op& OpTable::Insert(uint64_t wr_id, uint32_t node, TrafficClass cls,
                            SimDuration timeout_ns) {
  Op op;
  op.wr_id = wr_id;
  op.cls = cls;
  op.node = node;
  op.backoff_ns = policy_.backoff_base_ns;
  // Issuers never reuse a wr_id while its op is in flight: a fetch's page
  // stays kFetching, a write-back waits out its page's previous fan-out.
  auto [it, inserted] = ops_.insert_or_assign(wr_id, op);
  ADIOS_DCHECK(inserted);
  it->second.deadline =
      engine_->ScheduleCancellable(timeout_ns, [this, wr_id] { OnDeadline(wr_id); });
  return it->second;
}

OpTable::Op* OpTable::OnCompletion(const Completion& c) {
  Op* op = Find(c.wr_id);
  if (op == nullptr) {
    // A duplicate, or a late completion for an op that already settled (a
    // repost won the race, or the op was given up). Dropped.
    return nullptr;
  }
  if (c.ok()) {
    return op;
  }
  // Transport-level failure (retry-exceeded or RNR NAK): the WQE is dead;
  // decide software retry vs. giving up.
  if (health_ != nullptr) {
    health_->ReportError(c.node);
  }
  op->deadline.Cancel();
  RetryOrSpend(*op);
  return nullptr;
}

void OpTable::Settle(uint64_t wr_id) {
  auto it = ops_.find(wr_id);
  ADIOS_DCHECK(it != ops_.end());
  it->second.deadline.Cancel();
  ops_.erase(it);
}

void OpTable::Fail(uint64_t wr_id) {
  Op* op = Find(wr_id);
  ADIOS_DCHECK(op != nullptr);
  op->deadline.Cancel();
  Spend(*op, /*exhausted=*/true);
}

void OpTable::OnDeadline(uint64_t wr_id) {
  Op* op = Find(wr_id);
  if (op == nullptr) {
    return;  // Settled just before the deadline event ran.
  }
  if (!op->single_shot) {
    ++timeouts_;
  }
  if (health_ != nullptr) {
    health_->ReportTimeout(op->node);
  }
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), op->req_id, TraceEvent::kFetchTimeout,
                    static_cast<uint32_t>(wr_id));
  }
  RetryOrSpend(*op);
}

void OpTable::RetryOrSpend(Op& op) {
  if (op.repost_pending) {
    return;  // An error completion raced with the deadline; one repost suffices.
  }
  // Failover beats both giving up and pointless persistence: once the budget
  // is spent — or the op's node is suspect or dead — the issuer may move the
  // op to another node instead of burning backoff rounds on a black hole.
  const uint32_t budget = op.single_shot ? 0 : policy_.MaxRetriesFor(op.cls);
  const bool exhausted = op.attempts > budget;
  const bool node_bad = health_ != nullptr && health_->SuspectOrWorse(op.node);
  if ((exhausted || node_bad) && Spend(op, exhausted)) {
    return;
  }
  ++op.attempts;
  ++retries_;
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), op.req_id, TraceEvent::kRetry, op.attempts);
  }
  const SimDuration backoff = op.backoff_ns;
  op.backoff_ns = policy_.NextBackoff(backoff);
  op.repost_pending = true;
  // Reposts run off the engine clock, not the issuer's fiber: a repost is
  // doorbell-cheap and a real implementation would issue it from whichever
  // context notices the failure, so no CPU is charged.
  const uint64_t wr_id = op.wr_id;
  engine_->Schedule(backoff, [this, wr_id] { Repost(wr_id); });
}

bool OpTable::Spend(Op& op, bool exhausted) {
  const uint64_t wr_id = op.wr_id;
  if (issuer_->OnBudgetSpent(op, exhausted)) {
    op.attempts = 1;  // The new node gets the full budget.
    op.backoff_ns = policy_.backoff_base_ns;
    op.repost_pending = true;
    engine_->Schedule(0, [this, wr_id] { Repost(wr_id); });
    return true;
  }
  if (exhausted) {
    ops_.erase(wr_id);
  }
  return exhausted;
}

void OpTable::Repost(uint64_t wr_id) {
  Op* op = Find(wr_id);
  if (op == nullptr) {
    return;  // A delayed completion settled the op during the backoff.
  }
  if (!issuer_->PostOp(*op)) {
    engine_->Schedule(kQpFullRepostNs, [this, wr_id] { Repost(wr_id); });
    return;
  }
  op->repost_pending = false;
  op->deadline =
      engine_->ScheduleCancellable(policy_.timeout_ns, [this, wr_id] { OnDeadline(wr_id); });
}

}  // namespace adios

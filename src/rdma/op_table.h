// OpTable: the one deadline/retry/backoff state machine for in-flight
// one-sided WQEs (docs/FAULT_MODEL.md §4), one table per issuing QP owner
// (each Worker, the Reclaimer).
//
// The issuer posts an op, then tracks it under the wr_id it posted. The
// table arms the deadline, files error and timeout evidence with the node
// health monitor, backs off and reposts under the RetryPolicy, and drops
// late and duplicate completions: an op absent from the table is settled.
// The issuer supplies two hooks (Issuer): post a WQE, and decide what
// happens once an op's budget is spent.

#ifndef ADIOS_SRC_RDMA_OP_TABLE_H_
#define ADIOS_SRC_RDMA_OP_TABLE_H_

#include <cstdint>
#include <unordered_map>

#include "src/rdma/completion.h"
#include "src/rdma/node_health.h"
#include "src/rdma/params.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace adios {

class OpTable {
 public:
  struct Op {
    uint64_t wr_id = 0;
    uint32_t node = 0;           // Node the WQE is posted to.
    uint32_t attempts = 1;       // Posts to this node so far (1 = the original).
    SimDuration backoff_ns = 0;  // Wait before the next repost.
    Engine::EventHandle deadline;
    // Issuer payload; the table only copies req_id into trace records.
    uint64_t req_id = 0;     // Initiating request (0 = none).
    uint32_t failovers = 0;  // Node switches so far.
    // Reposts keep the class, and the budget is MaxRetriesFor(cls):
    // background classes get their own sub-budget so a brownout can't burn
    // demand retries (docs/QOS.md).
    TrafficClass cls = TrafficClass::kDemand;
    bool repost_pending = false;  // A repost is scheduled; never schedule two.
    bool single_shot = false;     // Never reposted (TrackOnce).
  };

  class Issuer {
   public:
    // Posts op's WQE (wr_id to node on cls). False when the send queue is
    // full: the table tries again 1 us later without spending an attempt.
    virtual bool PostOp(const Op& op) = 0;
    // The op failed and either spent its budget (`exhausted`) or its node is
    // suspect or dead. Returns true after pointing op.node at another node:
    // the table reposts at once with a fresh budget. Otherwise, if
    // `exhausted`, the issuer gives the op up here and the table forgets it
    // on return; if not, the table backs off and retries the same node.
    virtual bool OnBudgetSpent(Op& op, bool exhausted) = 0;

   protected:
    ~Issuer() = default;
  };

  OpTable(Engine* engine, Issuer* issuer, const RetryPolicy& policy)
      : engine_(engine), issuer_(issuer), policy_(policy) {}
  // Deadline and repost events capture the table's address.
  OpTable(const OpTable&) = delete;
  OpTable& operator=(const OpTable&) = delete;

  void set_node_health(NodeHealthMonitor* health) { health_ = health; }
  // When set, expiries and reposts are traced (kFetchTimeout, kRetry).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Tracks a just-posted op under the RetryPolicy: its deadline, and
  // MaxRetriesFor(cls) reposts before OnBudgetSpent.
  void Track(uint64_t wr_id, uint32_t node, TrafficClass cls, uint64_t req_id = 0) {
    Insert(wr_id, node, cls, policy_.timeout_ns).req_id = req_id;
  }
  // Tracks a just-posted op that is never reposted: its first error or
  // expiry goes straight to OnBudgetSpent, and counts in neither timeouts()
  // nor retries().
  void TrackOnce(uint64_t wr_id, uint32_t node, TrafficClass cls, SimDuration timeout_ns) {
    Insert(wr_id, node, cls, timeout_ns).single_shot = true;
  }

  // The op tracked under `wr_id`, or nullptr once it settled.
  Op* Find(uint64_t wr_id) {
    auto it = ops_.find(wr_id);
    return it == ops_.end() ? nullptr : &it->second;
  }
  // Demultiplexes one completion. Returns the op for a successful
  // completion; the caller then calls Settle() or Fail(). Returns nullptr
  // for a late or duplicate completion (dropped) and for an error
  // completion, which the table has taken over.
  Op* OnCompletion(const Completion& c);
  // Forgets a successful op, cancelling its deadline.
  void Settle(uint64_t wr_id);
  // The WQE succeeded but its payload is bad: gives up on the op's node now,
  // whatever its budget.
  void Fail(uint64_t wr_id);

  uint64_t timeouts() const { return timeouts_; }
  uint64_t retries() const { return retries_; }

 private:
  Op& Insert(uint64_t wr_id, uint32_t node, TrafficClass cls, SimDuration timeout_ns);
  void OnDeadline(uint64_t wr_id);
  // Error or expiry: retries after backoff while budget remains.
  void RetryOrSpend(Op& op);
  // Calls OnBudgetSpent; false when the op stays for a retry.
  bool Spend(Op& op, bool exhausted);
  void Repost(uint64_t wr_id);

  Engine* engine_;
  Issuer* issuer_;
  RetryPolicy policy_;
  NodeHealthMonitor* health_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::unordered_map<uint64_t, Op> ops_;
  uint64_t timeouts_ = 0;
  uint64_t retries_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_RDMA_OP_TABLE_H_

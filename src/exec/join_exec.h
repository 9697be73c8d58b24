#ifndef SSQL_EXEC_JOIN_EXEC_H_
#define SSQL_EXEC_JOIN_EXEC_H_

#include <memory>
#include <vector>

#include "catalyst/plan/logical_plan.h"
#include "exec/physical_plan.h"
#include "exec/scan_exec.h"

namespace ssql {

/// A join's keys bound (and compiled when codegen is on) to each side's
/// output, their types (equal on both sides), and the residual bound to
/// the joined row.
struct BoundJoin {
  std::vector<BoundCompiled> left_keys, right_keys;
  std::vector<DataTypePtr> key_types;
  ExprPtr residual;
};

/// Shared shape of the equi-join operators: key expressions per side plus
/// an optional residual (non-equi) condition evaluated on the joined row.
class JoinExecBase : public PhysicalPlan {
 public:
  JoinExecBase(PhysPtr left, PhysPtr right, ExprVector left_keys,
               ExprVector right_keys, JoinType join_type, ExprPtr residual);

  std::vector<PhysPtr> Children() const override { return {left_, right_}; }
  AttributeVector Output() const override;
  std::string Describe() const override;

 protected:
  /// Throws when a key's types differ between the sides.
  BoundJoin Bind(QueryContext& ctx) const;

  /// Width of a null-extended row for the non-matching right side.
  size_t RightWidth() const { return right_->Output().size(); }

  PhysPtr left_;
  PhysPtr right_;
  ExprVector left_keys_;   // reference left output
  ExprVector right_keys_;  // reference right output
  JoinType join_type_;
  ExprPtr residual_;  // references joined output; may be null
};

/// Broadcast hash join (Section 4.3.3): the build side — estimated small by
/// the cost model — is collected once ("broadcast") into a key table; each
/// streamed partition probes it without any shuffle. Supports Inner,
/// LeftOuter, LeftSemi and LeftAnti with the right side as build.
class BroadcastHashJoinExec : public JoinExecBase {
 public:
  using JoinExecBase::JoinExecBase;
  std::string NodeName() const override { return "BroadcastHashJoin"; }
  RowDataset ExecuteImpl(QueryContext& ctx) const override;

  /// Batched probe: when the streamed (left) side produces batches, probe
  /// keys evaluate as whole columns and hash into the key table, and only
  /// probe rows that produce output are boxed. The build side is collected
  /// as rows — it is small by construction — and the output is rows.
  bool ReadsBatches(const EngineConfig& config) const override {
    return left_->ProducesBatches(config);
  }
};

/// Shuffle hash join: both sides are hash-partitioned by key, then each
/// pair of co-located partitions is hash-joined. Supports all join types.
class ShuffleHashJoinExec : public JoinExecBase {
 public:
  using JoinExecBase::JoinExecBase;
  std::string NodeName() const override { return "ShuffleHashJoin"; }
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
};

/// Nested loop join for non-equi conditions and cross joins. The right
/// side is collected and every streamed row is tested against it.
class NestedLoopJoinExec : public PhysicalPlan {
 public:
  NestedLoopJoinExec(PhysPtr left, PhysPtr right, JoinType join_type,
                     ExprPtr condition);

  std::string NodeName() const override { return "NestedLoopJoin"; }
  std::vector<PhysPtr> Children() const override { return {left_, right_}; }
  AttributeVector Output() const override;
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override;

 private:
  PhysPtr left_;
  PhysPtr right_;
  JoinType join_type_;
  ExprPtr condition_;  // references joined output; may be null
};

}  // namespace ssql

#endif  // SSQL_EXEC_JOIN_EXEC_H_

#include "exec/join_exec.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "exec/exchange_exec.h"
#include "exec/key_table.h"
#include "util/spill_file.h"

namespace ssql {

namespace {

/// Buckets a Grace-partitioned join scatters each side into.
constexpr size_t kJoinSpillFanout = 16;

/// End of a build-row chain.
constexpr uint32_t kEnd = KeyTable::kNone;

/// An all-null row of `width` columns, for null-extending outer joins.
Row Nulls(size_t width) { return Row(std::vector<Value>(width)); }

/// A hash join's build side, right of the join: a KeyTable over its rows'
/// keys, and chains threading each key's rows in build order (first[id] ->
/// next[row] -> ... -> kEnd). Null-key rows are in no chain; outer joins
/// still emit them unmatched. With no key columns every row shares one
/// chain, which is the nested-loop join.
struct HashBuild {
  HashBuild(QueryContext& ctx, const BoundJoin& bound, JoinType join_type,
            size_t right_width)
      : bound(bound),
        table(ctx.memory(), bound.key_types, /*nulls_match=*/false,
              sizeof(uint32_t)),
        type(join_type),
        width(right_width) {}

  /// Indexes `build_rows`, which must outlive the build: charges their
  /// payload and chains, then the key index as it grows. False when
  /// `admit` refused a grant; the build is then cleared.
  bool Index(QueryContext& ctx, const std::vector<Row>& build_rows,
             const KeyTable::Admit& admit) {
    int64_t payload = 0;  // the rows plus their 4-byte `next` links
    for (const Row& r : build_rows) payload += EstimateRowBytes(r) + 4;
    rows = &build_rows;
    next.resize(build_rows.size());
    bool indexed = table.Charge(payload, admit);
    InputReader reader(bound.right_keys);
    KeyChunk chunk;
    size_t cancel_rows = 0;
    for (size_t start = 0; indexed && start < build_rows.size();
         start += kChunkRows) {
      const size_t n = std::min(kChunkRows, build_rows.size() - start);
      ctx.CheckCancelledEveryRows(&cancel_rows, n);
      table.Hash(reader.Read(&build_rows[start], n).data(), n, &chunk);
      indexed = table.Resolve(chunk, 0, n, &next[start], admit) == n;
    }
    if (!indexed) {
      Clear();
      return false;
    }
    // `next` holds each row's key id; walk back, prepending to its chain.
    first.assign(table.size(), kEnd);
    for (size_t r = build_rows.size(); r-- > 0;) {
      const uint32_t id = next[r];
      if (id == kEnd) continue;
      next[r] = first[id];
      first[id] = static_cast<uint32_t>(r);
    }
    return true;
  }

  /// Collects a broadcast or nested-loop build side into `collected`,
  /// counted as broadcast and build rows, and indexes it. Neither build
  /// can spill (every probe task needs the whole of it), so going over
  /// budget is a hard error; the planner avoids this by capping the
  /// broadcast threshold at the memory limit.
  void Collect(QueryContext& ctx, const PhysicalPlan& side, bool nested_loop) {
    collected = side.Execute(ctx).Collect();
    const auto n = static_cast<int64_t>(collected.size());
    ctx.profile().Add(nullptr, ProfileCounter::kBroadcastRows, n);
    ctx.profile().Add(nullptr, ProfileCounter::kBuildRows, n);
    Index(ctx, collected, [&](int64_t bytes) -> bool {
      throw ExecutionError(
          "query memory limit of " +
          std::to_string(ctx.memory().limit_bytes()) + " bytes exceeded by " +
          (nested_loop ? "join.nested_loop" : "join.broadcast") +
          " build side (~" + std::to_string(table.bytes() + bytes) +
          " bytes); " +
          (nested_loop ? "nested-loop builds cannot spill — raise "
                         "query_memory_limit_bytes"
                       : "broadcast joins cannot spill — raise "
                         "query_memory_limit_bytes or lower "
                         "broadcast_threshold_bytes so the planner picks a "
                         "shuffle join"));
    });
  }

  void Clear() {
    table.Reset();
    std::vector<uint32_t>().swap(first);
    std::vector<uint32_t>().swap(next);
  }

  const BoundJoin& bound;
  KeyTable table;
  const JoinType type;
  const size_t width;  // of a null-extended build row
  std::vector<Row> collected;
  const std::vector<Row>* rows = nullptr;
  std::vector<uint32_t> first;
  std::vector<uint32_t> next;
};

/// The one hash-join probe. Hashes a chunk of `n` probe keys, finds each in
/// `build`, walks its chain, applies the residual and emits per join type.
/// `probe(k)` yields probe row k and is called at most once, only for rows
/// that can produce output. Build rows that find a partner are flagged in
/// `matched` when given (right/full outer).
template <typename Probe, typename Emit>
void ProbeChunk(QueryContext& ctx, const HashBuild& build,
                const KeyTable::Columns& keys, size_t n, KeyChunk* chunk,
                Probe&& probe, Emit&& emit, std::vector<uint8_t>* matched) {
  const Expression* residual = build.bound.residual.get();
  const bool semi = build.type == JoinType::kLeftSemi;
  const bool anti = build.type == JoinType::kLeftAnti;
  const bool left_outer = build.type == JoinType::kLeftOuter ||
                          build.type == JoinType::kFullOuter;
  size_t cancel_check = 0;
  build.table.Hash(keys.data(), n, chunk);
  for (size_t k = 0; k < n; ++k) {
    const uint32_t id = build.table.Find(*chunk, k);
    if (id == kEnd && !anti && !left_outer) continue;
    const Row& row = probe(k);
    bool hit = false;
    for (uint32_t b = id == kEnd ? kEnd : build.first[id]; b != kEnd;
         b = build.next[b]) {
      ctx.CheckCancelledEvery(&cancel_check);
      Row joined = Row::Concat(row, (*build.rows)[b]);
      if (residual && !EvalPredicate(*residual, joined)) continue;
      hit = true;
      if (matched != nullptr) (*matched)[b] = 1;
      if (semi || anti) break;
      emit(std::move(joined));
    }
    if ((semi && hit) || (anti && !hit)) emit(Row(row));
    if (left_outer && !hit) emit(Row::Concat(row, Nulls(build.width)));
  }
}

/// Probes `build` with `n` rows a chunk at a time, appending to `out`.
void ProbeRows(QueryContext& ctx, const HashBuild& build, InputReader& reader,
               const Row* rows, size_t n, std::vector<Row>* out,
               std::vector<uint8_t>* matched) {
  KeyChunk chunk;
  size_t cancel_rows = 0;
  for (size_t start = 0; start < n; start += kChunkRows) {
    const size_t m = std::min(kChunkRows, n - start);
    ctx.CheckCancelledEveryRows(&cancel_rows, m);
    ProbeChunk(
        ctx, build, reader.Read(rows + start, m), m, &chunk,
        [&](size_t k) -> const Row& { return rows[start + k]; },
        [&](Row&& r) { out->push_back(std::move(r)); }, matched);
  }
}

/// A broadcast or nested-loop join: collects and indexes the right side,
/// then probes it with each partition of the left.
RowDataset BroadcastJoin(QueryContext& ctx, const PhysicalPlan& left,
                         const PhysicalPlan& right, const BoundJoin& bound,
                         JoinType type, bool nested_loop) {
  HashBuild build(ctx, bound, type, right.Output().size());
  build.Collect(ctx, right, nested_loop);
  RowDataset stream = left.Execute(ctx);
  ctx.profile().Add(nullptr, ProfileCounter::kProbeRows,
                    static_cast<int64_t>(stream.TotalRows()));
  return stream.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
    auto out = std::make_shared<RowPartition>();
    InputReader reader(bound.left_keys);
    ProbeRows(ctx, build, reader, part.rows.data(), part.rows.size(),
              &out->rows, nullptr);
    return out;
  }, "join.probe");
}

/// Executes `side` hash-partitioned by its join keys.
RowDataset ShuffleByKeys(QueryContext& ctx, const PhysicalPlan& side,
                         const std::vector<BoundCompiled>& keys) {
  ExprVector bound;
  for (const BoundCompiled& k : keys) bound.push_back(k.bound);
  return side.Execute(ctx).ShuffleByHash(
      ctx, ctx.config().default_parallelism,
      [&](const Row& row) { return HashRowKeys(row, bound); });
}

}  // namespace

JoinExecBase::JoinExecBase(PhysPtr left, PhysPtr right, ExprVector left_keys,
                           ExprVector right_keys, JoinType join_type,
                           ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      join_type_(join_type),
      residual_(std::move(residual)) {}

AttributeVector JoinExecBase::Output() const {
  AttributeVector out;
  auto left_out = left_->Output();
  auto right_out = right_->Output();
  bool left_nullable = join_type_ == JoinType::kRightOuter ||
                       join_type_ == JoinType::kFullOuter;
  bool right_nullable = join_type_ == JoinType::kLeftOuter ||
                        join_type_ == JoinType::kFullOuter;
  for (const auto& a : left_out) {
    out.push_back(left_nullable ? a->WithNullability(true) : a);
  }
  if (join_type_ != JoinType::kLeftSemi && join_type_ != JoinType::kLeftAnti) {
    for (const auto& a : right_out) {
      out.push_back(right_nullable ? a->WithNullability(true) : a);
    }
  }
  return out;
}

std::string JoinExecBase::Describe() const {
  std::string s = NodeName() + " " + JoinTypeName(join_type_) + " keys: (";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) s += ", ";
    s += left_keys_[i]->ToString() + " = " + right_keys_[i]->ToString();
  }
  s += ")";
  if (residual_) s += " residual: " + residual_->ToString();
  return s;
}

BoundJoin JoinExecBase::Bind(QueryContext& ctx) const {
  const AttributeVector left_out = left_->Output();
  const AttributeVector right_out = right_->Output();
  AttributeVector joined_out = left_out;
  joined_out.insert(joined_out.end(), right_out.begin(), right_out.end());
  const bool codegen = ctx.config().codegen_enabled;
  BoundJoin bound;
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    // Analysis casts both operands of a join's EqualTo to a common type, so
    // one key table serves both sides.
    const DataTypePtr& lt = left_keys_[i]->data_type();
    const DataTypePtr& rt = right_keys_[i]->data_type();
    if (!lt->Equals(*rt)) {
      throw ExecutionError(NodeName() + " key " + std::to_string(i) +
                           " has type " + lt->ToString() + " on the left but " +
                           rt->ToString() + " on the right");
    }
    bound.key_types.push_back(lt);
    bound.left_keys.push_back(BindAndCompile(left_keys_[i], left_out, codegen));
    bound.right_keys.push_back(
        BindAndCompile(right_keys_[i], right_out, codegen));
  }
  if (residual_) bound.residual = BindReferences(residual_, joined_out);
  return bound;
}

RowDataset BroadcastHashJoinExec::ExecuteImpl(QueryContext& ctx) const {
  const BoundJoin bound = Bind(ctx);
  if (!ReadsBatches(ctx.config())) {
    return BroadcastJoin(ctx, *left_, *right_, bound, join_type_,
                         /*nested_loop=*/false);
  }
  HashBuild build(ctx, bound, join_type_, RightWidth());
  build.Collect(ctx, *right_, /*nested_loop=*/false);

  BatchDataset stream = left_->ExecuteBatches(ctx);
  ctx.profile().Add(nullptr, ProfileCounter::kProbeRows,
                    static_cast<int64_t>(stream.TotalRows()));
  return stream.MapToRows(ctx, [&](size_t, const BatchPartition& part) {
    // Keys evaluate as whole columns per batch; only rows that produce
    // output are boxed.
    auto out = std::make_shared<RowPartition>();
    InputReader reader(bound.left_keys);
    KeyChunk chunk;
    Row boxed;
    size_t cancel_rows = 0;
    for (const RowBatchPtr& batch : part.batches) {
      const size_t n = batch->ActiveRows();
      if (n == 0) continue;
      ctx.CheckCancelledEveryRows(&cancel_rows, n);
      ProbeChunk(
          ctx, build, reader.Read(*batch), n, &chunk,
          [&](size_t k) -> const Row& {
            boxed = batch->BoxRow(batch->ActiveIndex(k));
            return boxed;
          },
          [&](Row&& row) { out->rows.push_back(std::move(row)); }, nullptr);
    }
    return out;
  }, "join.probe");
}

RowDataset ShuffleHashJoinExec::ExecuteImpl(QueryContext& ctx) const {
  const BoundJoin bound = Bind(ctx);
  RowDataset left_shuffled = ShuffleByKeys(ctx, *left_, bound.left_keys);
  RowDataset right_shuffled = ShuffleByKeys(ctx, *right_, bound.right_keys);
  const bool right_outer = join_type_ == JoinType::kRightOuter ||
                           join_type_ == JoinType::kFullOuter;
  const Row left_nulls = Nulls(left_->Output().size());

  return left_shuffled.MapPartitions(ctx, [&](size_t p, const RowPartition&
                                                            left_part) {
    const RowPartition& right_part = *right_shuffled.partition(p);
    auto out = std::make_shared<RowPartition>();
    ctx.profile().Add(nullptr, ProfileCounter::kBuildRows,
                      static_cast<int64_t>(right_part.rows.size()));
    ctx.profile().Add(nullptr, ProfileCounter::kProbeRows,
                      static_cast<int64_t>(left_part.rows.size()));
    HashBuild build(ctx, bound, join_type_, RightWidth());
    InputReader reader(bound.left_keys);

    // One hash-join pass: probe `build` with `n` rows, then with the rows
    // `more` streams in (a Grace bucket's probe file), then emit the build
    // rows nothing matched (right/full outer). Correct per Grace bucket
    // too: equal keys share a bucket and every input row lands in exactly
    // one, so each unmatched row is emitted exactly once.
    std::vector<uint8_t> matched;
    auto join_pass = [&](const Row* rows, size_t n, SpillFile::Reader* more) {
      std::vector<uint8_t>* marks = right_outer ? &matched : nullptr;
      matched.assign(right_outer ? build.rows->size() : 0, 0);
      ProbeRows(ctx, build, reader, rows, n, &out->rows, marks);
      for (std::vector<Row> chunk(kChunkRows); more != nullptr;) {
        size_t m = 0;
        while (m < kChunkRows && more->Next(&chunk[m])) ++m;
        if (m == 0) break;
        ProbeRows(ctx, build, reader, chunk.data(), m, &out->rows, marks);
      }
      for (size_t i = 0; i < matched.size(); ++i) {
        if (matched[i] == 0) {
          out->rows.push_back(Row::Concat(left_nulls, (*build.rows)[i]));
        }
      }
    };

    if (build.Index(ctx, right_part.rows, [](int64_t) { return false; })) {
      join_pass(left_part.rows.data(), left_part.rows.size(), nullptr);
      return out;
    }
    if (!ctx.memory().spill_enabled()) {
      throw ExecutionError(ctx.memory().OverBudgetMessage("join.build"));
    }

    // Grace fallback: scatter both sides to disk by mixed key hash, then
    // join bucket by bucket with a 1/kJoinSpillFanout-sized build table.
    // Null-key rows scatter by their (deterministic) null hash and never
    // match, which preserves outer/anti semantics within their bucket.
    struct BucketPair {
      std::optional<SpillFile> build, probe;
    };
    std::vector<BucketPair> buckets(kJoinSpillFanout);
    int64_t wrote = 0, files_created = 0;
    auto scatter = [&](const std::vector<Row>& rows,
                       const std::vector<BoundCompiled>& keys,
                       bool build_side) {
      InputReader side_reader(keys);
      KeyChunk chunk;
      size_t cancel_rows = 0;
      for (size_t start = 0; start < rows.size(); start += kChunkRows) {
        const size_t n = std::min(kChunkRows, rows.size() - start);
        ctx.CheckCancelledEveryRows(&cancel_rows, n);
        build.table.Hash(side_reader.Read(&rows[start], n).data(), n, &chunk);
        for (size_t k = 0; k < n; ++k) {
          size_t b = MixHash64(chunk.hashes[k]) % kJoinSpillFanout;
          auto& file = build_side ? buckets[b].build : buckets[b].probe;
          if (!file) {
            file.emplace(
                ctx.MakeSpillFile(build_side ? "join-build" : "join-probe"));
            ++files_created;
          }
          wrote += file->Append(rows[start + k]);
        }
      }
    };
    scatter(right_part.rows, bound.right_keys, /*build_side=*/true);
    scatter(left_part.rows, bound.left_keys, /*build_side=*/false);
    ctx.RecordSpill(files_created, wrote);

    size_t cancel_check = 0;
    for (auto& bucket : buckets) {
      std::vector<Row> build_rows;
      if (bucket.build) {
        bucket.build->FinishWrites();
        build_rows.reserve(bucket.build->row_count());
        SpillFile::Reader in(*bucket.build);
        for (Row row; in.Next(&row);) {
          ctx.CheckCancelledEvery(&cancel_check);
          build_rows.push_back(std::move(row));
        }
      }
      // A bucket that still exceeds the budget is joined anyway
      // (single-level recursion); the overshoot is bounded by the fanout.
      build.Index(ctx, build_rows, [](int64_t) { return true; });
      std::optional<SpillFile::Reader> probe;
      if (bucket.probe) {
        bucket.probe->FinishWrites();
        probe.emplace(*bucket.probe);
      }
      join_pass(nullptr, 0, probe ? &*probe : nullptr);
      build.Clear();
      bucket.build.reset();  // delete each pair as soon as it is joined
      bucket.probe.reset();
    }
    return out;
  }, "join.probe");
}

NestedLoopJoinExec::NestedLoopJoinExec(PhysPtr left, PhysPtr right,
                                       JoinType join_type, ExprPtr condition)
    : left_(std::move(left)),
      right_(std::move(right)),
      join_type_(join_type),
      condition_(std::move(condition)) {}

AttributeVector NestedLoopJoinExec::Output() const {
  AttributeVector out = left_->Output();
  if (join_type_ != JoinType::kLeftSemi && join_type_ != JoinType::kLeftAnti) {
    auto right_out = right_->Output();
    bool right_nullable = join_type_ == JoinType::kLeftOuter;
    for (const auto& a : right_out) {
      out.push_back(right_nullable ? a->WithNullability(true) : a);
    }
  }
  return out;
}

RowDataset NestedLoopJoinExec::ExecuteImpl(QueryContext& ctx) const {
  if (join_type_ == JoinType::kRightOuter || join_type_ == JoinType::kFullOuter) {
    throw ExecutionError(
        "NestedLoopJoin does not support right/full outer joins");
  }
  // No key columns: every build row sits on one chain, and the condition
  // is the residual.
  AttributeVector joined_out = left_->Output();
  for (const auto& a : right_->Output()) joined_out.push_back(a);
  BoundJoin bound;
  if (condition_) bound.residual = BindReferences(condition_, joined_out);
  return BroadcastJoin(ctx, *left_, *right_, bound, join_type_,
                       /*nested_loop=*/true);
}

std::string NestedLoopJoinExec::Describe() const {
  std::string s = "NestedLoopJoin " + JoinTypeName(join_type_);
  if (condition_) s += " condition: " + condition_->ToString();
  return s;
}

}  // namespace ssql

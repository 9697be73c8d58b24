#include "columnar/row_batch.h"

#include <algorithm>

namespace ssql {

RowBatch::RowBatch(const std::vector<DataTypePtr>& types) {
  columns_.reserve(types.size());
  for (const auto& t : types) {
    columns_.push_back(std::make_shared<ColumnVector>(t));
  }
}

RowBatch::RowBatch(std::vector<std::shared_ptr<ColumnVector>> columns)
    : columns_(std::move(columns)) {
  num_rows_ = columns_.empty() ? 0 : columns_[0]->size();
  for (const auto& c : columns_) {
    assert(c->size() == num_rows_ && "RowBatch columns of unequal size");
    (void)c;
  }
}

RowBatchPtr RowBatch::NoColumns(size_t num_rows) {
  auto out = std::make_shared<RowBatch>(std::vector<DataTypePtr>{});
  out->num_rows_ = num_rows;
  return out;
}

RowBatchPtr RowBatch::FilterView(const RowBatchPtr& src,
                                 std::vector<uint32_t> sel) {
  auto out = std::make_shared<RowBatch>(src->columns_);
  out->has_selection_ = true;
  out->selection_ = std::move(sel);
  return out;
}

void RowBatch::AppendRow(const Row& row) {
  assert(!has_selection_ && "AppendRow on a batch with a selection");
  assert(row.size() == columns_.size() && "row arity != batch arity");
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c]->Append(row.Get(c));
  }
  ++num_rows_;
}

Row RowBatch::BoxRow(size_t i) const {
  Row row;
  row.Reserve(columns_.size());
  for (const auto& c : columns_) row.Append(c->GetValue(i));
  return row;
}

void RowBatch::AppendActiveRowsTo(std::vector<Row>* out) const {
  size_t n = ActiveRows();
  out->reserve(out->size() + n);
  for (size_t k = 0; k < n; ++k) out->push_back(BoxRow(ActiveIndex(k)));
}

void PackRowsIntoBatches(const std::vector<Row>& rows,
                         const std::vector<DataTypePtr>& types,
                         size_t batch_size,
                         std::vector<RowBatchPtr>* out) {
  if (batch_size == 0) batch_size = 1;
  for (size_t offset = 0; offset < rows.size(); offset += batch_size) {
    size_t n = std::min(batch_size, rows.size() - offset);
    auto batch = std::make_shared<RowBatch>(types);
    for (size_t c = 0; c < types.size(); ++c) {
      batch->mutable_column(c)->Reserve(n);
    }
    for (size_t i = 0; i < n; ++i) batch->AppendRow(rows[offset + i]);
    out->push_back(std::move(batch));
  }
}

}  // namespace ssql

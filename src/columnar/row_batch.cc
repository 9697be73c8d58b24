#include "columnar/row_batch.h"

#include <cassert>

namespace ssql {

RowBatch::RowBatch(std::vector<std::shared_ptr<ColumnVector>> columns)
    : columns_(std::move(columns)) {
  num_rows_ = columns_.empty() ? 0 : columns_[0]->size();
  for (const auto& c : columns_) {
    assert(c->size() == num_rows_ && "RowBatch columns of unequal size");
    (void)c;
  }
}

RowBatchPtr RowBatch::NoColumns(size_t num_rows) {
  auto out =
      std::make_shared<RowBatch>(std::vector<std::shared_ptr<ColumnVector>>{});
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

}  // namespace ssql

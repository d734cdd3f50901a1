#include "db/table.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace p4db::db {

Table::Table(TableId id, std::string name, uint16_t num_columns,
             PartitionSpec partition, std::vector<Value64> default_row)
    : id_(id),
      name_(std::move(name)),
      num_columns_(num_columns),
      partition_(partition),
      default_row_(std::move(default_row)) {
  if (default_row_.empty()) default_row_.assign(num_columns_, 0);
  assert(num_columns_ > 0 && default_row_.size() == num_columns_);
}

Row Table::GetOrCreate(Key key) {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (concurrent_) lock.lock();
  auto [row, inserted] = rows_.try_emplace(key, nullptr);
  if (inserted) {
    *row = arena_.AllocateArray<Value64>(num_columns_);
    std::copy(default_row_.begin(), default_row_.end(), *row);
  }
  return Row(*row, num_columns_);
}

std::span<const Value64> Table::Find(Key key) const {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (concurrent_) lock.lock();
  Value64* const* row = rows_.find(key);
  if (row == nullptr) return {};
  return {*row, num_columns_};
}

void Table::Reserve(size_t rows) {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (concurrent_) lock.lock();
  if (rows <= rows_.size()) return;
  rows_.reserve(rows);
  arena_.Reserve((rows - rows_.size()) * num_columns_ * sizeof(Value64),
                 alignof(Value64));
}

TableId Catalog::CreateTable(std::string name, uint16_t num_columns,
                             PartitionSpec partition,
                             std::vector<Value64> default_row) {
  const TableId id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::make_unique<Table>(
      id, std::move(name), num_columns, partition, std::move(default_row)));
  return id;
}

}  // namespace p4db::db

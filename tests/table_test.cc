#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "db/table.h"

namespace p4db::db {
namespace {

TEST(PartitionSpecTest, RoundRobin) {
  PartitionSpec p;
  p.kind = PartitionSpec::Kind::kRoundRobin;
  EXPECT_EQ(p.OwnerOf(0, 4), 0);
  EXPECT_EQ(p.OwnerOf(5, 4), 1);
  EXPECT_EQ(p.OwnerOf(7, 4), 3);
}

TEST(PartitionSpecTest, Range) {
  PartitionSpec p;
  p.kind = PartitionSpec::Kind::kRange;
  p.block = 100;
  EXPECT_EQ(p.OwnerOf(0, 4), 0);
  EXPECT_EQ(p.OwnerOf(99, 4), 0);
  EXPECT_EQ(p.OwnerOf(100, 4), 1);
  EXPECT_EQ(p.OwnerOf(450, 4), 0);  // wraps
}

TEST(PartitionSpecTest, ByHighBits) {
  PartitionSpec p;
  p.kind = PartitionSpec::Kind::kByHighBits;
  p.shift = 8;
  EXPECT_EQ(p.OwnerOf(0x0300, 4), 3);
  EXPECT_EQ(p.OwnerOf(0x04FF, 4), 0);
}

std::vector<Value64> Values(std::span<const Value64> row) {
  return {row.begin(), row.end()};
}

TEST(TableTest, LazyRowsUseDefaults) {
  Table t(0, "t", 2, PartitionSpec{}, {7, 8});
  EXPECT_EQ(t.materialized_rows(), 0u);
  Row r = t.GetOrCreate(42);
  EXPECT_EQ(Values(r), (std::vector<Value64>{7, 8}));
  EXPECT_EQ(t.materialized_rows(), 1u);
}

TEST(TableTest, DefaultRowIsZerosWhenUnspecified) {
  Table t(0, "t", 3, PartitionSpec{});
  EXPECT_EQ(Values(t.GetOrCreate(1)), (std::vector<Value64>{0, 0, 0}));
}

TEST(TableTest, FindDoesNotMaterialize) {
  Table t(0, "t", 1, PartitionSpec{});
  EXPECT_TRUE(t.Find(5).empty());
  EXPECT_EQ(t.materialized_rows(), 0u);
  t.GetOrCreate(5)[0] = 9;
  ASSERT_EQ(t.Find(5).size(), 1u);
  EXPECT_EQ(t.Find(5)[0], 9);
}

TEST(TableTest, MutationsPersist) {
  Table t(0, "t", 1, PartitionSpec{});
  t.GetOrCreate(3)[0] = 5;
  t.GetOrCreate(3)[0] += 2;
  EXPECT_EQ(t.GetOrCreate(3)[0], 7);
  EXPECT_EQ(t.materialized_rows(), 1u);
}

TEST(TableTest, RowsStayPutAcrossIndexAndArenaGrowth) {
  // 100k two-column rows: the index doubles from 16 slots to 2^17 and the
  // arena (64 KiB chunks, 16 bytes a row) opens 25 chunks, so the handle
  // taken first outlives many rehashes and chunk changes.
  Table t(0, "t", 2, PartitionSpec{}, {3, 4});
  const Row first = t.GetOrCreate(0);
  first[0] = 11;
  constexpr Key kRows = 100000;
  for (Key k = 1; k < kRows; ++k) {
    t.GetOrCreate(k)[1] = static_cast<Value64>(k);
  }
  EXPECT_EQ(t.materialized_rows(), kRows);
  EXPECT_EQ(t.GetOrCreate(0).data(), first.data());
  EXPECT_EQ(Values(first), (std::vector<Value64>{11, 4}));
  first[1] = 12;
  EXPECT_EQ(Values(t.Find(0)), (std::vector<Value64>{11, 12}));
  for (Key k = 1; k < kRows; ++k) {
    const std::vector<Value64> want = {3, static_cast<Value64>(k)};
    ASSERT_EQ(Values(t.Find(k)), want) << "key " << k;
  }
}

TEST(TableTest, ConcurrentMaterializationKeepsEveryRowIntact) {
  // Four threads materialize overlapping key ranges through the same index
  // and arena growth. Thread i owns column i + 1, so the writes never
  // conflict (row content is the lock managers' job, not the table's);
  // what must hold is that every row lands once, with its defaults, at a
  // stable address.
  constexpr int kThreads = 4;
  constexpr Key kSpan = 40000;  // each range overlaps its neighbor by half
  constexpr Key kStride = kSpan / 2;
  Table t(0, "t", kThreads + 1, PartitionSpec{}, {7, 0, 0, 0, 0});
  t.EnableConcurrentAccess();
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t, i] {
      const Key lo = static_cast<Key>(i) * kStride;
      for (Key k = lo; k < lo + kSpan; ++k) {
        t.GetOrCreate(k)[i + 1] = static_cast<Value64>(k * 10 + i + 1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const Key end = (kThreads - 1) * kStride + kSpan;
  EXPECT_EQ(t.materialized_rows(), end);
  for (Key k = 0; k < end; ++k) {
    std::vector<Value64> want = {7, 0, 0, 0, 0};
    for (int i = 0; i < kThreads; ++i) {
      const Key lo = static_cast<Key>(i) * kStride;
      if (k >= lo && k < lo + kSpan) {
        want[i + 1] = static_cast<Value64>(k * 10 + i + 1);
      }
    }
    ASSERT_EQ(Values(t.Find(k)), want) << "key " << k;
  }
}

TEST(CatalogTest, CreateAndAccessTables) {
  Catalog cat(4);
  const TableId a = cat.CreateTable("a", 1, PartitionSpec{});
  const TableId b = cat.CreateTable("b", 2, PartitionSpec{});
  EXPECT_EQ(cat.num_tables(), 2u);
  EXPECT_EQ(cat.table(a).name(), "a");
  EXPECT_EQ(cat.table(b).num_columns(), 2);
  EXPECT_NE(a, b);
}

TEST(CatalogTest, OwnerOfUsesTableSpec) {
  Catalog cat(4);
  PartitionSpec range;
  range.kind = PartitionSpec::Kind::kRange;
  range.block = 10;
  const TableId a = cat.CreateTable("a", 1, PartitionSpec{});  // round robin
  const TableId b = cat.CreateTable("b", 1, range);
  EXPECT_EQ(cat.OwnerOf(TupleId{a, 5}), 1);
  EXPECT_EQ(cat.OwnerOf(TupleId{b, 5}), 0);
  EXPECT_EQ(cat.OwnerOf(TupleId{b, 25}), 2);
}

TEST(CatalogTest, ReplicatedTablesAreFlagged) {
  Catalog cat(4);
  PartitionSpec repl;
  repl.kind = PartitionSpec::Kind::kReplicated;
  const TableId a = cat.CreateTable("item", 1, repl);
  const TableId b = cat.CreateTable("x", 1, PartitionSpec{});
  EXPECT_TRUE(cat.IsReplicated(a));
  EXPECT_FALSE(cat.IsReplicated(b));
}

}  // namespace
}  // namespace p4db::db

// SparseBytes, the store behind simulated memory and iod files: random
// map/write/read/unmap sequences are checked against a flat byte vector
// (contents) and a per-page table (which pages are mapped, and by which run).
#include "common/sparse_bytes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace pvfsib {
namespace {

std::vector<std::byte> pattern(u64 n, u8 seed) {
  std::vector<std::byte> v(n);
  for (u64 i = 0; i < n; ++i) v[i] = std::byte{static_cast<u8>(seed + i * 7)};
  return v;
}

TEST(SparseBytes, UnmappedBytesReadZero) {
  SparseBytes s;
  std::vector<std::byte> buf(100, std::byte{0xff});
  s.read(12345, buf);
  for (const std::byte b : buf) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(s.bytes(), 0u);
  EXPECT_TRUE(s.mapped_within({0, 1 * kMiB}).empty());
}

TEST(SparseBytes, WriteMapsOnlyThePagesOfItsGaps) {
  SparseBytes s;
  s.map(4 * kPageSize, kPageSize);
  s.write(3 * kPageSize + 10, pattern(2 * kPageSize, 1));
  // Page 3 and page 5 were gaps; page 4 was already a run.
  EXPECT_EQ(s.bytes(), 3 * kPageSize);
  const ExtentList m = s.mapped_within({0, 10 * kPageSize});
  ASSERT_EQ(m.size(), 1u);  // three touching runs report as one extent
  EXPECT_EQ(m[0], (Extent{3 * kPageSize, 3 * kPageSize}));
  // The page-rounding bytes the write did not cover stay zero.
  EXPECT_EQ(s.span(3 * kPageSize, 10)[9], std::byte{0});
  EXPECT_EQ(s.span(4 * kPageSize, 1)[0],
            pattern(2 * kPageSize, 1)[kPageSize - 10]);
}

TEST(SparseBytes, SpanNeverMovesWhenOtherRunsAreMapped) {
  SparseBytes s;
  s.map(0, kPageSize);
  const std::span<std::byte> a = s.span(0, kPageSize);
  s.map(kPageSize, 64 * kMiB);
  s.write(128 * kMiB, pattern(10, 3));
  a[7] = std::byte{42};
  std::vector<std::byte> back(1);
  s.read(7, back);
  EXPECT_EQ(back[0], std::byte{42});
  EXPECT_EQ(s.span(0, kPageSize).data(), a.data());
}

TEST(SparseBytes, UnmapNeedsTheRunStart) {
  SparseBytes s;
  s.map(0, 2 * kPageSize);
  EXPECT_FALSE(s.unmap(kPageSize));
  EXPECT_TRUE(s.unmap(0));
  EXPECT_FALSE(s.unmap(0));
  EXPECT_EQ(s.bytes(), 0u);
}

// Property: after random map/write/unmap sequences the store reads like the
// flat oracle, and mapped_within reports exactly the oracle's mapped pages.
TEST(SparseBytesProperty, MatchesFlatAndPageOracles) {
  constexpr u64 kPages = 96;
  constexpr u64 kSpan = kPages * kPageSize;
  Rng rng(2024);
  SparseBytes s;
  std::vector<std::byte> flat(kSpan);
  std::vector<bool> mapped(kPages);
  std::map<u64, u64> runs;  // first page -> pages, as the store's runs

  // Record a new run over every maximal gap of unmapped pages in [lo, hi).
  const auto oracle_map_gaps = [&](u64 lo, u64 hi) {
    for (u64 p = lo; p < hi; ++p) {
      if (mapped[p]) continue;
      const u64 first = p;
      while (p < hi && !mapped[p]) mapped[p++] = true;
      runs[first] = p - first;
    }
  };

  for (int i = 0; i < 2000; ++i) {
    const double op = rng.uniform01();
    if (op < 0.45) {
      const u64 off = rng.below(kSpan - 1);
      const u64 len = rng.range(1, std::min<u64>(3 * kPageSize, kSpan - off));
      const auto data = pattern(len, static_cast<u8>(i));
      s.write(off, data);
      oracle_map_gaps(off / kPageSize, pages_for(off + len));
      std::copy(data.begin(), data.end(), flat.begin() + off);
    } else if (op < 0.55) {
      const u64 first = rng.below(kPages);
      const u64 n = rng.range(1, std::min<u64>(4, kPages - first));
      bool free = true;
      for (u64 p = first; p < first + n; ++p) free = free && !mapped[p];
      if (!free) continue;
      s.map(first * kPageSize, n * kPageSize - rng.below(kPageSize));
      oracle_map_gaps(first, first + n);
    } else if (op < 0.7 && !runs.empty()) {
      auto it = runs.begin();
      std::advance(it, rng.below(runs.size()));
      const auto [first, n] = *it;
      if (n > 1) {
        EXPECT_FALSE(s.unmap((first + 1) * kPageSize));
      }
      ASSERT_TRUE(s.unmap(first * kPageSize));
      for (u64 p = first; p < first + n; ++p) mapped[p] = false;
      std::fill(flat.begin() + first * kPageSize,
                flat.begin() + (first + n) * kPageSize, std::byte{0});
      runs.erase(it);
    } else {
      const u64 off = rng.below(kSpan);
      const u64 len = rng.range(0, kSpan - off);
      std::vector<std::byte> got(len);
      s.read(off, got);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), flat.begin() + off))
          << "iteration " << i << " read [" << off << ", " << off + len << ")";

      ExtentList want;
      for (u64 p = off / kPageSize; p < pages_for(off + len); ++p) {
        const u64 lo = std::max(off, p * kPageSize);
        const u64 hi = std::min(off + len, (p + 1) * kPageSize);
        if (!mapped[p] || lo == hi) continue;
        if (!want.empty() && want.back().end() == lo) {
          want.back().length += hi - lo;
        } else {
          want.push_back({lo, hi - lo});
        }
      }
      ASSERT_EQ(s.mapped_within({off, len}), want)
          << "iteration " << i << " window [" << off << ", " << off + len
          << ")";
    }
    u64 pages = 0;
    for (const bool m : mapped) pages += m ? 1 : 0;
    ASSERT_EQ(s.bytes(), pages * kPageSize) << "iteration " << i;
  }

  // Every run is one block: a span over a whole run reads the oracle's bytes.
  for (const auto& [first, n] : runs) {
    const std::span<const std::byte> run =
        std::as_const(s).span(first * kPageSize, n * kPageSize);
    EXPECT_TRUE(std::equal(run.begin(), run.end(),
                           flat.begin() + first * kPageSize));
  }
}

}  // namespace
}  // namespace pvfsib

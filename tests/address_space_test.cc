#include "vmem/address_space.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "resident_pages.h"

namespace pvfsib::vmem {
namespace {

TEST(AddressSpace, AllocReturnsPageAlignedMappedRange) {
  AddressSpace as;
  const u64 a = as.alloc(100);
  EXPECT_EQ(a % kPageSize, 0u);
  EXPECT_GE(a, AddressSpace::kBaseVaddr);
  EXPECT_TRUE(as.range_allocated(a, 100));
  // The whole page is mapped even though only 100 bytes were asked for.
  EXPECT_TRUE(as.range_allocated(a, kPageSize));
  EXPECT_FALSE(as.range_allocated(a, kPageSize + 1));
}

TEST(AddressSpace, ConsecutiveAllocsAreMerged) {
  AddressSpace as;
  const u64 a = as.alloc(kPageSize);
  const u64 b = as.alloc(kPageSize);
  EXPECT_EQ(b, a + kPageSize);
  EXPECT_TRUE(as.range_allocated(a, 2 * kPageSize));
  EXPECT_EQ(as.allocated_extents().size(), 1u);
}

TEST(AddressSpace, SkipCreatesHole) {
  AddressSpace as;
  const u64 a = as.alloc(kPageSize);
  as.skip(3 * kPageSize);
  const u64 b = as.alloc(kPageSize);
  EXPECT_EQ(b, a + 4 * kPageSize);
  EXPECT_FALSE(as.range_allocated(a, b + kPageSize - a));
  EXPECT_EQ(as.allocated_extents().size(), 2u);
}

TEST(AddressSpace, AllocAtAndOverlapRejection) {
  AddressSpace as;
  const u64 at = AddressSpace::kBaseVaddr + 64 * kPageSize;
  ASSERT_TRUE(as.alloc_at(at, 2 * kPageSize).is_ok());
  EXPECT_TRUE(as.range_allocated(at, 2 * kPageSize));
  // Overlapping remap fails.
  EXPECT_FALSE(as.alloc_at(at + kPageSize, kPageSize).is_ok());
  // Unaligned or below-base fails.
  EXPECT_FALSE(as.alloc_at(at + 10 * kPageSize + 1, kPageSize).is_ok());
  EXPECT_FALSE(as.alloc_at(kPageSize, kPageSize).is_ok());
}

TEST(AddressSpace, FreeUnmaps) {
  AddressSpace as;
  const u64 a = as.alloc(4 * kPageSize);
  const u64 b = as.alloc(4 * kPageSize);
  ASSERT_TRUE(as.free_at(a).is_ok());
  EXPECT_FALSE(as.range_allocated(a, kPageSize));
  EXPECT_TRUE(as.range_allocated(b, 4 * kPageSize));
  // Double free fails.
  EXPECT_FALSE(as.free_at(a).is_ok());
  // Freeing keeps neighbours intact.
  EXPECT_EQ(as.allocated_extents().size(), 1u);
}

TEST(AddressSpace, FreeMiddleSplitsExtent) {
  AddressSpace as;
  const u64 a = as.alloc(kPageSize);
  const u64 b = as.alloc(kPageSize);
  const u64 c = as.alloc(kPageSize);
  ASSERT_TRUE(as.free_at(b).is_ok());
  EXPECT_TRUE(as.range_allocated(a, kPageSize));
  EXPECT_FALSE(as.range_allocated(b, kPageSize));
  EXPECT_TRUE(as.range_allocated(c, kPageSize));
  EXPECT_EQ(as.allocated_extents().size(), 2u);
}

TEST(AddressSpace, AllocatedWithinWindow) {
  AddressSpace as;
  const u64 a = as.alloc(2 * kPageSize);
  as.skip(2 * kPageSize);
  const u64 b = as.alloc(2 * kPageSize);
  const Extent window{a, b + 2 * kPageSize - a};
  const ExtentList got = as.allocated_within(window);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (Extent{a, 2 * kPageSize}));
  EXPECT_EQ(got[1], (Extent{b, 2 * kPageSize}));
  // A window clipping into the middle of extents clips the results.
  const ExtentList clipped =
      as.allocated_within({a + kPageSize, 2 * kPageSize});
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0], (Extent{a + kPageSize, kPageSize}));
}

TEST(AddressSpace, DataReadWrite) {
  AddressSpace as;
  const u64 a = as.alloc(kPageSize);
  as.write_pod<u64>(a + 8, 0xdeadbeefULL);
  EXPECT_EQ(as.read_pod<u64>(a + 8), 0xdeadbeefULL);
  auto span = as.writable_span(a, 16);
  span[0] = std::byte{42};
  EXPECT_EQ(as.readable_span(a, 16)[0], std::byte{42});
}

// A span handed out for one allocation keeps addressing that allocation's
// bytes after a later, much larger allocation.
TEST(AddressSpace, SpanStaysValidAcrossLaterAlloc) {
  AddressSpace as;
  const u64 a = as.alloc(kPageSize);
  const std::span<std::byte> span = as.writable_span(a, 16);
  as.alloc(64 * kMiB);
  span[3] = std::byte{42};
  EXPECT_EQ(as.read_pod<u8>(a + 3), 42);
}

TEST(AddressSpace, BytesMapped) {
  AddressSpace as;
  as.alloc(10);  // one page
  as.skip(kPageSize);
  as.alloc(kPageSize + 1);  // two pages
  EXPECT_EQ(as.bytes_mapped(), 3 * kPageSize);
}

// An allocation holds no host memory until the simulation touches it, also
// after earlier spaces freed theirs: a heap allocator would hand back
// recycled (resident) memory and zero it.
TEST(AddressSpace, UntouchedAllocationsStayNonResident) {
  constexpr u64 kCount = 64;
  constexpr u64 kSize = 4 * kMiB;
  for (int round = 0; round < 4; ++round) {
    AddressSpace as;
    u64 resident = 0;
    for (u64 i = 0; i < kCount; ++i) {
      resident += resident_pages(as.data(as.alloc(kSize)), kSize);
    }
    EXPECT_EQ(resident, 0u) << "round " << round;
  }
}

// Property: after random alloc/skip/free sequences, range_allocated agrees
// with allocated_within on every page.
TEST(AddressSpaceProperty, AllocationMapConsistency) {
  Rng rng(1234);
  AddressSpace as;
  std::vector<u64> live;
  for (int i = 0; i < 300; ++i) {
    const double p = rng.uniform01();
    if (p < 0.5 || live.empty()) {
      live.push_back(as.alloc(rng.range(1, 8 * kPageSize)));
    } else if (p < 0.7) {
      as.skip(rng.range(1, 4 * kPageSize));
    } else {
      const size_t idx = rng.below(live.size());
      ASSERT_TRUE(as.free_at(live[idx]).is_ok());
      live.erase(live.begin() + static_cast<long>(idx));
    }
  }
  const ExtentList all = as.allocated_extents();
  EXPECT_TRUE(is_sorted_disjoint(all));
  // Merged extents never touch (otherwise they'd have been merged).
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i].offset, all[i - 1].end());
  }
  for (const Extent& e : all) {
    EXPECT_TRUE(as.range_allocated(e.offset, e.length));
    EXPECT_FALSE(as.range_allocated(e.offset, e.length + 1));
  }
}

}  // namespace
}  // namespace pvfsib::vmem
